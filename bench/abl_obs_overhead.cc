// Ablation: observability overhead on the gate dispatch fast path.
//
// PR 3's deal is that metrics are always on (plain counter bumps through
// route-resolved pointers) and tracing costs one relaxed atomic load when
// disabled; PR 4 adds the request attributor and flexwatch adds windowed
// time-series capture, all under the same contract. This bench verifies
// every half across five variants — observability off, tracing on,
// tracing + cycle profiler on, the full flexwatch stack (windowing + SLO
// watchdogs), and the flexpath critical-path profiler (tracing + attributor
// + an offline CriticalPath::Build after the timed loop):
//   model cyc/call — must be bit-identical across all five variants in
//                    fresh machines: recording, attribution, window
//                    capture, and critical-path reconstruction happen
//                    outside the cost model, so observability can never
//                    perturb a result. Hard-gated in every mode, including
//                    --smoke.
//   wall ns/call   — observability-off dispatch must stay within noise of
//                    the cached-route fast path (abl_gate_dispatch.cc's
//                    "cached" column); traced/profiled/watched runs may
//                    pay the ring write and snapshot bookkeeping. The
//                    variants take turns within each repetition and keep
//                    their min, as abl_gate_dispatch.cc does. Loosely
//                    gated, full runs only (wall clock is noisy).
// A second hard gate replays the watch variant twice on one backend and
// requires the exported JSON timelines to be byte-identical: window
// closes are driven by virtual time, so same seed means same timeline.
// A third hard gate (critpath variant, enabled builds) requires the
// critical path to reconcile exactly against the gate.latency_ns.*
// histograms AND self-calibrate: every boundary's recorded gate
// nanoseconds must equal crossings x CyclesToNanos(PredictedCrossingCycles)
// for that backend — the profiler's view and the cost model's prediction
// are the same number, not merely close.
// Pass --smoke for a fast CI run with tiny iteration counts.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "core/gate_costs.h"
#include "core/image_builder.h"
#include "obs/critpath.h"
#include "obs/export.h"
#include "obs/timeseries.h"

namespace {

// Window short enough that even --smoke iteration counts close windows on
// every backend (a `none` crossing charges only a handful of cycles).
constexpr uint64_t kWatchWindowCycles = 1000;

// Every window with any gate traffic violates this on purpose, so the
// watchdog evaluation path (measure, compare, count, trace) runs at
// steady state rather than never.
constexpr const char* kWatchdogSpec = "gate.crossings.* value < 1";

}  // namespace

int main(int argc, char** argv) {
  using namespace flexos;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const uint64_t kIters = smoke ? 2000 : 400000;
  // Repetitions per variant; the reported wall time is the min over them.
  const int kReps = 3;
  constexpr int kVariants = 5;

  std::printf("# Observability overhead ablation: net -> app cached-route "
              "crossing, %llu calls per variant, min of %d interleaved "
              "reps%s\n",
              static_cast<unsigned long long>(kIters), kReps,
              smoke ? " (smoke)" : "");
  std::printf("%-14s %10s %10s %10s %10s %10s %12s %14s %9s\n", "backend",
              "obs-off", "trace-on", "profile-on", "watch-on", "critpath",
              "obs-off", "cycles", "wall");
  std::printf("%-14s %10s %10s %10s %10s %10s %12s %14s %9s\n", "",
              "(ns/call)", "(ns/call)", "(ns/call)", "(ns/call)",
              "(ns/call)", "(cyc/call)", "identical?", "ratio");

  bool cycles_ok = true;
  bool watch_ok = true;
  bool critpath_ok = true;
  double max_wall_ratio = 0;
  constexpr IsolationBackend kBackends[] = {
      IsolationBackend::kNone, IsolationBackend::kMpkSharedStack,
      IsolationBackend::kMpkSwitchedStack, IsolationBackend::kVmRpc};
  for (IsolationBackend backend : kBackends) {
    // Five identical machines: one never enables observability (the
    // production default), one traces throughout, one traces and runs the
    // cycle attributor, one adds flexwatch windowing with an SLO watchdog
    // that fires every window, and one runs the flexpath inputs (tracing +
    // attributor) and reconstructs the critical path offline afterwards.
    // Their charged cycles must agree exactly — observability lives
    // outside the cost model. Every variant's measured body polls the
    // time series so the disabled-path cost of the poll itself is part of
    // the obs-off column.
    Machine machines[kVariants];
    std::unique_ptr<Image> images[kVariants];
    RouteHandle routes[kVariants];
    uint64_t sink = 0;
    const auto body = [&sink] { ++sink; };
    for (int variant = 0; variant < kVariants; ++variant) {
      Machine& machine = machines[variant];
      machine.tracer().SetEnabled(variant >= 1);
      if (variant >= 2) {
        machine.attrib().SetEnabled(true, machine.clock().cycles());
      }
      if (variant == 3) {
        machine.timeseries().Enable(kWatchWindowCycles);
        obs::SloSpec spec;
        std::string error;
        if (!obs::ParseSloSpec(kWatchdogSpec, &spec, &error)) {
          std::fprintf(stderr, "bad watchdog spec: %s\n", error.c_str());
          return 1;
        }
        machine.timeseries().AddWatchdog(spec);
      }
      ImageBuilder builder(machine);
      images[variant] = builder.Build(bench::NetOnlyConfig(backend)).value();
      routes[variant] = images[variant]->Resolve(kLibNet, kLibApp);
      for (int i = 0; i < 256; ++i) {
        images[variant]->Call(routes[variant], body);  // Warm caches.
      }
    }
    // The variants take turns within every repetition, so a burst of host
    // noise hits all five alike instead of one whole variant; each keeps
    // its min over the repetitions.
    bench::LoopSample variants[kVariants];
    for (int rep = 0; rep < kReps; ++rep) {
      for (int variant = 0; variant < kVariants; ++variant) {
        Machine& machine = machines[variant];
        Image& image = *images[variant];
        const RouteHandle& route = routes[variant];
        variants[variant].Keep(bench::TimeLoop(machine, kIters, [&] {
          image.Call(route, body);
          machine.PollTimeSeries();
        }));
      }
    }
    const obs::TimeSeries& series = machines[3].timeseries();
    if (series.windows_captured() == 0 || series.violations_total() == 0) {
      std::fprintf(stderr,
                   "watch variant captured %llu windows, %llu violations "
                   "(expected both > 0)\n",
                   static_cast<unsigned long long>(series.windows_captured()),
                   static_cast<unsigned long long>(
                       series.violations_total()));
      watch_ok = false;
    }
    // Offline critical-path reconstruction: must reconcile exactly against
    // the gate histograms, and every boundary must self-calibrate against
    // the cost model's predicted per-crossing cost (uniform 64/16-byte gate
    // frames on this path).
    {
      Machine& machine = machines[4];
      machine.SyncAttribution();
      obs::CriticalPath critpath;
      const Clock& clock = machine.clock();
      critpath.Build(
          machine.attrib(), machine.metrics(), machine.tracer().Snapshot(),
          [&clock](uint64_t cycles) { return clock.CyclesToNanos(cycles); },
          machine.costs().ipi);
      if (!critpath.reconciled()) {
        std::fprintf(stderr, "critpath variant (%s): %s\n",
                     std::string(IsolationBackendName(backend)).c_str(),
                     critpath.reconcile_detail().c_str());
        critpath_ok = false;
      }
      const uint64_t predicted_ns = clock.CyclesToNanos(
          PredictedCrossingCycles(machine.costs(), backend, kGateArgBytes,
                                  kGateRetBytes));
      bool any_boundary = false;
      for (const obs::BoundaryShare& share : critpath.boundaries()) {
        any_boundary = true;
        if (share.gate_ns != share.crossings * predicted_ns) {
          std::fprintf(stderr,
                       "critpath variant (%s): boundary %s recorded "
                       "%llu ns over %llu crossings, cost model predicts "
                       "%llu ns/crossing\n",
                       std::string(IsolationBackendName(backend)).c_str(),
                       share.boundary.c_str(),
                       static_cast<unsigned long long>(share.gate_ns),
                       static_cast<unsigned long long>(share.crossings),
                       static_cast<unsigned long long>(predicted_ns));
          critpath_ok = false;
        }
      }
      if (!any_boundary) {
        std::fprintf(stderr,
                     "critpath variant (%s): no gate boundaries found\n",
                     std::string(IsolationBackendName(backend)).c_str());
        critpath_ok = false;
      }
    }
    const bench::LoopSample& off = variants[0];
    const bench::LoopSample& traced = variants[1];
    const bench::LoopSample& profiled = variants[2];
    const bench::LoopSample& watched = variants[3];
    const bench::LoopSample& critpathed = variants[4];

    const bool identical =
        off.model_cycles_total == traced.model_cycles_total &&
        off.model_cycles_total == profiled.model_cycles_total &&
        off.model_cycles_total == watched.model_cycles_total &&
        off.model_cycles_total == critpathed.model_cycles_total;
    cycles_ok = cycles_ok && identical;
    const double wall_ratio =
        traced.wall_ns > 0 ? off.wall_ns / traced.wall_ns : 0;
    max_wall_ratio = std::max(max_wall_ratio, wall_ratio);
    std::printf("%-14s %10.1f %10.1f %10.1f %10.1f %10.1f %12.1f %14s "
                "%8.2fx\n",
                std::string(IsolationBackendName(backend)).c_str(),
                off.wall_ns, traced.wall_ns, profiled.wall_ns,
                watched.wall_ns, critpathed.wall_ns,
                off.CyclesPerCall(kIters), identical ? "yes" : "NO",
                wall_ratio);
  }

  // Timeline determinism: two fresh machines, same config, same call
  // count, flexwatch on — the exported JSON timelines must match byte for
  // byte. Windows close on virtual-time boundaries and capture modeled
  // counters only, so any divergence means wall-clock state leaked into
  // the window pipeline.
  bool timeline_ok = true;
  {
    const uint64_t kTimelineCalls = smoke ? 1000 : 20000;
    std::string timelines[2];
    for (int run = 0; run < 2; ++run) {
      Machine machine;
      machine.tracer().SetEnabled(true);
      machine.timeseries().Enable(kWatchWindowCycles);
      obs::SloSpec spec;
      std::string error;
      obs::ParseSloSpec(kWatchdogSpec, &spec, &error);
      machine.timeseries().AddWatchdog(spec);
      ImageBuilder builder(machine);
      auto image = builder
                       .Build(bench::NetOnlyConfig(
                           IsolationBackend::kMpkSwitchedStack))
                       .value();
      uint64_t sink = 0;
      const auto body = [&sink] { ++sink; };
      const RouteHandle route = image->Resolve(kLibNet, kLibApp);
      for (uint64_t i = 0; i < kTimelineCalls; ++i) {
        image->Call(route, body);
        machine.PollTimeSeries();
      }
      machine.timeseries().FinalizeTail(machine.max_cycles());
      timelines[run] =
          obs::TimelineToJson(machine.timeseries().Snapshot(),
                              machine.timeseries().window_cycles());
    }
    timeline_ok = !timelines[0].empty() && timelines[0] == timelines[1];
  }

  std::printf("\n# Checks:\n");
  std::printf("  modeled cycles identical with observability off / tracing "
              "on / profiler on / flexwatch on / critpath on: %s "
              "(hard-gated)\n",
              cycles_ok ? "yes" : "NO");
  std::printf("  flexwatch captured windows and watchdog violations: %s "
              "(hard-gated)\n",
              watch_ok ? "yes" : "NO");
  std::printf("  critical path reconciled and self-calibrated against the "
              "cost model on every backend: %s (hard-gated)\n",
              critpath_ok ? "yes" : "NO");
  std::printf("  same-seed flexwatch JSON timelines byte-identical: %s "
              "(hard-gated)\n",
              timeline_ok ? "yes" : "NO");
  std::printf("  observability-off dispatch vs tracing-on wall clock: worst "
              "off/on ratio %.2fx (full runs gate <= 1.25x; disabled "
              "tracing must not be slower than enabled)\n",
              max_wall_ratio);
  if (!cycles_ok || !watch_ok || !critpath_ok || !timeline_ok) {
    return 1;
  }
  // Wall-clock gate only on full runs: smoke iteration counts are too
  // short for stable ratios. The disabled path doing meaningfully *more*
  // work than the enabled path would mean the enabled() check is not the
  // first thing on the record path.
  return (smoke || max_wall_ratio <= 1.25) ? 0 : 1;
}
