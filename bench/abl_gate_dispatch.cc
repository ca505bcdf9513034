// Ablation: gate dispatch overhead on the simulator's own hot path —
// by-name dispatch (resolve per call) vs. a cached RouteHandle vs. batched
// crossings, per isolation backend. Two metrics per variant:
//   wall ns/call — real time the simulator spends dispatching (steady_clock);
//                  this is the cost the route cache eliminates.
//   model cyc/call — charged guest cycles; identical for string vs. cached
//                  (dispatch is free in the model), lower for batched (one
//                  entry/exit pair amortized over the whole batch).
// Pass --smoke for a fast CI run with tiny iteration counts.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "core/image_builder.h"

int main(int argc, char** argv) {
  using namespace flexos;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const uint64_t kIters = smoke ? 2000 : 400000;
  const uint64_t kBatchLen = 64;
  // Repetitions per variant; the reported wall time is the min over them.
  const int kReps = 9;

  std::printf("# Gate dispatch ablation: net -> app crossing, %llu calls "
              "per variant, min of %d interleaved reps%s\n",
              static_cast<unsigned long long>(kIters), kReps,
              smoke ? " (smoke)" : "");
  std::printf("%-14s %10s %10s %10s %12s %12s %12s %9s %9s\n", "backend",
              "string", "cached", "batched", "string", "cached", "batched",
              "cache", "batch");
  std::printf("%-14s %10s %10s %10s %12s %12s %12s %9s %9s\n", "",
              "(ns/call)", "(ns/call)", "(ns/call)", "(cyc/call)",
              "(cyc/call)", "(cyc/call)", "speedup", "speedup");

  double min_cache_speedup = 1e30;
  constexpr IsolationBackend kBackends[] = {
      IsolationBackend::kNone, IsolationBackend::kMpkSharedStack,
      IsolationBackend::kMpkSwitchedStack, IsolationBackend::kVmRpc};
  for (IsolationBackend backend : kBackends) {
    Machine machine;
    ImageBuilder builder(machine);
    auto image = builder.Build(bench::NetOnlyConfig(backend)).value();
    uint64_t sink = 0;
    const auto body = [&sink] { ++sink; };
    const RouteHandle route = image->Resolve(kLibNet, kLibApp);

    // Warm up caches (hash tables, branch predictors) before timing.
    for (int i = 0; i < 256; ++i) {
      image->Call(kLibNet, kLibApp, body);
      image->Call(route, body);
    }

    // The variants take turns within every repetition, so a burst of host
    // noise hits all three alike instead of one whole variant; each keeps
    // its min over the repetitions.
    bench::LoopSample by_name;
    bench::LoopSample cached;
    bench::LoopSample batched;
    for (int rep = 0; rep < kReps; ++rep) {
      by_name.Keep(bench::TimeLoop(
          machine, kIters, [&] { image->Call(kLibNet, kLibApp, body); }));
      cached.Keep(bench::TimeLoop(machine, kIters,
                                  [&] { image->Call(route, body); }));
      batched.Keep(bench::TimeLoop(machine, kIters / kBatchLen, [&] {
        GateBatch batch(*image, route);
        for (uint64_t j = 0; j < kBatchLen; ++j) {
          batch.Run(body);
        }
      }));
    }
    batched.wall_ns /= static_cast<double>(kBatchLen);
    // The batched loop ran (kIters / kBatchLen) * kBatchLen bodies.
    const uint64_t batched_bodies = (kIters / kBatchLen) * kBatchLen;

    const double cache_speedup = by_name.wall_ns / cached.wall_ns;
    const double batch_speedup = by_name.wall_ns / batched.wall_ns;
    min_cache_speedup = std::min(min_cache_speedup, cache_speedup);
    std::printf("%-14s %10.1f %10.1f %10.1f %12.1f %12.1f %12.1f %8.2fx "
                "%8.2fx\n",
                std::string(IsolationBackendName(backend)).c_str(),
                by_name.wall_ns, cached.wall_ns, batched.wall_ns,
                by_name.CyclesPerCall(kIters), cached.CyclesPerCall(kIters),
                batched.CyclesPerCall(batched_bodies), cache_speedup,
                batch_speedup);
  }

  std::printf("\n# Checks:\n");
  std::printf("  cached vs string wall-clock speedup (worst backend): "
              "%.2fx (target: >=2x)\n",
              min_cache_speedup);
  std::printf("  string and cached charge identical model cycles; batched "
              "amortizes one entry/exit pair over %llu bodies\n",
              static_cast<unsigned long long>(kBatchLen));
  // Smoke runs are too short for stable wall-clock ratios; only gate the
  // exit code on the full run.
  return (smoke || min_cache_speedup >= 2.0) ? 0 : 1;
}
