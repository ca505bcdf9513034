// flexwatch (DESIGN.md §14): windowed time-series telemetry over the
// MetricsRegistry, plus deterministic SLO watchdogs.
//
// The cumulative registry answers "what happened over the whole run"; this
// layer answers "what is happening *right now*" — the signal a runtime-
// adaptive isolation policy needs. A TimeSeries is owned by the Machine and
// driven purely by virtual time: every `window_cycles` of machine-wide
// progress it closes a window, capturing the per-window *delta* of every
// counter and a per-window copy of every histogram (so p50/p99 are
// per-interval, not lifetime-cumulative), into a fixed ring of the most
// recent windows.
//
// Cost story, same observe-never-charge contract as trace/attrib/race:
//   * Capture observes clocks and metrics; it never charges a cycle.
//     bench/abl_obs_overhead.cc hard-gates that modeled cycles are
//     bit-identical with windowing + watchdogs on vs off.
//   * Disabled (the default), MaybeCapture is one branch. Enabled, the
//     capture path is allocation-free in steady state: the ring and every
//     per-window vector are sized when the metric set is bound; a rebind
//     (re-sizing pass) happens only on the first window after new metrics
//     registered — amortized, like registration itself.
//   * Windows close at deterministic virtual-time boundaries (multiples of
//     window_cycles), so the same seed yields a byte-identical timeline at
//     any poll cadence. A poll that finds several boundaries passed (an
//     idle jump) closes ONE window spanning them — deltas are never lost,
//     and long sleeps cannot flush the ring with empty windows.
//
// SLO watchdogs are declared in configs ("slo <pattern> <stat> <op> <N>",
// parsed by core/config_parser) and evaluated at every window close, in
// declaration order, over that window's deltas. A violation bumps
// slo.violations.<name>, emits a cat=slo trace instant, and invokes an
// optional hook (the testbed wires it to the fault supervisor).
#ifndef FLEXOS_OBS_TIMESERIES_H_
#define FLEXOS_OBS_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace flexos {
namespace obs {

// Default window when a config declares SLOs but no window_cycles: 1 ms of
// virtual time (converted by the clock that owns the timeseries).
inline constexpr uint64_t kDefaultWindowNs = 1'000'000;

// Matches '*' against any run of characters (any number of '*'s, anywhere).
bool GlobMatch(std::string_view pattern, std::string_view text);

// --- SLO specs (shared plain data; parsed even in disabled builds) --------

enum class SloStat : uint8_t {
  kP50,
  kP90,
  kP99,
  kMean,
  kMax,
  kCount,
  kSum,
  kValue,  // Counter window delta / gauge instantaneous value.
};

enum class SloOp : uint8_t { kLt, kLe, kGt, kGe };

std::string_view SloStatName(SloStat stat);
std::string_view SloOpName(SloOp op);

// One watchdog: "pattern stat op threshold". The SLO states the *good*
// condition (p99 < 4000); a window where the measured stat fails the
// comparison is a violation.
struct SloSpec {
  std::string pattern;  // Glob over metric names, e.g. "gate.latency_ns.*".
  SloStat stat = SloStat::kP99;
  SloOp op = SloOp::kLt;
  double threshold = 0;

  // Violation counter suffix: slo.violations.<name>. Defaults to
  // "<pattern>.<stat>" when empty.
  std::string name;

  std::string EffectiveName() const {
    return name.empty() ? pattern + "." + std::string(SloStatName(stat))
                        : name;
  }

  bool operator==(const SloSpec& other) const {
    return pattern == other.pattern && stat == other.stat &&
           op == other.op && threshold == other.threshold;
  }
};

// Parses "gate.latency_ns.mpk-shared.* p99 < 4000". Returns false with a
// human-readable reason in *error (no Status: obs sits below support/).
bool ParseSloSpec(std::string_view text, SloSpec* out, std::string* error);

// Round-trips through ParseSloSpec (config re-emission).
std::string SloSpecToString(const SloSpec& spec);

// --- Window snapshots (shared plain data) ---------------------------------

struct WindowCounterSample {
  std::string name;
  uint64_t delta = 0;  // Counter increase over this window.
};

struct WindowGaugeSample {
  std::string name;
  int64_t value = 0;  // Instantaneous value at window close.
};

struct WindowHistSample {
  std::string name;
  LatencyHistogram delta;  // Only this window's recordings.
};

// One closed window. Samples are name-sorted; zero-delta counters, zero
// gauges, and empty histograms are omitted (idle windows stay small).
struct WindowSnapshot {
  uint64_t seq = 0;  // 1-based capture sequence (survives ring wrap).
  uint64_t start_cycles = 0;
  uint64_t end_cycles = 0;
  std::vector<WindowCounterSample> counters;
  std::vector<WindowGaugeSample> gauges;
  std::vector<WindowHistSample> histograms;
};

// Passed to the violation hook at window close.
struct SloViolation {
  std::string slo_name;  // SloSpec::EffectiveName().
  std::string metric;    // The concrete metric that violated.
  uint64_t window_seq = 0;
  double measured = 0;
  double threshold = 0;
};

class TimeSeries {
 public:
  static constexpr size_t kDefaultRingWindows = 64;

  TimeSeries() = default;
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  // Wired by the Machine at construction (like FaultInjector::BindObs).
  void BindObs(MetricsRegistry* registry, Tracer* tracer) {
    registry_ = registry;
    tracer_ = tracer;
  }

  // Starts windowing: boundaries at multiples of `window_cycles`, ring of
  // the most recent `ring_windows` windows. Binds the current metric set
  // (metrics registered later are picked up by an amortized rebind at the
  // next window close). window_cycles == 0 leaves the series disabled.
  void Enable(uint64_t window_cycles,
              size_t ring_windows = kDefaultRingWindows);
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }
  uint64_t window_cycles() const { return window_cycles_; }

  // Installs a watchdog; resolves its slo.violations.<name> counter now so
  // window-close evaluation is allocation-free.
  void AddWatchdog(const SloSpec& spec);
  const std::vector<SloSpec>& watchdogs() const { return specs_; }

  // Called once per violation, after the counter bump and trace instant.
  void SetViolationHook(std::function<void(const SloViolation&)> hook) {
    hook_ = std::move(hook);
  }

  // Called once per closed window (after watchdog evaluation) with that
  // window's snapshot — the flexadapt policy engine's input feed. Metrics
  // the hook itself creates are picked up by the amortized rebind at the
  // next window close, like any other late registration.
  void SetWindowHook(std::function<void(const WindowSnapshot&)> hook) {
    window_hook_ = std::move(hook);
  }

  // Polled from deterministic points (scheduler loop, idle jumps, bench
  // loops). Closes one window when `now_cycles` has reached the next
  // boundary; a multi-boundary jump closes one window spanning it.
  void MaybeCapture(uint64_t now_cycles) {
    if (!enabled_ || now_cycles < next_close_) {
      return;
    }
    Capture(now_cycles);
  }

  // Closes the trailing partial window (end = now, not boundary-aligned)
  // so end-of-run totals cover the whole run. No-op if nothing elapsed.
  void FinalizeTail(uint64_t now_cycles);

  uint64_t windows_captured() const { return seq_; }
  uint64_t violations_total() const { return violations_total_; }

  // Retained windows, oldest first. Export-time (allocates).
  std::vector<WindowSnapshot> Snapshot() const;

 private:
  // The bound metric set, immutable per generation. Windows keep a
  // shared_ptr to the generation they were captured under, so a rebind
  // never invalidates retained windows.
  struct Binding {
    std::vector<std::string> counter_names;
    std::vector<const Counter*> counters;
    std::vector<std::string> gauge_names;
    std::vector<const Gauge*> gauges;
    std::vector<std::string> hist_names;
    std::vector<const LatencyHistogram*> hists;
    // Per watchdog: indexes (into the vectors above) of matching metrics.
    struct SloTargets {
      std::vector<size_t> counter_idx;
      std::vector<size_t> gauge_idx;
      std::vector<size_t> hist_idx;
    };
    std::vector<SloTargets> slo_targets;  // Parallel to specs_.
  };

  struct Window {
    uint64_t seq = 0;
    uint64_t start_cycles = 0;
    uint64_t end_cycles = 0;
    std::shared_ptr<const Binding> binding;
    std::vector<uint64_t> counter_deltas;
    std::vector<int64_t> gauge_values;
    std::vector<LatencyHistogram> hist_deltas;
  };

  void Rebind();
  void Capture(uint64_t now_cycles);
  WindowSnapshot MakeSnapshot(const Window& window) const;
  void EvaluateWatchdogs(const Window& window);
  void ReportViolation(const Window& window, size_t spec_idx,
                       const std::string& metric, double measured);

  MetricsRegistry* registry_ = nullptr;
  Tracer* tracer_ = nullptr;
  bool enabled_ = false;
  uint64_t window_cycles_ = 0;
  uint64_t next_close_ = 0;
  uint64_t last_close_ = 0;  // End of the previous window (= next start).
  uint64_t seq_ = 0;
  uint64_t violations_total_ = 0;

  std::shared_ptr<const Binding> binding_;
  size_t bound_metric_count_ = 0;  // registry_->size() at last (re)bind.
  // Cumulative values at the previous capture, parallel to binding_.
  std::vector<uint64_t> prev_counters_;
  std::vector<LatencyHistogram> prev_hists_;

  std::vector<Window> ring_;  // seq_ % ring_.size() indexes the ring.

  std::vector<SloSpec> specs_;
  std::vector<Counter*> violation_counters_;  // Parallel to specs_.
  std::function<void(const SloViolation&)> hook_;
  std::function<void(const WindowSnapshot&)> window_hook_;
};

}  // namespace obs
}  // namespace flexos

#endif  // FLEXOS_OBS_TIMESERIES_H_
