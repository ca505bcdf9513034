// MetricsRegistry: the unified runtime-metrics layer (DESIGN.md §7). Named
// counters, gauges, and log-bucketed latency histograms, owned by the
// Machine so every run — test, benchmark, or flexstat — reads its numbers
// from one place instead of per-component ad-hoc structs.
//
// Design constraints:
//   * No allocation on the record path. Registration (GetCounter etc.)
//     allocates once; instrumented components resolve their metrics at
//     construction and record through stable pointers.
//   * Histograms are HDR-style fixed-size arrays: values 0..7 get exact
//     buckets, larger values land in 4 log sub-buckets per power of two up
//     to 2^41 ns (~36 min), then one overflow bucket. Record() is a few
//     shifts and an increment.
//   * Single-writer semantics: the multi-vCPU machine (DESIGN.md §12) is
//     still one host thread — vCPUs are per-vCPU virtual clocks the
//     scheduler multiplexes, never concurrent writers — so counters stay
//     plain uint64_t (the lock-free multi-producer story lives in
//     obs/trace.h where real threads genuinely coexist, e.g. under TSan).
//
// The obs layer sits below support/ — it must not include any other flexos
// header, because hw/machine.h and support/log.cc both build on it.
#ifndef FLEXOS_OBS_METRICS_H_
#define FLEXOS_OBS_METRICS_H_

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/vcpu.h"

namespace flexos {
namespace obs {

class Counter {
 public:
  void Add(uint64_t delta = 1) { value_ += delta; }
  void Reset() { value_ = 0; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(int64_t value) { value_ = value; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Log-bucketed latency histogram. Bucket layout (kSubBits = 2):
//   index 0..7            exact values 0..7
//   index 8 + 4e' + s     values [2^e + s*2^(e-2), 2^e + (s+1)*2^(e-2)),
//                         e in [3, kMaxExp], e' = e - 3, s in [0, 3]
//   index kOverflowBucket values >= 2^(kMaxExp+1)
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 2;
  static constexpr int kSubBuckets = 1 << kSubBits;     // 4
  static constexpr int kFirstExp = 3;                   // 2^3 = 8
  static constexpr int kMaxExp = 40;                    // < 2^41 ns tracked
  static constexpr int kLinearBuckets = 1 << kFirstExp;  // 8 exact buckets
  static constexpr int kOverflowBucket =
      kLinearBuckets + (kMaxExp - kFirstExp + 1) * kSubBuckets;
  static constexpr int kBucketCount = kOverflowBucket + 1;

  static constexpr int BucketIndex(uint64_t value) {
    if (value < kLinearBuckets) {
      return static_cast<int>(value);
    }
    // e = floor(log2(value)); value >= kLinearBuckets > 0 here. A single
    // lzcnt — Record sits on the gate-dispatch fast path, where a
    // shift-loop equivalent costs more than the whole rest of the dispatch.
    const int e = 63 - std::countl_zero(value);
    if (e > kMaxExp) {
      return kOverflowBucket;
    }
    const int sub =
        static_cast<int>((value >> (e - kSubBits)) & (kSubBuckets - 1));
    return kLinearBuckets + (e - kFirstExp) * kSubBuckets + sub;
  }

  // Inclusive lower bound of bucket `index` (the value Percentile reports
  // for ranks landing in it).
  static constexpr uint64_t BucketLowerBound(int index) {
    if (index < kLinearBuckets) {
      return static_cast<uint64_t>(index);
    }
    if (index >= kOverflowBucket) {
      return uint64_t{1} << (kMaxExp + 1);
    }
    const int e = kFirstExp + (index - kLinearBuckets) / kSubBuckets;
    const int sub = (index - kLinearBuckets) % kSubBuckets;
    return (uint64_t{1} << e) +
           static_cast<uint64_t>(sub) * (uint64_t{1} << (e - kSubBits));
  }

  void Record(uint64_t value) {
    ++buckets_[BucketIndex(value)];
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) {
      min_ = value;
    }
    if (value > max_) {
      max_ = value;
    }
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  uint64_t overflow() const { return buckets_[kOverflowBucket]; }
  uint64_t bucket(int index) const { return buckets_[index]; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Value at percentile p (0..100]: the lower bound of the bucket holding
  // the rank-ceil(p/100 * count) sample — a floor of the true percentile,
  // never more than one sub-bucket below it. Ranks landing in the overflow
  // bucket report the exact max. 0 when empty.
  uint64_t Percentile(double p) const;

  void Reset();

  // Window arithmetic for obs/timeseries.h: the histogram holding only the
  // samples recorded between snapshots `prev` and `cur` of the same
  // histogram. Buckets/count/sum subtract exactly; min/max are exact when
  // the window moved the cumulative extreme (a new extreme must have
  // arrived this window) and bucket-bounded otherwise. A cur with fewer
  // samples than prev was Reset() in between and is returned as-is.
  static LatencyHistogram Delta(const LatencyHistogram& cur,
                                const LatencyHistogram& prev);

 private:
  uint64_t buckets_[kBucketCount] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// Per-boundary gate metrics, resolved once at route resolution and carried
// in RouteHandle so the dispatch fast path records through four pointer
// dereferences (PR 1 paid a std::map lookup per call for the same
// counters).
struct BoundaryRecorder {
  Counter* crossings = nullptr;   // Gate entry/exit pairs.
  Counter* batched = nullptr;     // Bodies run inside batched crossings.
  Counter* bytes = nullptr;       // Marshalled argument + return bytes.
  LatencyHistogram* latency_ns = nullptr;  // Gate overhead per crossing
                                           // (entry+exit halves, body
                                           // excluded), in virtual ns.
  // Per-vCPU crossing split (gate.crossings.<...>.v<id>), populated only
  // on multi-vCPU machines; all null at one vCPU so the fast path pays a
  // single null check.
  Counter* vcpu_crossings[kMaxVCpus] = {};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. References stay valid for the registry's lifetime
  // (node-stable maps). Requesting the same name with a different metric
  // type creates an independent metric; don't do that.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);

  // Read-only lookups; nullptr when the metric was never registered.
  const Counter* FindCounter(std::string_view name) const;
  const LatencyHistogram* FindHistogram(std::string_view name) const;

  // Convenience: counter value or 0 when absent.
  uint64_t CounterValue(std::string_view name) const {
    const Counter* counter = FindCounter(name);
    return counter == nullptr ? 0 : counter->value();
  }

  // One row per metric, sorted by name (counters, then gauges, then
  // histograms interleave per the name ordering within each kind's map;
  // Entries() itself returns all kinds merged and name-sorted).
  struct Entry {
    std::string_view name;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const LatencyHistogram* histogram = nullptr;
  };
  std::vector<Entry> Entries() const;

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  // std::map: node-based, so element addresses are stable across inserts.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LatencyHistogram, std::less<>> histograms_;
};

}  // namespace obs
}  // namespace flexos

#endif  // FLEXOS_OBS_METRICS_H_
