#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace flexos {
namespace obs {

uint64_t LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the sample we want, 1-based. p=50 with count=4 -> rank 2.
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 *
                                                  static_cast<double>(count_)));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      if (i == kOverflowBucket) {
        return max_;  // Overflow bucket's lower bound would understate badly.
      }
      // Exact buckets hold one value; log buckets report their lower bound,
      // clamped into [min_, max_] so tiny histograms read sensibly.
      const uint64_t bound = BucketLowerBound(i);
      return std::clamp(bound, count_ > 0 ? min_ : bound, max_);
    }
  }
  return max_;
}

LatencyHistogram LatencyHistogram::Delta(const LatencyHistogram& cur,
                                         const LatencyHistogram& prev) {
  if (cur.count_ < prev.count_) {
    return cur;  // Reset() between snapshots: cur is itself the window.
  }
  LatencyHistogram delta;
  if (cur.count_ == prev.count_) {
    return delta;  // Nothing recorded this window.
  }
  if (prev.count_ == 0) {
    return cur;  // First window: exact, including min/max.
  }
  delta.count_ = cur.count_ - prev.count_;
  delta.sum_ = cur.sum_ - prev.sum_;
  int first = -1;
  int last = -1;
  for (int i = 0; i < kBucketCount; ++i) {
    delta.buckets_[i] =
        cur.buckets_[i] >= prev.buckets_[i] ? cur.buckets_[i] - prev.buckets_[i]
                                            : cur.buckets_[i];
    if (delta.buckets_[i] != 0) {
      if (first < 0) {
        first = i;
      }
      last = i;
    }
  }
  // min: exact if the cumulative min moved (the new min arrived this
  // window); otherwise the lower bound of the lowest touched bucket.
  delta.min_ = cur.min_ != prev.min_ ? cur.min_ : BucketLowerBound(first);
  // max: exact if the cumulative max moved or the window touched the
  // overflow bucket (whose only known value is the cumulative max);
  // otherwise the top of the highest touched bucket, capped at cur max.
  if (cur.max_ != prev.max_ || last == kOverflowBucket) {
    delta.max_ = cur.max_;
  } else {
    const uint64_t upper = BucketLowerBound(last + 1) - 1;
    delta.max_ = upper < cur.max_ ? upper : cur.max_;
  }
  if (delta.min_ > delta.max_) {
    delta.min_ = delta.max_;
  }
  return delta;
}

void LatencyHistogram::Reset() {
  std::memset(buckets_, 0, sizeof(buckets_));
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

LatencyHistogram& MetricsRegistry::GetHistogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), LatencyHistogram{}).first;
  }
  return it->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const LatencyHistogram* MetricsRegistry::FindHistogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::Entries() const {
  std::vector<Entry> out;
  out.reserve(size());
  for (const auto& [name, counter] : counters_) {
    out.push_back(Entry{name, &counter, nullptr, nullptr});
  }
  for (const auto& [name, gauge] : gauges_) {
    out.push_back(Entry{name, nullptr, &gauge, nullptr});
  }
  for (const auto& [name, histogram] : histograms_) {
    out.push_back(Entry{name, nullptr, nullptr, &histogram});
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

}  // namespace obs
}  // namespace flexos
