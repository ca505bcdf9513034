// Observability layer tests (PR 3): histogram bucket math, trace ring
// semantics, exporter schemas, the log bridge, and end-to-end metric
// recording through a built image.
#include <cctype>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/iperf_client.h"
#include "apps/iperf_server.h"
#include "apps/testbed.h"
#include "core/image_builder.h"
#include "hw/clock.h"
#include "obs/attrib.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "support/log.h"

namespace flexos {
namespace {

using obs::LatencyHistogram;

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser, just enough to validate exporter
// output structurally (objects, arrays, strings, numbers, bools, null).

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue* Get(const std::string& key) const {
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            pos_ += 4;  // Validated as hex by strtol below? Keep simple.
            c = '?';
            break;
          }
          default:
            return false;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // Closing quote.
    return true;
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipSpace();
      if (Consume('}')) {
        return true;
      }
      while (true) {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) {
          return false;
        }
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->fields.emplace(std::move(key), std::move(value));
        if (Consume('}')) {
          return true;
        }
        if (!Consume(',')) {
          return false;
        }
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipSpace();
      if (Consume(']')) {
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->items.push_back(std::move(value));
        if (Consume(']')) {
          return true;
        }
        if (!Consume(',')) {
          return false;
        }
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    // Number.
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) {
      return false;
    }
    out->kind = JsonValue::kNumber;
    out->number = std::stod(std::string(text_.substr(pos_, end - pos_)));
    pos_ = end;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Histogram bucket math.

TEST(LatencyHistogramTest, ExactBucketsForSmallValues) {
  for (uint64_t v = 0; v < LatencyHistogram::kLinearBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<int>(v)), v);
  }
}

TEST(LatencyHistogramTest, BucketEdges) {
  // Every bucket's lower bound must map back to that bucket, and the value
  // one below it to the previous bucket.
  for (int i = 1; i < LatencyHistogram::kOverflowBucket; ++i) {
    const uint64_t lo = LatencyHistogram::BucketLowerBound(i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo), i) << "lo=" << lo;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo - 1), i - 1) << "lo=" << lo;
  }
}

TEST(LatencyHistogramTest, SubBucketWidths) {
  // In [2^e, 2^(e+1)) there are exactly 4 sub-buckets of width 2^(e-2).
  EXPECT_EQ(LatencyHistogram::BucketIndex(8), 8);
  EXPECT_EQ(LatencyHistogram::BucketIndex(9), 8);   // [8, 10)
  EXPECT_EQ(LatencyHistogram::BucketIndex(10), 9);  // [10, 12)
  EXPECT_EQ(LatencyHistogram::BucketIndex(12), 10);
  EXPECT_EQ(LatencyHistogram::BucketIndex(14), 11);
  EXPECT_EQ(LatencyHistogram::BucketIndex(15), 11);
  EXPECT_EQ(LatencyHistogram::BucketIndex(16), 12);
}

TEST(LatencyHistogramTest, OverflowBucket) {
  const uint64_t first_overflow = uint64_t{1}
                                  << (LatencyHistogram::kMaxExp + 1);
  EXPECT_EQ(LatencyHistogram::BucketIndex(first_overflow),
            LatencyHistogram::kOverflowBucket);
  EXPECT_EQ(LatencyHistogram::BucketIndex(first_overflow - 1),
            LatencyHistogram::kOverflowBucket - 1);
  EXPECT_EQ(LatencyHistogram::BucketIndex(UINT64_MAX),
            LatencyHistogram::kOverflowBucket);

  LatencyHistogram hist;
  hist.Record(first_overflow + 123);
  EXPECT_EQ(hist.overflow(), 1u);
  EXPECT_EQ(hist.max(), first_overflow + 123);
  // Overflow ranks report the exact max, not a bucket bound.
  EXPECT_EQ(hist.Percentile(100), first_overflow + 123);
}

TEST(LatencyHistogramTest, PercentilesOnUniformData) {
  LatencyHistogram hist;
  for (uint64_t v = 1; v <= 100; ++v) {
    hist.Record(v);
  }
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.sum(), 5050u);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 100u);
  // Rank 50 is value 50, in bucket [48, 56) -> reports 48.
  EXPECT_EQ(hist.Percentile(50), 48u);
  // Rank 99 is value 99, in bucket [96, 112) -> reports 96.
  EXPECT_EQ(hist.Percentile(99), 96u);
  // Reported percentiles never exceed the observed max.
  EXPECT_LE(hist.Percentile(100), 100u);
}

TEST(LatencyHistogramTest, PercentileClampsToMinAndEmptyIsZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Percentile(50), 0u);
  hist.Record(9);  // Bucket [8, 10): lower bound 8 < min 9.
  EXPECT_EQ(hist.Percentile(50), 9u);
}

TEST(LatencyHistogramTest, EmptyPercentilesAreZero) {
  const LatencyHistogram hist;
  EXPECT_EQ(hist.Percentile(0), 0u);
  EXPECT_EQ(hist.Percentile(50), 0u);
  EXPECT_EQ(hist.Percentile(99), 0u);
  EXPECT_EQ(hist.Percentile(100), 0u);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
}

TEST(LatencyHistogramTest, SingleSamplePercentiles) {
  // One sample: every rank must resolve to it. 1000 lands in log bucket
  // [896, 1024), whose lower bound is below the sample; the [min, max]
  // clamp restores the exact value.
  LatencyHistogram hist;
  hist.Record(1000);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.Percentile(0), 1000u);
  EXPECT_EQ(hist.Percentile(50), 1000u);
  EXPECT_EQ(hist.Percentile(99), 1000u);
  EXPECT_EQ(hist.Percentile(100), 1000u);
}

TEST(LatencyHistogramTest, MaxBucketSaturation) {
  // Everything past 2^(kMaxExp+1) shares the overflow bucket; percentiles
  // that land there report the exact observed max, never a bucket bound.
  const uint64_t first_overflow = uint64_t{1}
                                  << (LatencyHistogram::kMaxExp + 1);
  LatencyHistogram hist;
  for (uint64_t i = 1; i <= 10; ++i) {
    hist.Record(first_overflow * i);
  }
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_EQ(hist.overflow(), 10u);
  EXPECT_EQ(hist.min(), first_overflow);
  EXPECT_EQ(hist.max(), first_overflow * 10);
  EXPECT_EQ(hist.Percentile(1), first_overflow * 10);
  EXPECT_EQ(hist.Percentile(50), first_overflow * 10);
  EXPECT_EQ(hist.Percentile(100), first_overflow * 10);

  // Mixed: one in-range sample keeps p1 out of the overflow bucket.
  hist.Record(5);
  EXPECT_EQ(hist.Percentile(1), 5u);
  EXPECT_EQ(hist.Percentile(99), first_overflow * 10);
}

TEST(ClockTest, CyclesToNanosExactAtHistogramBucketBoundaries) {
  // The division-free CyclesToNanos feeds gate latency values straight into
  // histogram Record; a one-off at a bucket's lower bound would flip the
  // sample into the neighboring bucket. Check exact floor semantics at
  // every bucket edge (and one on each side) across several frequencies,
  // including ones where 1e9/freq is not an integer.
  const uint64_t freqs[] = {Clock::kDefaultFreqHz, 1'000'000'000ULL,
                            2'500'000'000ULL, 3'333'333'333ULL};
  for (const uint64_t freq : freqs) {
    const Clock clock(freq);
    for (int i = 0; i <= LatencyHistogram::kOverflowBucket; ++i) {
      const uint64_t lo = LatencyHistogram::BucketLowerBound(i);
      for (const uint64_t cycles : {lo == 0 ? 0 : lo - 1, lo, lo + 1}) {
        const uint64_t exact = static_cast<uint64_t>(
            static_cast<unsigned __int128>(cycles) * 1'000'000'000ULL /
            freq);
        ASSERT_EQ(clock.CyclesToNanos(cycles), exact)
            << "freq=" << freq << " bucket=" << i << " cycles=" << cycles;
      }
    }
  }
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  LatencyHistogram hist;
  hist.Record(5);
  hist.Record(uint64_t{1} << 42);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.overflow(), 0u);
  EXPECT_EQ(hist.Percentile(99), 0u);
}

// ---------------------------------------------------------------------------
// Window arithmetic (flexwatch, DESIGN.md §14).

TEST(LatencyHistogramTest, DeltaSubtractsBucketsCountAndSum) {
  LatencyHistogram hist;
  hist.Record(10);
  hist.Record(20);
  const LatencyHistogram prev = hist;  // Snapshot after 2 samples.
  hist.Record(30);
  hist.Record(40);
  hist.Record(40);

  const LatencyHistogram delta = LatencyHistogram::Delta(hist, prev);
  EXPECT_EQ(delta.count(), 3u);
  EXPECT_EQ(delta.sum(), 110u);
  EXPECT_EQ(delta.bucket(LatencyHistogram::BucketIndex(40)), 2u);
  EXPECT_EQ(delta.bucket(LatencyHistogram::BucketIndex(10)), 0u);
}

TEST(LatencyHistogramTest, DeltaAgainstEmptyPrevIsExactCopy) {
  LatencyHistogram hist;
  hist.Record(5);
  hist.Record(123456);
  const LatencyHistogram delta =
      LatencyHistogram::Delta(hist, LatencyHistogram());
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_EQ(delta.min(), 5u);       // Exact: first window copies cur.
  EXPECT_EQ(delta.max(), 123456u);
  EXPECT_EQ(delta.Percentile(1), 5u);
}

TEST(LatencyHistogramTest, DeltaOfUnchangedHistogramIsEmpty) {
  LatencyHistogram hist;
  hist.Record(99);
  const LatencyHistogram delta = LatencyHistogram::Delta(hist, hist);
  EXPECT_EQ(delta.count(), 0u);
  EXPECT_EQ(delta.sum(), 0u);
  EXPECT_EQ(delta.Percentile(99), 0u);
}

TEST(LatencyHistogramTest, DeltaTracksNewExtremesExactly) {
  LatencyHistogram hist;
  hist.Record(100);
  const LatencyHistogram prev = hist;
  hist.Record(7);        // New cumulative min this window.
  hist.Record(1000000);  // New cumulative max this window.
  const LatencyHistogram delta = LatencyHistogram::Delta(hist, prev);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_EQ(delta.min(), 7u);        // Moved extremes are exact.
  EXPECT_EQ(delta.max(), 1000000u);
}

TEST(LatencyHistogramTest, DeltaBoundsUnmovedExtremesByBucket) {
  LatencyHistogram hist;
  hist.Record(1);       // Cumulative min.
  hist.Record(900000);  // Cumulative max.
  const LatencyHistogram prev = hist;
  hist.Record(100);  // Interior sample: neither extreme moved.
  const LatencyHistogram delta = LatencyHistogram::Delta(hist, prev);
  EXPECT_EQ(delta.count(), 1u);
  EXPECT_EQ(delta.sum(), 100u);
  // Bucket-bounded: within one sub-bucket of the true value (100).
  EXPECT_LE(delta.min(), 100u);
  EXPECT_GE(delta.min(), LatencyHistogram::BucketLowerBound(
                             LatencyHistogram::BucketIndex(100)));
  EXPECT_GE(delta.max(), 100u);
  EXPECT_LE(delta.min(), delta.max());
}

TEST(LatencyHistogramTest, DeltaAfterResetReturnsCurAsIs) {
  LatencyHistogram hist;
  hist.Record(50);
  hist.Record(60);
  const LatencyHistogram prev = hist;
  hist.Reset();
  hist.Record(5);
  const LatencyHistogram delta = LatencyHistogram::Delta(hist, prev);
  EXPECT_EQ(delta.count(), 1u);  // cur, not a bogus negative window.
  EXPECT_EQ(delta.sum(), 5u);
}

TEST(LatencyHistogramTest, PerWindowPercentilesDivergeFromCumulative) {
  // A latency regression in the second window: the cumulative histogram
  // averages it away, the window delta pins it.
  LatencyHistogram hist;
  for (int i = 0; i < 1000; ++i) {
    hist.Record(8);
  }
  const LatencyHistogram prev = hist;
  for (int i = 0; i < 10; ++i) {
    hist.Record(500000);
  }
  const LatencyHistogram window = LatencyHistogram::Delta(hist, prev);
  EXPECT_EQ(window.count(), 10u);
  EXPECT_GE(window.Percentile(50), 262144u);  // All slow in-window.
  EXPECT_EQ(hist.Percentile(99), 8u);  // Cumulative hides the regression.
  EXPECT_EQ(window.count() + prev.count(), hist.count());
  EXPECT_EQ(window.sum() + prev.sum(), hist.sum());
}

TEST(LatencyHistogramTest, DeltaHandlesOverflowBucket) {
  LatencyHistogram hist;
  hist.Record(10);
  const LatencyHistogram prev = hist;
  const uint64_t huge = uint64_t{1} << 43;  // Past kMaxExp: overflow.
  hist.Record(huge);
  const LatencyHistogram delta = LatencyHistogram::Delta(hist, prev);
  EXPECT_EQ(delta.count(), 1u);
  EXPECT_EQ(delta.overflow(), 1u);
  EXPECT_EQ(delta.max(), huge);  // Overflow deltas report the exact max.
  EXPECT_EQ(delta.Percentile(99), huge);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistryTest, FindOrCreateReturnsStableReferences) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.GetCounter("x.count");
  a.Add(3);
  // Force rebalancing with more registrations; the reference must survive.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("c" + std::to_string(i));
  }
  EXPECT_EQ(&registry.GetCounter("x.count"), &a);
  EXPECT_EQ(registry.CounterValue("x.count"), 3u);
  EXPECT_EQ(registry.CounterValue("never.registered"), 0u);
  EXPECT_EQ(registry.FindHistogram("x.count"), nullptr);
}

TEST(MetricsRegistryTest, EntriesSortedByName) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("b.hist");
  registry.GetCounter("a.count");
  registry.GetGauge("c.gauge");
  const auto entries = registry.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "a.count");
  EXPECT_EQ(entries[1].name, "b.hist");
  EXPECT_EQ(entries[2].name, "c.gauge");
  EXPECT_NE(entries[0].counter, nullptr);
  EXPECT_NE(entries[1].histogram, nullptr);
  EXPECT_NE(entries[2].gauge, nullptr);
}

TEST(MetricNamesTest, GateMetricNameRoundTrips) {
  const std::string name = obs::GateMetricName("crossings", "mpk-shared",
                                               /*from_comp=*/-1,
                                               /*to_comp=*/2);
  EXPECT_EQ(name, "gate.crossings.mpk-shared.platform.c2");
  obs::GateMetricParts parts;
  ASSERT_TRUE(obs::ParseGateMetricName(name, &parts));
  EXPECT_EQ(parts.family, "crossings");
  EXPECT_EQ(parts.backend, "mpk-shared");
  EXPECT_EQ(parts.from, "platform");
  EXPECT_EQ(parts.to, "c2");
}

TEST(MetricNamesTest, ParseRejectsNonGateNames) {
  obs::GateMetricParts parts;
  EXPECT_FALSE(obs::ParseGateMetricName("sched.context_switches", &parts));
  EXPECT_FALSE(obs::ParseGateMetricName("gate.crossings.mpk", &parts));
  EXPECT_FALSE(obs::ParseGateMetricName("gate.a.b.c.d.e", &parts));
  EXPECT_FALSE(obs::ParseGateMetricName("gate..mpk.c0.c1", &parts));
}

// ---------------------------------------------------------------------------
// Trace ring.

TEST(TraceBufferTest, WraparoundKeepsNewestAndCountsDropped) {
  obs::TraceBuffer ring(4);
  for (uint64_t i = 0; i < 6; ++i) {
    obs::TraceEvent event;
    event.ts_ns = i;
    ring.Push(event);
  }
  EXPECT_EQ(ring.pushed(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<obs::TraceEvent> out;
  ring.AppendTo(&out);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].ts_ns, i + 2);  // Oldest two overwritten.
  }
}

TEST(TraceBufferTest, NoDropsBelowCapacity) {
  obs::TraceBuffer ring(8);
  for (uint64_t i = 0; i < 8; ++i) {
    ring.Push(obs::TraceEvent{});
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TracerTest, DisabledRecordsNothing) {
  obs::Tracer tracer(16);
  EXPECT_FALSE(tracer.enabled());
  tracer.RecordInstant(obs::TraceCat::kNet, "x", 0);
  tracer.RecordComplete(obs::TraceCat::kGate, "y", 0, 1, 0);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TraceEventTest, SetTextTruncatesSafely) {
  obs::TraceEvent event;
  event.SetText(std::string(200, 'x'));
  EXPECT_EQ(std::strlen(event.text), sizeof(event.text) - 1);
  event.SetText("short");
  EXPECT_STREQ(event.text, "short");
}

TEST(TracerTest, SnapshotSortedByTimestamp) {
  obs::Tracer tracer(16);
  tracer.SetEnabled(true);
  tracer.RecordComplete(obs::TraceCat::kGate, "b", /*ts_ns=*/30, 1, 0);
  tracer.RecordComplete(obs::TraceCat::kGate, "a", /*ts_ns=*/10, 1, 0);
  tracer.RecordInstant(obs::TraceCat::kNet, "c", 0);  // NowNs() == 0.
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "c");
  EXPECT_STREQ(events[1].name, "a");
  EXPECT_STREQ(events[2].name, "b");
}

TEST(TracerTest, RingWrapCountsDroppedEvents) {
  obs::Tracer tracer(/*capacity_per_thread=*/4);
  tracer.SetEnabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.RecordInstant(obs::TraceCat::kAlloc, "e", 0);
  }
  EXPECT_EQ(tracer.Snapshot().size(), 4u);
  EXPECT_EQ(tracer.DroppedEvents(), 6u);
  EXPECT_EQ(tracer.buffer_count(), 1u);
}

TEST(TracerTest, MessageCarriesTruncatedText) {
  obs::Tracer tracer(4);
  tracer.SetEnabled(true);
  const std::string longmsg(200, 'x');
  tracer.RecordMessage(obs::TraceCat::kLog, "log.warn", longmsg, 0);
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].text), sizeof(events[0].text) - 1);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(ExportTest, JsonEscape) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::JsonEscape("x\ny"), "x\\ny");
  EXPECT_EQ(obs::JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ExportTest, MetricsJsonParsesAndCarriesValues) {
  obs::MetricsRegistry registry;
  registry.GetCounter("net.frames").Add(7);
  registry.GetGauge("alloc.live").Set(-5);
  obs::LatencyHistogram& hist = registry.GetHistogram("gate.lat");
  for (uint64_t v = 1; v <= 100; ++v) {
    hist.Record(v);
  }
  JsonValue root;
  ASSERT_TRUE(JsonParser(obs::MetricsToJson(registry)).Parse(&root));
  ASSERT_EQ(root.kind, JsonValue::kObject);

  const JsonValue* counters = root.Get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Get("net.frames"), nullptr);
  EXPECT_EQ(counters->Get("net.frames")->number, 7);

  const JsonValue* gauges = root.Get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Get("alloc.live")->number, -5);

  const JsonValue* histograms = root.Get("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* lat = histograms->Get("gate.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->Get("count")->number, 100);
  EXPECT_EQ(lat->Get("p50")->number, 48);
  EXPECT_EQ(lat->Get("p99")->number, 96);
  EXPECT_EQ(lat->Get("max")->number, 100);
}

// Validates the Chrome trace-event contract Perfetto relies on: object
// wrapper with a traceEvents array; every event has name/cat/ph/pid/tid/ts;
// "X" events carry dur, "i" events carry scope "s".
void ValidateChromeTrace(const std::string& json, size_t expect_events) {
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  EXPECT_EQ(events->items.size(), expect_events);
  for (const JsonValue& event : events->items) {
    ASSERT_EQ(event.kind, JsonValue::kObject);
    ASSERT_NE(event.Get("name"), nullptr);
    ASSERT_NE(event.Get("cat"), nullptr);
    ASSERT_NE(event.Get("pid"), nullptr);
    ASSERT_NE(event.Get("tid"), nullptr);
    ASSERT_NE(event.Get("ts"), nullptr);
    const JsonValue* ph = event.Get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "X") {
      EXPECT_NE(event.Get("dur"), nullptr);
    } else if (ph->str == "i") {
      ASSERT_NE(event.Get("s"), nullptr);
      EXPECT_EQ(event.Get("s")->str, "t");
    } else {
      FAIL() << "unexpected phase " << ph->str;
    }
  }
}

TEST(ExportTest, ChromeTraceSchema) {
  // Built from plain TraceEvent data so the exporter contract is checked
  // without a live tracer.
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent span;
  span.ts_ns = 1500;
  span.dur_ns = 250;
  span.a0 = 64;
  span.a1 = 16;
  span.name = "mpk-shared-stack";
  span.tid = 2;
  span.cat = obs::TraceCat::kGate;
  span.phase = obs::TracePhase::kComplete;
  events.push_back(span);
  obs::TraceEvent instant;
  instant.ts_ns = 2000;
  instant.a0 = 4096;
  instant.name = "alloc.alloc";
  instant.tid = 1;
  instant.cat = obs::TraceCat::kAlloc;
  instant.phase = obs::TracePhase::kInstant;
  events.push_back(instant);
  obs::TraceEvent message;
  message.ts_ns = 2500;
  message.name = "log.warn";
  message.cat = obs::TraceCat::kLog;
  message.phase = obs::TracePhase::kInstant;
  message.SetText("msg \"quoted\"");
  events.push_back(message);

  const std::string json = obs::TraceToChromeJson(events);
  ValidateChromeTrace(json, 3);
  // Timestamps are microseconds: 1500 ns -> 1.5 us.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":0.250"), std::string::npos) << json;
  // The inline text payload survives as an escaped "msg" arg.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos) << json;
}

TEST(ExportTest, EmptyTraceIsValid) {
  ValidateChromeTrace(obs::TraceToChromeJson({}), 0);
}

TEST(ExportTest, MetricsJsonIsDeterministicallyOrdered) {
  // flexstat --metrics/--json output diffs cleanly run-to-run: metrics are
  // emitted in name order regardless of registration order.
  obs::MetricsRegistry registry;
  registry.GetCounter("z.last").Add(1);
  registry.GetCounter("a.first").Add(2);
  registry.GetGauge("m.middle").Set(3);
  registry.GetHistogram("b.second").Record(4);
  const std::string json = obs::MetricsToJson(registry);
  EXPECT_EQ(json, obs::MetricsToJson(registry));
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root));
}

// ---------------------------------------------------------------------------
// Log bridge.

struct CapturedLog {
  std::vector<std::string> messages;
  std::vector<LogLevel> levels;
};

TEST(LogBridgeTest, SinkReceivesRecordsAndTracerMirrorsWarnings) {
  // The Machine installs itself as the active tracer.
  Machine machine;
  machine.tracer().SetEnabled(true);

  CapturedLog captured;
  SetLogSink(
      [](const LogRecord& record, void* ctx) {
        auto* out = static_cast<CapturedLog*>(ctx);
        out->messages.emplace_back(record.message);
        out->levels.push_back(record.level);
      },
      &captured);
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);

  FLEXOS_INFO("hello %d", 42);
  FLEXOS_WARN("watch out %s", "now");

  SetLogLevel(saved);
  SetLogSink(nullptr, nullptr);

  ASSERT_EQ(captured.messages.size(), 2u);
  EXPECT_EQ(captured.messages[0], "hello 42");
  EXPECT_EQ(captured.levels[0], LogLevel::kInfo);
  EXPECT_EQ(captured.messages[1], "watch out now");

  // Only the warn+ line is mirrored into the trace.
  const auto events = machine.tracer().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "log.warn");
  EXPECT_STREQ(events[0].text, "watch out now");
  EXPECT_EQ(events[0].cat, obs::TraceCat::kLog);
}

TEST(LogBridgeTest, LogLevelKnobIsReadBack) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(saved);
}

// ---------------------------------------------------------------------------
// End-to-end: a built image records per-boundary metrics and gate spans.

TEST(ObsIntegrationTest, ImageCallPopulatesBoundaryMetrics) {
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig config;
  config.backend = IsolationBackend::kMpkSharedStack;
  config.compartments = {{"net"}, {"app", "sched", "libc", "alloc"}};
  auto image = builder.Build(config).value();

  const RouteHandle route = image->Resolve(kLibNet, kLibApp);
  int calls = 0;
  for (int i = 0; i < 10; ++i) {
    image->Call(route, [&] { ++calls; });
  }
  EXPECT_EQ(calls, 10);

  const std::string crossings = obs::GateMetricName(
      "crossings", "mpk-shared", route.from_comp, route.to_comp);
  EXPECT_EQ(machine.metrics().CounterValue(crossings), 10u);

  const std::string latency = obs::GateMetricName(
      "latency_ns", "mpk-shared", route.from_comp, route.to_comp);
  const obs::LatencyHistogram* hist =
      machine.metrics().FindHistogram(latency);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 10u);
  EXPECT_GT(hist->Percentile(50), 0u);

  // The legacy stats() view reads the same numbers.
  const auto it = image->stats().crossings.find(
      std::make_pair(route.from_comp, route.to_comp));
  ASSERT_NE(it, image->stats().crossings.end());
  EXPECT_EQ(it->second.crossings, 10u);
}

TEST(ObsIntegrationTest, GateSpansTracedWhenEnabled) {
  Machine machine;
  machine.tracer().SetEnabled(true);
  ImageBuilder builder(machine);
  ImageConfig config;
  config.backend = IsolationBackend::kMpkSharedStack;
  config.compartments = {{"net"}, {"app", "sched", "libc", "alloc"}};
  auto image = builder.Build(config).value();

  // Every crossing adds exactly one complete gate span, on the target
  // compartment's track, carrying the marshalled payload.
  const auto gate_spans = [&machine] {
    std::vector<obs::TraceEvent> spans;
    for (const obs::TraceEvent& event : machine.tracer().Snapshot()) {
      if (event.cat == obs::TraceCat::kGate &&
          event.phase == obs::TracePhase::kComplete) {
        spans.push_back(event);
      }
    }
    return spans;
  };
  size_t seen = gate_spans().size();
  const auto expect_one_new_span = [&](const char* name, int tid,
                                       uint64_t arg_bytes,
                                       uint64_t ret_bytes) {
    const std::vector<obs::TraceEvent> spans = gate_spans();
    ASSERT_EQ(spans.size(), ++seen);
    EXPECT_STREQ(spans.back().name, name);
    EXPECT_EQ(spans.back().tid, tid);
    EXPECT_EQ(spans.back().a0, arg_bytes);
    EXPECT_EQ(spans.back().a1, ret_bytes);
  };

  const RouteHandle route = image->Resolve(kLibNet, kLibApp);
  image->Call(route, [] {});
  expect_one_new_span("mpk-shared-stack", route.to_comp + 1, kGateArgBytes,
                      kGateRetBytes);

  // A batch is one crossing, not one per item; its notification-only
  // open/close carry no payload.
  {
    GateBatch batch(*image, route);
    for (int i = 0; i < 3; ++i) {
      batch.Run([] {});
    }
  }
  expect_one_new_span("mpk-shared-stack", route.to_comp + 1, 0, 0);

  // A same-compartment call is one direct span.
  const RouteHandle same = image->Resolve(kLibApp, kLibSched);
  ASSERT_FALSE(same.cross);
  image->Call(same, [] {});
  expect_one_new_span("direct", same.to_comp + 1, 0, 0);
}

// ---------------------------------------------------------------------------
// Attributor: exact cycle attribution and request accounting.

TEST(AttributorTest, ChargesNestedFramesAndConserves) {
  obs::Attributor attrib;
  attrib.SetEnabled(true, 100);
  attrib.ActivateThread(1, "worker", 100);
  attrib.PushFrame("app", 1, 100);
  attrib.PushFrame("net", 0, 150);           // 50 cycles in app.
  attrib.PushGateFrame("mpk-shared", 160);   // 10 cycles in net.
  attrib.PopFrame(180);                      // 20 cycles in the gate.
  attrib.PopFrame(200);                      // 20 more in net.
  attrib.PopFrame(230);                      // 30 more in app.
  attrib.Sync(250);                          // 20 at thread base.

  // Conservation: every cycle elapsed while enabled lands in exactly one
  // flame bucket.
  EXPECT_EQ(attrib.attributed_cycles(), 150u);
  uint64_t flame_total = 0;
  for (const obs::FlameEntry& entry : attrib.Flame()) {
    flame_total += entry.cycles;
  }
  EXPECT_EQ(flame_total, 150u);

  const std::map<int, uint64_t> comp = attrib.CompartmentCycles();
  EXPECT_EQ(comp.at(1), 80u);   // app frames.
  EXPECT_EQ(comp.at(0), 30u);   // net frames.
  EXPECT_EQ(comp.at(-1), 20u);  // thread base (no lib frame).
  EXPECT_EQ(attrib.BackendGateCycles().at("mpk-shared"), 20u);

  const std::string stacks = attrib.CollapsedStacks();
  EXPECT_NE(stacks.find("worker;app;net;gate:mpk-shared 20\n"),
            std::string::npos)
      << stacks;
  EXPECT_NE(stacks.find("worker;app 80\n"), std::string::npos) << stacks;
}

TEST(AttributorTest, RequestSplitsExecuteQueueWaitAndGateOverhead) {
  obs::Attributor attrib;
  attrib.SetEnabled(true, 0);
  attrib.ActivateThread(1, "server", 0);
  const obs::TraceContext ctx = attrib.BeginRequest("tcp:5001", 0, 1000);
  EXPECT_EQ(ctx.id, 1u);
  EXPECT_TRUE(static_cast<bool>(ctx));
  EXPECT_EQ(attrib.current_request(), 1u);

  attrib.PushFrame("net", 0, 0);
  attrib.PushGateFrame("vm-rpc", 40);   // 40 executing in net.
  attrib.PopFrame(70);                  // 30 in the gate.
  attrib.OnGateCrossing("vm-rpc", 0, 1, 55);
  attrib.PopFrame(100);                 // 30 more in net.

  // Descheduled from 100 to 160: queue wait, not execute.
  attrib.ActivateThread(0, "platform", 100);
  attrib.ActivateThread(1, "server", 160);
  attrib.EndRequest(ctx.id, 200, 5000);  // 40 more execute at thread base.
  attrib.Sync(200);
  EXPECT_EQ(attrib.current_request(), 0u);

  const obs::RequestRecord* req = attrib.FindRequest(ctx.id);
  ASSERT_NE(req, nullptr);
  EXPECT_FALSE(req->open);
  EXPECT_EQ(req->name, "tcp:5001");
  EXPECT_EQ(req->start_ns, 1000u);
  EXPECT_EQ(req->end_ns, 5000u);
  EXPECT_EQ(req->WallNanos(), 4000u);
  EXPECT_EQ(req->execute_cycles, 140u);
  EXPECT_EQ(req->gate_cycles, 30u);
  EXPECT_EQ(req->queue_wait_cycles, 60u);
  EXPECT_EQ(req->crossings, 1u);

  // Per-compartment body cycles plus gate halves partition execute exactly.
  uint64_t comp_total = 0;
  for (const auto& [comp, cycles] : req->comp_cycles) {
    comp_total += cycles;
  }
  EXPECT_EQ(comp_total + req->gate_cycles, req->execute_cycles);

  const std::string boundary =
      obs::GateMetricName("latency_ns", "vm-rpc", 0, 1);
  ASSERT_EQ(req->boundary_gate_ns.count(boundary), 1u);
  EXPECT_EQ(req->boundary_gate_ns.at(boundary), 55u);
}

TEST(AttributorTest, CrossingsOutsideRequestsChargeUnattributedRecord) {
  obs::Attributor attrib;
  attrib.SetEnabled(true, 0);
  attrib.OnGateCrossing("none", -1, 0, 17);
  attrib.OnGateCrossing("none", -1, 0, 3);
  EXPECT_EQ(attrib.requests_started(), 0u);

  const obs::RequestRecord* unattributed =
      attrib.FindRequest(obs::kUnattributedRequestId);
  ASSERT_NE(unattributed, nullptr);
  EXPECT_EQ(unattributed->crossings, 2u);
  const std::string boundary =
      obs::GateMetricName("latency_ns", "none", -1, 0);
  EXPECT_EQ(unattributed->boundary_gate_ns.at(boundary), 20u);
  // The unattributed record leads the sorted request list.
  const auto requests = attrib.Requests();
  ASSERT_FALSE(requests.empty());
  EXPECT_EQ(requests.front()->id, obs::kUnattributedRequestId);
}

TEST(AttributorTest, DisabledRecordsNothing) {
  obs::Attributor attrib;
  EXPECT_FALSE(attrib.enabled());
  attrib.ActivateThread(1, "t", 10);
  attrib.PushFrame("app", 1, 20);
  attrib.PopFrame(30);
  attrib.OnGateCrossing("none", 0, 1, 5);
  attrib.Sync(100);
  EXPECT_EQ(attrib.attributed_cycles(), 0u);
  EXPECT_TRUE(attrib.Flame().empty());
  EXPECT_FALSE(static_cast<bool>(attrib.BeginRequest("r", 0, 0)));
  EXPECT_EQ(attrib.current_request(), 0u);
  EXPECT_TRUE(attrib.Requests().empty());

  // An open record (end_ns still 0) reports no wall time yet.
  obs::RequestRecord open;
  open.start_ns = 100;
  EXPECT_EQ(open.WallNanos(), 0u);
}

// Acceptance: run a real iperf transfer with the profiler on and reconcile
// the request view against the metrics registry — summing boundary gate
// overhead over all request records (including the unattributed record)
// must reproduce the gate.latency_ns.* histogram sums exactly, and every
// cycle elapsed while enabled must be attributed exactly once.
TEST(ObsIntegrationTest, IperfRequestReconcilesWithGateHistograms) {
  TestbedConfig config;
  config.image.backend = IsolationBackend::kMpkSharedStack;
  config.image.compartments = {{"net"}, {"app", "sched", "libc", "alloc"}};
  config.profile = true;  // Attributor enabled at the end of boot.
  Testbed bed(config);
  obs::Attributor& attrib = bed.machine().attrib();
  ASSERT_TRUE(attrib.enabled());
  const uint64_t epoch = bed.machine().clock().cycles();

  constexpr uint64_t kBytes = 256 * 1024;
  IperfServerResult server_result;
  SpawnIperfServer(bed, IperfServerOptions{}, &server_result);
  IperfRemoteClient client(kBytes);
  RemoteTcpPeer peer(bed.machine(), bed.link(), RemoteTcpConfig{}, client);
  bed.AddPeer(&peer);
  peer.Connect();
  ASSERT_TRUE(bed.Run().ok());
  ASSERT_EQ(server_result.bytes_received, kBytes);

  const uint64_t end = bed.machine().clock().cycles();
  attrib.Sync(end);

  // Conservation invariant.
  EXPECT_EQ(attrib.attributed_cycles(), end - epoch);
  uint64_t flame_total = 0;
  for (const obs::FlameEntry& entry : attrib.Flame()) {
    flame_total += entry.cycles;
  }
  EXPECT_EQ(flame_total, end - epoch);
  uint64_t comp_total = 0;
  for (const auto& [comp, cycles] : attrib.CompartmentCycles()) {
    comp_total += cycles;
  }
  uint64_t backend_total = 0;
  for (const auto& [backend, cycles] : attrib.BackendGateCycles()) {
    backend_total += cycles;
  }
  EXPECT_EQ(comp_total + backend_total, end - epoch);
  EXPECT_GT(backend_total, 0u);

  // The accepted connection minted request 1 and Close ended it.
  const obs::RequestRecord* req = attrib.FindRequest(1);
  ASSERT_NE(req, nullptr);
  EXPECT_FALSE(req->open);
  EXPECT_EQ(req->name, "tcp:5001");
  EXPECT_GT(req->execute_cycles, 0u);
  EXPECT_GT(req->queue_wait_cycles, 0u);
  EXPECT_GT(req->crossings, 0u);
  uint64_t req_comp_total = 0;
  for (const auto& [comp, cycles] : req->comp_cycles) {
    req_comp_total += cycles;
  }
  EXPECT_EQ(req_comp_total + req->gate_cycles, req->execute_cycles);

  // Boundary reconciliation: request records vs. latency histograms.
  std::map<std::string, uint64_t> request_sums;
  uint64_t request_crossings = 0;
  for (const obs::RequestRecord* record : attrib.Requests()) {
    for (const auto& [boundary, ns] : record->boundary_gate_ns) {
      request_sums[boundary] += ns;
    }
    request_crossings += record->crossings;
  }
  std::map<std::string, uint64_t> histogram_sums;
  uint64_t histogram_crossings = 0;
  for (const auto& entry : bed.machine().metrics().Entries()) {
    obs::GateMetricParts parts;
    if (!obs::ParseGateMetricName(entry.name, &parts)) {
      continue;
    }
    if (parts.family == "latency_ns" && entry.histogram != nullptr &&
        entry.histogram->count() > 0) {
      histogram_sums[std::string(entry.name)] = entry.histogram->sum();
    }
    if (parts.family == "crossings" && entry.counter != nullptr) {
      histogram_crossings += entry.counter->value();
    }
  }
  EXPECT_FALSE(histogram_sums.empty());
  EXPECT_EQ(request_sums, histogram_sums);
  EXPECT_EQ(request_crossings, histogram_crossings);
}

// ---------------------------------------------------------------------------
// Per-vCPU gate counters: the ".v<N>" split (image.cc) appends a fifth
// dot-field after "gate.", which ParseGateMetricName must keep rejecting —
// any scan that sums "crossings" over accepted names would otherwise count
// every crossing twice (aggregate + per-vCPU split).

TEST(MetricNamesTest, RejectsPerVCpuFifthDotField) {
  obs::GateMetricParts parts;
  const std::string aggregate =
      obs::GateMetricName("crossings", "mpk-shared", 0, 1);
  ASSERT_TRUE(obs::ParseGateMetricName(aggregate, &parts));
  EXPECT_FALSE(obs::ParseGateMetricName(aggregate + ".v0", &parts));
  EXPECT_FALSE(obs::ParseGateMetricName(aggregate + ".v17", &parts));
  EXPECT_FALSE(obs::ParseGateMetricName(
      "gate.latency_ns.vm-rpc.platform.c2.v1", &parts));
}

TEST(MetricNamesTest, PerVCpuSplitNeverDoubleCountsInScans) {
  obs::MetricsRegistry registry;
  const std::string aggregate =
      obs::GateMetricName("crossings", "mpk-shared", 0, 1);
  registry.GetCounter(aggregate).Add(10);
  registry.GetCounter(aggregate + ".v0").Add(6);
  registry.GetCounter(aggregate + ".v1").Add(4);

  uint64_t scanned = 0;
  for (const auto& entry : registry.Entries()) {
    obs::GateMetricParts parts;
    if (entry.counter != nullptr &&
        obs::ParseGateMetricName(entry.name, &parts) &&
        parts.family == "crossings") {
      scanned += entry.counter->value();
    }
  }
  EXPECT_EQ(scanned, 10u);  // Aggregate only; .v0/.v1 are display splits.
}

// ---------------------------------------------------------------------------
// Exporter edge cases.

TEST(ExportTest, PrometheusNameEscapingAndLeadingDigit) {
  obs::MetricsRegistry registry;
  registry.GetCounter("gate.latency_ns.mpk-shared.c0.c1").Add(1);
  registry.GetCounter("0weird name%").Add(2);
  const std::string out = obs::MetricsToPrometheus(registry);
  EXPECT_NE(out.find("# TYPE gate_latency_ns_mpk_shared_c0_c1 counter"),
            std::string::npos);
  EXPECT_NE(out.find("gate_latency_ns_mpk_shared_c0_c1 1"),
            std::string::npos);
  // Names may not start with a digit in the 0.0.4 exposition format: the
  // sanitizer prepends '_', and no exposition line may begin with a digit.
  EXPECT_NE(out.find("_0weird_name_ 2"), std::string::npos);
  size_t line_start = 0;
  while (line_start < out.size()) {
    EXPECT_FALSE(std::isdigit(static_cast<unsigned char>(out[line_start])))
        << "line starts with a digit at offset " << line_start;
    const size_t nl = out.find('\n', line_start);
    if (nl == std::string::npos) {
      break;
    }
    line_start = nl + 1;
  }
}

TEST(ExportTest, EmptyRegistryExportsAreValid) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(obs::MetricsToPrometheus(registry), "");
  const std::string json = obs::MetricsToJson(registry);
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root));
  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* counters = root.Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_TRUE(counters->fields.empty());
}

TEST(ExportTest, TimelineRoundTripsByteIdentical) {
  std::vector<obs::WindowSnapshot> windows(2);
  windows[0].seq = 1;
  windows[0].start_cycles = 0;
  windows[0].end_cycles = 1000;
  windows[0].counters.push_back({"gate.crossings.none.c0.c1", 7});
  windows[0].gauges.push_back({"alloc.bytes_live", -3});
  obs::WindowHistSample hist;
  hist.name = "gate.latency_ns.none.c0.c1";
  for (uint64_t v = 1; v <= 9; ++v) {
    hist.delta.Record(v * 100);
  }
  windows[0].histograms.push_back(hist);
  windows[1].seq = 2;
  windows[1].start_cycles = 1000;
  windows[1].end_cycles = 2000;
  windows[1].counters.push_back({"gate.crossings.none.c0.c1", 2});

  const std::string json = obs::TimelineToJson(windows, 1000);
  obs::TimelineDoc doc;
  std::string error;
  ASSERT_TRUE(obs::TimelineFromJson(json, &doc, &error)) << error;
  EXPECT_EQ(doc.window_cycles, 1000u);
  ASSERT_EQ(doc.windows.size(), 2u);
  EXPECT_EQ(doc.windows[0].seq, 1u);
  ASSERT_EQ(doc.windows[0].counters.size(), 1u);
  EXPECT_EQ(doc.windows[0].counters[0].first, "gate.crossings.none.c0.c1");
  EXPECT_EQ(doc.windows[0].counters[0].second, 7u);
  ASSERT_EQ(doc.windows[0].gauges.size(), 1u);
  EXPECT_EQ(doc.windows[0].gauges[0].second, -3);
  ASSERT_EQ(doc.windows[0].histograms.size(), 1u);
  EXPECT_EQ(doc.windows[0].histograms[0].second.count, 9u);
  // The diff reader's re-serialization must be byte-identical to what the
  // exporter wrote, so tooling can diff timelines without a lossy hop.
  EXPECT_EQ(obs::TimelineDocToJson(doc), json);
}

TEST(ExportTest, TimelineFromJsonRejectsBadInput) {
  obs::TimelineDoc doc;
  std::string error;
  EXPECT_FALSE(obs::TimelineFromJson("not json", &doc, &error));
  EXPECT_NE(error.find("malformed"), std::string::npos);
  EXPECT_FALSE(obs::TimelineFromJson("{\"windows\":[]}", &doc, &error));
  EXPECT_NE(error.find("no \"schema\""), std::string::npos);
  EXPECT_FALSE(obs::TimelineFromJson(
      "{\"schema\":\"flexos-timeline-v2\",\"windows\":[]}", &doc, &error));
  EXPECT_NE(error.find("flexos-timeline-v1"), std::string::npos);
}

TEST(ObsIntegrationTest, BatchedCallsRecordBatchedCounter) {
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig config;
  config.backend = IsolationBackend::kMpkSharedStack;
  config.compartments = {{"net"}, {"app", "sched", "libc", "alloc"}};
  auto image = builder.Build(config).value();

  const RouteHandle route = image->Resolve(kLibNet, kLibApp);
  {
    GateBatch batch(*image, route);
    for (int i = 0; i < 5; ++i) {
      batch.Run([] {});
    }
  }
  const std::string batched = obs::GateMetricName(
      "batched", "mpk-shared", route.from_comp, route.to_comp);
  EXPECT_EQ(machine.metrics().CounterValue(batched), 5u);
}

}  // namespace
}  // namespace flexos
