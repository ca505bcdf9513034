#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "layers.h"
#include "support/panic.h"

namespace flexos {
namespace hostbench {
namespace {

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"ops_per_host_s", "ops/s"},
    {"req_host_us_p50", "us"},
    {"req_host_us_p99", "us"},
    {"peak_rss_mb", "MiB"},
    {"sim_ops_per_sim_s", "ops/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"apps.setup_ms_per_job", "ms"},
    {"apps.run_ms_per_job", "ms"},
    {"core.image_build_ms", "ms"},
    {"core.gate_crossings_per_op", "count/op"},
    {"core.gate_bytes_per_op", "B/op"},
    {"core.gate_host_ns", "ns"},
    {"vmem.mapped_mib_per_job", "MiB"},
    {"vmem.map_ms_per_gib", "ms/GiB"},
    {"vmem.write_ns_per_kib", "ns/KiB"},
    {"net.frames_per_op", "count/op"},
    {"net.tcp.segments_rx_per_op", "count/op"},
    {"net.tcp.segments_tx_per_op", "count/op"},
    {"net.tcp.retransmit_frac", "fraction"},
    {"net.parse_ns_per_frame", "ns"},
    {"net.checksum_ns_per_kib", "ns/KiB"},
    {"net.nic_rx_ms", "ms"},
    {"harness.peer_rx_ms", "ms"},
    {"harness.app_ms", "ms"},
    {"harness.share", "fraction"},
    {"harness.frames_rx", "count"},
    {"guest.self_ms", "ms"},
    {"sched.switches_per_op", "count/op"},
    {"sched.switch_host_ns", "ns"},
    {"alloc.allocations_per_op", "count/op"},
    {"alloc.bytes_per_op", "B/op"},
    {"obs.host_overhead", "ratio"},
    {"trace.overhead", "ratio"},
};

// Caps the span file (a long traced pass records over a million spans).
constexpr size_t kMaxWrittenSpans = 200'000;

// A traced pass and what its spans say, summarized before the recorder is
// cleared for the next one.
struct TracedPass {
  PassResult pass;
  LayerNs total{};
  LayerNs self{};
  int64_t app_under_run_ns = 0;  // Callbacks from peer timers in Run.
};

template <typename T, typename F>
double MedianOf(const std::vector<T>& items, F value) {
  std::vector<double> values;
  for (const T& item : items) {
    values.push_back(value(item));
  }
  std::sort(values.begin(), values.end());
  if (values.empty()) {
    return 0;
  }
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<float>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// One untraced pass and the percentiles of its request latencies. Each pass
// gets its own percentiles so that a host stall during one pass (which
// delays every request in flight at once) moves one value of the median.
struct PlainPass {
  PassResult pass;
  double p50_us = 0;
  double p99_us = 0;
  size_t samples = 0;
};

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

PlainPass RunPlainPass(const std::vector<JobSpec>& jobs, SpanRecorder& spans,
                       CalibrationLoop& calibration) {
  std::vector<float> latencies_us;
  PlainPass entry{.pass = RunPass(jobs, RunOptions{.spans = &spans,
                                                    .latencies_us =
                                                        &latencies_us,
                                                    .calibration =
                                                        &calibration})};
  std::sort(latencies_us.begin(), latencies_us.end());
  entry.p50_us = Percentile(latencies_us, 0.50);
  entry.p99_us = Percentile(latencies_us, 0.99);
  entry.samples = latencies_us.size();
  return entry;
}

// Leaves the pass's spans in `spans` (the last pass's are written out).
TracedPass RunTracedPass(const std::vector<JobSpec>& jobs,
                         SpanRecorder& spans, FrameCapture* capture,
                         CalibrationLoop& calibration) {
  spans.Clear();
  spans.set_enabled(true);
  TracedPass entry;
  entry.pass = RunPass(jobs, RunOptions{.spans = &spans,
                                        .capture = capture,
                                        .calibration = &calibration});
  spans.set_enabled(false);
  entry.total = spans.TotalNs();
  entry.self = spans.SelfNs();
  entry.app_under_run_ns =
      spans.TotalUnderNs(Layer::kRun)[static_cast<int>(Layer::kApp)];
  return entry;
}

// The same jobs with the profiler and flexwatch switched the other way.
std::vector<JobSpec> ObsTwin(const std::vector<JobSpec>& jobs) {
  std::vector<JobSpec> twin = jobs;
  for (JobSpec& job : twin) {
    job.config.profile = !job.config.profile;
    job.config.watch = !job.config.watch;
  }
  return twin;
}

// Ops of every job whose simulation differs from its twin's.
uint64_t TwinMismatchOps(const PassResult& pass, const PassResult& twin) {
  uint64_t failed = 0;
  for (size_t i = 0; i < pass.jobs.size(); ++i) {
    if (i >= twin.jobs.size() ||
        pass.jobs[i].digest != twin.jobs[i].digest) {
      failed += pass.jobs[i].ops;
    }
  }
  return failed;
}

struct Reported {
  std::string_view name;
  double value;
};

}  // namespace

std::span<const MetricDef> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricDef> PerLayerMetrics() { return kPerLayer; }

void RunBenchmark(const Args& args, std::FILE* out) {
  const std::vector<JobSpec> jobs = MakeJobs(args.workload, args.seed);
  const bool observed = args.workload == Workload::kRedisObserved;
  const std::vector<JobSpec> twin_jobs = ObsTwin(jobs);
  SpanRecorder spans;
  FrameCapture capture;
  CalibrationLoop calibration;
  const RunOptions untimed_options{.spans = &spans, .calibration = &calibration};

  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto account = [&](const PassResult& pass) {
    attempted += pass.ops;
    failed += pass.failed;
  };

  // Obs twins: the jobs with the profiler and flexwatch switched the other
  // way, whose modeled output must equal the workload's. redis_observed
  // always runs one (its twin is redis_steady); traced runs run one per
  // round to measure obs.host_overhead.
  std::vector<PassResult> twins;
  if (observed && !args.trace) {
    twins.push_back(RunPass(twin_jobs, untimed_options));
  }

  // One untimed pass first, so the allocator's free lists, the caches and
  // the calibration loop's tables are warm before anything is timed.
  const PassResult warmup = RunPass(jobs, untimed_options);
  account(warmup);

  std::vector<PlainPass> plain;
  std::vector<TracedPass> traced;
  // Rounds run while the next one, if it takes as long as the last, still
  // ends within --seconds (there is always at least one).
  const int64_t start = NowNs();
  int64_t round_ns = 0;
  do {
    const int64_t round_start = NowNs();
    plain.push_back(RunPlainPass(jobs, spans, calibration));
    account(plain.back().pass);
    if (args.trace) {
      traced.push_back(RunTracedPass(
          jobs, spans, traced.empty() ? &capture : nullptr, calibration));
      account(traced.back().pass);
      twins.push_back(RunPass(twin_jobs, untimed_options));
    }
    round_ns = NowNs() - round_start;
  } while (static_cast<double>(NowNs() + round_ns - start) / 1e9 <=
           args.seconds);

  // Every pass replays the same seed, so every simulation must be
  // byte-identical — traced or not.
  const PassResult& first = plain.front().pass;
  bool deterministic = warmup.digest == first.digest;
  for (const PlainPass& entry : plain) {
    deterministic &= entry.pass.digest == first.digest;
  }
  for (const TracedPass& entry : traced) {
    deterministic &= entry.pass.digest == first.digest;
  }
  for (const PassResult& twin : twins) {
    account(twin);
    failed += TwinMismatchOps(twin, first);
  }

  const double jobs_per_pass = static_cast<double>(jobs.size());
  const double ops_per_pass = static_cast<double>(first.ops);
  std::vector<Reported> metrics;

  std::fprintf(out, "# hostbench workload=%s seed=%llu trace=%d\n",
               std::string(WorkloadName(args.workload)).c_str(),
               static_cast<unsigned long long>(args.seed), args.trace);
  std::fprintf(out, "# %zu untraced + %zu traced passes of %zu jobs, %.0f "
               "ops per pass\n",
               plain.size(), traced.size(), jobs.size(), ops_per_pass);
  std::fprintf(out, "# measured wall_s per untraced pass:");
  for (const PlainPass& entry : plain) {
    std::fprintf(out, " %.4f", entry.pass.wall_s);
  }
  std::fprintf(out, "\n# host scale per untraced pass:");
  for (const PlainPass& entry : plain) {
    std::fprintf(out, " %.4f", entry.pass.ref_wall_s / entry.pass.wall_s);
  }
  std::fputc('\n', out);

  if (!args.trace) {
    metrics = {
        {"setup_s",
         MedianOf(plain,
                  [](const PlainPass& p) { return p.pass.ref_setup_s; })},
        {"wall_s",
         MedianOf(plain, [](const PlainPass& p) { return p.pass.ref_wall_s; })},
        {"ops_per_host_s",
         MedianOf(plain,
                  [](const PlainPass& p) {
                    return static_cast<double>(p.pass.ops) / p.pass.ref_run_s;
                  })},
        {"req_host_us_p50",
         MedianOf(plain, [](const PlainPass& p) { return p.p50_us; })},
        {"req_host_us_p99",
         MedianOf(plain, [](const PlainPass& p) { return p.p99_us; })},
        {"peak_rss_mb", PeakRssMiB()},
        {"sim_ops_per_sim_s", ops_per_pass / first.sim_s},
    };
  } else {
    // Run time with the profiler and flexwatch on over run time with them
    // off, paired per round.
    std::vector<double> obs_ratios;
    for (size_t i = 0; i < twins.size(); ++i) {
      const double ratio = twins[i].run_s / plain[i].pass.run_s;
      obs_ratios.push_back(observed ? 1 / ratio : ratio);
    }

    std::fprintf(out, "# self ms per layer, last traced pass:");
    for (int layer = 0; layer < kLayerCount; ++layer) {
      std::fprintf(out, " %s=%.3f",
                   std::string(LayerName(static_cast<Layer>(layer))).c_str(),
                   static_cast<double>(traced.back().self[layer]) / 1e6);
    }
    std::fputc('\n', out);

    spans.set_enabled(true);  // Replay spans join the last traced pass.
    const LayerReplay replay = ReplayLayers(jobs, capture, spans);
    spans.set_enabled(false);

    auto per_pass = [&](auto value) { return MedianOf(traced, value); };
    auto per_op = [&](auto count) {
      return per_pass([&](const TracedPass& t) {
        return static_cast<double>(count(t.pass.counts)) / ops_per_pass;
      });
    };
    auto span_ms = [&](Layer layer) {
      return per_pass([layer](const TracedPass& t) {
        return static_cast<double>(t.total[static_cast<int>(layer)]) / 1e6;
      });
    };
    auto harness_ns = [](const TracedPass& t) {
      return static_cast<double>(t.total[static_cast<int>(Layer::kPeerRx)] +
                                 t.app_under_run_ns);
    };
    std::vector<double> trace_ratios;
    for (size_t i = 0; i < traced.size(); ++i) {
      trace_ratios.push_back(traced[i].pass.wall_s / plain[i].pass.wall_s);
    }
    metrics = {
        {"apps.setup_ms_per_job",
         span_ms(Layer::kSetup) / jobs_per_pass},
        {"apps.run_ms_per_job", span_ms(Layer::kRun) / jobs_per_pass},
        {"core.image_build_ms", replay.image_build_ms},
        {"core.gate_crossings_per_op",
         per_op([](const LayerCounts& c) { return c.gate_crossings; })},
        {"core.gate_bytes_per_op",
         per_op([](const LayerCounts& c) { return c.gate_bytes; })},
        {"core.gate_host_ns", replay.gate_host_ns},
        {"vmem.mapped_mib_per_job", replay.mapped_mib_per_job},
        {"vmem.map_ms_per_gib", replay.map_ms_per_gib},
        {"vmem.write_ns_per_kib", replay.write_ns_per_kib},
        {"net.frames_per_op",
         per_op([](const LayerCounts& c) { return c.link_frames; })},
        {"net.tcp.segments_rx_per_op",
         per_op([](const LayerCounts& c) { return c.segments_rx; })},
        {"net.tcp.segments_tx_per_op",
         per_op([](const LayerCounts& c) { return c.segments_tx; })},
        {"net.tcp.retransmit_frac",
         per_pass([](const TracedPass& t) {
           const LayerCounts& c = t.pass.counts;
           return static_cast<double>(c.retransmits) /
                  static_cast<double>(
                      std::max<uint64_t>(1, c.segments_tx +
                                                c.peer_segments_tx));
         })},
        {"net.parse_ns_per_frame", replay.parse_ns_per_frame},
        {"net.checksum_ns_per_kib", replay.checksum_ns_per_kib},
        {"net.nic_rx_ms", span_ms(Layer::kNicRx)},
        {"harness.peer_rx_ms", span_ms(Layer::kPeerRx)},
        {"harness.app_ms", span_ms(Layer::kApp)},
        {"harness.share",
         per_pass([&](const TracedPass& t) {
           return harness_ns(t) /
                  static_cast<double>(t.total[static_cast<int>(Layer::kRun)]);
         })},
        {"harness.frames_rx",
         per_pass([](const TracedPass& t) {
           return static_cast<double>(t.pass.counts.hub_frames);
         })},
        {"guest.self_ms",
         per_pass([](const TracedPass& t) {
           return static_cast<double>(t.self[static_cast<int>(Layer::kRun)]) /
                  1e6;
         })},
        {"sched.switches_per_op",
         per_op([](const LayerCounts& c) { return c.context_switches; })},
        {"sched.switch_host_ns", replay.switch_host_ns},
        {"alloc.allocations_per_op",
         per_op([](const LayerCounts& c) { return c.allocations; })},
        {"alloc.bytes_per_op",
         per_op([](const LayerCounts& c) { return c.alloc_bytes; })},
        {"obs.host_overhead",
         MedianOf(obs_ratios, [](double r) { return r; })},
        {"trace.overhead",
         MedianOf(trace_ratios, [](double r) { return r; })},
    };
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/spans-" +
                               std::string(WorkloadName(args.workload)) +
                               ".json";
      if (spans.WriteChromeTrace(path, kMaxWrittenSpans)) {
        std::fprintf(out, "# first %zu of %zu spans of the last traced pass: "
                     "%s\n",
                     std::min(kMaxWrittenSpans, spans.spans().size()),
                     spans.spans().size(), path.c_str());
      } else {
        std::fprintf(out, "# could not write %s\n", path.c_str());
      }
    }
  }

  const bool correct = deterministic && failed == 0;
  std::fprintf(out, "sim_digest = %016llx\n",
               static_cast<unsigned long long>(first.digest));
  std::fprintf(out, "deterministic = %s\n", deterministic ? "yes" : "NO");
  std::fprintf(out, "error_rate = %.6g fraction (%llu of %llu ops failed)\n",
               static_cast<double>(failed) / static_cast<double>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));
  // Print in table order; every metric of the table must have a value.
  const std::span<const MetricDef> defs =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  FLEXOS_CHECK(metrics.size() == defs.size(), "metric table mismatch");
  for (size_t i = 0; i < defs.size(); ++i) {
    FLEXOS_CHECK(metrics[i].name == defs[i].name, "metric table mismatch");
    std::fprintf(out, "%s = %.6g %s", std::string(defs[i].name).c_str(),
                 metrics[i].value, std::string(defs[i].unit).c_str());
    if (defs[i].name == "req_host_us_p99") {
      const size_t samples = plain.front().samples;
      std::fprintf(out,
                   " (median over passes; %zu samples, %zu beyond, per pass)",
                   samples,
                   samples - static_cast<size_t>(std::ceil(
                                 0.99 * static_cast<double>(samples))));
    }
    std::fputc('\n', out);
  }

  std::fprintf(out,
               "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < defs.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", std::string(defs[i].name).c_str(), value,
                 std::string(defs[i].unit).c_str());
  }
  std::fputs("}}\n", out);
  std::fflush(out);
}

}  // namespace hostbench
}  // namespace flexos
