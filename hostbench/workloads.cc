#include "workloads.h"

#include <map>

#include "apps/iperf_server.h"
#include "apps/redis_server.h"
#include "bench_util.h"
#include "obs/names.h"
#include "support/rng.h"
#include "support/strings.h"

namespace flexos {
namespace hostbench {
namespace {

using bench::NetOnlyConfig;
using bench::NetPlusSchedConfig;
using bench::NetSchedRestConfig;

constexpr int kRedisConns = 8;

// Boot jobs: fig5's shape — every key preloaded, then GETs.
constexpr uint64_t kBootKeys = 16;
constexpr uint64_t kBootGets = 150;
// Steady jobs: a long SET/GET mix per connection.
constexpr uint64_t kSteadyKeys = 64;
constexpr uint64_t kSteadyOps = 4000;
constexpr double kSteadySetFraction = 0.3;
constexpr uint64_t kSteadyMinValue = 5;
constexpr uint64_t kSteadyMaxValue = 500;
// Iperf jobs: volume per job, plus up to this many seeded extra KiB.
constexpr uint64_t kIperfBytes = 16ull << 20;
constexpr uint64_t kIperfJitterKib = 32;
constexpr size_t kIperfPatternBytes = 64 * 1024;

// Independent seeded stream per (workload part, connection).
Rng StreamRng(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return Rng(SplitMix64(state));
}

std::string RandomBytes(Rng& rng, uint64_t size) {
  std::string bytes(size, '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(rng.NextBelow(256));
  }
  return bytes;
}

// Builds one connection's ops while tracking what each key holds, so every
// GET carries the reply the server must give.
class ScriptBuilder {
 public:
  explicit ScriptBuilder(int conn) : prefix_(StrFormat("c%d:", conn)) {}

  void Set(uint64_t key, std::string value) {
    const std::string name = KeyName(key);
    script_.ops.push_back(
        RedisOp{EncodeRespCommand({"SET", name, value}), "+OK\r\n"});
    model_[key] = std::move(value);
  }

  void Get(uint64_t key) {
    auto it = model_.find(key);
    std::string expected = "$-1\r\n";
    if (it != model_.end()) {
      expected = StrFormat("$%zu\r\n", it->second.size()) + it->second +
                 "\r\n";
    }
    script_.ops.push_back(
        RedisOp{EncodeRespCommand({"GET", KeyName(key)}), expected});
  }

  RedisScript Take() { return std::move(script_); }

 private:
  std::string KeyName(uint64_t key) const {
    return prefix_ + StrFormat("%llu", static_cast<unsigned long long>(key));
  }

  std::string prefix_;
  std::map<uint64_t, std::string> model_;
  RedisScript script_;
};

std::shared_ptr<const std::vector<RedisScript>> BootScripts(
    uint64_t seed, uint64_t payload) {
  auto scripts = std::make_shared<std::vector<RedisScript>>();
  for (int conn = 0; conn < kRedisConns; ++conn) {
    Rng rng = StreamRng(seed, 100 + payload * 16 + conn);
    ScriptBuilder builder(conn);
    for (uint64_t key = 0; key < kBootKeys; ++key) {
      builder.Set(key, RandomBytes(rng, payload));
    }
    const uint64_t gets = kBootGets + rng.NextBelow(8);
    for (uint64_t i = 0; i < gets; ++i) {
      builder.Get(rng.NextBelow(kBootKeys));
    }
    scripts->push_back(builder.Take());
  }
  return scripts;
}

std::shared_ptr<const std::vector<RedisScript>> SteadyScripts(uint64_t seed) {
  auto scripts = std::make_shared<std::vector<RedisScript>>();
  for (int conn = 0; conn < kRedisConns; ++conn) {
    Rng rng = StreamRng(seed, 200 + conn);
    ScriptBuilder builder(conn);
    for (uint64_t i = 0; i < kSteadyOps; ++i) {
      const uint64_t key = rng.NextBelow(kSteadyKeys);
      if (rng.NextBool(kSteadySetFraction)) {
        builder.Set(key, RandomBytes(rng, rng.NextInRange(kSteadyMinValue,
                                                          kSteadyMaxValue)));
      } else {
        builder.Get(key);
      }
    }
    scripts->push_back(builder.Take());
  }
  return scripts;
}

constexpr IsolationBackend kBackends[] = {
    IsolationBackend::kNone, IsolationBackend::kMpkSharedStack,
    IsolationBackend::kMpkSwitchedStack, IsolationBackend::kVmRpc};

std::vector<JobSpec> IperfJobs(uint64_t seed) {
  Rng rng = StreamRng(seed, 1);
  auto pattern = std::make_shared<std::vector<uint8_t>>(kIperfPatternBytes);
  for (uint8_t& byte : *pattern) {
    byte = static_cast<uint8_t>(rng.NextBelow(256));
  }
  std::vector<JobSpec> jobs;
  for (IsolationBackend backend : kBackends) {
    for (uint64_t buffer : {64ull, 4096ull, 65536ull}) {
      JobSpec job;
      job.label = StrFormat("iperf/%s/buf%llu",
                            std::string(IsolationBackendName(backend)).c_str(),
                            static_cast<unsigned long long>(buffer));
      job.config.image = backend == IsolationBackend::kNone
                             ? BaselineConfig(DefaultLibs())
                             : NetOnlyConfig(backend);
      // As in fig3, the VM backend runs on Xen's costlier packet paths.
      if (backend == IsolationBackend::kVmRpc) {
        job.config.costs = bench::XenPlatformCosts();
      }
      job.pattern = pattern;
      job.iperf_bytes = kIperfBytes + rng.NextBelow(kIperfJitterKib) * 1024;
      job.recv_buffer = buffer;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<JobSpec> RedisBootJobs(uint64_t seed) {
  const std::pair<const char*, ImageConfig> configs[] = {
      {"none", BaselineConfig(DefaultLibs())},
      {"nw-sh", NetOnlyConfig(IsolationBackend::kMpkSharedStack)},
      {"nw-sw", NetOnlyConfig(IsolationBackend::kMpkSwitchedStack)},
      {"nsr-sh", NetSchedRestConfig(IsolationBackend::kMpkSharedStack)},
      {"nsr-sw", NetSchedRestConfig(IsolationBackend::kMpkSwitchedStack)},
      {"nws-sh", NetPlusSchedConfig(IsolationBackend::kMpkSharedStack)},
      {"nws-sw", NetPlusSchedConfig(IsolationBackend::kMpkSwitchedStack)},
  };
  std::vector<JobSpec> jobs;
  for (uint64_t payload : {5ull, 50ull, 500ull}) {
    const auto scripts = BootScripts(seed, payload);
    for (const auto& [name, image] : configs) {
      JobSpec job;
      job.label = StrFormat("redis_boot/%s/p%llu", name,
                            static_cast<unsigned long long>(payload));
      job.config.image = image;
      job.scripts = scripts;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<JobSpec> RedisSteadyJobs(uint64_t seed, bool observed) {
  const auto scripts = SteadyScripts(seed);
  std::vector<JobSpec> jobs;
  for (IsolationBackend backend : kBackends) {
    JobSpec job;
    job.label = StrFormat("%s/nsr-%s",
                          observed ? "redis_observed" : "redis_steady",
                          std::string(IsolationBackendName(backend)).c_str());
    job.config.image = NetSchedRestConfig(backend);
    job.config.profile = observed;
    job.config.watch = observed;
    job.scripts = scripts;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

class Fnv1a {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void Add(uint64_t value) { Add(&value, sizeof(value)); }
  void Add(std::string_view text) {
    Add(text.data(), text.size());
    Add(text.size());
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AddMetric(Fnv1a& hash, const obs::MetricsRegistry::Entry& entry) {
  hash.Add(entry.name);
  if (entry.counter != nullptr) {
    hash.Add(entry.counter->value());
  } else if (entry.gauge != nullptr) {
    hash.Add(static_cast<uint64_t>(entry.gauge->value()));
  } else if (entry.histogram != nullptr) {
    hash.Add(entry.histogram->count());
    hash.Add(entry.histogram->sum());
    hash.Add(entry.histogram->min());
    hash.Add(entry.histogram->max());
  }
}

LayerCounts ReadCounts(Testbed& bed) {
  const obs::MetricsRegistry& metrics = bed.machine().metrics();
  LayerCounts counts;
  for (const obs::MetricsRegistry::Entry& entry : metrics.Entries()) {
    obs::GateMetricParts parts;
    if (entry.counter == nullptr ||
        !obs::ParseGateMetricName(entry.name, &parts)) {
      continue;
    }
    if (parts.family == "crossings") {
      counts.gate_crossings += entry.counter->value();
    } else if (parts.family == "bytes") {
      counts.gate_bytes += entry.counter->value();
    }
  }
  counts.link_frames = bed.link().stats().frames_delivered;
  counts.segments_rx = metrics.CounterValue(obs::kMetricTcpSegmentsRx);
  counts.segments_tx = metrics.CounterValue(obs::kMetricTcpSegmentsTx);
  counts.retransmits = metrics.CounterValue(obs::kMetricTcpRetransmits);
  counts.context_switches =
      metrics.CounterValue(obs::kMetricContextSwitches);
  counts.allocations = metrics.CounterValue(obs::kMetricAllocCount);
  counts.alloc_bytes = metrics.CounterValue(obs::kMetricAllocBytes);
  return counts;
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

// Builds, runs and tears down one testbed. Teardown happens on return, so
// it falls inside the caller's job span and the pass's wall time.
void RunJobBody(const JobSpec& job, const RunOptions& options,
                JobResult* result) {
  SpanRecorder& spans = *options.spans;
  const int64_t setup_start = NowNs();
  const int32_t setup_span = spans.Begin(Layer::kSetup);
  Testbed bed(job.config);
  NicTap tap(bed.link(), bed.nic(), spans, options.capture);
  PeerHub hub(bed.link(), spans);

  RedisServerResult redis_server;
  IperfServerResult iperf_server;
  std::vector<std::unique_ptr<CountedApp>> clients;
  std::vector<std::unique_ptr<TimedApp>> timed;
  std::vector<std::unique_ptr<RemoteTcpPeer>> peers;
  auto add_peer = [&](std::unique_ptr<CountedApp> client,
                      RemoteTcpConfig peer_config) {
    clients.push_back(std::move(client));
    timed.push_back(std::make_unique<TimedApp>(*clients.back(), spans,
                                               options.latencies_us));
    peers.push_back(std::make_unique<RemoteTcpPeer>(
        bed.machine(), bed.link(), peer_config, *timed.back(),
        /*attach=*/false));
    hub.Register(*peers.back(), *timed.back());
    bed.AddPeer(peers.back().get());
  };

  if (job.is_redis()) {
    RedisServerOptions server_options;
    server_options.max_conns = static_cast<int>(job.scripts->size());
    SpawnRedisServer(bed, server_options, &redis_server);
    for (size_t i = 0; i < job.scripts->size(); ++i) {
      RemoteTcpConfig peer_config;
      peer_config.server_port = server_options.port;
      peer_config.local_port = static_cast<Port>(40000 + i);
      add_peer(std::make_unique<ScriptedRedisClient>(
                   (*job.scripts)[i], i == 0 ? options.corrupt_reply : -1),
               peer_config);
    }
  } else {
    IperfServerOptions server_options;
    server_options.recv_buffer_bytes = job.recv_buffer;
    SpawnIperfServer(bed, server_options, &iperf_server);
    auto sender = std::make_unique<IperfSender>(*job.pattern, job.iperf_bytes);
    IperfSender* raw_sender = sender.get();
    add_peer(std::move(sender), RemoteTcpConfig{});
    raw_sender->set_peer(peers.back().get());
  }
  for (auto& peer : peers) {
    peer->Connect();
  }
  spans.End(setup_span);
  const int64_t run_start = NowNs();
  result->setup_s = Seconds(setup_start, run_start);

  Status status = Status::Ok();
  {
    ScopedSpan run_span(spans, Layer::kRun);
    status = bed.Run();
  }
  result->run_s = Seconds(run_start, NowNs());

  result->ops = job.ops();
  if (job.is_redis()) {
    uint64_t correct = 0;
    for (const auto& client : clients) {
      correct += static_cast<const ScriptedRedisClient&>(*client).correct();
    }
    result->failed = status.ok() ? result->ops - correct : result->ops;
  } else {
    // Both the stack's byte counter and the server's own count must agree
    // with what was sent.
    const uint64_t counted =
        bed.machine().metrics().CounterValue(obs::kMetricTcpBytesRx);
    const uint64_t delivered = iperf_server.bytes_received;
    if (!status.ok() || counted != delivered || delivered > job.iperf_bytes) {
      result->failed = result->ops;
    } else {
      result->failed = (job.iperf_bytes - delivered + 1023) / 1024;
    }
  }

  result->sim_s = bed.machine().clock().NowSeconds();
  Fnv1a digest;
  digest.Add(bed.machine().clock().cycles());
  for (const obs::MetricsRegistry::Entry& entry :
       bed.machine().metrics().Entries()) {
    AddMetric(digest, entry);
  }
  result->digest = digest.hash();

  result->counts = ReadCounts(bed);
  result->counts.hub_frames = hub.frames();
  for (const auto& peer : peers) {
    result->counts.retransmits += peer->stats().retransmits;
    result->counts.peer_segments_tx += peer->stats().segments_tx;
  }
}

}  // namespace

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kIperfStream:
      return "iperf_stream";
    case Workload::kRedisBoot:
      return "redis_boot";
    case Workload::kRedisSteady:
      return "redis_steady";
    case Workload::kRedisObserved:
      return "redis_observed";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload workload : kWorkloads) {
    if (WorkloadName(workload) == name) {
      *out = workload;
      return true;
    }
  }
  return false;
}

uint64_t JobSpec::ops() const {
  if (!is_redis()) {
    return iperf_bytes / 1024;
  }
  uint64_t ops = 0;
  for (const RedisScript& script : *scripts) {
    ops += script.ops.size();
  }
  return ops;
}

std::vector<JobSpec> MakeJobs(Workload workload, uint64_t seed) {
  switch (workload) {
    case Workload::kIperfStream:
      return IperfJobs(seed);
    case Workload::kRedisBoot:
      return RedisBootJobs(seed);
    case Workload::kRedisSteady:
      return RedisSteadyJobs(seed, /*observed=*/false);
    case Workload::kRedisObserved:
      return RedisSteadyJobs(seed, /*observed=*/true);
  }
  return {};
}

void LayerCounts::Add(const LayerCounts& other) {
  gate_crossings += other.gate_crossings;
  gate_bytes += other.gate_bytes;
  link_frames += other.link_frames;
  segments_rx += other.segments_rx;
  segments_tx += other.segments_tx;
  retransmits += other.retransmits;
  peer_segments_tx += other.peer_segments_tx;
  context_switches += other.context_switches;
  allocations += other.allocations;
  alloc_bytes += other.alloc_bytes;
  hub_frames += other.hub_frames;
}

JobResult RunJob(const JobSpec& job, const RunOptions& options) {
  JobResult result;
  ScopedSpan job_span(*options.spans, Layer::kJob);
  RunJobBody(job, options, &result);
  return result;
}

PassResult RunPass(const std::vector<JobSpec>& jobs,
                   const RunOptions& options) {
  PassResult pass;
  Fnv1a digest;
  auto calibrate = [&]() -> double {
    return options.calibration == nullptr
               ? kCalibrationReferenceNs
               : static_cast<double>(options.calibration->RunNs());
  };
  double calibration_ns = calibrate();
  for (const JobSpec& job : jobs) {
    const size_t first_latency =
        options.latencies_us ? options.latencies_us->size() : 0;
    const int64_t start = NowNs();
    JobResult result = RunJob(job, options);
    result.wall_s = Seconds(start, NowNs());
    const double next_calibration_ns = calibrate();
    result.host_scale = 2 * kCalibrationReferenceNs /
                        (calibration_ns + next_calibration_ns);
    calibration_ns = next_calibration_ns;
    if (options.latencies_us != nullptr) {
      for (size_t i = first_latency; i < options.latencies_us->size(); ++i) {
        (*options.latencies_us)[i] *= static_cast<float>(result.host_scale);
      }
    }
    pass.setup_s += result.setup_s;
    pass.run_s += result.run_s;
    pass.wall_s += result.wall_s;
    pass.ref_setup_s += result.setup_s * result.host_scale;
    pass.ref_run_s += result.run_s * result.host_scale;
    pass.ref_wall_s += result.wall_s * result.host_scale;
    pass.sim_s += result.sim_s;
    pass.ops += result.ops;
    pass.failed += result.failed;
    pass.counts.Add(result.counts);
    digest.Add(result.digest);
    pass.jobs.push_back(result);
  }
  pass.digest = digest.hash();
  return pass;
}

}  // namespace hostbench
}  // namespace flexos
