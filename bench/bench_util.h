// Shared plumbing for the paper-reproduction benchmarks: canned image
// configurations, iperf/redis run helpers, and table printing.
#ifndef FLEXOS_BENCH_BENCH_UTIL_H_
#define FLEXOS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>

#include "apps/iperf_client.h"
#include "apps/iperf_server.h"
#include "apps/redis_client.h"
#include "apps/redis_server.h"
#include "apps/testbed.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "support/strings.h"

namespace flexos {
namespace bench {

// {net} | {rest}: the paper's basic two-compartment model.
inline ImageConfig NetOnlyConfig(IsolationBackend backend) {
  ImageConfig config;
  config.backend = backend;
  config.compartments = {
      {std::string(kLibNet)},
      {std::string(kLibApp), std::string(kLibSched), std::string(kLibLibc),
       std::string(kLibAlloc)}};
  return config;
}

// {net} | {sched} | {rest} (Fig. 5 "NW/Sched/Rest").
inline ImageConfig NetSchedRestConfig(IsolationBackend backend) {
  ImageConfig config;
  config.backend = backend;
  config.compartments = {
      {std::string(kLibNet)},
      {std::string(kLibSched)},
      {std::string(kLibApp), std::string(kLibLibc), std::string(kLibAlloc)}};
  return config;
}

// {net, sched} | {rest} (Fig. 5 "NW+Sched/Rest").
inline ImageConfig NetPlusSchedConfig(IsolationBackend backend) {
  ImageConfig config;
  config.backend = backend;
  config.compartments = {
      {std::string(kLibNet), std::string(kLibSched)},
      {std::string(kLibApp), std::string(kLibLibc), std::string(kLibAlloc)}};
  return config;
}

// The paper's testbed ran Unikraft v0.4 on Xen without optimization;
// platform I/O paths cost noticeably more than on KVM. Model that as a tax
// on per-packet processing.
inline CostModel XenPlatformCosts() {
  CostModel costs;
  costs.pkt_rx_fixed = static_cast<uint64_t>(costs.pkt_rx_fixed * 2.2);
  costs.pkt_tx_fixed = static_cast<uint64_t>(costs.pkt_tx_fixed * 2.2);
  costs.syscall_ish *= 2;
  return costs;
}

struct IperfPoint {
  double gbps = 0;
  uint64_t bytes = 0;
  bool ok = false;
};

inline IperfPoint RunIperf(const TestbedConfig& config, uint64_t total_bytes,
                           uint64_t recv_buffer) {
  Testbed bed(config);
  IperfServerResult server_result;
  IperfServerOptions options;
  options.recv_buffer_bytes = recv_buffer;
  SpawnIperfServer(bed, options, &server_result);

  IperfRemoteClient client(total_bytes);
  RemoteTcpPeer peer(bed.machine(), bed.link(), RemoteTcpConfig{}, client);
  bed.AddPeer(&peer);
  peer.Connect();

  IperfPoint point;
  const Status status = bed.Run();
  // The registry's TCP byte counter (PR 3) is the reported number; the
  // app-level count cross-checks that instrumentation and workload agree.
  point.bytes = bed.machine().metrics().CounterValue(obs::kMetricTcpBytesRx);
  point.ok = status.ok() && server_result.bytes_received == total_bytes &&
             point.bytes == server_result.bytes_received;
  const double seconds = bed.machine().clock().NowSeconds();
  if (seconds > 0) {
    point.gbps =
        static_cast<double>(server_result.bytes_received) * 8.0 / seconds /
        1e9;
  }
  if (!point.ok) {
    std::fprintf(stderr, "WARNING: iperf run incomplete (%s, %llu/%llu B)\n",
                 status.ToString().c_str(),
                 static_cast<unsigned long long>(point.bytes),
                 static_cast<unsigned long long>(total_bytes));
  }
  return point;
}

struct RedisPoint {
  double kops = 0;  // Measured requests/s (thousands).
  bool ok = false;
};

inline RedisPoint RunRedis(const TestbedConfig& config,
                           const RedisWorkload& workload) {
  Testbed bed(config);
  RedisServerResult server_result;
  SpawnRedisServer(bed, RedisServerOptions{}, &server_result);

  RedisRemoteClient client(bed.machine(), workload);
  RemoteTcpConfig peer_config;
  peer_config.server_port = 6379;
  RemoteTcpPeer peer(bed.machine(), bed.link(), peer_config, client);
  bed.AddPeer(&peer);
  peer.Connect();

  RedisPoint point;
  const Status status = bed.Run();
  point.ok = status.ok() &&
             client.measured_completed() == workload.measured_ops &&
             client.errors() == 0;
  point.kops = client.MeasuredOpsPerSec() / 1e3;
  if (!point.ok) {
    std::fprintf(stderr, "WARNING: redis run incomplete (%s, %llu ops)\n",
                 status.ToString().c_str(),
                 static_cast<unsigned long long>(client.measured_completed()));
  }
  return point;
}

// Multi-connection redis run: `conns` concurrent closed-loop clients (the
// redis-benchmark model), aggregate measured throughput.
inline RedisPoint RunRedisMulti(const TestbedConfig& config,
                                const RedisWorkload& base_workload,
                                int conns) {
  Testbed bed(config);
  RedisServerResult server_result;
  RedisServerOptions options;
  options.max_conns = conns;
  SpawnRedisServer(bed, options, &server_result);

  RemoteHub hub(bed.link());
  std::vector<std::unique_ptr<RedisRemoteClient>> clients;
  std::vector<std::unique_ptr<RemoteTcpPeer>> peers;
  for (int i = 0; i < conns; ++i) {
    RedisWorkload workload = base_workload;
    workload.key_prefix = StrFormat("k%d", i);
    clients.push_back(
        std::make_unique<RedisRemoteClient>(bed.machine(), workload));
    RemoteTcpConfig peer_config;
    peer_config.server_port = options.port;
    peer_config.local_port = static_cast<Port>(40000 + i);
    peers.push_back(std::make_unique<RemoteTcpPeer>(
        bed.machine(), bed.link(), peer_config, *clients.back(),
        /*attach=*/false));
    hub.Register(peers.back().get());
    bed.AddPeer(peers.back().get());
    peers.back()->Connect();
  }

  RedisPoint point;
  const Status status = bed.Run();
  uint64_t total_ops = 0;
  uint64_t errors = 0;
  uint64_t min_start = UINT64_MAX;
  uint64_t max_end = 0;
  for (const auto& client : clients) {
    total_ops += client->measured_completed();
    errors += client->errors();
    if (client->measure_start_cycles() != 0) {
      min_start = std::min(min_start, client->measure_start_cycles());
    }
    max_end = std::max(max_end, client->measure_end_cycles());
  }
  point.ok = status.ok() && errors == 0 &&
             total_ops ==
                 base_workload.measured_ops * static_cast<uint64_t>(conns);
  if (max_end > min_start && total_ops > 0) {
    const double seconds =
        static_cast<double>(max_end - min_start) /
        static_cast<double>(bed.machine().clock().freq_hz());
    point.kops = static_cast<double>(total_ops) / seconds / 1e3;
  }
  if (!point.ok) {
    std::fprintf(stderr,
                 "WARNING: redis multi run incomplete (%s, %llu ops, %llu "
                 "errors)\n",
                 status.ToString().c_str(),
                 static_cast<unsigned long long>(total_ops),
                 static_cast<unsigned long long>(errors));
  }
  return point;
}

// Min-of-N wall-time measurement for the dispatch ablations. The min wall
// time is the least noise-polluted estimate; the charged model cycles are
// deterministic, so the last repetition serves for all of them.
struct LoopSample {
  double wall_ns = std::numeric_limits<double>::infinity();  // Per call.
  uint64_t model_cycles_total = 0;  // Charged cycles for one repetition.

  double CyclesPerCall(uint64_t iters) const {
    return static_cast<double>(model_cycles_total) /
           static_cast<double>(iters);
  }

  // Folds one more repetition into the running min.
  void Keep(const LoopSample& rep) {
    wall_ns = std::min(wall_ns, rep.wall_ns);
    model_cycles_total = rep.model_cycles_total;
  }
};

// One timed repetition: `iters` back-to-back calls of `fn`.
template <typename Fn>
LoopSample TimeLoop(Machine& machine, uint64_t iters, Fn&& fn) {
  const uint64_t cycles_before = machine.clock().cycles();
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    fn();
  }
  const auto stop = std::chrono::steady_clock::now();
  return LoopSample{
      std::chrono::duration<double, std::nano>(stop - start).count() /
          static_cast<double>(iters),
      machine.clock().cycles() - cycles_before};
}

// Best of 3 back-to-back repetitions of one loop.
template <typename Fn>
LoopSample MeasureLoop(Machine& machine, uint64_t iters, Fn&& fn) {
  LoopSample best;
  for (int rep = 0; rep < 3; ++rep) {
    best.Keep(TimeLoop(machine, iters, fn));
  }
  return best;
}

inline std::string FormatRate(double gbps) {
  if (gbps >= 1.0) {
    return StrFormat("%.2f Gb/s", gbps);
  }
  return StrFormat("%.0f Mb/s", gbps * 1e3);
}

}  // namespace bench
}  // namespace flexos

#endif  // FLEXOS_BENCH_BENCH_UTIL_H_
