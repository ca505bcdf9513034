// The benchmark's four workloads and the job runner. A workload is a fixed
// list of jobs generated from the seed; a job builds one Testbed, runs one
// application against remote clients, and reports host times, the ops it
// completed, and digests of its simulated state. A pass runs every job of a
// workload once.
#ifndef FLEXOS_HOSTBENCH_WORKLOADS_H_
#define FLEXOS_HOSTBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/testbed.h"
#include "calibrate.h"
#include "harness.h"
#include "spans.h"

namespace flexos {
namespace hostbench {

enum class Workload { kIperfStream, kRedisBoot, kRedisSteady, kRedisObserved };

inline constexpr Workload kWorkloads[] = {
    Workload::kIperfStream, Workload::kRedisBoot, Workload::kRedisSteady,
    Workload::kRedisObserved};

std::string_view WorkloadName(Workload workload);
bool ParseWorkload(std::string_view name, Workload* out);

struct JobSpec {
  std::string label;
  TestbedConfig config;
  // Redis jobs: one script per connection. Empty for iperf jobs.
  std::shared_ptr<const std::vector<RedisScript>> scripts;
  // Iperf jobs: the payload pattern, volume (whole KiB) and recv buffer.
  std::shared_ptr<const std::vector<uint8_t>> pattern;
  uint64_t iperf_bytes = 0;
  uint64_t recv_buffer = 0;

  bool is_redis() const { return scripts != nullptr; }
  // Redis: requests. Iperf: KiB of payload.
  uint64_t ops() const;
};

// The jobs of `workload` for `seed`; the same seed gives the same jobs.
std::vector<JobSpec> MakeJobs(Workload workload, uint64_t seed);

// Per-layer counts read after each job, from the registry and the link.
struct LayerCounts {
  uint64_t gate_crossings = 0;
  uint64_t gate_bytes = 0;
  uint64_t link_frames = 0;
  uint64_t segments_rx = 0;
  uint64_t segments_tx = 0;
  uint64_t retransmits = 0;  // Guest and remote peers.
  uint64_t peer_segments_tx = 0;
  uint64_t context_switches = 0;
  uint64_t allocations = 0;
  uint64_t alloc_bytes = 0;
  uint64_t hub_frames = 0;

  void Add(const LayerCounts& other);
};

struct RunOptions {
  SpanRecorder* spans = nullptr;             // Required; may be disabled.
  std::vector<float>* latencies_us = nullptr;
  FrameCapture* capture = nullptr;
  int64_t corrupt_reply = -1;  // Flips reply N of connection 0 (tests).
  // Run before every job and after the last, to scale each job's host times
  // and latencies to the reference host (see calibrate.h). Null runs none
  // and leaves them as measured.
  CalibrationLoop* calibration = nullptr;
};

struct JobResult {
  double setup_s = 0;  // Testbed constructor + server + peers + Connect.
  double run_s = 0;    // Testbed::Run.
  double wall_s = 0;   // Setup, run and teardown.
  // Reference-host time over this host's time, from the calibration loop's
  // runs just before and just after the job; 1 without calibration.
  double host_scale = 1;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double sim_s = 0;    // Simulated seconds at the end of the run.
  // FNV-1a over the final cycles and every registry metric. The profiler
  // and flexwatch only observe, so a job's digest is the same with them on.
  uint64_t digest = 0;
  LayerCounts counts;
};

JobResult RunJob(const JobSpec& job, const RunOptions& options);

struct PassResult {
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;  // Every job's setup, run and teardown.
  // The same, each job's scaled by its host_scale.
  double ref_setup_s = 0;
  double ref_run_s = 0;
  double ref_wall_s = 0;
  double sim_s = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;  // sim_digest: FNV-1a over the jobs' digests.
  LayerCounts counts;
  std::vector<JobResult> jobs;
};

PassResult RunPass(const std::vector<JobSpec>& jobs,
                   const RunOptions& options);

}  // namespace hostbench
}  // namespace flexos

#endif  // FLEXOS_HOSTBENCH_WORKLOADS_H_
