// Runs one workload for a time budget and reports its metrics: the
// end-to-end metrics from untraced passes, or (with tracing) the per-layer
// metrics from traced passes and layer replays. The last line printed is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#ifndef FLEXOS_HOSTBENCH_RUNNER_H_
#define FLEXOS_HOSTBENCH_RUNNER_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

#include "workloads.h"

namespace flexos {
namespace hostbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

// Printed by every untraced run (error_rate also travels as the JSON's
// failed / attempted).
std::span<const MetricDef> EndToEndMetrics();
// Printed by every traced run.
std::span<const MetricDef> PerLayerMetrics();

struct Args {
  Workload workload = Workload::kRedisSteady;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Where the traced run writes its spans; empty writes nothing.
  std::string out_dir;
};

// Prints the report to `out`. Whether every output was correct travels in
// the JSON line's "correct", so the process exits 0 either way.
void RunBenchmark(const Args& args, std::FILE* out);

}  // namespace hostbench
}  // namespace flexos

#endif  // FLEXOS_HOSTBENCH_RUNNER_H_
