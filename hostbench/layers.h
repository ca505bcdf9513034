// Layer replays for the traced run: each times one call into one module
// from outside, on inputs the workload itself produced (the jobs' own
// ImageConfigs and the frames captured at the link).
#ifndef FLEXOS_HOSTBENCH_LAYERS_H_
#define FLEXOS_HOSTBENCH_LAYERS_H_

#include <vector>

#include "harness.h"
#include "spans.h"
#include "workloads.h"

namespace flexos {
namespace hostbench {

struct LayerReplay {
  double image_build_ms = 0;      // ImageBuilder::Build, mean per job.
  double mapped_mib_per_job = 0;  // Pages mapped by the built images.
  double gate_host_ns = 0;        // Image::Call, resolved route, empty body.
  double map_ms_per_gib = 0;      // AddressSpace::Map.
  double write_ns_per_kib = 0;    // Checked AddressSpace::Write.
  double parse_ns_per_frame = 0;  // ParseFrame.
  double checksum_ns_per_kib = 0; // Checksum.
  double switch_host_ns = 0;      // CoopScheduler::Yield ping-pong.
};

LayerReplay ReplayLayers(const std::vector<JobSpec>& jobs,
                         const FrameCapture& capture, SpanRecorder& spans);

}  // namespace hostbench
}  // namespace flexos

#endif  // FLEXOS_HOSTBENCH_LAYERS_H_
