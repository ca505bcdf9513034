// Host-speed calibration. The benchmark runs on shared hosts whose speed
// drifts by tens of percent over minutes, as neighbours come and go; that
// drift moves every host time the same way and would swamp the differences
// a change to the simulator makes. So each pass also times a fixed loop at
// every job boundary, and the end-to-end host times are scaled by
// kCalibrationReferenceNs / (the pass's mean loop time): they read as the
// time on a host where the loop takes kCalibrationReferenceNs.
//
// The loop is the benchmark's own code, calls nothing in src/ and allocates
// nothing while timed, so a change to the simulator cannot move it.
#ifndef FLEXOS_HOSTBENCH_CALIBRATE_H_
#define FLEXOS_HOSTBENCH_CALIBRATE_H_

#include <cstdint>
#include <vector>

namespace flexos {
namespace hostbench {

// The loop's time on a quiet 4-vCPU Intel Xeon VM, where the scaled times
// equal the raw ones.
inline constexpr double kCalibrationReferenceNs = 400'000;

class CalibrationLoop {
 public:
  CalibrationLoop();

  // Runs the loop once and returns its host time.
  int64_t RunNs();

 private:
  // Random read-modify-writes over a table larger than a core's private
  // caches, then a branchy probe loop over a small one: the two ways the
  // simulator spends its time (chasing pointers through guest pages and
  // metadata, and dispatch code).
  std::vector<uint64_t> large_;
  std::vector<uint64_t> small_;
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace hostbench
}  // namespace flexos

#endif  // FLEXOS_HOSTBENCH_CALIBRATE_H_
