// flexrace runtime side (DESIGN.md §13): a FastTrack-style happens-before
// race detector over per-vCPU lanes. The simulated machine multiplexes
// guest threads onto N vCPUs through one host run loop, so within a vCPU
// every access is program-ordered; the only unordered pairs are accesses on
// *different* vCPU lanes with no happens-before edge between them. Edges
// come from the scheduler (enqueue -> activation as release/acquire pairs),
// cross-vCPU IPIs (direct joins), and machine-wide idle quiescence (a
// barrier join). Shared-region (key 0) reads and writes are probed by the
// checked access layer; an unsynchronized cross-vCPU write/write or
// write/read pair produces a RaceReport with both access stamps.
//
// In the mold of Image::EnableDispatchValidation, this is a debug-mode
// validator behind a runtime flag: it observes the model and never charges
// the clock, so enabling it leaves modeled cycles bit-identical
// (bench/abl_smp.cc gates this). The trace emission used for offline
// replay goes through the Tracer and follows its runtime switch.
#ifndef FLEXOS_OBS_RACE_H_
#define FLEXOS_OBS_RACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "obs/vcpu.h"

namespace flexos {
namespace obs {

// Shared-region accesses are tracked at this granularity (one cache line);
// two accesses to the same granule are treated as overlapping.
inline constexpr uint64_t kRaceGranule = 64;

// One side of a detected race: where, when, and under which compartment
// the access happened. `epoch` is the accessing vCPU's logical clock.
struct RaceAccess {
  int vcpu = 0;
  int compartment = -1;
  uint64_t epoch = 0;
  uint64_t ts_ns = 0;
  bool write = false;
};

struct RaceReport {
  uint64_t addr = 0;  // Guest address of the probed access (current side).
  uint64_t size = 0;
  RaceAccess prev;  // Earlier, unordered access.
  RaceAccess cur;   // The access that exposed the race.

  std::string ToString() const;
};

class RaceDetector {
 public:
  using VectorClock = std::array<uint64_t, kMaxVCpus>;

  // Drops all shadow/clock state and re-dimensions to `vcpus` lanes.
  void Reset(int vcpus);

  // Runtime knob; every probe checks this first. Enabling does not reset.
  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int vcpus() const { return vcpus_; }

  // Message-passing edge, split in two: Release snapshots `vcpu`'s vector
  // clock and returns a handle; Acquire joins the snapshot into another
  // lane. The scheduler releases at enqueue/switch-out and acquires at
  // switch-in, so an edge carries only what happened *before* the wakeup,
  // not everything the waking lane did until the wakee ran.
  uint64_t Release(int vcpu);
  void Acquire(int vcpu, uint64_t handle);

  // Synchronous edge from `from`'s current clock into `to` (cross-vCPU IPI).
  void Join(int from, int to);

  // Machine-wide quiescent point: every lane joins every other. Models the
  // testbed idle sleep, where no vCPU has runnable work.
  void JoinAll();

  // Probes one shared-region access. Returns the first race found across
  // the covered granules (shadow state is updated regardless, so one bad
  // access does not cascade). Never charges the clock.
  std::optional<RaceReport> OnAccess(int vcpu, int compartment, uint64_t addr,
                                     uint64_t size, bool is_write,
                                     uint64_t ts_ns);

  uint64_t races_found() const { return races_found_; }
  uint64_t accesses_checked() const { return accesses_checked_; }
  uint64_t hb_edges() const { return hb_edges_; }
  const std::optional<RaceReport>& last_race() const { return last_race_; }

 private:
  // Per-granule shadow: the last write and the last read per vCPU lane.
  struct Shadow {
    RaceAccess write;                            // write.epoch == 0: none.
    std::array<RaceAccess, kMaxVCpus> reads{};   // reads[v].epoch == 0: none.
  };

  bool Ordered(int vcpu, const RaceAccess& prev) const {
    return prev.epoch <= clocks_[vcpu][prev.vcpu];
  }

  bool enabled_ = false;
  int vcpus_ = 1;
  std::array<VectorClock, kMaxVCpus> clocks_{};
  std::map<uint64_t, Shadow> shadow_;            // granule index -> state
  std::map<uint64_t, VectorClock> released_;     // handle -> snapshot
  uint64_t next_handle_ = 1;
  uint64_t races_found_ = 0;
  uint64_t accesses_checked_ = 0;
  uint64_t hb_edges_ = 0;
  std::optional<RaceReport> last_race_;
};

}  // namespace obs
}  // namespace flexos

#endif  // FLEXOS_OBS_RACE_H_
