// Attributor: exact per-compartment cycle attribution and request-scoped
// latency accounting (DESIGN.md §8). Two views over one event stream:
//
//   * Cycle profiler — every scheduler activation, library call frame, and
//     gate Enter/Exit charges the virtual cycles since the previous event to
//     the currently-running frame stack. No sampling: the simulator is a
//     single-vCPU virtual-time machine, so the attribution is exact by
//     construction (sum of all flame buckets == cycles elapsed while
//     enabled). Output is collapsed-stack lines consumable by flamegraph.pl
//     and Speedscope.
//
//   * Request tracker — TraceContexts minted at request entry (TCP accept)
//     bind to the thread that runs them; cycles charged while a bound thread
//     runs accrue to the request (split per compartment and into
//     execute vs. gate overhead), cycles spent descheduled accrue as queue
//     wait. Gate crossings report their modeled overhead per boundary, so a
//     request's boundary sums reconcile exactly against the
//     gate.latency_ns.* histograms (crossings outside any request charge the
//     reserved unattributed record, id 0).
//
// The attributor observes the clock; it never charges it. Enabling it must
// not change modeled cycles (hard-gated by bench/abl_obs_overhead).
//
// Like the tracer, the attributor is switched at run time only: while it is
// disabled, each recording hook returns after one check of enabled().
// The obs layer sits below support/ — no other flexos headers here.
#ifndef FLEXOS_OBS_ATTRIB_H_
#define FLEXOS_OBS_ATTRIB_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/vcpu.h"

namespace flexos {
namespace obs {

// Identity of one in-flight request. id 0 means "no request".
struct TraceContext {
  uint64_t id = 0;
  uint64_t start_ns = 0;  // Virtual time when the request was minted.
  explicit operator bool() const { return id != 0; }
};

// Crossings that happen outside any bound request charge this record, so
// summing boundary_gate_ns over *all* records (including id 0) reproduces
// the gate.latency_ns.* histogram sums exactly.
inline constexpr uint64_t kUnattributedRequestId = 0;

struct RequestRecord {
  uint64_t id = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // 0 while open.
  bool open = false;
  // Cycles charged while a thread bound to this request was running.
  uint64_t execute_cycles = 0;
  // Of execute_cycles, spent inside gate entry/exit halves.
  uint64_t gate_cycles = 0;
  // Cycles the bound thread spent descheduled between begin and end.
  uint64_t queue_wait_cycles = 0;
  uint64_t crossings = 0;
  // Body cycles per compartment id (-1 = platform/run loop).
  std::map<int, uint64_t> comp_cycles;
  // Modeled gate overhead per boundary, keyed by the full
  // gate.latency_ns.<backend>.<from>.<to> metric name.
  std::map<std::string, uint64_t> boundary_gate_ns;

  uint64_t WallNanos() const { return end_ns >= start_ns ? end_ns - start_ns : 0; }
};

struct FlameEntry {
  std::string stack;  // "thread;lib;...;gate:<backend>"
  uint64_t cycles = 0;
};

class Attributor {
 public:
  Attributor();
  Attributor(const Attributor&) = delete;
  Attributor& operator=(const Attributor&) = delete;

  // Turning the attributor on anchors the charge epoch at `now_cycles`;
  // turning it off charges the tail first. Idempotent.
  void SetEnabled(bool on, uint64_t now_cycles);
  bool enabled() const { return enabled_; }

  // Scheduler hook: thread `tid` starts running at `now_cycles`. Charges the
  // elapsed slice to the previously active thread. tid 0 is the platform
  // run loop (real thread ids start at 1).
  void ActivateThread(uint64_t tid, std::string_view name, uint64_t now_cycles);

  // Dispatch hooks, bracketing call bodies and gate halves on the active
  // thread. PopFrame on an empty stack is a no-op so the attributor can be
  // enabled mid-call without underflow.
  void PushFrame(std::string_view lib, int comp, uint64_t now_cycles);
  void PushGateFrame(std::string_view backend, uint64_t now_cycles);
  void PopFrame(uint64_t now_cycles);

  // Active thread's frame-stack depth; 0 when no thread is active. With
  // UnwindFramesTo this brackets non-local exits: a supervised gate call
  // that catches a TrapException pops every frame the aborted call pushed,
  // so the conservation invariant survives trap containment.
  size_t frame_depth() const;
  void UnwindFramesTo(size_t depth, uint64_t now_cycles);

  // Mints a request bound to the active thread (ids start at 1) / closes it.
  TraceContext BeginRequest(std::string_view name, uint64_t now_cycles,
                            uint64_t now_ns);
  void EndRequest(uint64_t id, uint64_t now_cycles, uint64_t now_ns);

  // Request bound to the active thread; 0 when none.
  uint64_t current_request() const;

  // One gate crossing completed on the active thread with `overhead_ns` of
  // modeled gate overhead (the exact value recorded into the boundary's
  // latency_ns histogram). Charged to the current request, else to the
  // unattributed record.
  void OnGateCrossing(std::string_view backend, int from_comp, int to_comp,
                      uint64_t overhead_ns);

  // Charges the tail [last event, now_cycles) on the current lane so
  // read-side totals are consistent. Call before reading. Multi-vCPU
  // callers should use Machine::SyncAttribution, which SyncLanes every
  // vCPU against its own clock.
  void Sync(uint64_t now_cycles);

  // --- Multi-vCPU lanes (DESIGN.md §12) ----------------------------------
  // Each vCPU charges into its own lane with its own clock epoch, so the
  // conservation invariant (attributed == elapsed while enabled) holds per
  // vCPU: lane_attributed_cycles(v) equals the cycles vCPU v's clock
  // advanced while the attributor was enabled and the lane anchored.
  // The Machine calls SwitchLane on every vCPU switch with both clocks'
  // "now" (the two timelines are not comparable, so each lane is charged
  // only against its own stamps). Lanes anchor lazily: a lane first
  // entered after enablement starts its epoch at that entry.
  void SwitchLane(int lane, uint64_t old_lane_now_cycles,
                  uint64_t new_lane_now_cycles);

  // Flushes one lane's tail against that lane's clock without switching.
  void SyncLane(int lane, uint64_t now_cycles);

  uint64_t lane_attributed_cycles(int lane) const {
    return lanes_[lane].attributed;
  }
  int current_lane() const { return current_lane_; }

  // Read side. Flame entries are sorted by stack; requests by id (the
  // unattributed record appears first iff any crossing charged it).
  std::vector<FlameEntry> Flame() const;
  std::string CollapsedStacks() const;  // "stack cycles\n" lines.
  std::map<int, uint64_t> CompartmentCycles() const { return comp_cycles_; }
  std::map<std::string, uint64_t> BackendGateCycles() const {
    return backend_cycles_;
  }
  std::vector<const RequestRecord*> Requests() const;
  const RequestRecord* FindRequest(uint64_t id) const;
  uint64_t requests_started() const { return next_request_id_ - 1; }

  // Total cycles attributed so far (== cycles elapsed while enabled, after
  // Sync — the conservation invariant the tests assert).
  uint64_t attributed_cycles() const { return attributed_cycles_; }

  void Reset(uint64_t now_cycles);

 private:
  struct Frame {
    std::string label;      // lib name, or "gate:<backend>".
    int comp = -1;          // Valid for lib frames.
    bool gate = false;
    uint32_t prev_path_len = 0;  // Path length before this frame was pushed.
  };

  struct ThreadState {
    uint64_t tid = 0;
    std::string path;  // Thread name + ";"-joined frame labels.
    std::vector<Frame> frames;
    uint64_t request = 0;         // Bound request id; 0 = none.
    uint64_t deactivated_at = 0;  // Cycle stamp of last deschedule.
    int deactivated_lane = -1;    // Lane the stamp belongs to: queue wait
                                  // accrues only when re-activated on the
                                  // same lane (stamps from different vCPU
                                  // clocks are not comparable).
    bool active_once = false;     // Has ever been scheduled in.
  };

  // Per-vCPU charge epoch. `active` points into states_ (node-stable map);
  // every lane starts on the shared platform state (tid 0).
  struct Lane {
    uint64_t last_cycles = 0;
    uint64_t attributed = 0;
    ThreadState* active = nullptr;
    bool anchored = false;  // Epoch valid since enablement.
  };

  // Charges [lane.last_cycles, now) to the lane's active thread's top frame.
  void ChargeLane(Lane& lane, uint64_t now_cycles);
  // Current lane's charge step (the pre-vCPU-aware hot path).
  void Charge(uint64_t now_cycles) { ChargeLane(lanes_[current_lane_], now_cycles); }
  ThreadState& ActiveState() { return *lanes_[current_lane_].active; }
  const ThreadState& ActiveState() const { return *lanes_[current_lane_].active; }
  RequestRecord& RecordFor(uint64_t id);

  bool enabled_ = false;
  uint64_t attributed_cycles_ = 0;
  // std::map: node-stable, so Lane::active stays valid across inserts.
  std::map<uint64_t, ThreadState> states_;
  Lane lanes_[kMaxVCpus];
  int current_lane_ = 0;
  std::map<std::string, uint64_t> flame_;
  std::map<int, uint64_t> comp_cycles_;
  std::map<std::string, uint64_t> backend_cycles_;
  std::map<uint64_t, RequestRecord> requests_;
  uint64_t next_request_id_ = 1;
};

}  // namespace obs
}  // namespace flexos

#endif  // FLEXOS_OBS_ATTRIB_H_
