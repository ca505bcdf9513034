// flexpath (DESIGN.md §15): cross-vCPU critical-path reconstruction over the
// deterministic trace stream + Attributor request records, a per-boundary
// what-if engine, and the data contract for the boundary-placement advisor.
//
// Offline analysis only: Build() consumes a finished run's Attributor,
// MetricsRegistry, and trace snapshot and never touches a clock — enabling
// it charges zero modeled cycles (hard-gated by bench/abl_obs_overhead.cc,
// variant 5).
//
// The model: requests in this simulator execute on one bound thread, so each
// request's causal DAG — activation spans chained by queue-wait edges
// (EnqueueReady -> switch-in), gate Enter/Exit frames nested inside them,
// and cross-vCPU IPI edges (vm-rpc notify) — degenerates to a single causal
// chain, and the critical path IS the request timeline. That makes the
// decomposition exact rather than heuristic:
//
//   wall = execute(body) + gate + queue_wait + slack
//
// where gate splits per boundary (and an IPI share is carved out of vm-rpc
// boundaries for display), execute = attributed execute cycles minus gate
// cycles, queue_wait comes from the deschedule stamps, and slack is the
// wall-clock remainder the request spent blocked on something other than
// the CPU (e.g. virtual socket waits). Per-boundary gate nanoseconds
// reconcile EXACTLY (==) against the gate.latency_ns.* histogram sums
// because both sides record the same per-crossing overhead_ns value — the
// Attributor's conservation invariant extended to the path decomposition.
//
// The what-if engine exploits that every crossing of a boundary costs the
// same modeled overhead: replacing the boundary's backend replaces
// crossings * per-crossing-cost, so
//
//   whatif_total(b, c') = total - gate_ns(b) + crossings(b) * ns(c')
//
// with c' predicted by core/gate_costs.h (PredictedCrossingCycles mirrors
// the gate implementations' charge sequences exactly). flexstat ranks these
// deltas into the promote/demote advisor; the ROADMAP's runtime-adaptive
// policy engine consumes the same BoundaryShare rows as its input contract.
//
// Layering: obs sits below hw/, so this header cannot name Clock or
// CostModel — callers pass a cycles->ns conversion and the modeled IPI cost
// as plain values.
#ifndef FLEXOS_OBS_CRITPATH_H_
#define FLEXOS_OBS_CRITPATH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/attrib.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace flexos {
namespace obs {

inline constexpr std::string_view kCritpathSchema = "flexos-critpath-v1";

// --- Shared plain data (valid in disabled builds too) ---------------------

enum class SegmentKind : uint8_t {
  kExecute = 0,    // Compartment body cycles (gate halves excluded).
  kGate = 1,       // Modeled gate overhead, one segment per boundary.
  kQueueWait = 2,  // Ready but descheduled (EnqueueReady -> switch-in).
  kIpi = 3,        // Cross-vCPU notify cost, carved out of vm-rpc gates.
};

std::string_view SegmentKindName(SegmentKind kind);

struct PathSegment {
  SegmentKind kind = SegmentKind::kExecute;
  // Full gate.latency_ns.<backend>.<from>.<to> name for kGate; empty
  // otherwise.
  std::string boundary;
  uint64_t ns = 0;
  uint64_t count = 0;  // Crossings / IPIs / 1 for execute & wait.
};

// One request's critical-path decomposition. Segment nanoseconds sum to
// execute_ns + gate_ns + queue_wait_ns (the IPI segment is carved out of
// gate segments, never added on top); wall_ns additionally includes
// slack_ns.
struct RequestPath {
  uint64_t id = 0;  // kUnattributedRequestId for out-of-request crossings.
  std::string name;
  uint64_t wall_ns = 0;
  uint64_t execute_ns = 0;     // Body only (gate cycles subtracted).
  uint64_t gate_ns = 0;        // Sum over boundary_gate_ns.
  uint64_t queue_wait_ns = 0;
  uint64_t ipi_ns = 0;         // Informational share of gate_ns.
  uint64_t slack_ns = 0;       // wall - execute - gate - wait, clamped.
  uint64_t crossings = 0;
  std::vector<PathSegment> segments;
  std::vector<int> vcpus;  // Distinct vCPUs the request's gates ran on.
};

// Aggregated per-boundary critical-path share — the advisor's (and the
// future policy engine's) input row.
struct BoundaryShare {
  std::string boundary;  // Full gate.latency_ns.<backend>.<from>.<to> name.
  std::string backend;
  std::string from;
  std::string to;
  uint64_t crossings = 0;           // gate.latency_ns histogram count.
  uint64_t gate_ns = 0;             // gate.latency_ns histogram sum.
  uint64_t path_gate_ns = 0;        // Sum over ALL request records (== gate_ns
                                    // when reconciled).
  uint64_t unattributed_gate_ns = 0;  // Portion charged to record id 0.
  double critpath_share = 0;        // gate_ns / total_path_ns.
};

class CriticalPath {
 public:
  using CyclesToNs = std::function<uint64_t(uint64_t)>;

  CriticalPath() = default;
  CriticalPath(const CriticalPath&) = delete;
  CriticalPath& operator=(const CriticalPath&) = delete;

  // Rebuilds the analysis from a finished run. Callers must have synced the
  // attributor first (Machine::SyncAttribution) so the conservation
  // invariant holds at read time. `cycles_to_ns` is the machine clock's
  // exact CyclesToNanos; `ipi_cycles` is CostModel::ipi (used to size the
  // IPI carve-out of vm-rpc gate segments).
  void Build(const Attributor& attrib, const MetricsRegistry& metrics,
             const std::vector<TraceEvent>& events, CyclesToNs cycles_to_ns,
             uint64_t ipi_cycles);

  // Requests sorted by id; the unattributed record (id 0) appears first iff
  // any crossing charged it.
  const std::vector<RequestPath>& requests() const { return requests_; }

  // Boundaries sorted by metric name.
  const std::vector<BoundaryShare>& boundaries() const { return boundaries_; }

  // Denominator of critpath_share: closed requests' wall time plus gate
  // overhead that ran outside any request.
  uint64_t total_path_ns() const { return total_path_ns_; }

  // Exact (==) reconciliation of the path decomposition against the
  // gate.latency_ns.* histograms: per-boundary path_gate_ns == histogram
  // sum, and total path crossings == total histogram count. detail() is
  // "ok" or the first mismatch, human-readable.
  bool reconciled() const { return reconciled_; }
  const std::string& reconcile_detail() const { return reconcile_detail_; }

  // Predicted end-to-end path nanoseconds if `boundary` cost
  // `new_cycles_per_crossing` per crossing instead (every crossing of one
  // boundary costs the same modeled overhead, so the replay is exact
  // arithmetic). Returns total_path_ns() for an unknown boundary.
  uint64_t WhatIfTotalNs(std::string_view boundary,
                         uint64_t new_cycles_per_crossing) const;

  // Exact metric name, or a ".<from>.<to>" / "<backend>.<from>.<to>"
  // suffix ("c0.c1" names the c0->c1 boundary). nullptr when absent or
  // ambiguous.
  const BoundaryShare* FindBoundary(std::string_view name) const;

  // Global scheduler edge counts recovered from the trace stream.
  uint64_t queue_edges() const { return queue_edges_; }
  uint64_t steals() const { return steals_; }
  uint64_t ipis() const { return ipis_; }

  // flexos-critpath-v1: deterministic (same seed -> byte-identical; shares
  // printed %.6f, everything else exact integers).
  std::string ToJson() const;

 private:
  std::vector<RequestPath> requests_;
  std::vector<BoundaryShare> boundaries_;
  uint64_t total_path_ns_ = 0;
  bool reconciled_ = true;
  std::string reconcile_detail_ = "ok";
  uint64_t queue_edges_ = 0;
  uint64_t steals_ = 0;
  uint64_t ipis_ = 0;
  CyclesToNs cycles_to_ns_;
};

}  // namespace obs
}  // namespace flexos

#endif  // FLEXOS_OBS_CRITPATH_H_
