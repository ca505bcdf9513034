#include "obs/critpath.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "obs/export.h"
#include "obs/names.h"

namespace flexos {
namespace obs {

std::string_view SegmentKindName(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kExecute:
      return "execute";
    case SegmentKind::kGate:
      return "gate";
    case SegmentKind::kQueueWait:
      return "queue_wait";
    case SegmentKind::kIpi:
      return "ipi";
  }
  return "unknown";
}

namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

// Shares print with fixed precision so same-seed replays are
// byte-identical regardless of the double's shortest representation.
void AppendShare(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  *out += buf;
}

bool IsVmRpcBoundary(const std::string& name) {
  GateMetricParts parts;
  return ParseGateMetricName(name, &parts) && parts.backend == "vm-rpc";
}

}  // namespace

void CriticalPath::Build(const Attributor& attrib,
                         const MetricsRegistry& metrics,
                         const std::vector<TraceEvent>& events,
                         CyclesToNs cycles_to_ns, uint64_t ipi_cycles) {
  requests_.clear();
  boundaries_.clear();
  total_path_ns_ = 0;
  reconciled_ = true;
  reconcile_detail_ = "ok";
  queue_edges_ = 0;
  steals_ = 0;
  ipis_ = 0;
  cycles_to_ns_ = std::move(cycles_to_ns);

  // Boundary rows come from the gate.latency_ns.* histograms — the metrics
  // side of the reconciliation. Entries() is name-sorted, so boundaries_
  // is deterministic. ParseGateMetricName rejects the per-vCPU 5th field
  // (gate.crossings.<...>.v<id>) by construction, so per-vCPU splits can
  // never double-count here.
  for (const MetricsRegistry::Entry& entry : metrics.Entries()) {
    if (entry.histogram == nullptr) {
      continue;
    }
    GateMetricParts parts;
    if (!ParseGateMetricName(entry.name, &parts) ||
        parts.family != "latency_ns") {
      continue;
    }
    BoundaryShare share;
    share.boundary = std::string(entry.name);
    share.backend = std::string(parts.backend);
    share.from = std::string(parts.from);
    share.to = std::string(parts.to);
    share.crossings = entry.histogram->count();
    share.gate_ns = entry.histogram->sum();
    boundaries_.push_back(std::move(share));
  }

  // Scheduler edges from the trace stream. Queue-wait edges pair each
  // EnqueueReady stamp with that thread's next switch-in; a ready stamp
  // still unpaired at snapshot time (thread never ran again) is not an
  // edge, hence min(). IPI instants carry the issuing request id in a1.
  std::map<uint64_t, uint64_t> ready_by_thread;
  std::map<uint64_t, uint64_t> slices_by_thread;
  std::map<uint64_t, uint64_t> ipis_by_request;
  std::map<uint64_t, std::vector<int>> vcpus_by_request;
  for (const TraceEvent& event : events) {
    if (event.cat == TraceCat::kSched && event.name != nullptr) {
      if (std::strcmp(event.name, "sched.ready") == 0) {
        ++ready_by_thread[event.a0];
      } else if (std::strcmp(event.name, "sched.run_slice") == 0) {
        ++slices_by_thread[event.a0];
      } else if (std::strcmp(event.name, "sched.steal") == 0) {
        ++steals_;
      } else if (std::strcmp(event.name, "sched.ipi") == 0) {
        ++ipis_;
        ++ipis_by_request[event.a1];
      }
    } else if (event.cat == TraceCat::kGate &&
               event.phase == TracePhase::kComplete) {
      std::vector<int>& vcpus = vcpus_by_request[event.req];
      const int vcpu = static_cast<int>(event.vcpu);
      if (std::find(vcpus.begin(), vcpus.end(), vcpu) == vcpus.end()) {
        vcpus.push_back(vcpu);
      }
    }
  }
  for (const auto& [tid, ready] : ready_by_thread) {
    const auto it = slices_by_thread.find(tid);
    queue_edges_ += std::min(ready, it == slices_by_thread.end()
                                        ? uint64_t{0}
                                        : it->second);
  }

  // Per-request decomposition — the attribution side of the reconciliation.
  std::map<std::string, uint64_t> path_gate;
  std::map<std::string, uint64_t> unattributed_gate;
  uint64_t record_crossings_total = 0;
  const uint64_t ipi_ns_each =
      cycles_to_ns_ ? cycles_to_ns_(ipi_cycles) : 0;
  for (const RequestRecord* record : attrib.Requests()) {
    RequestPath path;
    path.id = record->id;
    path.name = record->name;
    path.crossings = record->crossings;
    record_crossings_total += record->crossings;
    for (const auto& [boundary, ns] : record->boundary_gate_ns) {
      path.gate_ns += ns;
      path_gate[boundary] += ns;
      if (record->id == kUnattributedRequestId) {
        unattributed_gate[boundary] += ns;
      }
    }
    const uint64_t body_cycles =
        record->execute_cycles >= record->gate_cycles
            ? record->execute_cycles - record->gate_cycles
            : 0;
    path.execute_ns = cycles_to_ns_ ? cycles_to_ns_(body_cycles) : 0;
    path.queue_wait_ns =
        cycles_to_ns_ ? cycles_to_ns_(record->queue_wait_cycles) : 0;
    if (record->id != kUnattributedRequestId && !record->open) {
      path.wall_ns = record->WallNanos();
      const uint64_t active =
          path.execute_ns + path.gate_ns + path.queue_wait_ns;
      path.slack_ns = path.wall_ns > active ? path.wall_ns - active : 0;
      total_path_ns_ += path.wall_ns;
    }
    if (const auto it = vcpus_by_request.find(record->id);
        it != vcpus_by_request.end()) {
      path.vcpus = it->second;
      std::sort(path.vcpus.begin(), path.vcpus.end());
    }

    // Segments. The IPI carve-out: vm-rpc cross-vCPU notifies charge their
    // cycles inside the gate halves (vm_gate.cc), so the recorded gate
    // overhead already contains them — the kIpi segment is display split,
    // subtracted from vm-rpc gate segments so segment nanoseconds still sum
    // to execute + gate + queue_wait.
    uint64_t ipi_count = 0;
    if (const auto it = ipis_by_request.find(record->id);
        it != ipis_by_request.end()) {
      ipi_count = it->second;
    }
    uint64_t ipi_remaining = ipi_count * ipi_ns_each;
    if (path.execute_ns > 0) {
      path.segments.push_back(
          PathSegment{SegmentKind::kExecute, "", path.execute_ns, 1});
    }
    for (const auto& [boundary, ns] : record->boundary_gate_ns) {
      PathSegment segment{SegmentKind::kGate, boundary, ns, 0};
      // Every crossing of a boundary costs the same modeled overhead, so
      // the per-record crossing count is exact integer arithmetic.
      for (const BoundaryShare& share : boundaries_) {
        if (share.boundary == boundary && share.crossings > 0) {
          const uint64_t per = share.gate_ns / share.crossings;
          segment.count = per > 0 ? ns / per : 0;
          break;
        }
      }
      if (ipi_remaining > 0 && IsVmRpcBoundary(boundary)) {
        const uint64_t carve = std::min(segment.ns, ipi_remaining);
        segment.ns -= carve;
        ipi_remaining -= carve;
      }
      path.segments.push_back(std::move(segment));
    }
    path.ipi_ns = ipi_count * ipi_ns_each - ipi_remaining;
    if (path.ipi_ns > 0) {
      path.segments.push_back(
          PathSegment{SegmentKind::kIpi, "", path.ipi_ns, ipi_count});
    }
    if (path.queue_wait_ns > 0) {
      path.segments.push_back(
          PathSegment{SegmentKind::kQueueWait, "", path.queue_wait_ns, 1});
    }
    requests_.push_back(std::move(path));
  }

  // Gate overhead outside any request has no enclosing wall time; it enters
  // the denominator directly so shares stay meaningful on request-free runs
  // (bench loops), where total_path_ns == sum of the histogram sums.
  for (const auto& [boundary, ns] : unattributed_gate) {
    (void)boundary;
    total_path_ns_ += ns;
  }

  // Reconcile: per-boundary path nanoseconds must equal the histogram sums
  // EXACTLY — both sides recorded the identical per-crossing overhead_ns —
  // and total crossings must match. Any mismatch means the attributor was
  // enabled after crossings already ran (or a recorder bypassed
  // OnGateCrossing), which would silently skew shares.
  uint64_t histogram_crossings_total = 0;
  for (BoundaryShare& share : boundaries_) {
    if (const auto it = path_gate.find(share.boundary);
        it != path_gate.end()) {
      share.path_gate_ns = it->second;
      path_gate.erase(it);
    }
    if (const auto it = unattributed_gate.find(share.boundary);
        it != unattributed_gate.end()) {
      share.unattributed_gate_ns = it->second;
    }
    share.critpath_share =
        total_path_ns_ > 0 ? static_cast<double>(share.gate_ns) /
                                 static_cast<double>(total_path_ns_)
                           : 0.0;
    histogram_crossings_total += share.crossings;
    if (reconciled_ && share.path_gate_ns != share.gate_ns) {
      reconciled_ = false;
      reconcile_detail_ = "boundary " + share.boundary + ": path ";
      AppendU64(&reconcile_detail_, share.path_gate_ns);
      reconcile_detail_ += " ns != histogram ";
      AppendU64(&reconcile_detail_, share.gate_ns);
      reconcile_detail_ += " ns";
    }
  }
  if (reconciled_ && !path_gate.empty()) {
    reconciled_ = false;
    reconcile_detail_ = "boundary " + path_gate.begin()->first +
                        " attributed but has no latency histogram";
  }
  if (reconciled_ && histogram_crossings_total != record_crossings_total) {
    reconciled_ = false;
    reconcile_detail_ = "crossings: histograms ";
    AppendU64(&reconcile_detail_, histogram_crossings_total);
    reconcile_detail_ += " != request records ";
    AppendU64(&reconcile_detail_, record_crossings_total);
  }
}

const BoundaryShare* CriticalPath::FindBoundary(
    std::string_view name) const {
  const BoundaryShare* match = nullptr;
  for (const BoundaryShare& share : boundaries_) {
    if (share.boundary == name) {
      return &share;
    }
    if (share.boundary.size() > name.size() + 1 &&
        share.boundary[share.boundary.size() - name.size() - 1] == '.' &&
        std::string_view(share.boundary)
                .substr(share.boundary.size() - name.size()) == name) {
      if (match != nullptr) {
        return nullptr;  // Ambiguous suffix.
      }
      match = &share;
    }
  }
  return match;
}

uint64_t CriticalPath::WhatIfTotalNs(
    std::string_view boundary, uint64_t new_cycles_per_crossing) const {
  const BoundaryShare* share = FindBoundary(boundary);
  if (share == nullptr || !cycles_to_ns_) {
    return total_path_ns_;
  }
  // Per-crossing conversion mirrors the recording path (each crossing's
  // cycles are converted, then summed), so a what-if back to the current
  // backend reproduces total_path_ns exactly.
  return total_path_ns_ - share->gate_ns +
         share->crossings * cycles_to_ns_(new_cycles_per_crossing);
}

std::string CriticalPath::ToJson() const {
  std::string out = "{\"schema\":\"";
  out += kCritpathSchema;
  out += "\",\"total_path_ns\":";
  AppendU64(&out, total_path_ns_);
  out += ",\"reconciled\":";
  out += reconciled_ ? "true" : "false";
  out += ",\"sched\":{\"queue_edges\":";
  AppendU64(&out, queue_edges_);
  out += ",\"steals\":";
  AppendU64(&out, steals_);
  out += ",\"ipis\":";
  AppendU64(&out, ipis_);
  out += "},\"requests\":[";
  bool first = true;
  for (const RequestPath& path : requests_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"id\":";
    AppendU64(&out, path.id);
    out += ",\"name\":\"";
    out += JsonEscape(path.name);
    out += "\",\"wall_ns\":";
    AppendU64(&out, path.wall_ns);
    out += ",\"execute_ns\":";
    AppendU64(&out, path.execute_ns);
    out += ",\"gate_ns\":";
    AppendU64(&out, path.gate_ns);
    out += ",\"queue_wait_ns\":";
    AppendU64(&out, path.queue_wait_ns);
    out += ",\"ipi_ns\":";
    AppendU64(&out, path.ipi_ns);
    out += ",\"slack_ns\":";
    AppendU64(&out, path.slack_ns);
    out += ",\"crossings\":";
    AppendU64(&out, path.crossings);
    out += ",\"vcpus\":[";
    for (size_t i = 0; i < path.vcpus.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      AppendU64(&out, static_cast<uint64_t>(path.vcpus[i]));
    }
    out += "],\"segments\":[";
    for (size_t i = 0; i < path.segments.size(); ++i) {
      const PathSegment& segment = path.segments[i];
      if (i > 0) {
        out += ',';
      }
      out += "{\"kind\":\"";
      out += SegmentKindName(segment.kind);
      out += "\",\"boundary\":\"";
      out += JsonEscape(segment.boundary);
      out += "\",\"ns\":";
      AppendU64(&out, segment.ns);
      out += ",\"count\":";
      AppendU64(&out, segment.count);
      out += '}';
    }
    out += "]}";
  }
  out += "],\"boundaries\":[";
  first = true;
  for (const BoundaryShare& share : boundaries_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"boundary\":\"";
    out += JsonEscape(share.boundary);
    out += "\",\"backend\":\"";
    out += JsonEscape(share.backend);
    out += "\",\"from\":\"";
    out += JsonEscape(share.from);
    out += "\",\"to\":\"";
    out += JsonEscape(share.to);
    out += "\",\"crossings\":";
    AppendU64(&out, share.crossings);
    out += ",\"gate_ns\":";
    AppendU64(&out, share.gate_ns);
    out += ",\"path_gate_ns\":";
    AppendU64(&out, share.path_gate_ns);
    out += ",\"unattributed_gate_ns\":";
    AppendU64(&out, share.unattributed_gate_ns);
    out += ",\"critpath_share\":";
    AppendShare(&out, share.critpath_share);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace flexos
