#include "core/image.h"

#include <algorithm>
#include <new>
#include <type_traits>

#include "core/gate_costs.h"
#include "core/mpk_gate.h"
#include "core/vm_gate.h"
#include "fault/fault.h"
#include "hw/trap.h"
#include "obs/names.h"
#include "support/strings.h"

namespace flexos {

// The observation state of one gate crossing, carried from its entry half
// to its exit half. The gate-facing GateCrossing and GateSession travel
// beside it, not inside it: folding them in makes Enter's returned session
// a copy into this struct, which measured ~12 ns slower per cached call in
// abl_gate_dispatch. The gate and backend are pinned at entry so a backend
// swap landing mid-crossing (deferred until it drains) can never tear the
// entry/exit pairing.
struct Image::Crossing {
  Gate* gate = nullptr;
  // The boundary crossed; null for a same-compartment call, which gets no
  // boundary counters, gate frame or latency sample.
  BoundaryRuntime* boundary = nullptr;
  // Attribution name of the boundary's backend; set only when profiling.
  std::string_view backend;
  bool batch = false;      // Opened by a GateBatch: items run in between.
  bool profiling = false;  // Attributor state at entry.
  uint64_t entry_cycles = 0;  // Modeled cost of the entry half.
  // Virtual time at Enter; the exit half emits the crossing as one
  // complete trace span (no begin/end pair to tear on ring wraparound). 0
  // when tracing was off at Enter.
  uint64_t trace_ns = 0;
};

// An open batch's crossing, parked in GateBatch's session storage between
// BatchEnter and BatchExit.
struct Image::BatchState {
  Crossing x;
  GateCrossing mech;
  GateSession session;
};

// Releases one in-flight crossing on scope exit — normal return or
// TrapException unwind (see ReleaseInflight).
class Image::InflightGuard {
 public:
  InflightGuard(Image& image, BoundaryRuntime* b) : image_(image), b_(b) {}
  ~InflightGuard() {
    if (b_ != nullptr) {
      image_.ReleaseInflight(*b_);
    }
  }

  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  Image& image_;
  BoundaryRuntime* b_;
};

std::string_view IsolationBackendName(IsolationBackend backend) {
  switch (backend) {
    case IsolationBackend::kNone:
      return "none";
    case IsolationBackend::kMpkSharedStack:
      return "mpk-shared";
    case IsolationBackend::kMpkSwitchedStack:
      return "mpk-switched";
    case IsolationBackend::kVmRpc:
      return "vm-rpc";
  }
  return "?";
}

Image::Image(Machine& machine, IsolationBackend backend)
    : machine_(machine), backend_(backend) {
  // The platform context is trusted and unrestricted (boot CPU state).
  platform_exec_ = ExecContext{};
  platform_exec_.compartment = -1;
}

Image::~Image() = default;

Image::LibRuntime& Image::LibOf(std::string_view name) {
  auto it = libs_.find(name);
  FLEXOS_CHECK(it != libs_.end(), "library '%s' is not part of this image",
               std::string(name).c_str());
  return it->second;
}

const Image::LibRuntime* Image::FindLib(std::string_view name) const {
  auto it = libs_.find(name);
  return it == libs_.end() ? nullptr : &it->second;
}

int Image::CompartmentOf(std::string_view lib) const {
  if (lib == kLibPlatform) {
    return -1;
  }
  const LibRuntime* runtime = FindLib(lib);
  FLEXOS_CHECK(runtime != nullptr, "library '%s' is not part of this image",
               std::string(lib).c_str());
  return runtime->compartment;
}

CompartmentRuntime& Image::compartment(int id) {
  FLEXOS_CHECK(id >= 0 && id < compartment_count(), "bad compartment id %d",
               id);
  return comps_[static_cast<size_t>(id)];
}

const CompartmentRuntime& Image::compartment(int id) const {
  FLEXOS_CHECK(id >= 0 && id < compartment_count(), "bad compartment id %d",
               id);
  return comps_[static_cast<size_t>(id)];
}

AddressSpace& Image::SpaceOf(std::string_view lib) {
  if (lib == kLibPlatform) {
    return *spaces_.front();
  }
  return *compartment(CompartmentOf(lib)).space;
}

Allocator& Image::AllocatorOf(std::string_view lib) {
  return registry_.For(CompartmentOf(lib));
}

Allocator& Image::shared_allocator() {
  FLEXOS_CHECK(shared_allocator_ != nullptr, "image has no shared region");
  return *shared_allocator_;
}

bool Image::IsHardened(std::string_view lib) const {
  const LibRuntime* runtime = FindLib(lib);
  return runtime != nullptr && runtime->hardened;
}

std::vector<std::string> Image::LibraryNames() const {
  std::vector<std::string> names;
  names.reserve(libs_.size());
  for (const auto& [name, runtime] : libs_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool Image::IsCfiEnforced(std::string_view lib) const {
  const LibRuntime* runtime = FindLib(lib);
  return runtime != nullptr && runtime->cfi_enforced;
}

std::vector<std::string> Image::RegisteredApi(std::string_view lib) const {
  const LibRuntime* runtime = FindLib(lib);
  if (runtime == nullptr) {
    return {};
  }
  return std::vector<std::string>(runtime->api.begin(), runtime->api.end());
}

void Image::EnableDispatchValidation(
    std::set<std::string, std::less<>> allowed) {
  validate_dispatch_ = true;
  allowed_dispatch_pairs_ = std::move(allowed);
}

void Image::DisableDispatchValidation() {
  validate_dispatch_ = false;
  allowed_dispatch_pairs_.clear();
}

void Image::ValidateDispatch(std::string_view from, std::string_view to) {
  if (from == kLibPlatform || to == kLibPlatform || from == to) {
    return;
  }
  ++validated_dispatches_;
  const std::string key = std::string(from) + "->" + std::string(to);
  if (allowed_dispatch_pairs_.count(key) != 0) {
    return;
  }
  ++machine_.stats().traps;
  RaiseTrap(TrapInfo{
      .kind = TrapKind::kCfiViolation,
      .detail = StrFormat(
          "cross-compartment dispatch %s not in the lint-derived "
          "allowed-call set (metadata drift: declare the call in %s's "
          "[Call] list or co-locate the libraries)",
          key.c_str(), std::string(from).c_str())});
}

RouteHandle Image::Resolve(std::string_view from, std::string_view to) {
  RouteHandle route;
  route.from = from;
  route.to = to;
  // Under the VM backend, replicated libraries are local to every VM: the
  // call never leaves the caller's VM (paper §3: each VM image carries its
  // own platform code, allocator, and scheduler). Mirrors Call(): the
  // source library is not consulted on this path.
  if (backend_ == IsolationBackend::kVmRpc &&
      vm_replicated_libs_.count(to) != 0) {
    route.vm_local = true;
    if (to == kLibPlatform) {
      route.to_platform = true;
    } else {
      const LibRuntime& target = LibOf(to);
      route.target_exec = &target.exec;
      route.to_comp = target.compartment;
      route.hardened = target.hardened;
    }
    return route;
  }

  route.from_comp = CompartmentOf(from);
  if (to == kLibPlatform) {
    route.target_exec = &platform_exec_;
    route.to_comp = -1;
    route.to_platform = true;
  } else {
    const LibRuntime& target = LibOf(to);
    route.target_exec = &target.exec;
    route.to_comp = target.compartment;
    route.hardened = target.hardened;
  }
  route.cross = route.from_comp != route.to_comp;
  if (route.cross) {
    BoundaryRuntime& b = BoundaryFor(route.from_comp, route.to_comp);
    route.boundary = &b;
    route.obs = &b.recorder;
    route.gate = &GateForBackend(b.backend);
    route.epoch = route_epoch_;
  } else {
    route.gate = &direct_gate_;
  }
  return route;
}

BoundaryRuntime& Image::BoundaryFor(int from_comp, int to_comp) {
  auto it = boundaries_.find({from_comp, to_comp});
  if (it == boundaries_.end()) {
    BoundaryRuntime b;
    b.from_comp = from_comp;
    b.to_comp = to_comp;
    b.backend = backend_;
    it = boundaries_.emplace(std::make_pair(from_comp, to_comp),
                             std::move(b))
             .first;
    BindRecorder(it->second);
  }
  return it->second;
}

void Image::BindRecorder(BoundaryRuntime& b) {
  const std::string_view backend = IsolationBackendName(b.backend);
  obs::MetricsRegistry& metrics = machine_.metrics();
  b.recorder.crossings = &metrics.GetCounter(
      obs::GateMetricName("crossings", backend, b.from_comp, b.to_comp));
  b.recorder.batched = &metrics.GetCounter(
      obs::GateMetricName("batched", backend, b.from_comp, b.to_comp));
  b.recorder.bytes = &metrics.GetCounter(
      obs::GateMetricName("bytes", backend, b.from_comp, b.to_comp));
  b.recorder.latency_ns = &metrics.GetHistogram(
      obs::GateMetricName("latency_ns", backend, b.from_comp, b.to_comp));
  if (machine_.vcpu_count() > 1) {
    // Per-vCPU crossing split. The ".v<id>" suffix adds a fifth dot-field
    // after "gate.", which ParseGateMetricName rejects — so generic
    // boundary collection (flexstat tables, flexbench rows) never double
    // counts these.
    for (int v = 0; v < machine_.vcpu_count(); ++v) {
      b.recorder.vcpu_crossings[v] = &metrics.GetCounter(
          obs::GateMetricName("crossings", backend, b.from_comp, b.to_comp) +
          ".v" + std::to_string(v));
    }
  }
}

Gate& Image::GateForBackend(IsolationBackend backend) {
  if (backend == IsolationBackend::kNone) {
    return direct_gate_;
  }
  if (backend == backend_ && gate_ != nullptr) {
    // The builder's gate: object identity preserved so pre-adapt behavior
    // (and pointer-compared baselines) is bit-for-bit unchanged.
    return *gate_;
  }
  std::unique_ptr<Gate>& slot = gate_pool_[static_cast<size_t>(backend)];
  if (slot == nullptr) {
    switch (backend) {
      case IsolationBackend::kMpkSharedStack:
        slot = std::make_unique<MpkSharedStackGate>();
        break;
      case IsolationBackend::kMpkSwitchedStack:
        slot = std::make_unique<MpkSwitchedStackGate>();
        break;
      case IsolationBackend::kVmRpc:
        slot = std::make_unique<VmRpcGate>();
        break;
      case IsolationBackend::kNone:
        return direct_gate_;
    }
  }
  return *slot;
}

IsolationBackend Image::BoundaryBackend(int from_comp, int to_comp) const {
  const auto it = boundaries_.find({from_comp, to_comp});
  return it != boundaries_.end() ? it->second.backend : backend_;
}

IsolationBackend Image::EffectiveBackend(const RouteHandle& route) const {
  // route.boundary stays valid across swaps (node-stable map), so even a
  // stale-epoch handle reads the boundary's current backend.
  if (route.boundary != nullptr) {
    return route.boundary->backend;
  }
  return BoundaryBackend(route.from_comp, route.to_comp);
}

bool Image::SetBoundaryBackend(int from_comp, int to_comp,
                               IsolationBackend target) {
  FLEXOS_CHECK(from_comp >= -1 && from_comp < compartment_count() &&
                   to_comp >= -1 && to_comp < compartment_count(),
               "SetBoundaryBackend: bad boundary %d -> %d", from_comp,
               to_comp);
  BoundaryRuntime& b = BoundaryFor(from_comp, to_comp);
  if (b.inflight > 0) {
    // Crossings are mid-gate (coop threads suspend inside bodies): drain on
    // the old backend, swap when the last one exits.
    b.pending = target;
    b.has_pending = true;
    return false;
  }
  b.has_pending = false;
  ApplyBoundaryBackend(b, target);
  return true;
}

void Image::ApplyBoundaryBackend(BoundaryRuntime& b,
                                 IsolationBackend target) {
  if (b.backend == target) {
    return;
  }
  // The one-time re-placement cost (pkey re-program / ring setup) lands on
  // the clock, not in the gate latency histograms — realized per-crossing
  // cost under the new backend stays directly comparable to the
  // prediction.
  machine_.clock().Charge(
      TransitionCycles(machine_.costs(), b.backend, target));
  b.backend = target;
  BindRecorder(b);
  ++route_epoch_;
}

void Image::Call(const RouteHandle& route, FunctionRef<void()> body) {
  if (route.cross && route.epoch != route_epoch_) {
    // The handle predates a backend swap: re-resolve by names and dispatch
    // through the boundary's current gate (the flexadapt route-cache flush
    // contract, DESIGN.md §16).
    ++route_reresolves_;
    Call(Resolve(route.from, route.to), body);
    return;
  }
  if (route.vm_local) {
    CallLeaf(route, body);
    return;
  }
  if (route.hardened) {
    machine_.clock().Charge(machine_.costs().sh_call_overhead);
  }
  // Resolve gives every cross route its gate and boundary.
  Crossing x;
  GateCrossing mech{.target_context = route.target_exec};
  x.gate = &direct_gate_;
  if (route.cross) {
    mech.arg_bytes = kGateArgBytes;
    mech.ret_bytes = kGateRetBytes;
    x.gate = route.gate;
    x.boundary = route.boundary;
  }
  const GateSession session = OpenCrossing(route, mech, x);
  // Holds any swap requested while this crossing is inside the gate until
  // it (and every other in-flight crossing) drains — even via trap unwind.
  InflightGuard inflight(*this, x.boundary);
  body();
  CloseCrossing(route, mech, session, x);
}

void Image::CallLeaf(const RouteHandle& route, FunctionRef<void()> body) {
  ++stats_.leaf_calls;
  machine_.clock().Charge(machine_.costs().direct_call);
  if (route.to_platform) {
    body();
    return;
  }
  // Caller's protection domain, target's instrumentation.
  ExecContext leaf = machine_.context();
  if (route.hardened) {
    machine_.clock().Charge(machine_.costs().sh_call_overhead);
    leaf.mem_cost_multiplier = machine_.costs().sh_mem_multiplier;
    leaf.shadow_checks = true;
  } else {
    leaf.mem_cost_multiplier = 1.0;
    leaf.shadow_checks = false;
  }
  ScopedExecContext scope(machine_, leaf);
  body();
}

void Image::BatchEnter(const RouteHandle& route, GateBatch& batch) {
  static_assert(sizeof(BatchState) <= GateBatch::kSessionBytes,
                "BatchState must fit the batch's opaque storage");
  static_assert(std::is_trivially_destructible_v<BatchState>,
                "BatchExit does not run a BatchState destructor");
  FLEXOS_CHECK(route.cross && route.boundary != nullptr && !route.vm_local,
               "GateBatch needs a resolved cross-compartment route");
  if (route.epoch != route_epoch_) {
    // Stale handle: the batch transparently runs on the boundary's current
    // backend (the gate is taken from the boundary, not the handle).
    ++route_reresolves_;
  }
  Crossing x;
  x.boundary = route.boundary;
  x.gate = &GateForBackend(x.boundary->backend);
  x.batch = true;
  // Notification-only entry: the batch opens the boundary with no argument
  // payload; each item marshals its own (ChargeBatchItem).
  const GateCrossing mech{.target_context = route.target_exec};
  const GateSession session = OpenCrossing(route, mech, x);
  new (batch.session()) BatchState{x, mech, session};
  // Caller code keeps running between items under its own context; the
  // restore is free — the modeled domain stays open for the batch.
  machine_.context() = session.caller;
}

void Image::BatchItem(const RouteHandle& route, GateBatch& batch,
                      FunctionRef<void()> body) {
  const BatchState& state = *static_cast<BatchState*>(batch.session());
  const obs::BoundaryRecorder& recorder = state.x.boundary->recorder;
  recorder.batched->Add();
  recorder.bytes->Add(kGateArgBytes + kGateRetBytes);
  if (route.hardened) {
    machine_.clock().Charge(machine_.costs().sh_call_overhead);
  }
  // Per-item payload marshalling, priced by the open gate (no entry/exit,
  // no PKRU writes, no VM notifications). Charged under the caller's
  // context, where the item is queued.
  const uint64_t begin = BeginGateHalf(state.x);
  state.x.gate->ChargeBatchItem(machine_, kGateArgBytes, kGateRetBytes);
  EndGateHalf(state.x, begin);
  TargetFrame(route, state.x, /*open=*/true);
  machine_.context() = *route.target_exec;
  body();
  machine_.context() = state.session.caller;
  TargetFrame(route, state.x, /*open=*/false);
}

void Image::BatchExit(const RouteHandle& route, GateBatch& batch) {
  const BatchState& state = *static_cast<BatchState*>(batch.session());
  // Notification-only exit: return payloads were charged per item.
  CloseCrossing(route, state.mech, state.session, state.x);
  ReleaseInflight(*state.x.boundary);
}

// --- The observation path ----------------------------------------------
//
// Every crossing kind — same-compartment call, cross-compartment call,
// batch open/close, batch item — is observed here and only here: dispatch
// validation, the fault probe, stats and boundary counters, the gate and
// target attributor frames, the latency sample, OnGateCrossing, and the
// trace span. The gates themselves are pure mechanics.

// Bracket one gate half (entry, exit, or a batch item's marshalling): on a
// boundary the half runs under the gate:<backend> attributor frame. End
// returns the half's modeled cycles.
uint64_t Image::BeginGateHalf(const Crossing& x) {
  const uint64_t now = machine_.clock().cycles();
  if (x.profiling && x.boundary != nullptr) {
    machine_.attrib().PushGateFrame(x.backend, now);
  }
  return now;
}

uint64_t Image::EndGateHalf(const Crossing& x, uint64_t begin) {
  // Gate halves never block, so this delta stays on one vCPU's clock.
  const uint64_t now = machine_.clock().cycles();
  if (x.profiling && x.boundary != nullptr) {
    machine_.attrib().PopFrame(now);
  }
  return now - begin;
}

// Opens or closes the target library's attributor frame.
void Image::TargetFrame(const RouteHandle& route, const Crossing& x,
                        bool open) {
  if (!x.profiling) {
    return;
  }
  // machine_.clock() is re-read, not cached: a body may block and resume
  // on a different vCPU, and each frame edge lands on whichever vCPU clock
  // ran it.
  const uint64_t now = machine_.clock().cycles();
  if (open) {
    machine_.attrib().PushFrame(route.to, route.to_comp, now);
  } else {
    machine_.attrib().PopFrame(now);
  }
}

// Entry half of every crossing kind; returns the gate's session.
GateSession Image::OpenCrossing(const RouteHandle& route,
                                const GateCrossing& mech, Crossing& x) {
  x.profiling = machine_.attrib().enabled();
  if (x.boundary == nullptr) {
    // Same protection domain: a direct call (still swaps instrumentation
    // flags so per-library SH composes within one compartment), charged
    // whole to the target's frame.
    ++stats_.same_compartment_calls;
    TargetFrame(route, x, /*open=*/true);
  } else {
    if (validate_dispatch_) {
      ValidateDispatch(route.from, route.to);
    }
    if (machine_.injector().armed(fault::FaultSite::kGateCross)) {
      MaybeInjectGateFault(route);
    }
    ++stats_.cross_compartment_calls;
    BoundaryRuntime& b = *x.boundary;
    b.recorder.crossings->Add();
    if (b.recorder.vcpu_crossings[0] != nullptr) {
      b.recorder.vcpu_crossings[machine_.current_vcpu()]->Add();
    }
    // Zero for a batch's notification-only entry; items add their own.
    b.recorder.bytes->Add(mech.arg_bytes + mech.ret_bytes);
    ++b.inflight;
    if (x.profiling) {
      x.backend = IsolationBackendName(b.backend);
    }
  }
  // The gate halves are timed apart from the body: the latency sample is
  // the gate's own overhead, entry half + exit half, in modeled cycles.
  const uint64_t begin = BeginGateHalf(x);
  obs::Tracer& tracer = machine_.tracer();
  x.trace_ns = tracer.enabled() ? tracer.NowNs() : 0;
  GateSession session = x.gate->Enter(machine_, mech);
  x.entry_cycles = EndGateHalf(x, begin);
  if (x.boundary != nullptr && !x.batch) {
    TargetFrame(route, x, /*open=*/true);
  }
  return session;
}

// Exit half of every crossing kind.
void Image::CloseCrossing(const RouteHandle& route, const GateCrossing& mech,
                          const GateSession& session, const Crossing& x) {
  if (x.boundary != nullptr && !x.batch) {
    TargetFrame(route, x, /*open=*/false);
  }
  const uint64_t begin = BeginGateHalf(x);
  x.gate->Exit(machine_, mech, session);
  const uint64_t exit_cycles = EndGateHalf(x, begin);
  // The whole crossing (entry + body or batch + exit) as one span on the
  // target compartment's track.
  obs::Tracer& tracer = machine_.tracer();
  if (tracer.enabled()) {
    const int target = mech.target_context != nullptr
                           ? mech.target_context->compartment
                           : session.caller.compartment;
    tracer.RecordComplete(obs::TraceCat::kGate,
                          GateKindName(x.gate->kind()).data(), x.trace_ns,
                          tracer.NowNs() - x.trace_ns, /*tid=*/target + 1,
                          mech.arg_bytes, mech.ret_bytes,
                          machine_.attrib().current_request());
  }
  if (x.boundary == nullptr) {
    TargetFrame(route, x, /*open=*/false);
    return;
  }
  // One latency sample per crossing; for a batch, the amortized entry+exit
  // overhead it paid for all of its items.
  const uint64_t overhead_ns =
      machine_.clock().CyclesToNanos(x.entry_cycles + exit_cycles);
  x.boundary->recorder.latency_ns->Record(overhead_ns);
  if (x.profiling) {
    machine_.attrib().OnGateCrossing(x.backend, route.from_comp,
                                     route.to_comp, overhead_ns);
  }
}

void Image::ReleaseInflight(BoundaryRuntime& b) {
  if (--b.inflight == 0 && b.has_pending) {
    b.has_pending = false;
    ++deferred_swaps_applied_;
    ApplyBoundaryBackend(b, b.pending);
  }
}

void Image::MaybeInjectGateFault(const RouteHandle& route) {
  const auto decision =
      machine_.injector().Check(fault::FaultSite::kGateCross, route.to_comp);
  if (!decision.has_value()) {
    return;
  }
  switch (decision->kind) {
    case fault::FaultKind::kProtectionFault:
      ++machine_.stats().traps;
      RaiseTrap(TrapInfo{
          .kind = TrapKind::kProtectionFault,
          .access = AccessKind::kWrite,
          .pkru = machine_.context().pkru.raw(),
          .detail = StrFormat("injected protection fault crossing into "
                              "compartment %d",
                              route.to_comp)});
    case fault::FaultKind::kPageFault:
      ++machine_.stats().traps;
      RaiseTrap(TrapInfo{
          .kind = TrapKind::kPageFault,
          .detail = StrFormat("injected page fault crossing into "
                              "compartment %d",
                              route.to_comp)});
    case fault::FaultKind::kHeapCorruption:
      ++machine_.stats().traps;
      RaiseTrap(TrapInfo{
          .kind = TrapKind::kAsanViolation,
          .detail = StrFormat("injected heap corruption surfacing at the "
                              "gate into compartment %d",
                              route.to_comp)});
    case fault::FaultKind::kRpcTimeout: {
      // The RPC stalls for the timeout window before the caller gives up:
      // charge the wait, then deliver the timeout as a containable trap.
      const uint64_t wait_ns = decision->arg != 0 ? decision->arg : 1'000'000;
      machine_.clock().Charge(machine_.clock().NanosToCycles(wait_ns));
      ++machine_.stats().traps;
      RaiseTrap(TrapInfo{
          .kind = TrapKind::kRpcTimeout,
          .detail = StrFormat("injected vm-rpc timeout (%llu ns) crossing "
                              "into compartment %d",
                              static_cast<unsigned long long>(wait_ns),
                              route.to_comp)});
    }
    default:
      // Absorb-class kinds have no gate-site effect; the injector already
      // counted them as dropped.
      break;
  }
}

void Image::RegisterApiContract(std::string_view lib, std::string_view func,
                                std::function<bool()> precondition,
                                std::string description) {
  contracts_[std::string(lib) + "::" + std::string(func)] =
      ApiContract{std::move(precondition), std::move(description)};
}

void Image::CallNamed(std::string_view from, std::string_view to,
                      std::string_view func, FunctionRef<void()> body) {
  // API contract wrappers: included only across trust-domain boundaries
  // (paper §5) — within one compartment the caller is trusted and the
  // check is compiled out.
  const auto contract_it =
      contracts_.find(std::string(to) + "::" + std::string(func));
  if (contract_it != contracts_.end()) {
    if (CompartmentOf(from) != CompartmentOf(to)) {
      ++contract_checks_run_;
      machine_.clock().Charge(machine_.costs().sh_call_overhead);
      if (!contract_it->second.precondition()) {
        ++machine_.stats().traps;
        RaiseTrap(TrapInfo{
            .kind = TrapKind::kContractViolation,
            .detail = StrFormat(
                "API contract on %s::%s violated by %s: %s",
                std::string(to).c_str(), std::string(func).c_str(),
                std::string(from).c_str(),
                contract_it->second.description.c_str())});
      }
    } else {
      ++contract_checks_skipped_;
    }
  }
  if (to != kLibPlatform) {
    const LibRuntime& target = LibOf(to);
    if (target.cfi_enforced) {
      ++stats_.cfi_checks;
      machine_.clock().Charge(machine_.costs().sh_call_overhead);
      if (target.api.count(func) == 0) {
        ++machine_.stats().traps;
        RaiseTrap(TrapInfo{
            .kind = TrapKind::kCfiViolation,
            .detail = StrFormat(
                "call %s -> %s::%s outside the declared entry points",
                std::string(from).c_str(), std::string(to).c_str(),
                std::string(func).c_str())});
      }
    }
  }
  Call(from, to, body);
}

Status Image::TryCall(const RouteHandle& route, FunctionRef<void()> body) {
  if (fault_handler_ == nullptr || !IsIsolatingBoundary(route)) {
    // Unsupervised, or a boundary with no containment story (trusted
    // function call, VM-local leaf): behave exactly like Call.
    Call(route, body);
    return Status::Ok();
  }
  FLEXOS_RETURN_IF_ERROR(fault_handler_->Admit(route.to_comp));
  obs::Attributor& attrib = machine_.attrib();
  const ExecContext saved = machine_.context();
  const size_t depth = attrib.frame_depth();
  try {
    Call(route, body);
  } catch (const TrapException& trap) {
    // The gate never ran its Exit half: restore the caller's context and
    // unwind the attributor frames the aborted call pushed, then let the
    // handler decide what the caller sees. Nested unsupervised Calls
    // unwound to here too — containment happens at the outermost
    // supervised boundary, like a real fault delivered to the monitor.
    machine_.context() = saved;
    attrib.UnwindFramesTo(depth, machine_.clock().cycles());
    return fault_handler_->OnTrap(route.from_comp, route.to_comp,
                                  trap.info());
  }
  return Status::Ok();
}

Status Image::ResetCompartmentHeap(int comp) {
  if (comp < 0 || comp >= compartment_count()) {
    return Status(ErrorCode::kInvalidArgument,
                  StrFormat("bad compartment id %d", comp));
  }
  if (!registry_.HasDedicated(comp)) {
    return Status(ErrorCode::kFailedPrecondition,
                  StrFormat("compartment %d shares a global allocator; "
                            "per-compartment reset would destroy other "
                            "compartments' state",
                            comp));
  }
  return registry_.For(comp).Reset();
}

std::string Image::Describe() const {
  std::string out = StrFormat("image backend=%s compartments=%d\n",
                              std::string(IsolationBackendName(backend_)).c_str(),
                              compartment_count());
  for (const CompartmentRuntime& comp : comps_) {
    out += "  " + comp.ToString() + "\n";
  }
  return out;
}

const ImageStats& Image::stats() const {
  // Refresh the per-boundary view from the registry-backed recorders; the
  // scalar members are maintained in place. Returning a long-lived
  // reference keeps range-for over stats().crossings valid (C++20 range
  // initializers don't extend the lifetime of a by-value return).
  for (const auto& [boundary, runtime] : boundaries_) {
    BoundaryStats& view = stats_.crossings[boundary];
    view.crossings = runtime.recorder.crossings->value();
    view.batched = runtime.recorder.batched->value();
    view.bytes = runtime.recorder.bytes->value();
  }
  return stats_;
}

std::string Image::DescribeCrossings() const {
  std::string out;
  for (const auto& [boundary, counters] : stats().crossings) {
    out += StrFormat(
        "  boundary %d -> %d: crossings=%llu batched=%llu bytes=%llu\n",
        boundary.first, boundary.second,
        static_cast<unsigned long long>(counters.crossings),
        static_cast<unsigned long long>(counters.batched),
        static_cast<unsigned long long>(counters.bytes));
  }
  return out;
}

}  // namespace flexos
