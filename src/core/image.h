// Image: an instantiated FlexOS kernel. Holds the compartments, their
// address spaces, allocators, and the gate that implements every
// cross-compartment boundary. Implements GateRouter, so it IS the seam the
// substrate libraries call through — the builder "replacing the call gate
// placeholders with the relevant code" at runtime instead of link time.
#ifndef FLEXOS_CORE_IMAGE_H_
#define FLEXOS_CORE_IMAGE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/allocator_registry.h"
#include "core/compartment.h"
#include "core/gate.h"
#include "obs/metrics.h"
#include "support/gate_router.h"

namespace flexos {

namespace fault {
class FaultDomainHandler;
}  // namespace fault

enum class IsolationBackend : uint8_t {
  kNone,              // Single protection domain, direct calls.
  kMpkSharedStack,    // MPK, ERIM-style shared stacks.
  kMpkSwitchedStack,  // MPK, HODOR-style per-compartment stacks.
  kVmRpc,             // One VM per compartment, RPC gates.
};

std::string_view IsolationBackendName(IsolationBackend backend);

// Default by-value payload of a gate call: a few registers spilled per the
// ABI (switched-stack/VM gates charge the copies).
inline constexpr uint64_t kGateArgBytes = 64;
inline constexpr uint64_t kGateRetBytes = 16;

// Traffic accounting for one (from-compartment, to-compartment) boundary.
// Since PR 3 this is a read-only VIEW: the live counters are
// gate.{crossings,batched,bytes}.* in the machine's MetricsRegistry
// (obs/names.h); Image::stats() refreshes the view from the registry.
struct BoundaryStats {
  uint64_t crossings = 0;  // Gate entry/exit pairs (one per batch entry).
  uint64_t batched = 0;    // Bodies executed inside batched crossings.
  uint64_t bytes = 0;      // Marshalled argument + return payload bytes.
};

struct ImageStats {
  uint64_t same_compartment_calls = 0;
  uint64_t cross_compartment_calls = 0;
  uint64_t leaf_calls = 0;
  // Per-boundary crossing counters, keyed by (from, to) compartment ids.
  std::map<std::pair<int, int>, BoundaryStats> crossings;
  uint64_t cfi_checks = 0;
};

// Per-(from, to) boundary runtime state. Since flexadapt (DESIGN.md §16)
// each boundary carries its *own* backend — initialized to the image-wide
// backend at first resolve, re-placed live by Image::SetBoundaryBackend.
// Nodes live in a std::map inside the image, so pointers parked in
// RouteHandles stay valid across later inserts and backend swaps.
struct BoundaryRuntime {
  int from_comp = -1;
  int to_comp = -1;
  IsolationBackend backend = IsolationBackend::kNone;
  // Registry-backed metric recorder, re-pointed in place on a backend swap
  // so post-swap crossings land under the new backend's metric names while
  // every outstanding RouteHandle::obs keeps working.
  obs::BoundaryRecorder recorder;
  // Crossings currently inside this boundary's gate (coop threads can
  // suspend mid-crossing). A swap requested while nonzero is deferred and
  // applied when the last in-flight call drains.
  int inflight = 0;
  bool has_pending = false;
  IsolationBackend pending = IsolationBackend::kNone;
};

class Image final : public GateRouter {
 public:
  Image(Machine& machine, IsolationBackend backend);
  ~Image() override;

  Image(const Image&) = delete;
  Image& operator=(const Image&) = delete;

  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  IsolationBackend backend() const { return backend_; }

  // --- GateRouter --------------------------------------------------------
  //
  // Resolve computes the route once (compartment pair, target context,
  // gate, hardening flags) against state fixed at image build; hot
  // components resolve their routes at construction. Unknown library names
  // panic: an image must know its members (a mis-built image, not a
  // runtime condition). The by-name GateRouter::Call helper resolves per
  // call and charges exactly what a cached route charges.

  using GateRouter::Call;

  RouteHandle Resolve(std::string_view from, std::string_view to) override;

  // Routes a cross-library call through the boundary's gate.
  void Call(const RouteHandle& route, FunctionRef<void()> body) override;

  // Leaf-routine call: runs in the caller's protection domain with the
  // target library's instrumentation (see GateRouter::CallLeaf). Also the
  // path taken by Call() for per-VM-replicated libraries under the VM
  // backend (the paper gives every VM its own allocator/scheduler/libc).
  void CallLeaf(const RouteHandle& route, FunctionRef<void()> body) override;

  // Batched crossings: one gate entry/exit pair for N bodies, plus
  // per-item marshalling (GateBatch drives these).
  void BatchEnter(const RouteHandle& route, GateBatch& batch) override;
  void BatchItem(const RouteHandle& route, GateBatch& batch,
                 FunctionRef<void()> body) override;
  void BatchExit(const RouteHandle& route, GateBatch& batch) override;

  // Like Call, but names the target function so per-library CFI policies
  // can be enforced: calling a function outside the target's declared API
  // raises a kCfiViolation trap when CFI is enabled for that library.
  void CallNamed(std::string_view from, std::string_view to,
                 std::string_view func, FunctionRef<void()> body);

  // --- Fault containment (DESIGN.md §11) ---------------------------------
  //
  // With a handler installed, TryCall on an *isolating* boundary (a real
  // mpk/vm gate — not a trusted direct call, not a VM-local leaf) becomes a
  // supervised dispatch: the handler gates admission, and a TrapException
  // raised inside the crossing is contained at this boundary and converted
  // into the handler's Status instead of unwinding further. Everywhere
  // else TryCall behaves exactly like Call (traps propagate — the paper's
  // threat model says a function-call boundary offers no containment).

  void SetFaultHandler(fault::FaultDomainHandler* handler) {
    fault_handler_ = handler;
  }
  fault::FaultDomainHandler* fault_handler() const { return fault_handler_; }

  // True when `route` crosses a boundary the supervisor can contain. Uses
  // the boundary's *current* backend, so a func-call boundary promoted to
  // MPK at runtime becomes containable from the swap on.
  bool IsIsolatingBoundary(const RouteHandle& route) const {
    return route.cross && !route.vm_local &&
           EffectiveBackend(route) != IsolationBackend::kNone;
  }

  // --- Runtime backend re-placement (flexadapt, DESIGN.md §16) -----------
  //
  // SetBoundaryBackend installs `target` as the (from, to) boundary's gate.
  // If the boundary has in-flight crossings the swap is deferred (returns
  // false) and applied when the last one drains; otherwise it applies
  // immediately (returns true): the transition cost is charged to the
  // clock, the boundary's metric recorder is re-pointed at the new
  // backend's names, and the route-cache epoch is bumped so every
  // outstanding RouteHandle transparently re-resolves on its next dispatch.

  bool SetBoundaryBackend(int from_comp, int to_comp,
                          IsolationBackend target);

  // The boundary's current backend (the image-wide backend until the
  // boundary is first resolved or swapped).
  IsolationBackend BoundaryBackend(int from_comp, int to_comp) const;

  // Current backend of the boundary `route` crosses.
  IsolationBackend EffectiveBackend(const RouteHandle& route) const;

  uint64_t route_epoch() const { return route_epoch_; }
  // Dispatches that found a stale epoch and re-resolved transparently.
  uint64_t route_reresolves() const { return route_reresolves_; }
  // Deferred swaps applied after their last in-flight crossing drained.
  uint64_t deferred_swaps_applied() const { return deferred_swaps_applied_; }

  Status TryCall(const RouteHandle& route, FunctionRef<void()> body) override;

  // Value-returning supervised dispatch; mirrors GateRouter::CallR.
  template <typename F>
  auto TryCallR(const RouteHandle& route, F&& body)
      -> Result<decltype(body())> {
    using T = decltype(body());
    std::optional<T> slot;
    FLEXOS_RETURN_IF_ERROR(
        TryCall(route, [&slot, &body] { slot.emplace(body()); }));
    FLEXOS_CHECK(slot.has_value(), "TryCallR body did not run");
    return *std::move(slot);
  }

  // Resets compartment `comp`'s dedicated heap to its boot state (all
  // allocations gone, accounting zeroed). kFailedPrecondition when the
  // compartment shares a global allocator — resetting it would destroy
  // other compartments' state.
  Status ResetCompartmentHeap(int comp);

  // --- API contracts (paper §5, "Isolation alone is not enough") ---------
  //
  // "If component A is together with component B in the same trust domain,
  // then checks are not necessary, but they are when component C (in
  // another domain) calls component B." The image generates the wrapper:
  // a registered precondition runs on CallNamed only when the caller sits
  // in a different compartment than the target; violations raise
  // kContractViolation.

  // `precondition` returns true when the call is legal. `description`
  // appears in the trap on violation.
  void RegisterApiContract(std::string_view lib, std::string_view func,
                           std::function<bool()> precondition,
                           std::string description);

  uint64_t contract_checks_run() const { return contract_checks_run_; }
  uint64_t contract_checks_skipped() const {
    return contract_checks_skipped_;
  }

  // --- Introspection / wiring --------------------------------------------

  int CompartmentOf(std::string_view lib) const;
  CompartmentRuntime& compartment(int id);
  const CompartmentRuntime& compartment(int id) const;
  int compartment_count() const { return static_cast<int>(comps_.size()); }

  AddressSpace& SpaceOf(std::string_view lib);
  Allocator& AllocatorOf(std::string_view lib);

  // The shared region (key 0 / mapped in every VM): base, size, and an
  // allocator for cross-compartment buffers.
  Gaddr shared_base() const { return shared_base_; }
  uint64_t shared_bytes() const { return shared_bytes_; }
  Allocator& shared_allocator();

  // Image call statistics. The per-boundary map inside is refreshed from
  // the metrics registry on each call (the registry is the single source of
  // truth; this accessor is a compatibility view). The reference stays
  // valid for the image's lifetime.
  const ImageStats& stats() const;

  // True if `lib` runs with software hardening in this image.
  bool IsHardened(std::string_view lib) const;

  // Member library names, sorted (deterministic iteration for analysis
  // passes that walk a built image).
  std::vector<std::string> LibraryNames() const;

  // True if calls into `lib` are CFI-checked against its registered API.
  bool IsCfiEnforced(std::string_view lib) const;

  // The entry points registered for `lib` at build time (config `api`
  // directives); empty when none were registered.
  std::vector<std::string> RegisteredApi(std::string_view lib) const;

  // --- Dispatch validation (flexlint's runtime counterpart) --------------
  //
  // Opt-in debug hook: every cross-compartment dispatch is checked against
  // `allowed` — "from->to" pairs, normally AllowedCallPairs() derived from
  // the same metadata flexlint lints. A dispatch outside the set raises a
  // kCfiViolation trap, turning metadata drift into a deterministic
  // failure instead of silently unaccounted crossings. Platform and
  // same-library routes are always allowed.
  void EnableDispatchValidation(std::set<std::string, std::less<>> allowed);
  void DisableDispatchValidation();
  uint64_t validated_dispatches() const { return validated_dispatches_; }

  std::string Describe() const;

  // One line per (from, to) compartment boundary with its crossing,
  // batched-body, and marshalled-byte counters; empty string when no
  // boundary was ever crossed.
  std::string DescribeCrossings() const;

 private:
  friend class ImageBuilder;

  struct LibRuntime {
    std::string name;
    int compartment = -1;
    bool hardened = false;
    ExecContext exec;  // Compartment context + SH instrumentation flags.
    bool cfi_enforced = false;
    // Allowed entry points when CFI is on (transparent comparator: lookups
    // by string_view allocate nothing).
    std::set<std::string, std::less<>> api;
  };

  // Heterogeneous string hashing so name lookups by string_view never
  // materialize a std::string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };

  LibRuntime& LibOf(std::string_view name);
  const LibRuntime* FindLib(std::string_view name) const;

  // Trap unless `from` -> `to` is in the allowed-dispatch set.
  void ValidateDispatch(std::string_view from, std::string_view to);

  // Cold path behind the injector's armed-site check: applies a gate-cross
  // fault decision (raise a trap / charge a timeout), if one fires.
  void MaybeInjectGateFault(const RouteHandle& route);

  // The gate implementing `backend`: the builder's gate when it matches the
  // image-wide backend, otherwise a lazily-built pooled instance (gates are
  // stateless and never destroyed, so pointers parked in RouteHandles and
  // open batches stay valid across swaps).
  Gate& GateForBackend(IsolationBackend backend);

  // Find-or-create the runtime state for one boundary. The returned
  // reference is stable (node-based map + node-stable registry), so Resolve
  // can park it in RouteHandle::boundary/obs.
  BoundaryRuntime& BoundaryFor(int from_comp, int to_comp);

  // (Re-)points `b.recorder` at the registry metrics named for b.backend.
  void BindRecorder(BoundaryRuntime& b);

  // Immediate half of SetBoundaryBackend: charge, re-point, bump epoch.
  void ApplyBoundaryBackend(BoundaryRuntime& b, IsolationBackend target);

  // --- The observation path (image.cc) ----------------------------------
  //
  // One observed crossing, carried from its entry half to its exit half,
  // and the form a batch parks it in between BatchEnter and BatchExit.
  struct Crossing;
  struct BatchState;

  GateSession OpenCrossing(const RouteHandle& route, const GateCrossing& mech,
                           Crossing& x);
  void CloseCrossing(const RouteHandle& route, const GateCrossing& mech,
                     const GateSession& session, const Crossing& x);
  uint64_t BeginGateHalf(const Crossing& x);
  uint64_t EndGateHalf(const Crossing& x, uint64_t begin);
  void TargetFrame(const RouteHandle& route, const Crossing& x, bool open);
  // Ends one in-flight crossing of `b`; when the last one drains (normal
  // exit or TrapException unwind), applies a swap deferred meanwhile.
  void ReleaseInflight(BoundaryRuntime& b);
  class InflightGuard;

  Machine& machine_;
  IsolationBackend backend_;

  std::vector<std::unique_ptr<AddressSpace>> spaces_;
  std::vector<CompartmentRuntime> comps_;
  std::unordered_map<std::string, LibRuntime, StringHash, std::equal_to<>>
      libs_;
  AllocatorRegistry registry_;
  std::unique_ptr<Gate> gate_;       // Cross-compartment gate.
  DirectGate direct_gate_;           // Same-compartment calls.
  Gaddr shared_base_ = 0;
  uint64_t shared_bytes_ = 0;
  Allocator* shared_allocator_ = nullptr;
  // Libraries replicated into every VM under the kVmRpc backend; calls to
  // them never cross the VM boundary. Transparent comparator: the per-call
  // membership test takes a string_view, not a std::string temporary.
  std::set<std::string, std::less<>> vm_replicated_libs_;
  // Pseudo-context for the platform/boot "library".
  ExecContext platform_exec_;
  // Scalar call counters live here; the per-boundary map is a view
  // refreshed from boundaries_ by stats() (hence mutable — refreshing is
  // logically const).
  mutable ImageStats stats_;
  // Per-boundary runtime state (backend + registry-backed recorder), keyed
  // by (from, to) compartment ids. std::map: node-stable, so
  // RouteHandle::boundary/obs pointers survive later inserts.
  std::map<std::pair<int, int>, BoundaryRuntime> boundaries_;
  // Lazily-built gates for backends other than the builder's, indexed by
  // IsolationBackend value (runtime re-placement only; empty otherwise).
  std::unique_ptr<Gate> gate_pool_[4];
  // Bumped on every applied backend swap; RouteHandles stamped with an
  // older epoch re-resolve transparently on their next dispatch.
  uint64_t route_epoch_ = 0;
  uint64_t route_reresolves_ = 0;
  uint64_t deferred_swaps_applied_ = 0;

  struct ApiContract {
    std::function<bool()> precondition;
    std::string description;
  };
  // Keyed by "lib::func".
  std::map<std::string, ApiContract> contracts_;
  uint64_t contract_checks_run_ = 0;
  uint64_t contract_checks_skipped_ = 0;

  // Dispatch validation (debug): "from->to" pairs allowed to cross.
  bool validate_dispatch_ = false;
  std::set<std::string, std::less<>> allowed_dispatch_pairs_;
  uint64_t validated_dispatches_ = 0;

  // Fault-domain handler for supervised TryCall dispatches; nullptr (the
  // default) keeps every path trap-transparent.
  fault::FaultDomainHandler* fault_handler_ = nullptr;
};

}  // namespace flexos

#endif  // FLEXOS_CORE_IMAGE_H_
