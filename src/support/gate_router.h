// GateRouter: the seam between micro-libraries and FlexOS gates. Substrate
// code (netstack, libc, apps) never calls another micro-library directly; it
// resolves a route naming the source and target libraries and calls through
// this interface — the runtime analog of the paper's `uk_gate_r`
// placeholders, each of which becomes exactly one gate per boundary.
//
// At image-build time core/image_builder.cc installs a router that maps
// library names to compartments and charges/performs the configured gate
// (direct call, MPK shared-stack, MPK switched-stack, VM RPC) plus the
// matching ExecContext switch. The default DirectGateRouter models the
// everything-in-one-compartment baseline.
//
// The virtual surface is route-only: Resolve turns names into a RouteHandle
// once, and Call/CallLeaf/TryCall/Batch* dispatch through handles. The one
// by-name entry point is the non-virtual Call(from, to, body) helper,
// which resolves and then calls.
//
// Dispatch fast path (see DESIGN.md "Gate dispatch fast path"):
//   * Bodies are passed by FunctionRef — no heap allocation, no
//     type-erasure storage, per call.
//   * Hot components resolve a RouteHandle once (Resolve) and dispatch
//     through it, replacing per-call string-keyed lookups with a pointer
//     chase.
//   * GateBatch amortizes a burst of calls to one target over a single
//     gate entry/exit pair (one crossing, N bodies), the way a shared-ring
//     RPC amortizes notifications.
#ifndef FLEXOS_SUPPORT_GATE_ROUTER_H_
#define FLEXOS_SUPPORT_GATE_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "support/function_ref.h"
#include "support/panic.h"
#include "support/status.h"

namespace flexos {

struct ExecContext;      // hw/machine.h
class Gate;              // core/gate.h
struct BoundaryRuntime;  // core/image.h

namespace obs {
struct BoundaryRecorder;  // obs/metrics.h
}  // namespace obs

// Well-known micro-library names used by the in-tree components. Metadata
// and image configs refer to libraries by these strings.
inline constexpr std::string_view kLibApp = "app";
inline constexpr std::string_view kLibNet = "net";
inline constexpr std::string_view kLibSched = "sched";
inline constexpr std::string_view kLibLibc = "libc";
inline constexpr std::string_view kLibAlloc = "alloc";
inline constexpr std::string_view kLibFs = "fs";
inline constexpr std::string_view kLibPlatform = "platform";

// A resolved source->target route: everything the router needs to dispatch
// a call without touching its name tables. Plain data, resolved once
// (Resolve) against state that is fixed at image-build time, so components
// can cache handles at construction. The default-constructed handle is the
// direct no-isolation route (what DirectGateRouter resolves everything to).
struct RouteHandle {
  // Source/target library names, kept only for diagnostics (dispatch
  // validation, fault messages) and so a handle with a stale epoch can
  // re-resolve itself; dispatch never looks them up. Callers must pass
  // names that outlive the handle — the kLib* constants above do.
  std::string_view from;
  std::string_view to;
  // Execution context of the target library (owned by the router); null for
  // the default direct route, which performs no context swap.
  const ExecContext* target_exec = nullptr;
  // Gate implementing the boundary for cross-compartment routes.
  Gate* gate = nullptr;
  int from_comp = -1;
  int to_comp = -1;
  bool cross = false;        // Crosses a compartment boundary.
  bool hardened = false;     // Target library is SH-instrumented.
  bool vm_local = false;     // VM-replicated target: leaf-local (kVmRpc).
  bool to_platform = false;  // Target is the platform pseudo-library.
  // Per-boundary metrics for cross routes, resolved once with the route so
  // the dispatch fast path records counters through pointers instead of a
  // per-call map lookup (owned by the router; null on non-cross routes).
  const obs::BoundaryRecorder* obs = nullptr;
  // Route-cache epoch stamped at Resolve time. A router that re-places
  // boundary backends at runtime (flexadapt, DESIGN.md §16) bumps its epoch
  // on every swap; a held handle whose epoch is stale transparently
  // re-resolves on the next dispatch instead of using a retired gate.
  uint64_t epoch = 0;
  // Per-boundary runtime state for cross routes (owned by the router; null
  // on non-cross routes and on routers without runtime re-placement).
  BoundaryRuntime* boundary = nullptr;
};

class GateBatch;

class GateRouter {
 public:
  virtual ~GateRouter() = default;

  // Resolves the route `from` -> `to` once; the handle stays valid for the
  // router's lifetime. The base router keeps only the names: the default
  // direct route, which is all a router without compartments needs.
  virtual RouteHandle Resolve(std::string_view from, std::string_view to) {
    RouteHandle route;
    route.from = from;
    route.to = to;
    return route;
  }

  // Executes `body` as a call along `route`, performing whatever domain
  // transition the image configuration dictates.
  virtual void Call(const RouteHandle& route, FunctionRef<void()> body) = 0;

  // Executes `body` as a call into a *leaf routine* of the route's target
  // (memcpy-class functions): such code is statically linked into every
  // compartment, so it runs in the CALLER's protection domain — no gate,
  // no domain switch — but carries the target library's instrumentation
  // (a hardened libc means an instrumented memcpy everywhere it is
  // inlined). Stateful services (semaphores, scheduler queues) must use
  // Call instead.
  virtual void CallLeaf(const RouteHandle& route, FunctionRef<void()> body) {
    (void)route;
    body();
  }

  // Like Call, but a router that supervises isolating boundaries (an Image
  // with a fault handler installed, fault/supervisor.h) may refuse the
  // crossing — quarantined or permanently failed target compartment — or
  // convert a trap the gate contained into an error Status instead of
  // unwinding the caller. The base router dispatches plainly: the body
  // always runs and traps propagate, so substrate code calling TryCall
  // behaves identically to Call on unsupervised images.
  virtual Status TryCall(const RouteHandle& route, FunctionRef<void()> body) {
    Call(route, body);
    return Status::Ok();
  }

  // --- Batched crossings (driven by GateBatch) ---------------------------
  //
  // A batch enters the target domain once, runs N bodies, and exits once:
  // one modeled gate entry/exit pair per batch plus per-item marshalling.
  // Routers without batch support degrade to one full call per item.
  virtual void BatchEnter(const RouteHandle& route, GateBatch& batch) {
    (void)route;
    (void)batch;
  }
  virtual void BatchItem(const RouteHandle& route, GateBatch& batch,
                         FunctionRef<void()> body) {
    (void)batch;
    Call(route, body);
  }
  virtual void BatchExit(const RouteHandle& route, GateBatch& batch) {
    (void)route;
    (void)batch;
  }

  // --- Non-virtual helpers -----------------------------------------------

  // By-name dispatch: resolves the route on every call, then calls through
  // it. Charges exactly what a cached RouteHandle charges, plus the host
  // cost of the name lookups — which makes it the reference the route
  // cache is measured against (bench/abl_gate_dispatch.cc). Hot code
  // resolves once and keeps the handle.
  void Call(std::string_view from, std::string_view to,
            FunctionRef<void()> body) {
    Call(Resolve(from, to), body);
  }

  // Convenience wrapper for calls that produce a value. Exception-safe: the
  // result lives in a std::optional, so a throwing body or move leaves
  // nothing leaked, and a router that fails to run the body panics instead
  // of moving from uninitialized storage.
  template <typename T>
  T CallR(const RouteHandle& route, FunctionRef<T()> body) {
    std::optional<T> slot;
    Call(route, [&] { slot.emplace(body()); });
    FLEXOS_CHECK(slot.has_value(), "CallR body did not run");
    return *std::move(slot);
  }
};

// A burst of calls to one target through a single crossing: the router
// enters the target domain on the first Run and exits at Flush/destruction,
// charging one gate entry/exit pair for the whole batch. Between items the
// caller's code keeps running under its own context; each body executes
// under the target's. Used by the netstack for semaphore signal storms
// (see TcpConfig::batch_crossings).
class GateBatch {
 public:
  GateBatch(GateRouter& router, const RouteHandle& route)
      : router_(router), route_(route) {}
  ~GateBatch() { Flush(); }

  GateBatch(const GateBatch&) = delete;
  GateBatch& operator=(const GateBatch&) = delete;

  // Runs `body` inside the batched crossing, entering the target domain on
  // the first item.
  void Run(FunctionRef<void()> body) {
    if (!entered_) {
      router_.BatchEnter(route_, *this);
      entered_ = true;
    }
    ++items_;
    router_.BatchItem(route_, *this, body);
  }

  // Ends the batch, charging the exit half of the crossing. Idempotent; an
  // empty batch charges nothing.
  void Flush() {
    if (entered_) {
      entered_ = false;
      router_.BatchExit(route_, *this);
    }
  }

  uint64_t items() const { return items_; }

  // Opaque per-batch storage for the router: the image parks the saved
  // caller context plus the gate/backend pinned for the batch's lifetime
  // here between BatchEnter and BatchExit.
  static constexpr size_t kSessionBytes = 128;
  void* session() { return session_; }

 private:
  GateRouter& router_;
  RouteHandle route_;
  bool entered_ = false;
  uint64_t items_ = 0;
  alignas(alignof(std::max_align_t)) unsigned char session_[kSessionBytes];
};

// No isolation: every cross-library call is a plain function call.
class DirectGateRouter final : public GateRouter {
 public:
  using GateRouter::Call;

  void Call(const RouteHandle& route, FunctionRef<void()> body) override {
    (void)route;
    body();
  }
};

}  // namespace flexos

#endif  // FLEXOS_SUPPORT_GATE_ROUTER_H_
