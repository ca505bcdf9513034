// Gates: the compartment-crossing primitives (paper §3). A gate performs a
// call into a foreign compartment — switching the protection domain,
// handling stacks/registers per its backend, and copying arguments and
// return values as needed. "Implementations vary from cheap function calls
// all the way to expensive RPC across VM boundaries."
//
// Backends implemented:
//   DirectGate          — same compartment / no-isolation baseline.
//   MpkSharedStackGate  — ERIM-style: WRPKRU in/out + register scrubbing,
//                         thread stacks shared across compartments.
//   MpkSwitchedStackGate— HODOR-style: adds a per-compartment stack switch
//                         and argument copy.  (core/mpk_gate.h)
//   VmRpcGate           — Xen/KVM-style RPC over a shared ring with
//                         inter-VM notifications.  (core/vm_gate.h)
//
// Each backend implements the crossing as an Enter/Exit pair so a crossing
// can be held open across a batch of bodies (GateBatch): Enter charges the
// entry half and installs the target context, Exit charges the exit half
// and restores the caller. Cross is the ordinary single-call composition.
// Backends are pure mechanics: every observation of a crossing (counters,
// latency, attributor frames, the trace span) is recorded by Image around
// these calls (core/image.cc), once per crossing.
//
// Key state is per vCPU: Machine::context() resolves to the current vCPU's
// ExecContext (its simulated PKRU register), so gates need no per-core
// bookkeeping of their own — installing a target context only ever touches
// the core the crossing runs on, and RouteHandles stay valid across vCPUs
// (they point at compartment contexts, not per-core registers). The
// scheduler reinstalls a migrating thread's PKRU (one WRPKRU), and the
// vm-rpc backend charges CostModel::ipi when its notification must reach a
// compartment pinned to a different vCPU.
#ifndef FLEXOS_CORE_GATE_H_
#define FLEXOS_CORE_GATE_H_

#include <string_view>

#include "hw/machine.h"
#include "support/function_ref.h"

namespace flexos {

enum class GateKind : uint8_t {
  kDirect,
  kMpkSharedStack,
  kMpkSwitchedStack,
  kVmRpc,
};

std::string_view GateKindName(GateKind kind);

// A single domain crossing: the call and its matching return.
struct GateCrossing {
  const ExecContext* target_context;  // Context to run the body under.
  uint64_t arg_bytes = 0;             // By-value argument payload size.
  uint64_t ret_bytes = 0;             // Return payload size.
};

// State saved by Enter that Exit needs to restore the caller's domain.
struct GateSession {
  ExecContext caller;
  bool swapped = true;  // Whether Enter installed a target context.
};

class Gate {
 public:
  virtual ~Gate() = default;

  virtual GateKind kind() const = 0;

  // Entry half of a crossing: charges this backend's entry costs (including
  // argument marshalling for crossing.arg_bytes) and installs the target
  // context. Counts as one gate crossing in the machine stats.
  virtual GateSession Enter(Machine& machine, const GateCrossing& crossing) = 0;

  // Exit half: charges the exit costs (including return marshalling for
  // crossing.ret_bytes) and restores the caller context saved at Enter.
  virtual void Exit(Machine& machine, const GateCrossing& crossing,
                    const GateSession& session) = 0;

  // Cost of one body run inside an entered (batched) crossing: the near
  // call, plus — for backends that copy payloads across the boundary — the
  // per-item argument/return marshalling through the shared ring or target
  // stack. Domain-switch costs are NOT charged here; the batch already paid
  // them at Enter/Exit.
  virtual void ChargeBatchItem(Machine& machine, uint64_t arg_bytes,
                               uint64_t ret_bytes) {
    (void)arg_bytes;
    (void)ret_bytes;
    machine.clock().Charge(machine.costs().direct_call);
  }

  // Executes `body` in the target compartment per this backend's
  // mechanics, charging its modeled costs on entry and exit.
  void Cross(Machine& machine, const GateCrossing& crossing,
             FunctionRef<void()> body) {
    const GateSession session = Enter(machine, crossing);
    body();
    Exit(machine, crossing, session);
  }
};

// Same-compartment (or no-isolation) call: a near call, nothing more.
class DirectGate final : public Gate {
 public:
  GateKind kind() const override { return GateKind::kDirect; }
  GateSession Enter(Machine& machine, const GateCrossing& crossing) override;
  void Exit(Machine& machine, const GateCrossing& crossing,
            const GateSession& session) override;
};

}  // namespace flexos

#endif  // FLEXOS_CORE_GATE_H_
