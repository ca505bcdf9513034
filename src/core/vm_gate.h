// VM/EPT gate backend (paper §3, "VM-based Backend"): each compartment is
// its own VM image with a thin RPC layer over inter-VM notifications and a
// shared memory area mapped at an identical address in every compartment.
//
// In the deterministic single-vCPU simulation the RPC executes
// synchronously — the caller "vCPU" exits, the callee runs, the caller
// re-enters — while charging two exit/entry pairs plus notification and
// marshalling costs, which is the latency a synchronous cross-VM call pays.
#ifndef FLEXOS_CORE_VM_GATE_H_
#define FLEXOS_CORE_VM_GATE_H_

#include "core/gate.h"

namespace flexos {

class VmRpcGate final : public Gate {
 public:
  GateKind kind() const override { return GateKind::kVmRpc; }
  GateSession Enter(Machine& machine, const GateCrossing& crossing) override;
  void Exit(Machine& machine, const GateCrossing& crossing,
            const GateSession& session) override;
  void ChargeBatchItem(Machine& machine, uint64_t arg_bytes,
                       uint64_t ret_bytes) override;
};

}  // namespace flexos

#endif  // FLEXOS_CORE_VM_GATE_H_
