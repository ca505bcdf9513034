// Intel MPK gate backends (paper §3, "Intel MPK Backend"). Both flavors
// write PKRU on entry and exit (modeled via Machine::Wrpkru, which the
// protection checks in vmem/ actually honor).
//
//   Shared-stack (ERIM-like): heap/static memory isolated, thread stacks
//   live in a domain shared by all compartments; crossing scrubs
//   caller-saved registers but keeps the stack.
//
//   Switched-stack (HODOR-like): stacks are per-compartment too; crossing
//   switches stacks and copies by-value arguments to the target stack,
//   with shared stack data promoted to a shared heap.
#ifndef FLEXOS_CORE_MPK_GATE_H_
#define FLEXOS_CORE_MPK_GATE_H_

#include "core/gate.h"

namespace flexos {

class MpkSharedStackGate final : public Gate {
 public:
  GateKind kind() const override { return GateKind::kMpkSharedStack; }
  GateSession Enter(Machine& machine, const GateCrossing& crossing) override;
  void Exit(Machine& machine, const GateCrossing& crossing,
            const GateSession& session) override;
};

class MpkSwitchedStackGate final : public Gate {
 public:
  GateKind kind() const override { return GateKind::kMpkSwitchedStack; }
  GateSession Enter(Machine& machine, const GateCrossing& crossing) override;
  void Exit(Machine& machine, const GateCrossing& crossing,
            const GateSession& session) override;
  void ChargeBatchItem(Machine& machine, uint64_t arg_bytes,
                       uint64_t ret_bytes) override;
};

}  // namespace flexos

#endif  // FLEXOS_CORE_MPK_GATE_H_
