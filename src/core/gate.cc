#include "core/gate.h"

namespace flexos {

std::string_view GateKindName(GateKind kind) {
  switch (kind) {
    case GateKind::kDirect:
      return "direct";
    case GateKind::kMpkSharedStack:
      return "mpk-shared-stack";
    case GateKind::kMpkSwitchedStack:
      return "mpk-switched-stack";
    case GateKind::kVmRpc:
      return "vm-rpc";
  }
  return "?";
}

GateSession DirectGate::Enter(Machine& machine,
                              const GateCrossing& crossing) {
  machine.clock().Charge(machine.costs().direct_call);
  ++machine.stats().gate_crossings;
  GateSession session{.caller = machine.context(),
                      .swapped = crossing.target_context != nullptr};
  if (session.swapped) {
    machine.context() = *crossing.target_context;
  }
  return session;
}

void DirectGate::Exit(Machine& machine, const GateCrossing& crossing,
                 const GateSession& session) {
  (void)crossing;
  if (session.swapped) {
    machine.context() = session.caller;
  }
}

}  // namespace flexos
