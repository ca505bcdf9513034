#include "core/vm_gate.h"

#include "support/panic.h"

namespace flexos {

GateSession VmRpcGate::Enter(Machine& machine,
                             const GateCrossing& crossing) {
  FLEXOS_CHECK(crossing.target_context != nullptr,
               "VM gate needs a target context");
  ++machine.stats().gate_crossings;
  GateSession session{.caller = machine.context()};

  // Request: marshal arguments into the shared ring, notify the callee VM
  // (vmexit + event + vmentry on the callee side).
  if (crossing.arg_bytes > 0) {
    machine.ChargeMemOp(crossing.arg_bytes);
  }
  machine.VmExitEnter();
  // When the callee compartment is pinned to another vCPU, the notification
  // is a cross-core IPI / remote wakeup, not a same-core event delivery.
  if (machine.vcpu_count() > 1) {
    const int target_vcpu =
        machine.CompartmentAffinityOf(crossing.target_context->compartment);
    if (target_vcpu >= 0 && target_vcpu != machine.current_vcpu()) {
      machine.ChargeIpi(target_vcpu);
    }
  }
  machine.context() = *crossing.target_context;
  return session;
}

void VmRpcGate::Exit(Machine& machine, const GateCrossing& crossing,
                const GateSession& session) {
  // Response: marshal the return value back, notify the caller VM.
  if (crossing.ret_bytes > 0) {
    machine.ChargeMemOp(crossing.ret_bytes);
  }
  machine.VmExitEnter();
  // Mirror of the entry half: waking a caller pinned to another vCPU costs
  // an IPI.
  if (machine.vcpu_count() > 1) {
    const int caller_vcpu =
        machine.CompartmentAffinityOf(session.caller.compartment);
    if (caller_vcpu >= 0 && caller_vcpu != machine.current_vcpu()) {
      machine.ChargeIpi(caller_vcpu);
    }
  }
  machine.context() = session.caller;
}

void VmRpcGate::ChargeBatchItem(Machine& machine, uint64_t arg_bytes,
                                uint64_t ret_bytes) {
  // Batched RPC items ride the already-open shared ring: per-item payload
  // marshalling, no extra exit/entry or notification.
  machine.clock().Charge(machine.costs().direct_call);
  if (arg_bytes > 0) {
    machine.ChargeMemOp(arg_bytes);
  }
  if (ret_bytes > 0) {
    machine.ChargeMemOp(ret_bytes);
  }
}

}  // namespace flexos
