#include "core/mpk_gate.h"

#include "support/panic.h"

namespace flexos {

GateSession MpkSharedStackGate::Enter(Machine& machine,
                                      const GateCrossing& crossing) {
  FLEXOS_CHECK(crossing.target_context != nullptr,
               "MPK gate needs a target context");
  ++machine.stats().gate_crossings;
  GateSession session{.caller = machine.context()};

  // Entry: scrub caller-saved registers, then WRPKRU into the target
  // domain. The ExecContext swap carries the instrumentation flags.
  machine.clock().Charge(machine.costs().register_clear);
  machine.context() = *crossing.target_context;
  machine.Wrpkru(crossing.target_context->pkru);
  return session;
}

void MpkSharedStackGate::Exit(Machine& machine, const GateCrossing& crossing,
                         const GateSession& session) {
  (void)crossing;
  // Exit: WRPKRU back and clear registers again (no data may leak).
  machine.clock().Charge(machine.costs().register_clear);
  machine.context() = session.caller;
  machine.Wrpkru(session.caller.pkru);
}

GateSession MpkSwitchedStackGate::Enter(Machine& machine,
                                        const GateCrossing& crossing) {
  FLEXOS_CHECK(crossing.target_context != nullptr,
               "MPK gate needs a target context");
  ++machine.stats().gate_crossings;
  GateSession session{.caller = machine.context()};

  // Entry: scrub registers, switch to the target compartment's stack, copy
  // by-value arguments onto it, then WRPKRU.
  machine.clock().Charge(machine.costs().register_clear);
  machine.clock().Charge(machine.costs().stack_switch);
  if (crossing.arg_bytes > 0) {
    machine.ChargeMemOp(crossing.arg_bytes);
  }
  machine.context() = *crossing.target_context;
  machine.Wrpkru(crossing.target_context->pkru);
  return session;
}

void MpkSwitchedStackGate::Exit(Machine& machine, const GateCrossing& crossing,
                           const GateSession& session) {
  // Exit: copy the return value back, switch stacks, WRPKRU, scrub.
  if (crossing.ret_bytes > 0) {
    machine.ChargeMemOp(crossing.ret_bytes);
  }
  machine.clock().Charge(machine.costs().stack_switch);
  machine.clock().Charge(machine.costs().register_clear);
  machine.context() = session.caller;
  machine.Wrpkru(session.caller.pkru);
}

void MpkSwitchedStackGate::ChargeBatchItem(Machine& machine,
                                           uint64_t arg_bytes,
                                           uint64_t ret_bytes) {
  // Batched items still copy their payloads to/from the target stack; the
  // stack switch and PKRU writes were paid once at Enter/Exit.
  machine.clock().Charge(machine.costs().direct_call);
  if (arg_bytes > 0) {
    machine.ChargeMemOp(arg_bytes);
  }
  if (ret_bytes > 0) {
    machine.ChargeMemOp(ret_bytes);
  }
}

}  // namespace flexos
