// CompartmentSupervisor: per-compartment fault handling and crash recovery
// (DESIGN.md §11). Installed on an Image via SetFaultHandler, it receives
// every trap that a supervised (isolating) gate crossing contains, moves
// the faulting compartment through a healthy -> quarantined -> healthy (or
// -> failed) state machine, and rebuilds the compartment on re-admission:
// heap reset through the AllocatorRegistry, registered init hooks re-run,
// exponential backoff between attempts, and a hard restart budget after
// which callers permanently see kUnavailable.
//
// Modeled after CompartOS's per-compartment recovery policies and
// LibrettOS's surviving server restarts; the paper's threat model is kept
// intact — trusted function-call boundaries (backend "none") are never
// supervised, so a trap there still unwinds to the scheduler trampoline.
#ifndef FLEXOS_FAULT_SUPERVISOR_H_
#define FLEXOS_FAULT_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "hw/trap.h"
#include "obs/metrics.h"

namespace flexos {

class Image;

namespace fault {

// Restart policy for one compartment (or the supervisor-wide default).
struct RestartPolicy {
  uint64_t backoff_ns = 1'000'000;  // First quarantine window (1 ms).
  double backoff_multiplier = 2.0;  // Escalation per successive restart.
  int restart_budget = 3;           // Restarts before permanent failure.
  bool reset_heap = true;           // Reset the dedicated heap on restart.
};

enum class CompartmentHealth : uint8_t {
  kHealthy,
  kQuarantined,  // Trapped; waiting out its backoff window.
  kFailed,       // Restart budget exhausted; permanently unavailable.
};

// One contained trap and (if reached) the restart that recovered from it.
struct RecoveryEpisode {
  int compartment = -1;
  TrapKind trap = TrapKind::kPageFault;
  uint64_t trap_cycles = 0;
  uint64_t restart_cycles = 0;  // 0 while still quarantined/failed.
  int restart_number = 0;       // 1-based; 0 while no restart happened.
};

class CompartmentSupervisor : public FaultDomainHandler {
 public:
  explicit CompartmentSupervisor(Image& image,
                                 RestartPolicy default_policy = {});

  CompartmentSupervisor(const CompartmentSupervisor&) = delete;
  CompartmentSupervisor& operator=(const CompartmentSupervisor&) = delete;

  // Per-compartment policy override (e.g. reset_heap=false for a stateful
  // compartment that must survive its own restart).
  void SetPolicy(int comp, RestartPolicy policy);

  // Init hooks re-run (in registration order) when `comp` restarts. A hook
  // returning non-OK re-quarantines the compartment with escalated backoff.
  void RegisterInitHook(int comp, std::string name,
                        std::function<Status()> hook);

  // --- FaultDomainHandler -------------------------------------------------
  Status Admit(int to_comp) override;
  Status OnTrap(int from_comp, int to_comp, const TrapInfo& info) override;
  bool HasInitHook(int comp) const override;

  // flexwatch notification (DESIGN.md §14): an SLO watchdog tripped at a
  // window close. Advisory only — an SLO miss is a performance signal, not
  // a fault, so it is counted and logged but never quarantines anything.
  // The testbed wires TimeSeries::SetViolationHook here.
  void OnSloViolation(std::string_view slo_name);

  // Called after every contained trap is quarantined (not when the
  // compartment is already permanently failed), with the faulting boundary's
  // (from, to). The testbed wires the flexadapt engine here so a trap can
  // trigger an isolation promotion (DESIGN.md §16).
  void SetTrapObserver(std::function<void(int from_comp, int to_comp)> cb) {
    trap_observer_ = std::move(cb);
  }

  // --- Introspection ------------------------------------------------------
  CompartmentHealth health(int comp) const;
  int restarts(int comp) const;
  uint64_t trapped() const { return trapped_; }
  uint64_t total_restarts() const { return total_restarts_; }
  uint64_t slo_notices() const { return slo_notices_; }
  const std::vector<RecoveryEpisode>& episodes() const { return episodes_; }

  // Earliest cycle at which some quarantined compartment becomes
  // restartable; UINT64_MAX when nothing is waiting. Idle loops
  // (Testbed::OnIdle) include this in their next-event computation so
  // virtual time can jump across a backoff window instead of spinning.
  uint64_t NextRestartCycles() const;

  static constexpr uint64_t kNoRestartPending =
      std::numeric_limits<uint64_t>::max();

 private:
  struct Hook {
    std::string name;
    std::function<Status()> fn;
  };

  struct DomainState {
    CompartmentHealth health = CompartmentHealth::kHealthy;
    RestartPolicy policy;
    uint64_t next_backoff_ns = 0;    // Escalates per restart attempt.
    uint64_t deadline_cycles = 0;    // Quarantine expiry (absolute cycles).
    int restarts_used = 0;
    std::vector<Hook> hooks;
    size_t open_episode = 0;  // Index+1 into episodes_; 0 = none open.
  };

  DomainState& StateFor(int comp);
  const DomainState* FindState(int comp) const;

  // Quarantines `state` (idempotent for an already-quarantined domain,
  // escalating its backoff) starting at `now_cycles`.
  void Quarantine(int comp, DomainState& state, uint64_t now_cycles);

  // Attempts the restart sequence for an expired quarantine; returns kOk on
  // success (domain healthy again) or the admission error.
  Status Restart(int comp, DomainState& state);

  Image& image_;
  RestartPolicy default_policy_;
  std::map<int, DomainState> domains_;
  uint64_t trapped_ = 0;
  uint64_t total_restarts_ = 0;
  uint64_t slo_notices_ = 0;
  std::vector<RecoveryEpisode> episodes_;
  std::function<void(int, int)> trap_observer_;

  obs::Counter* trapped_counter_ = nullptr;
  obs::Counter* restarts_counter_ = nullptr;
  obs::Counter* slo_notices_counter_ = nullptr;
  obs::Gauge* quarantined_gauge_ = nullptr;
};

}  // namespace fault
}  // namespace flexos

#endif  // FLEXOS_FAULT_SUPERVISOR_H_
