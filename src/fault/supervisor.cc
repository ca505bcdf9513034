#include "fault/supervisor.h"

#include "core/image.h"
#include "obs/names.h"
#include "support/log.h"
#include "support/strings.h"

namespace flexos {
namespace fault {

CompartmentSupervisor::CompartmentSupervisor(Image& image,
                                             RestartPolicy default_policy)
    : image_(image), default_policy_(default_policy) {
  obs::MetricsRegistry& metrics = image_.machine().metrics();
  trapped_counter_ = &metrics.GetCounter(obs::kMetricFaultTrapped);
  restarts_counter_ = &metrics.GetCounter(obs::kMetricFaultRestarts);
  slo_notices_counter_ = &metrics.GetCounter(obs::kMetricFaultSloNotices);
  quarantined_gauge_ = &metrics.GetGauge(obs::kMetricFaultQuarantined);
}

void CompartmentSupervisor::OnSloViolation(std::string_view slo_name) {
  ++slo_notices_;
  slo_notices_counter_->Add();
  FLEXOS_WARN("supervisor: SLO violated: %.*s",
              static_cast<int>(slo_name.size()), slo_name.data());
}

void CompartmentSupervisor::SetPolicy(int comp, RestartPolicy policy) {
  DomainState& state = StateFor(comp);
  state.policy = policy;
  state.next_backoff_ns = 0;  // Re-derive from the new policy on next trap.
}

void CompartmentSupervisor::RegisterInitHook(int comp, std::string name,
                                             std::function<Status()> hook) {
  StateFor(comp).hooks.push_back(Hook{std::move(name), std::move(hook)});
}

bool CompartmentSupervisor::HasInitHook(int comp) const {
  const DomainState* state = FindState(comp);
  return state != nullptr && !state->hooks.empty();
}

CompartmentSupervisor::DomainState& CompartmentSupervisor::StateFor(
    int comp) {
  auto it = domains_.find(comp);
  if (it == domains_.end()) {
    DomainState state;
    state.policy = default_policy_;
    it = domains_.emplace(comp, std::move(state)).first;
  }
  return it->second;
}

const CompartmentSupervisor::DomainState* CompartmentSupervisor::FindState(
    int comp) const {
  const auto it = domains_.find(comp);
  return it == domains_.end() ? nullptr : &it->second;
}

CompartmentHealth CompartmentSupervisor::health(int comp) const {
  const DomainState* state = FindState(comp);
  return state == nullptr ? CompartmentHealth::kHealthy : state->health;
}

int CompartmentSupervisor::restarts(int comp) const {
  const DomainState* state = FindState(comp);
  return state == nullptr ? 0 : state->restarts_used;
}

uint64_t CompartmentSupervisor::NextRestartCycles() const {
  uint64_t next = kNoRestartPending;
  for (const auto& [comp, state] : domains_) {
    if (state.health == CompartmentHealth::kQuarantined &&
        state.deadline_cycles < next) {
      next = state.deadline_cycles;
    }
  }
  return next;
}

void CompartmentSupervisor::Quarantine(int comp, DomainState& state,
                                       uint64_t now_cycles) {
  if (state.health == CompartmentHealth::kHealthy) {
    quarantined_gauge_->Add(1);
  }
  state.health = CompartmentHealth::kQuarantined;
  if (state.next_backoff_ns == 0) {
    state.next_backoff_ns = state.policy.backoff_ns;
  }
  const Clock& clock = image_.machine().clock();
  state.deadline_cycles =
      now_cycles + clock.NanosToCycles(state.next_backoff_ns);
  FLEXOS_WARN("supervisor: compartment %d quarantined for %llu ns "
              "(restarts used %d/%d)",
              comp, static_cast<unsigned long long>(state.next_backoff_ns),
              state.restarts_used, state.policy.restart_budget);
  state.next_backoff_ns = static_cast<uint64_t>(
      static_cast<double>(state.next_backoff_ns) *
      state.policy.backoff_multiplier);
}

Status CompartmentSupervisor::Admit(int to_comp) {
  if (to_comp < 0) {
    return Status::Ok();  // The platform is never supervised.
  }
  DomainState& state = StateFor(to_comp);
  switch (state.health) {
    case CompartmentHealth::kHealthy:
      return Status::Ok();
    case CompartmentHealth::kFailed:
      return Status(ErrorCode::kUnavailable,
                    StrFormat("compartment %d permanently failed "
                              "(restart budget %d exhausted)",
                              to_comp, state.policy.restart_budget));
    case CompartmentHealth::kQuarantined:
      break;
  }
  if (image_.machine().clock().cycles() < state.deadline_cycles) {
    return Status(ErrorCode::kUnavailable,
                  StrFormat("compartment %d quarantined", to_comp));
  }
  return Restart(to_comp, state);
}

Status CompartmentSupervisor::Restart(int comp, DomainState& state) {
  if (state.restarts_used >= state.policy.restart_budget) {
    state.health = CompartmentHealth::kFailed;
    FLEXOS_WARN("supervisor: compartment %d failed permanently "
                "(restart budget %d exhausted)",
                comp, state.policy.restart_budget);
    return Status(ErrorCode::kUnavailable,
                  StrFormat("compartment %d permanently failed "
                            "(restart budget %d exhausted)",
                            comp, state.policy.restart_budget));
  }
  ++state.restarts_used;
  ++total_restarts_;
  restarts_counter_->Add();
  Clock& clock = image_.machine().clock();

  if (state.policy.reset_heap) {
    const Status reset = image_.ResetCompartmentHeap(comp);
    if (!reset.ok()) {
      // A shared/global heap cannot be reset per-compartment; restart
      // anyway — the init hooks own whatever state matters.
      FLEXOS_WARN("supervisor: heap reset for compartment %d skipped: %s",
                  comp, reset.ToString().c_str());
    }
  }
  for (const Hook& hook : state.hooks) {
    const Status status = hook.fn();
    if (!status.ok()) {
      FLEXOS_WARN("supervisor: init hook '%s' for compartment %d failed "
                  "(%s); re-quarantining",
                  hook.name.c_str(), comp, status.ToString().c_str());
      Quarantine(comp, state, clock.cycles());
      return Status(ErrorCode::kUnavailable,
                    StrFormat("compartment %d restart failed in init hook "
                              "'%s'",
                              comp, hook.name.c_str()));
    }
  }

  state.health = CompartmentHealth::kHealthy;
  quarantined_gauge_->Add(-1);
  if (state.open_episode != 0) {
    RecoveryEpisode& episode = episodes_[state.open_episode - 1];
    episode.restart_cycles = clock.cycles();
    episode.restart_number = state.restarts_used;
    state.open_episode = 0;
  }
  FLEXOS_INFO("supervisor: compartment %d restarted (restart %d/%d)", comp,
              state.restarts_used, state.policy.restart_budget);
  return Status::Ok();
}

Status CompartmentSupervisor::OnTrap(int from_comp, int to_comp,
                                     const TrapInfo& info) {
  ++trapped_;
  trapped_counter_->Add();
  DomainState& state = StateFor(to_comp);
  FLEXOS_WARN("supervisor: contained %s in compartment %d (caller %d)",
              std::string(TrapKindName(info.kind)).c_str(), to_comp,
              from_comp);
  if (state.health == CompartmentHealth::kFailed) {
    return Status(ErrorCode::kUnavailable,
                  StrFormat("compartment %d permanently failed", to_comp));
  }
  RecoveryEpisode episode;
  episode.compartment = to_comp;
  episode.trap = info.kind;
  episode.trap_cycles = image_.machine().clock().cycles();
  episodes_.push_back(episode);
  state.open_episode = episodes_.size();
  Quarantine(to_comp, state, episode.trap_cycles);
  if (trap_observer_) {
    trap_observer_(from_comp, to_comp);
  }
  return Status(ErrorCode::kUnavailable,
                StrFormat("compartment %d trapped: %s", to_comp,
                          std::string(TrapKindName(info.kind)).c_str()));
}

}  // namespace fault
}  // namespace flexos
