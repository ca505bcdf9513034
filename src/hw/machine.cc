#include "hw/machine.h"

#include "hw/trap.h"
#include "obs/names.h"

namespace flexos {

Machine::Machine(uint64_t freq_hz, CostModel costs) : costs_(costs) {
  for (VCpu& v : vcpus_) v.clock = Clock(freq_hz);
  // Trace timestamps are virtual nanoseconds from the *current* vCPU's
  // clock, so traces stay deterministic across vCPU switches. Non-capturing
  // lambda: the obs layer cannot include hw/ headers (it sits below
  // support/).
  tracer_.SetTimeSource(
      [](void* ctx) {
        return static_cast<const Machine*>(ctx)->clock().NowNanos();
      },
      this);
  // Newest machine wins the global slot used by the log->trace bridge;
  // multi-machine tests only trace the machine under test.
  obs::Tracer::SetActive(&tracer_);
  injector_.BindObs(&metrics_, &tracer_);
  injector_.SetCycleSource(
      [](void* ctx) {
        return static_cast<const Machine*>(ctx)->clock().cycles();
      },
      this);
  timeseries_.BindObs(&metrics_, &tracer_);
  ResolveIdleCounters();
}

void Machine::ResolveIdleCounters() {
  for (int v = 0; v < vcpu_count_; ++v) {
    vcpu_idle_cycles_[v] =
        &metrics_.GetCounter(obs::SchedVCpuMetricName(v, obs::kVCpuIdleCycles));
  }
}

Machine::~Machine() = default;

void Machine::SetVCpuCount(int n) {
  if (n < 1) n = 1;
  if (n > kMaxVCpus) n = kMaxVCpus;
  vcpu_count_ = n;
  ResolveIdleCounters();
}

void Machine::SwitchVCpu(int v) {
  if (v == current_vcpu_ || v < 0 || v >= vcpu_count_) return;
  const uint64_t old_now = vcpus_[current_vcpu_].clock.cycles();
  current_vcpu_ = v;
  tracer_.SetCurrentVCpu(v);
  attrib_.SwitchLane(v, old_now, vcpus_[v].clock.cycles());
}

void Machine::AdvanceAllClocksTo(uint64_t cycles) {
  for (int v = 0; v < vcpu_count_; ++v) {
    // Cycles jumped over are idle time for that vCPU: it had no runnable
    // work until the machine-wide wakeup target.
    const uint64_t before = vcpus_[v].clock.cycles();
    if (cycles > before && vcpu_idle_cycles_[v] != nullptr) {
      vcpu_idle_cycles_[v]->Add(cycles - before);
    }
    vcpus_[v].clock.AdvanceTo(cycles);
  }
  PollTimeSeries();
  if (race_.enabled()) {
    // The whole machine slept until the next device event: every vCPU was
    // out of runnable work, so this is a modeled quiescent point — a
    // barrier join across all lanes (DESIGN.md §13).
    race_.JoinAll();
    tracer_.RecordInstant(obs::TraceCat::kRace, "hb_barrier", /*tid=*/0);
  }
}

uint64_t Machine::max_cycles() const {
  uint64_t max = 0;
  for (int v = 0; v < vcpu_count_; ++v) {
    if (vcpus_[v].clock.cycles() > max) max = vcpus_[v].clock.cycles();
  }
  return max;
}

void Machine::SetCompartmentAffinity(int compartment, int vcpu) {
  compartment_affinity_[compartment] = vcpu;
}

int Machine::CompartmentAffinityOf(int compartment) const {
  auto it = compartment_affinity_.find(compartment);
  return it == compartment_affinity_.end() ? -1 : it->second;
}

void Machine::ChargeIpi(int target_vcpu) {
  clock().Charge(costs_.ipi);
  ++stats_.ipi_count;
  // flexpath cross-vCPU edge: a0 = target vCPU + 1 (0 = broadcast/none),
  // a1 = the issuing request id (RecordInstant has no req parameter).
  tracer_.RecordInstant(obs::TraceCat::kSched, "sched.ipi", /*tid=*/0,
                        /*a0=*/static_cast<uint64_t>(target_vcpu + 1),
                        /*a1=*/attrib_.current_request());
  if (target_vcpu >= 0) {
    RaceJoin(current_vcpu_, target_vcpu);
  }
}

void Machine::SetRaceDetection(bool on) {
  if (on) {
    race_.Reset(vcpu_count_);
  }
  race_.SetEnabled(on);
}

uint64_t Machine::RaceRelease() {
  if (!race_.enabled()) return 0;
  const uint64_t handle = race_.Release(current_vcpu_);
  tracer_.RecordInstant(obs::TraceCat::kRace, "hb_release", /*tid=*/0,
                        /*a0=*/handle);
  return handle;
}

void Machine::RaceAcquire(uint64_t handle) {
  if (!race_.enabled() || handle == 0) return;
  race_.Acquire(current_vcpu_, handle);
  tracer_.RecordInstant(obs::TraceCat::kRace, "hb_acquire", /*tid=*/0,
                        /*a0=*/handle);
}

void Machine::RaceJoin(int from, int to) {
  if (!race_.enabled() || from == to) return;
  race_.Join(from, to);
  tracer_.RecordInstant(obs::TraceCat::kRace, "hb_join", /*tid=*/0,
                        /*a0=*/static_cast<uint64_t>(from),
                        /*a1=*/static_cast<uint64_t>(to));
}

void Machine::ProbeSharedAccess(uint64_t gaddr, uint64_t size,
                                bool is_write) {
  if (!race_.enabled()) return;
  const int compartment = context().compartment;
  tracer_.RecordInstant(obs::TraceCat::kRace,
                        is_write ? "shared_write" : "shared_read",
                        /*tid=*/compartment + 1, /*a0=*/gaddr, /*a1=*/size);
  const std::optional<obs::RaceReport> race = race_.OnAccess(
      current_vcpu_, compartment, gaddr, size, is_write, clock().NowNanos());
  if (!race.has_value()) return;
  tracer_.RecordInstant(obs::TraceCat::kRace, "race", /*tid=*/compartment + 1,
                        /*a0=*/gaddr, /*a1=*/size);
  RaiseTrap(TrapInfo{.kind = TrapKind::kDataRace,
                     .access = is_write ? AccessKind::kWrite : AccessKind::kRead,
                     .guest_addr = gaddr,
                     .pkey = 0,
                     .pkru = context().pkru.raw(),
                     .detail = race->ToString()});
}

void Machine::SyncAttribution() {
  for (int v = 0; v < vcpu_count_; ++v) {
    attrib_.SyncLane(v, vcpus_[v].clock.cycles());
  }
}

}  // namespace flexos
