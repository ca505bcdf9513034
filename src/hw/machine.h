// The simulated machine: N virtual CPUs (default 1), each with its own
// cycle clock, PKRU register, and the execution context the access layer
// consults on every guest memory operation. Address spaces (vmem/) and
// devices (net/) attach to a Machine. All charging APIs operate on the
// *current* vCPU; the scheduler selects it via SwitchVCpu.
#ifndef FLEXOS_HW_MACHINE_H_
#define FLEXOS_HW_MACHINE_H_

#include <cstdint>
#include <map>

#include "fault/injector.h"
#include "hw/clock.h"
#include "hw/cost_model.h"
#include "hw/pkru.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "obs/race.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/vcpu.h"

namespace flexos {

// Compile-time cap on simulated vCPUs (defined in obs/vcpu.h so the obs
// layer can size per-vCPU state without including hw headers).
inline constexpr int kMaxVCpus = obs::kMaxVCpus;

// Per-"instruction-stream" execution state. Gates swap this on every
// compartment crossing; software hardening sets the instrumentation fields
// for the duration of hardened-library code.
struct ExecContext {
  Pkru pkru = Pkru::AllowAll();
  // Multiplier on guest memory-op costs (1.0 = uninstrumented; the SH value
  // comes from CostModel::sh_mem_multiplier).
  double mem_cost_multiplier = 1.0;
  // Whether ASAN-lite shadow checks are active for this stream.
  bool shadow_checks = false;
  // Compartment executing now; -1 before an image is entered.
  int compartment = -1;
};

struct MachineStats {
  uint64_t wrpkru_count = 0;
  uint64_t vmexit_count = 0;
  uint64_t gate_crossings = 0;
  uint64_t traps = 0;
  // Cross-vCPU IPIs delivered by vm-isolated gates (always 0 at N=1).
  uint64_t ipi_count = 0;
};

class Machine {
 public:
  explicit Machine(uint64_t freq_hz = Clock::kDefaultFreqHz,
                   CostModel costs = CostModel{});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Clock and execution context of the *current* vCPU.
  Clock& clock() { return vcpus_[current_vcpu_].clock; }
  const Clock& clock() const { return vcpus_[current_vcpu_].clock; }
  ExecContext& context() { return vcpus_[current_vcpu_].context; }
  const ExecContext& context() const { return vcpus_[current_vcpu_].context; }

  const CostModel& costs() const { return costs_; }
  CostModel& mutable_costs() { return costs_; }

  // --- Multi-vCPU control (DESIGN.md §12) --------------------------------
  // Sets the number of simulated vCPUs; clamps to [1, kMaxVCpus]. Call
  // before building an image or spawning threads — per-vCPU boundary
  // counters and affinity are resolved against this count.
  void SetVCpuCount(int n);
  int vcpu_count() const { return vcpu_count_; }
  int current_vcpu() const { return current_vcpu_; }

  // Switches the current vCPU. The scheduler calls this when it picks the
  // next runnable thread; attribution is handed over to the new vCPU's
  // lane and the tracer stamps subsequent events with the new id. No-op
  // when `v` is already current — at N=1 this never does anything.
  void SwitchVCpu(int v);

  // Clock of a specific vCPU (for merge rules and reporting).
  Clock& clock_of(int v) { return vcpus_[v].clock; }
  const Clock& clock_of(int v) const { return vcpus_[v].clock; }

  // Advances every vCPU's clock to at least `cycles` (max-preserving, like
  // Clock::AdvanceTo). Used by the testbed idle handler when the whole
  // machine sleeps until the next device event.
  void AdvanceAllClocksTo(uint64_t cycles);

  // The machine-wide "now": the furthest-ahead vCPU clock. This is the
  // wall-clock equivalent for throughput math at N>1 (and exactly
  // clock().cycles() at N=1).
  uint64_t max_cycles() const;

  // Compartment-to-vCPU pinning, consulted by the vm gate backend to decide
  // whether a crossing leaves the current vCPU (and must pay ChargeIpi).
  // -1 (the default) means unpinned: no IPI is ever modeled.
  void SetCompartmentAffinity(int compartment, int vcpu);
  int CompartmentAffinityOf(int compartment) const;

  // Charges the cross-vCPU notification cost on the current vCPU's clock.
  // When `target_vcpu` >= 0 the IPI is also a happens-before edge from the
  // current vCPU into the target lane (flexrace, DESIGN.md §13).
  void ChargeIpi(int target_vcpu = -1);

  // --- flexrace runtime validator (DESIGN.md §13) ------------------------
  // Debug-mode happens-before race detection over per-vCPU lanes, in the
  // mold of Image::EnableDispatchValidation: off by default, observes the
  // model without charging any clock, and turns an unsynchronized
  // cross-vCPU shared-region pair into a deterministic kDataRace trap.
  void SetRaceDetection(bool on);
  bool race_detection() const { return race_.enabled(); }
  obs::RaceDetector& race() { return race_; }
  const obs::RaceDetector& race() const { return race_; }

  // Happens-before edges, forwarded to the detector and (when tracing is
  // on) recorded as cat=race instants so `flexlint --races` can replay the
  // trace offline to the same verdict. All no-ops while detection is off.
  uint64_t RaceRelease();             // Snapshot the current lane.
  void RaceAcquire(uint64_t handle);  // Join a snapshot into the current lane.
  void RaceJoin(int from, int to);    // Synchronous edge (IPI).

  // Probes one shared-region (key 0) access on the current vCPU. Raises a
  // TrapKind::kDataRace trap when the access is unordered with a prior
  // access from another lane; the trap detail carries both access stamps
  // and the compartments involved.
  void ProbeSharedAccess(uint64_t gaddr, uint64_t size, bool is_write);

  // Flushes attribution on every vCPU lane up to its own clock; call before
  // reading attrib() totals on a multi-vCPU machine.
  void SyncAttribution();

  // Models the WRPKRU instruction: charges its cost and installs the value.
  void Wrpkru(Pkru pkru) {
    clock().Charge(costs_.wrpkru);
    ++stats_.wrpkru_count;
    context().pkru = pkru;
  }

  // Models a VM exit + re-entry pair plus the inter-VM notification; used by
  // the VM/EPT gate backend.
  void VmExitEnter() {
    clock().Charge(2 * costs_.vmexit + costs_.vm_notify);
    ++stats_.vmexit_count;
  }

  MachineStats& stats() { return stats_; }
  const MachineStats& stats() const { return stats_; }

  // Unified metrics (DESIGN.md §7). Components resolve their counters /
  // histograms here once at construction and record through pointers.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Event tracer; records in virtual (modeled) time. Disabled by default —
  // enable with tracer().SetEnabled(true) or compile out entirely with
  // -DFLEXOS_OBS_DISABLED.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  // Cycle/request attributor (DESIGN.md §8); observes the clock, never
  // charges it. Disabled by default — flexstat --flame/--request and the
  // profiler tests enable it via attrib().SetEnabled(true, cycles).
  obs::Attributor& attrib() { return attrib_; }
  const obs::Attributor& attrib() const { return attrib_; }

  // Deterministic fault injector (DESIGN.md §11). Idle (no plan loaded)
  // unless a chaos harness arms it; probe sites across alloc/net/sched/core
  // consult it through this accessor.
  fault::FaultInjector& injector() { return injector_; }
  const fault::FaultInjector& injector() const { return injector_; }

  // flexwatch windowed time series (DESIGN.md §14); disabled by default —
  // the testbed enables it when the config declares window_cycles/slo
  // directives or flexstat passes --watch. Observes, never charges.
  obs::TimeSeries& timeseries() { return timeseries_; }
  const obs::TimeSeries& timeseries() const { return timeseries_; }

  // Closes any windows whose boundary the machine-wide clock (max_cycles)
  // has passed. Called from the scheduler loop and idle jumps; bench loops
  // that bypass the scheduler call it directly. One branch when disabled.
  void PollTimeSeries() { timeseries_.MaybeCapture(max_cycles()); }

  // Charges `cycles` of modeled computation. Compute charges are
  // instrumentation-insensitive: ASAN-class hardening taxes memory
  // operations (ChargeMemOp), not stall/branch-dominated fixed work.
  void ChargeCompute(uint64_t cycles) { clock().Charge(cycles); }

  // Charges a guest memory operation covering `bytes` bytes.
  void ChargeMemOp(uint64_t bytes) {
    const uint64_t raw = costs_.CopyCycles(bytes);
    clock().Charge(static_cast<uint64_t>(static_cast<double>(raw) *
                                         context().mem_cost_multiplier));
  }

 private:
  struct VCpu {
    Clock clock;
    ExecContext context;
  };

  // Resolves sched.vcpu<i>.idle_cycles counters for the active vCPU count.
  void ResolveIdleCounters();

  VCpu vcpus_[kMaxVCpus];
  int vcpu_count_ = 1;
  int current_vcpu_ = 0;
  CostModel costs_;
  MachineStats stats_;
  std::map<int, int> compartment_affinity_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::Attributor attrib_;
  obs::RaceDetector race_;
  fault::FaultInjector injector_;
  obs::TimeSeries timeseries_;
  // Cycles each vCPU jumps over in AdvanceAllClocksTo (no runnable work).
  obs::Counter* vcpu_idle_cycles_[kMaxVCpus] = {};
};

// RAII guard that installs an ExecContext and restores the previous one;
// used by gates and the SH layer.
class ScopedExecContext {
 public:
  ScopedExecContext(Machine& machine, const ExecContext& context)
      : machine_(machine), saved_(machine.context()) {
    machine_.context() = context;
  }
  ~ScopedExecContext() { machine_.context() = saved_; }

  ScopedExecContext(const ScopedExecContext&) = delete;
  ScopedExecContext& operator=(const ScopedExecContext&) = delete;

 private:
  Machine& machine_;
  ExecContext saved_;
};

}  // namespace flexos

#endif  // FLEXOS_HW_MACHINE_H_
