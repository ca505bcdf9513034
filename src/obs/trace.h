// Event tracer (DESIGN.md §7): per-thread lock-free ring buffers of
// fixed-size TraceEvents, recording gate crossings, batch spans, scheduler
// run slices, allocator traffic, netstack polls, and warn+ log messages.
// Export to Chrome trace-event JSON (Perfetto-loadable) lives in
// obs/export.h.
//
// Cost story, in layers:
//   * Runtime: tracing defaults OFF. Every record call first checks one
//     relaxed atomic bool; bench/abl_obs_overhead.cc asserts this check
//     keeps gate dispatch cost-identical to the uninstrumented fast path.
//     This is the only off switch.
//   * Record path (tracing on): resolve the calling thread's ring through a
//     generation-checked thread-local cache, then one
//     slot write + relaxed index bump. No locks, no allocation.
//
// Rings keep the most recent kDefaultCapacity events per thread; older
// events are overwritten and counted as dropped (trace.dropped_events).
// Timestamps come from a pluggable time source — the Machine wires in its
// virtual Clock, so traces are deterministic modeled time, not wall time.
#ifndef FLEXOS_OBS_TRACE_H_
#define FLEXOS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace flexos {
namespace obs {

enum class TraceCat : uint8_t {
  kGate = 0,
  kSched = 1,
  kAlloc = 2,
  kNet = 3,
  kLog = 4,
  kFault = 5,
  kRace = 6,  // flexrace HB edges + shared-region access probes (obs/race.h).
  kSlo = 7,   // flexwatch SLO violation instants (obs/timeseries.h).
  kAdapt = 8,  // flexadapt decision instants (src/adapt/adapt.h).
};

// Subset of Chrome trace-event phases we emit. Spans are always recorded as
// complete ("X") events at their end — begin/end pairs would be torn when
// the ring wraps between the two halves.
enum class TracePhase : uint8_t {
  kComplete = 0,  // "X": ts + dur
  kInstant = 1,   // "i": point event
};

struct TraceEvent {
  uint64_t ts_ns = 0;   // Virtual time at event start.
  uint64_t dur_ns = 0;  // Span length; 0 for instants.
  uint64_t a0 = 0;      // Event args (bytes, sizes, ids — per event type).
  uint64_t a1 = 0;
  uint64_t req = 0;     // Request id (obs::TraceContext); 0 = unattributed.
  const char* name = nullptr;  // Must outlive the tracer (literal or
                               // component-owned string).
  char text[48] = {};          // Inline payload for log messages.
  int32_t tid = 0;             // Track id: compartment + 1; 0 = platform.
  uint16_t vcpu = 0;           // vCPU the event was recorded on.
  TraceCat cat = TraceCat::kGate;
  TracePhase phase = TracePhase::kInstant;

  void SetText(std::string_view s) {
    const size_t n = s.size() < sizeof(text) - 1 ? s.size() : sizeof(text) - 1;
    std::memcpy(text, s.data(), n);
    text[n] = '\0';
  }
};

// Single-producer ring. The producer is the owning OS thread; readers
// (Snapshot) run when the producer is quiescent, which the single-vCPU
// simulator guarantees at export time.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity) : slots_(capacity) {}

  void Push(const TraceEvent& event) {
    const uint64_t seq = next_.load(std::memory_order_relaxed);
    slots_[seq % slots_.size()] = event;
    next_.store(seq + 1, std::memory_order_release);
  }

  size_t capacity() const { return slots_.size(); }
  uint64_t pushed() const { return next_.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    const uint64_t n = pushed();
    return n > slots_.size() ? n - slots_.size() : 0;
  }

  // Retained events, oldest first.
  void AppendTo(std::vector<TraceEvent>* out) const {
    const uint64_t n = pushed();
    const uint64_t cap = slots_.size();
    const uint64_t first = n > cap ? n - cap : 0;
    for (uint64_t seq = first; seq < n; ++seq) {
      out->push_back(slots_[seq % cap]);
    }
  }

 private:
  std::vector<TraceEvent> slots_;
  std::atomic<uint64_t> next_{0};
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 16384;

  using TimeSourceFn = uint64_t (*)(void* ctx);

  explicit Tracer(size_t capacity_per_thread = kDefaultCapacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Runtime knob. All record paths check this first.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Virtual-clock hook; defaults to 0 until the Machine installs one.
  void SetTimeSource(TimeSourceFn fn, void* ctx) {
    time_fn_ = fn;
    time_ctx_ = ctx;
  }
  uint64_t NowNs() const { return time_fn_ ? time_fn_(time_ctx_) : 0; }

  // The Machine updates this on every vCPU switch; events are stamped with
  // it so exports can separate per-vCPU timelines. Always 0 at N=1.
  void SetCurrentVCpu(int32_t v) { current_vcpu_ = static_cast<uint16_t>(v); }

  void RecordComplete(TraceCat cat, const char* name, uint64_t ts_ns,
                      uint64_t dur_ns, int32_t tid, uint64_t a0 = 0,
                      uint64_t a1 = 0, uint64_t req = 0) {
    if (!enabled()) {
      return;
    }
    TraceEvent event;
    event.ts_ns = ts_ns;
    event.dur_ns = dur_ns;
    event.a0 = a0;
    event.a1 = a1;
    event.req = req;
    event.name = name;
    event.tid = tid;
    event.vcpu = current_vcpu_;
    event.cat = cat;
    event.phase = TracePhase::kComplete;
    Buffer().Push(event);
  }

  void RecordInstant(TraceCat cat, const char* name, int32_t tid,
                     uint64_t a0 = 0, uint64_t a1 = 0) {
    if (!enabled()) {
      return;
    }
    TraceEvent event;
    event.ts_ns = NowNs();
    event.a0 = a0;
    event.a1 = a1;
    event.name = name;
    event.tid = tid;
    event.vcpu = current_vcpu_;
    event.cat = cat;
    event.phase = TracePhase::kInstant;
    Buffer().Push(event);
  }

  // Instant event carrying inline text (log-message bridge).
  void RecordMessage(TraceCat cat, const char* name, std::string_view text,
                     int32_t tid) {
    if (!enabled()) {
      return;
    }
    TraceEvent event;
    event.ts_ns = NowNs();
    event.name = name;
    event.tid = tid;
    event.vcpu = current_vcpu_;
    event.cat = cat;
    event.phase = TracePhase::kInstant;
    event.SetText(text);
    Buffer().Push(event);
  }

  // All retained events across threads, merged and sorted by timestamp.
  std::vector<TraceEvent> Snapshot() const;

  // Events overwritten by ring wraparound, summed across threads.
  uint64_t DroppedEvents() const;

  size_t buffer_count() const;

  // Process-global tracer used by the log bridge (support/log.cc) and any
  // call site without a Machine reference. The Machine installs its tracer
  // on construction; nullptr when none is live.
  static Tracer* Active() {
    return g_active.load(std::memory_order_acquire);
  }
  static void SetActive(Tracer* tracer) {
    g_active.store(tracer, std::memory_order_release);
  }

 private:
  TraceBuffer& Buffer();
  TraceBuffer* RegisterThreadBuffer();

  const size_t capacity_per_thread_;
  const uint64_t generation_;  // Invalidates stale thread-local caches.
  std::atomic<bool> enabled_{false};
  TimeSourceFn time_fn_ = nullptr;
  void* time_ctx_ = nullptr;
  uint16_t current_vcpu_ = 0;

  mutable std::mutex register_mu_;  // Guards buffers_ growth only.
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;

  static std::atomic<Tracer*> g_active;
};

// Records a warn+ log line as a trace event on the active tracer, if any.
// Out-of-line so support/log.cc needs no tracer internals.
void TraceLogMessage(std::string_view severity, std::string_view message);

}  // namespace obs
}  // namespace flexos

#endif  // FLEXOS_OBS_TRACE_H_
