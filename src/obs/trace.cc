#include "obs/trace.h"

#include <algorithm>

namespace flexos {
namespace obs {

namespace {

// Bumped per Tracer construction; lets the thread-local cache detect both
// "different tracer" and "same address, reconstructed tracer".
std::atomic<uint64_t> g_generation{0};

struct ThreadCache {
  const Tracer* owner = nullptr;
  uint64_t generation = 0;
  TraceBuffer* buffer = nullptr;
};

thread_local ThreadCache t_cache;

}  // namespace

std::atomic<Tracer*> Tracer::g_active{nullptr};

Tracer::Tracer(size_t capacity_per_thread)
    : capacity_per_thread_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1) {}

Tracer::~Tracer() {
  if (Active() == this) {
    SetActive(nullptr);
  }
}

TraceBuffer& Tracer::Buffer() {
  if (t_cache.owner == this && t_cache.generation == generation_) {
    return *t_cache.buffer;
  }
  TraceBuffer* buffer = RegisterThreadBuffer();
  t_cache.owner = this;
  t_cache.generation = generation_;
  t_cache.buffer = buffer;
  return *buffer;
}

TraceBuffer* Tracer::RegisterThreadBuffer() {
  std::lock_guard<std::mutex> lock(register_mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>(capacity_per_thread_));
  return buffers_.back().get();
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(register_mu_);
    for (const auto& buffer : buffers_) {
      buffer->AppendTo(&out);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

uint64_t Tracer::DroppedEvents() const {
  std::lock_guard<std::mutex> lock(register_mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->dropped();
  }
  return total;
}

size_t Tracer::buffer_count() const {
  std::lock_guard<std::mutex> lock(register_mu_);
  return buffers_.size();
}

void TraceLogMessage(std::string_view severity, std::string_view message) {
  Tracer* tracer = Tracer::Active();
  if (tracer == nullptr || !tracer->enabled()) {
    return;
  }
  // Name must be a stable literal; severity comes from log.cc's static
  // level-name table.
  const char* name =
      severity == "WARN" ? "log.warn"
                         : (severity == "ERROR" ? "log.error" : "log.message");
  tracer->RecordMessage(TraceCat::kLog, name, message, /*tid=*/0);
}

}  // namespace obs
}  // namespace flexos
