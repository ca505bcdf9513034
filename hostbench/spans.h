// In-memory span recorder for the benchmark's traced run. Every span sits at
// a boundary the benchmark itself crosses when it calls into the simulator
// (testbed construction, Testbed::Run, link -> NIC delivery, hub -> peer
// delivery, RemoteApp callbacks, and the layer replays), so nothing inside
// src/ is instrumented. Spans are kept in memory and written out once, when
// the benchmark ends.
#ifndef FLEXOS_HOSTBENCH_SPANS_H_
#define FLEXOS_HOSTBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace flexos {
namespace hostbench {

enum class Layer : uint8_t {
  kJob,         // One job: setup + run + teardown (root span).
  kSetup,       // Testbed constructor, server spawn, peers, Connect.
  kRun,         // Testbed::Run.
  kNicRx,       // Link side A -> Nic::DeliverFrame.
  kPeerRx,      // Link side B -> RemoteTcpPeer::DeliverFrame (the harness).
  kApp,         // RemoteApp callbacks (the remote clients).
  kImageBuild,  // ImageBuilder::Build replayed on a job's ImageConfig.
  kReplay,      // Other layer replays (map, write, parse, gate, yield).
};
inline constexpr int kLayerCount = 8;

std::string_view LayerName(Layer layer);

// Host monotonic time in nanoseconds.
int64_t NowNs();

struct Span {
  Layer layer;
  int32_t parent;  // Index of the enclosing span, -1 for a root.
  int64_t start_ns;
  int64_t end_ns;
};

using LayerNs = std::array<int64_t, kLayerCount>;

class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span under the innermost open one. Returns -1 when disabled.
  int32_t Begin(Layer layer);
  void End(int32_t index);

  void Clear();
  const std::vector<Span>& spans() const { return spans_; }

  // Summed duration of every span of each layer.
  LayerNs TotalNs() const;
  // Summed duration of each layer's spans whose parent has layer `parent`.
  LayerNs TotalUnderNs(Layer parent) const;
  // Self time: each span's duration minus the part its children cover.
  LayerNs SelfNs() const;

  // Chrome trace-event JSON (loads in Perfetto) of the first `max_spans`
  // spans; each event carries its span id and parent id. Spans are stored
  // in start order, so a prefix holds every parent it references. Returns
  // false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, Layer layer)
      : recorder_(recorder), index_(recorder.Begin(layer)) {}
  ~ScopedSpan() { recorder_.End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t index_;
};

}  // namespace hostbench
}  // namespace flexos

#endif  // FLEXOS_HOSTBENCH_SPANS_H_
