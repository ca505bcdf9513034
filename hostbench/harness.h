// The benchmark's side of the wire: seeded remote clients, a RemoteApp
// wrapper that measures per-request host latency, and the two link taps
// that time frame delivery into the guest NIC (side A) and into the remote
// peers (side B). None of these charges simulated cycles: the remote
// machine is free in the model, and the taps only forward.
#ifndef FLEXOS_HOSTBENCH_HARNESS_H_
#define FLEXOS_HOSTBENCH_HARNESS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/nic.h"
#include "net/remote_tcp.h"
#include "spans.h"

namespace flexos {
namespace hostbench {

// A remote client whose operations can be counted. An operation starts when
// its first byte is handed to the peer and completes when its reply has
// arrived (redis) or its bytes are acknowledged (iperf).
class CountedApp : public RemoteApp {
 public:
  virtual uint64_t started() const = 0;
  virtual uint64_t completed() const = 0;
};

// One redis request and the reply the benchmark's own model expects.
struct RedisOp {
  std::string request;
  std::string expected_reply;
};

// Every request one connection sends, generated from the seed up front.
struct RedisScript {
  std::vector<RedisOp> ops;
};

// Closed-loop redis client: sends request i+1 only after reply i, and checks
// every reply against the expected one (GETs against the value last SET for
// that key).
class ScriptedRedisClient final : public CountedApp {
 public:
  // `corrupt_reply` >= 0 flips one byte of that reply before it is checked
  // (tests use it to prove that a wrong reply is counted).
  explicit ScriptedRedisClient(const RedisScript& script,
                               int64_t corrupt_reply = -1)
      : script_(script), corrupt_reply_(corrupt_reply) {}

  size_t ProduceData(uint8_t* out, size_t max) override;
  bool Finished() const override;
  void OnReceive(const uint8_t* data, size_t len) override;

  uint64_t started() const override { return started_; }
  uint64_t completed() const override { return completed_; }
  uint64_t correct() const { return correct_; }

 private:
  const RedisScript& script_;
  int64_t corrupt_reply_;
  uint64_t started_ = 0;
  uint64_t completed_ = 0;
  uint64_t correct_ = 0;
  size_t tx_offset_ = 0;  // Bytes of request started_-1 already handed out.
  std::string rx_;
  bool broken_ = false;   // Unframeable reply stream: stop sending.
};

// Bulk sender: cycles through a seeded payload pattern. An operation is one
// KiB; it completes when the peer has seen it acknowledged.
class IperfSender final : public CountedApp {
 public:
  IperfSender(const std::vector<uint8_t>& pattern, uint64_t total_bytes)
      : pattern_(pattern), total_(total_bytes) {}

  void set_peer(const RemoteTcpPeer* peer) { peer_ = peer; }

  size_t ProduceData(uint8_t* out, size_t max) override;
  bool Finished() const override { return handed_ == total_; }
  void OnReceive(const uint8_t*, size_t) override {}

  uint64_t started() const override { return (handed_ + 1023) / 1024; }
  uint64_t completed() const override;

 private:
  const std::vector<uint8_t>& pattern_;
  uint64_t total_;
  uint64_t handed_ = 0;
  const RemoteTcpPeer* peer_ = nullptr;
};

// Wraps a CountedApp: records a span around its data callbacks and the host
// time from each operation's first byte to its completion. (Neither client
// here overrides OnConnected or OnClosed, so those keep their no-op
// defaults.)
class TimedApp final : public RemoteApp {
 public:
  // `latencies_us` may be null (no samples kept).
  TimedApp(CountedApp& inner, SpanRecorder& spans,
           std::vector<float>* latencies_us)
      : inner_(inner), spans_(spans), latencies_us_(latencies_us) {}

  size_t ProduceData(uint8_t* out, size_t max) override;
  bool Finished() const override { return inner_.Finished(); }
  void OnReceive(const uint8_t* data, size_t len) override;

  // Stamps newly started operations and records newly completed ones.
  void Sync();

 private:
  CountedApp& inner_;
  SpanRecorder& spans_;
  std::vector<float>* latencies_us_;
  uint64_t seen_started_ = 0;
  uint64_t seen_completed_ = 0;
  std::deque<int64_t> start_ns_;  // Started, not yet completed.
};

// Side B: fans each guest frame out to every peer (each filters by port,
// as RemoteHub does), timing the delivery, then lets the wrappers see
// acknowledgments.
class PeerHub final : public LinkEndpoint {
 public:
  PeerHub(Link& link, SpanRecorder& spans);

  void Register(RemoteTcpPeer& peer, TimedApp& app);
  void DeliverFrame(std::vector<uint8_t> frame) override;

  uint64_t frames() const { return frames_; }

 private:
  SpanRecorder& spans_;
  std::vector<RemoteTcpPeer*> peers_;
  std::vector<TimedApp*> apps_;
  uint64_t frames_ = 0;
};

// Frames captured at the link for the layer replays, up to a cap.
struct FrameCapture {
  static constexpr size_t kMaxFrames = 4096;
  std::vector<std::vector<uint8_t>> frames;
};

// Side A: forwards every frame to the guest NIC, timing the delivery and
// optionally capturing the frame.
class NicTap final : public LinkEndpoint {
 public:
  NicTap(Link& link, Nic& nic, SpanRecorder& spans, FrameCapture* capture);

  void DeliverFrame(std::vector<uint8_t> frame) override;

 private:
  Nic& nic_;
  SpanRecorder& spans_;
  FrameCapture* capture_;
};

}  // namespace hostbench
}  // namespace flexos

#endif  // FLEXOS_HOSTBENCH_HARNESS_H_
