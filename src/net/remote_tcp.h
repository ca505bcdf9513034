// RemoteTcpPeer: a host-side TCP endpoint modeling the *client machine* of
// the paper's testbed (the iperf/redis-benchmark box). Its processing is
// free — it is a different computer, so its cycles never hit the simulated
// server CPU — but its traffic is still subject to the link's bandwidth,
// latency, and loss. It is also an independent implementation of the wire
// format, so interop with the guest stack doubles as a protocol test.
//
// Being free in modeled cycles, the peer should also be cheap on the host:
// its send buffer is one contiguous byte array that segments are built
// from by pointer, and it parses inbound frames in place.
#ifndef FLEXOS_NET_REMOTE_TCP_H_
#define FLEXOS_NET_REMOTE_TCP_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "hw/machine.h"
#include "net/link.h"
#include "net/wire.h"

namespace flexos {

// Host-side application logic driven by the peer (iperf sender, redis
// workload generator, ...).
class RemoteApp {
 public:
  virtual ~RemoteApp() = default;

  virtual void OnConnected() {}

  // Produces up to `max` bytes of application data to transmit. Returning 0
  // means nothing to send right now (more may come after OnReceive).
  virtual size_t ProduceData(uint8_t* out, size_t max) = 0;

  // True once the app will never produce more data (peer then sends FIN
  // after everything in flight is acknowledged).
  virtual bool Finished() const = 0;

  virtual void OnReceive(const uint8_t* data, size_t len) = 0;

  virtual void OnClosed() {}
};

enum class RemoteTcpState : uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kDone,
};

struct RemoteTcpConfig {
  MacAddr mac{{0x02, 0, 0, 0, 0, 0xbb}};
  Ipv4Addr ip = 0x0a000002;  // 10.0.0.2
  MacAddr server_mac{{0x02, 0, 0, 0, 0, 0xaa}};
  Ipv4Addr server_ip = 0x0a000001;  // 10.0.0.1
  Port server_port = 5001;
  Port local_port = 40000;
  uint16_t mss = 1460;
  uint16_t advertised_window = 0xffff;
  uint64_t rto_ns = 200'000'000;
  int max_retries = 12;
  uint32_t max_in_flight = 0xffff;  // Cap independent of peer window.
};

struct RemoteTcpStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_acked = 0;
  uint64_t bytes_received = 0;
  uint64_t segments_tx = 0;
  uint64_t segments_rx = 0;
  uint64_t retransmits = 0;
};

class RemoteTcpPeer final : public LinkEndpoint {
 public:
  // Attaches to `link` side B (the guest NIC is conventionally side A).
  // Pass attach=false when frames are dispatched by a RemoteHub instead.
  RemoteTcpPeer(Machine& machine, Link& link, RemoteTcpConfig config,
                RemoteApp& app, bool attach = true);

  // Starts the three-way handshake (active open).
  void Connect();

  // Passive open: waits for the guest to connect to config.local_port and
  // answers ARP who-has queries for config.ip.
  void Listen();

  // LinkEndpoint: a frame from the server arrived. Processed immediately
  // and free of charge (remote machine). TCP frames for another port are
  // dropped before parsing (a hub shows every peer every frame).
  void DeliverFrame(std::vector<uint8_t> frame) override;

  // Fires due retransmission timers. Call from the platform idle loop.
  // Returns true if anything was sent.
  bool OnTick();

  // Earliest timer deadline (for idle time-skipping).
  std::optional<uint64_t> NextEventCycles() const;

  RemoteTcpState state() const { return state_; }
  bool established() const { return state_ == RemoteTcpState::kEstablished; }
  bool done() const { return state_ == RemoteTcpState::kDone; }
  const RemoteTcpStats& stats() const { return stats_; }

 private:
  struct InFlightSeg {
    uint32_t seq;
    uint32_t len;
    bool syn;
    bool fin;
    uint64_t sent_at_cycles;
  };

  void SendSegment(uint8_t flags, uint32_t seq, const uint8_t* payload,
                   uint32_t len);
  void SendAck();
  // Pulls app data and transmits as the window allows; sends FIN when done.
  void Pump();
  void HandleFrame(const ParsedFrame& frame);
  void ProcessAck(const TcpHeader& header);
  uint64_t RtoCycles() const;
  // Live bytes of the send buffer (unacknowledged, then unsent), and a
  // pointer to the one `offset` bytes past snd_una_'s.
  size_t Buffered() const { return send_buf_.size() - send_head_; }
  const uint8_t* BufferAt(uint64_t offset) const {
    return send_buf_.data() + send_head_ + offset;
  }

  Machine& machine_;  // For the virtual clock only.
  Link& link_;
  RemoteTcpConfig config_;
  RemoteApp& app_;

  RemoteTcpState state_ = RemoteTcpState::kClosed;
  // Peer port we talk to: the configured server port when active, or the
  // guest's ephemeral source port once a SYN arrives when passive.
  Port remote_port_ = 0;
  uint32_t iss_ = 1;
  uint32_t snd_una_ = 0;
  uint32_t snd_nxt_ = 0;
  uint32_t rcv_nxt_ = 0;
  uint32_t peer_wnd_ = 0;
  bool fin_sent_ = false;
  bool fin_received_ = false;

  // Unacknowledged + unsent application bytes in send_buf_[send_head_, end),
  // whose first byte is at snd_una_ (minus phantom SYN/FIN sequence slots).
  // ACKs advance send_head_; the dead prefix is dropped in one memmove once
  // it is at least half the buffer, so the buffer stays within about twice
  // the send window.
  std::vector<uint8_t> send_buf_;
  size_t send_head_ = 0;
  uint64_t unsent_offset_ = 0;  // Live bytes already transmitted.

  std::deque<InFlightSeg> inflight_;
  int retries_ = 0;
  RemoteTcpStats stats_;
};

// Fans one link endpoint out to many peers (one client machine running
// many connections, e.g. redis-benchmark). Each registered endpoint sees
// every frame and filters by its own port.
class RemoteHub final : public LinkEndpoint {
 public:
  explicit RemoteHub(Link& link) { link.AttachB(this); }

  void Register(LinkEndpoint* endpoint) { endpoints_.push_back(endpoint); }

  // Peers filter by port, so each needs the whole frame: all but the last
  // get a copy, and the last takes the frame itself.
  void DeliverFrame(std::vector<uint8_t> frame) override {
    if (endpoints_.empty()) {
      return;
    }
    for (size_t i = 0; i + 1 < endpoints_.size(); ++i) {
      endpoints_[i]->DeliverFrame(frame);
    }
    endpoints_.back()->DeliverFrame(std::move(frame));
  }

 private:
  std::vector<LinkEndpoint*> endpoints_;
};

}  // namespace flexos

#endif  // FLEXOS_NET_REMOTE_TCP_H_
