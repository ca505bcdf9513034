// The server-side TCP engine ("TCP-lite"): three-way handshake, cumulative
// ACKs, sliding-window flow control, go-back-N retransmission with
// exponential backoff, zero-window persist probes, and orderly FIN
// teardown. No congestion control, SACK, or window scaling (documented
// simplifications; the paper's workloads run on a clean datacenter link).
//
// Socket buffers are RingBuffers in guest memory allocated from the network
// compartment's allocator; blocking is implemented with LibC semaphores so
// every wait crosses the net->libc->sched gate chain the paper's Fig. 5
// analysis depends on.
#ifndef FLEXOS_NET_TCP_H_
#define FLEXOS_NET_TCP_H_

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "alloc/allocator.h"
#include "libc/ring_buffer.h"
#include "obs/metrics.h"
#include "libc/semaphore.h"
#include "net/nic.h"
#include "net/wire.h"
#include "sched/scheduler.h"
#include "support/gate_router.h"
#include "vmem/address_space.h"

namespace flexos {

enum class TcpState : uint8_t {
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosed,
};

std::string_view TcpStateName(TcpState state);

struct TcpConfig {
  uint16_t mss = 1460;
  uint64_t ring_bytes = 256 * 1024;     // Per-direction socket buffer.
  uint64_t rto_ns = 200'000'000;        // Initial retransmission timeout.
  int max_retries = 10;
  // Send a window-update ACK when the advertised window recovers by at
  // least this many bytes after having been clamped.
  uint32_t window_update_threshold = 2 * 1460;
  // Coalesce the net -> libc semaphore signals one NIC poll produces into
  // a single gate crossing (GateBatch) once there is more than one of
  // them. Off by default: batching changes the modeled cost of isolation,
  // so the paper-figure configurations leave it untouched and studies opt
  // in explicitly.
  bool batch_crossings = false;
};

// Read-only view of the engine's net.tcp.* registry counters (obs/names.h);
// refreshed by TcpEngine::stats(). The registry is the source of truth.
struct TcpStats {
  uint64_t segments_rx = 0;
  uint64_t segments_tx = 0;
  uint64_t bytes_rx = 0;
  uint64_t bytes_tx = 0;
  uint64_t retransmits = 0;
  uint64_t out_of_order_drops = 0;
  uint64_t conns_accepted = 0;
  uint64_t resets = 0;
};

class TcpEngine {
 public:
  struct Deps {
    Machine& machine;
    AddressSpace& space;
    Allocator& allocator;
    Scheduler& scheduler;
    Nic& nic;
    GateRouter& router;
  };

  TcpEngine(const Deps& deps, TcpConfig config);
  ~TcpEngine();

  TcpEngine(const TcpEngine&) = delete;
  TcpEngine& operator=(const TcpEngine&) = delete;

  // --- Socket-facing API (called in net context, may block) --------------

  Result<int> Listen(Port port, int backlog);

  // Blocks until a connection is established on the listener; returns its
  // connection id.
  Result<int> Accept(int listener_id);

  // Active open: connects to dst, blocking until the handshake completes
  // (kConnectionRefused/kConnectionReset if the peer aborts, kTimedOut if
  // the SYN retries exhaust). The destination MAC comes from ARP
  // resolution (NetStack::TcpConnect wires that up).
  Result<int> Connect(Ipv4Addr dst_ip, const MacAddr& dst_mac,
                      Port dst_port);

  // Queues [addr, addr+len) for transmission, blocking while the send
  // buffer is full. Returns bytes queued (== len on success). The buffer is
  // read through the *network compartment's* address space: callers in
  // another compartment must pass shared-region addresses, exactly as the
  // paper requires shared data to be annotated and placed in shared
  // sections — a private address faults under MPK and is unmapped under
  // the VM backend.
  Result<uint64_t> Send(int conn_id, Gaddr addr, uint64_t len);

  // Blocks until at least one byte is available (or EOF); returns bytes
  // copied into [addr, addr+len) (0 means the peer closed cleanly). Same
  // shared-buffer contract as Send.
  Result<uint64_t> Recv(int conn_id, Gaddr addr, uint64_t len);

  // Initiates an orderly close (FIN after queued data drains).
  Status Close(int conn_id);

  TcpState StateOf(int conn_id) const;

  // --- Platform-facing API (called from the poll loop) -------------------

  // Handles one inbound TCP frame. Returns true if it was consumed.
  bool OnFrame(const ParsedFrame& frame);

  // Fires due retransmission/persist timers. Returns true if any fired.
  bool ProcessTimers();

  // Signal-coalescing scope, bracketing one poll of the NIC (a no-op
  // unless config.batch_crossings is set and net -> libc is a real
  // boundary). A lone wakeup inside the scope costs exactly the unbatched
  // price; from the second wakeup on they all ride one GateBatch crossing.
  void BeginSignalScope();
  void EndSignalScope();

  // Earliest pending timer deadline in cycles, if any.
  std::optional<uint64_t> NextTimerCycles() const;

  // Refreshes and returns the stats view (reference valid for the engine's
  // lifetime; counters live in the machine's MetricsRegistry).
  const TcpStats& stats() const;

 private:
  struct ConnKey {
    Port local_port;
    Ipv4Addr remote_ip;
    Port remote_port;

    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    size_t operator()(const ConnKey& key) const {
      uint64_t state = (static_cast<uint64_t>(key.local_port) << 48) ^
                       (static_cast<uint64_t>(key.remote_port) << 32) ^
                       key.remote_ip;
      return static_cast<size_t>(SplitMix64(state));
    }
  };

  struct InFlightSeg {
    uint32_t seq;
    uint32_t len;   // Payload bytes (0 for a bare FIN).
    bool fin;
    uint64_t sent_at_cycles;
  };

  struct Conn {
    int id;
    ConnKey key;
    MacAddr remote_mac;
    TcpState state = TcpState::kSynReceived;

    uint32_t iss = 0;      // Our initial send sequence.
    uint32_t snd_una = 0;  // Oldest unacknowledged.
    uint32_t snd_nxt = 0;  // Next sequence to send.
    uint32_t rcv_nxt = 0;  // Next expected from peer.
    uint32_t peer_wnd = 0;

    bool fin_received = false;
    bool fin_pending = false;  // Close requested; FIN not yet sent.
    bool fin_sent = false;

    Gaddr rings_base = 0;  // Owning allocation for both rings.
    std::optional<RingBuffer> send_ring;
    std::optional<RingBuffer> recv_ring;

    std::deque<InFlightSeg> inflight;
    int retries = 0;
    uint64_t persist_deadline = 0;  // 0 = no persist timer armed.

    uint32_t last_advertised_wnd = 0;

    std::unique_ptr<Semaphore> recv_sem;
    std::unique_ptr<Semaphore> send_sem;

    int listener_id = -1;  // Set until accepted.

    // Request id minted at Accept when the attributor is enabled; closed at
    // Close. 0 = untracked.
    uint64_t trace_request = 0;
  };

  struct Listener {
    int id;
    Port port;
    int backlog;
    std::deque<int> pending;  // Established, not yet accepted.
    std::unique_ptr<Semaphore> accept_sem;
  };

  // Bytes currently in flight (snd_nxt - snd_una, excluding FIN).
  uint32_t InFlightBytes(const Conn& conn) const;
  uint16_t AdvertisedWindow(Conn& conn) const;

  void TransmitSegment(Conn& conn, uint8_t flags, uint32_t seq,
                       const uint8_t* payload, uint32_t payload_len);
  void SendAck(Conn& conn);
  void TrySend(Conn& conn);
  void RetransmitFrom(Conn& conn);

  void HandleSyn(const ParsedFrame& frame);
  void HandleSegment(Conn& conn, const ParsedFrame& frame);
  void ProcessAck(Conn& conn, const TcpHeader& header);
  void AcceptPayload(Conn& conn, const ParsedFrame& frame);
  void AbortConn(Conn& conn);

  // Signals `sem` across the net -> libc boundary, coalescing into the
  // scope's batch when one is active (see BeginSignalScope).
  void SignalSem(Semaphore* sem);

  Conn* FindConn(int conn_id);
  const Conn* FindConn(int conn_id) const;

  // Allocates a connection (rings + semaphores) and registers its key.
  Result<Conn*> CreateConn(const ConnKey& key, const MacAddr& remote_mac);

  uint64_t RtoCycles(const Conn& conn) const;

  Machine& machine_;
  AddressSpace& space_;
  Allocator& allocator_;
  Scheduler& scheduler_;
  Nic& nic_;
  GateRouter& router_;
  TcpConfig config_;
  // Routes resolved once at construction; Send/Recv/OnFrame dispatch
  // through them instead of string-keyed lookups.
  RouteHandle net_to_libc_;
  RouteHandle libc_to_sched_;
  // Signal-coalescing state (see BeginSignalScope): the first wakeup in a
  // scope is parked in deferred_signal_; a second one opens signal_batch_
  // and both (plus any later ones) ride it.
  bool signal_scope_ = false;
  Semaphore* deferred_signal_ = nullptr;
  std::optional<GateBatch> signal_batch_;

  std::unordered_map<ConnKey, int, ConnKeyHash> conn_by_key_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::unordered_map<int, std::unique_ptr<Listener>> listeners_;
  int next_id_ = 1;
  Port next_ephemeral_ = 49152;
  // Registry-resolved counters; the mutable struct is the compatibility
  // view stats() refreshes.
  struct Counters {
    obs::Counter* segments_rx;
    obs::Counter* segments_tx;
    obs::Counter* bytes_rx;
    obs::Counter* bytes_tx;
    obs::Counter* retransmits;
    obs::Counter* out_of_order_drops;
    obs::Counter* conns_accepted;
    obs::Counter* resets;
  };
  Counters counters_{};
  mutable TcpStats stats_;
};

}  // namespace flexos

#endif  // FLEXOS_NET_TCP_H_
