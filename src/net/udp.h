// Minimal UDP sockets: bind a port, send datagrams, block on receive.
#ifndef FLEXOS_NET_UDP_H_
#define FLEXOS_NET_UDP_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "libc/semaphore.h"
#include "net/nic.h"
#include "net/wire.h"
#include "sched/scheduler.h"
#include "support/gate_router.h"
#include "vmem/address_space.h"

namespace flexos {

struct UdpDatagramInfo {
  Ipv4Addr src_ip = 0;
  Port src_port = 0;
  uint64_t bytes = 0;      // Bytes copied into the caller's buffer.
  uint64_t full_size = 0;  // Original datagram size (truncation check).
};

struct UdpStats {
  uint64_t datagrams_rx = 0;
  uint64_t datagrams_tx = 0;
  uint64_t rx_dropped = 0;
};

class UdpEngine {
 public:
  static constexpr size_t kMaxQueuedDatagrams = 256;

  UdpEngine(Machine& machine, AddressSpace& space, Scheduler& scheduler,
            Nic& nic, GateRouter& router)
      : machine_(machine), space_(space), scheduler_(scheduler), nic_(nic),
        router_(router),
        net_to_libc_(router.Resolve(kLibNet, kLibLibc)) {}

  // Binds a UDP socket to `port`; returns a socket id.
  Result<int> Open(Port port);

  Status Close(int socket_id);

  // Sends one datagram (payload read through the network compartment's
  // address space; cross-compartment callers pass shared-region addresses).
  Status SendTo(int socket_id, Ipv4Addr dst_ip, const MacAddr& dst_mac,
                Port dst_port, Gaddr addr, uint64_t len);

  // Blocks until a datagram arrives; copies it into [addr, addr+len).
  Result<UdpDatagramInfo> RecvFrom(int socket_id, Gaddr addr, uint64_t len);

  // Platform: handles one inbound UDP frame.
  bool OnFrame(const ParsedFrame& frame);

  const UdpStats& stats() const { return stats_; }

 private:
  struct Datagram {
    Ipv4Addr src_ip;
    Port src_port;
    std::vector<uint8_t> payload;
  };

  struct Socket {
    int id;
    Port port;
    std::deque<Datagram> queue;
    std::unique_ptr<Semaphore> rx_sem;
  };

  Machine& machine_;
  AddressSpace& space_;
  Scheduler& scheduler_;
  Nic& nic_;
  GateRouter& router_;
  RouteHandle net_to_libc_;  // Resolved once; semaphore waits/wakeups.
  std::unordered_map<int, std::unique_ptr<Socket>> sockets_;
  std::unordered_map<Port, int> by_port_;
  int next_id_ = 1;
  UdpStats stats_;
};

}  // namespace flexos

#endif  // FLEXOS_NET_UDP_H_
