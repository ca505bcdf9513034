#include "net/udp.h"

#include "support/strings.h"

namespace flexos {

Result<int> UdpEngine::Open(Port port) {
  if (by_port_.count(port) != 0) {
    return Status(ErrorCode::kAlreadyExists, "UDP port already bound");
  }
  auto socket = std::make_unique<Socket>();
  socket->id = next_id_++;
  socket->port = port;
  socket->rx_sem = std::make_unique<Semaphore>(
      scheduler_, StrFormat("udp.%u.rx", port), 0, &router_);
  const int id = socket->id;
  by_port_[port] = id;
  sockets_[id] = std::move(socket);
  return id;
}

Status UdpEngine::Close(int socket_id) {
  auto it = sockets_.find(socket_id);
  if (it == sockets_.end()) {
    return Status(ErrorCode::kNotFound, "no such UDP socket");
  }
  by_port_.erase(it->second->port);
  sockets_.erase(it);
  return Status::Ok();
}

Status UdpEngine::SendTo(int socket_id, Ipv4Addr dst_ip,
                         const MacAddr& dst_mac, Port dst_port, Gaddr addr,
                         uint64_t len) {
  auto it = sockets_.find(socket_id);
  if (it == sockets_.end()) {
    return Status(ErrorCode::kNotFound, "no such UDP socket");
  }
  if (len > 65507) {
    return Status(ErrorCode::kInvalidArgument, "datagram too large");
  }
  machine_.ChargeCompute(machine_.costs().syscall_ish);
  machine_.ChargeCompute(machine_.costs().pkt_tx_fixed);

  std::vector<uint8_t> data(len);
  router_.CallLeaf(net_to_libc_, [&] {
    if (!data.empty()) {
      space_.Read(addr, data.data(), data.size());
    }
  });
  std::vector<uint8_t> frame =
      BuildUdpFrame(nic_.mac(), dst_mac, nic_.ip(), dst_ip,
                    it->second->port, dst_port, data.data(), data.size());
  ++stats_.datagrams_tx;
  nic_.Transmit(std::move(frame));
  return Status::Ok();
}

Result<UdpDatagramInfo> UdpEngine::RecvFrom(int socket_id, Gaddr addr,
                                            uint64_t len) {
  auto it = sockets_.find(socket_id);
  if (it == sockets_.end()) {
    return Status(ErrorCode::kNotFound, "no such UDP socket");
  }
  Socket& socket = *it->second;
  machine_.ChargeCompute(machine_.costs().syscall_ish);
  while (socket.queue.empty()) {
    Semaphore* sem = socket.rx_sem.get();
    router_.Call(net_to_libc_, [sem] { sem->Wait(); });
  }
  Datagram datagram = std::move(socket.queue.front());
  socket.queue.pop_front();

  UdpDatagramInfo info;
  info.src_ip = datagram.src_ip;
  info.src_port = datagram.src_port;
  info.full_size = datagram.payload.size();
  info.bytes = std::min<uint64_t>(len, datagram.payload.size());
  router_.CallLeaf(net_to_libc_, [&] {
    if (info.bytes > 0) {
      space_.Write(addr, datagram.payload.data(), info.bytes);
    }
  });
  return info;
}

bool UdpEngine::OnFrame(const ParsedFrame& frame) {
  if (!frame.udp.has_value()) {
    return false;
  }
  machine_.ChargeCompute(machine_.costs().pkt_rx_fixed);
  machine_.ChargeMemOp(64);
  auto port_it = by_port_.find(frame.udp->dst_port);
  if (port_it == by_port_.end()) {
    return true;  // No socket: drop.
  }
  Socket& socket = *sockets_.at(port_it->second);
  if (socket.queue.size() >= kMaxQueuedDatagrams) {
    ++stats_.rx_dropped;
    return true;
  }
  ++stats_.datagrams_rx;
  // The parsed payload views the NIC's frame; a queued datagram outlives
  // it, so this is where the bytes are copied.
  socket.queue.push_back(
      Datagram{.src_ip = frame.ip.src,
               .src_port = frame.udp->src_port,
               .payload = std::vector<uint8_t>(frame.payload.begin(),
                                               frame.payload.end())});
  Semaphore* sem = socket.rx_sem.get();
  router_.Call(net_to_libc_, [sem] { sem->Signal(); });
  return true;
}

}  // namespace flexos
