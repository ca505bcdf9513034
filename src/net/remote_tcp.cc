#include "net/remote_tcp.h"

#include <algorithm>

#include "support/log.h"

namespace flexos {
namespace {

// Reads the ethertype, IP protocol and TCP destination port at their fixed
// offsets. A frame this is true for would be dropped after a full parse
// anyway: malformed, or well-formed and addressed to another connection.
bool IsTcpForOtherPort(std::span<const uint8_t> frame, Port local_port) {
  constexpr size_t kProtoAt = EthHeader::kSize + 9;
  constexpr size_t kDstPortAt = EthHeader::kSize + Ipv4Header::kSize + 2;
  if (frame.size() < kDstPortAt + 2) {
    return false;
  }
  const uint16_t ethertype =
      static_cast<uint16_t>(frame[12] << 8 | frame[13]);
  const Port dst_port =
      static_cast<Port>(frame[kDstPortAt] << 8 | frame[kDstPortAt + 1]);
  return ethertype == kEtherTypeIpv4 &&
         frame[kProtoAt] == static_cast<uint8_t>(IpProto::kTcp) &&
         dst_port != local_port;
}

}  // namespace

RemoteTcpPeer::RemoteTcpPeer(Machine& machine, Link& link,
                             RemoteTcpConfig config, RemoteApp& app,
                             bool attach)
    : machine_(machine), link_(link), config_(config), app_(app) {
  remote_port_ = config_.server_port;
  if (attach) {
    link_.AttachB(this);
  }
}

uint64_t RemoteTcpPeer::RtoCycles() const {
  const int backoff = std::min(retries_, 6);
  return machine_.clock().NanosToCycles(config_.rto_ns) << backoff;
}

void RemoteTcpPeer::SendSegment(uint8_t flags, uint32_t seq,
                                const uint8_t* payload, uint32_t len) {
  TcpHeader header;
  header.src_port = config_.local_port;
  header.dst_port = remote_port_;
  header.seq = seq;
  header.ack = rcv_nxt_;
  header.flags = flags;
  header.window = config_.advertised_window;
  std::vector<uint8_t> frame =
      BuildTcpFrame(config_.mac, config_.server_mac, config_.ip,
                    config_.server_ip, header, payload, len);
  ++stats_.segments_tx;
  stats_.bytes_sent += len;
  link_.SendFromB(std::move(frame));
}

void RemoteTcpPeer::SendAck() { SendSegment(kTcpAck, snd_nxt_, nullptr, 0); }

void RemoteTcpPeer::Listen() {
  FLEXOS_CHECK(state_ == RemoteTcpState::kClosed, "Listen after use");
  state_ = RemoteTcpState::kListen;
}

void RemoteTcpPeer::Connect() {
  FLEXOS_CHECK(state_ == RemoteTcpState::kClosed, "Connect twice");
  state_ = RemoteTcpState::kSynSent;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  inflight_.push_back(InFlightSeg{.seq = iss_,
                                  .len = 0,
                                  .syn = true,
                                  .fin = false,
                                  .sent_at_cycles =
                                      machine_.clock().cycles()});
  SendSegment(kTcpSyn, iss_, nullptr, 0);
}

void RemoteTcpPeer::Pump() {
  if (state_ != RemoteTcpState::kEstablished &&
      state_ != RemoteTcpState::kCloseWait) {
    return;
  }
  for (;;) {
    // Refill from the app while we have window headroom.
    const uint32_t in_flight =
        snd_nxt_ - snd_una_ - (fin_sent_ ? 1 : 0);
    const uint32_t window =
        std::min<uint32_t>(peer_wnd_, config_.max_in_flight);
    const uint32_t headroom = window > in_flight ? window - in_flight : 0;
    if (headroom == 0) {
      break;
    }
    uint64_t unsent = Buffered() - unsent_offset_;
    if (unsent == 0 && !app_.Finished()) {
      // The app writes straight into the buffer's tail.
      const size_t tail = send_buf_.size();
      send_buf_.resize(tail + std::min<size_t>(config_.mss, headroom));
      const size_t produced =
          app_.ProduceData(send_buf_.data() + tail, send_buf_.size() - tail);
      send_buf_.resize(tail + produced);
      unsent = produced;
    }
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>({unsent, static_cast<uint64_t>(headroom),
                            static_cast<uint64_t>(config_.mss)}));
    if (len == 0) {
      break;
    }
    const uint32_t seq = snd_nxt_;
    inflight_.push_back(InFlightSeg{.seq = seq,
                                    .len = len,
                                    .syn = false,
                                    .fin = false,
                                    .sent_at_cycles =
                                        machine_.clock().cycles()});
    snd_nxt_ += len;
    SendSegment(kTcpAck | kTcpPsh, seq, BufferAt(unsent_offset_), len);
    unsent_offset_ += len;
  }
  // Active close once the app is done and every sent byte is acknowledged
  // (keeping the FIN out of the go-back-N window simplifies resends).
  if (app_.Finished() && Buffered() == 0 && !fin_sent_) {
    fin_sent_ = true;
    const uint32_t seq = snd_nxt_;
    snd_nxt_ += 1;
    inflight_.push_back(InFlightSeg{.seq = seq,
                                    .len = 0,
                                    .syn = false,
                                    .fin = true,
                                    .sent_at_cycles =
                                        machine_.clock().cycles()});
    SendSegment(kTcpFin | kTcpAck, seq, nullptr, 0);
    state_ = state_ == RemoteTcpState::kCloseWait ? RemoteTcpState::kLastAck
                                                  : RemoteTcpState::kFinWait1;
  }
}

void RemoteTcpPeer::ProcessAck(const TcpHeader& header) {
  if ((header.flags & kTcpAck) == 0) {
    return;
  }
  peer_wnd_ = header.window;
  const uint32_t ack = header.ack;
  if (!SeqLt(snd_una_, ack) || !SeqLe(ack, snd_nxt_)) {
    return;
  }
  uint32_t acked = ack - snd_una_;
  snd_una_ = ack;
  retries_ = 0;

  // Strip phantom SYN/FIN slots from the byte count. A SYN can only lead
  // the in-flight queue and a FIN only trail it.
  uint32_t data_acked = acked;
  if (!inflight_.empty()) {
    const InFlightSeg& front = inflight_.front();
    const InFlightSeg& back = inflight_.back();
    if (front.syn && SeqLt(front.seq, snd_una_) && data_acked > 0) {
      --data_acked;
    }
    if (back.fin && SeqLt(back.seq, snd_una_) && data_acked > 0) {
      --data_acked;
    }
  }
  const uint32_t from_buffer =
      static_cast<uint32_t>(std::min<uint64_t>(data_acked, Buffered()));
  send_head_ += from_buffer;
  unsent_offset_ -= from_buffer;
  stats_.bytes_acked += from_buffer;
  if (send_head_ * 2 >= send_buf_.size()) {
    // At least half the buffer is dead: drop it (a memmove, or nothing
    // when no live bytes remain).
    send_buf_.erase(send_buf_.begin(),
                    send_buf_.begin() + static_cast<ptrdiff_t>(send_head_));
    send_head_ = 0;
  }

  while (!inflight_.empty()) {
    const InFlightSeg& seg = inflight_.front();
    const uint32_t seg_end =
        seg.seq + seg.len + ((seg.syn || seg.fin) ? 1 : 0);
    if (SeqLe(seg_end, snd_una_)) {
      inflight_.pop_front();
    } else {
      break;
    }
  }

  if (fin_sent_ && snd_una_ == snd_nxt_) {
    if (state_ == RemoteTcpState::kFinWait1) {
      state_ = fin_received_ ? RemoteTcpState::kDone
                             : RemoteTcpState::kFinWait2;
    } else if (state_ == RemoteTcpState::kLastAck) {
      state_ = RemoteTcpState::kDone;
      app_.OnClosed();
    }
  }
}

void RemoteTcpPeer::HandleFrame(const ParsedFrame& frame) {
  const TcpHeader& tcp = *frame.tcp;
  ++stats_.segments_rx;

  if ((tcp.flags & kTcpRst) != 0) {
    state_ = RemoteTcpState::kDone;
    app_.OnClosed();
    return;
  }

  if (state_ == RemoteTcpState::kSynSent) {
    if ((tcp.flags & (kTcpSyn | kTcpAck)) == (kTcpSyn | kTcpAck) &&
        tcp.ack == snd_nxt_) {
      rcv_nxt_ = tcp.seq + 1;
      snd_una_ = tcp.ack;
      peer_wnd_ = tcp.window;
      inflight_.clear();
      state_ = RemoteTcpState::kEstablished;
      SendAck();
      app_.OnConnected();
      Pump();
    }
    return;
  }

  if (state_ == RemoteTcpState::kListen) {
    if ((tcp.flags & kTcpSyn) != 0 && (tcp.flags & kTcpAck) == 0) {
      remote_port_ = tcp.src_port;
      rcv_nxt_ = tcp.seq + 1;
      snd_una_ = iss_;
      snd_nxt_ = iss_ + 1;
      peer_wnd_ = tcp.window;
      state_ = RemoteTcpState::kSynReceived;
      inflight_.push_back(InFlightSeg{.seq = iss_,
                                      .len = 0,
                                      .syn = true,
                                      .fin = false,
                                      .sent_at_cycles =
                                          machine_.clock().cycles()});
      SendSegment(kTcpSyn | kTcpAck, iss_, nullptr, 0);
    }
    return;
  }

  if (state_ == RemoteTcpState::kSynReceived) {
    if ((tcp.flags & kTcpSyn) != 0) {
      // Lost SYN-ACK: the guest retransmitted its SYN.
      SendSegment(kTcpSyn | kTcpAck, iss_, nullptr, 0);
      return;
    }
    if ((tcp.flags & kTcpAck) != 0 && tcp.ack == snd_nxt_) {
      snd_una_ = tcp.ack;
      peer_wnd_ = tcp.window;
      inflight_.clear();
      retries_ = 0;
      state_ = RemoteTcpState::kEstablished;
      app_.OnConnected();
      // Fall through: the handshake ACK may carry data.
    } else {
      return;
    }
  }

  ProcessAck(tcp);

  const uint32_t len = static_cast<uint32_t>(frame.payload.size());
  bool need_ack = false;
  if (len > 0) {
    if (tcp.seq == rcv_nxt_) {
      rcv_nxt_ += len;
      stats_.bytes_received += len;
      app_.OnReceive(frame.payload.data(), len);
    }
    need_ack = true;  // ACK in-order data and dup-ACK everything else.
  }
  if ((tcp.flags & kTcpFin) != 0) {
    const uint32_t fin_seq = tcp.seq + len;
    if (fin_seq == rcv_nxt_ && !fin_received_) {
      rcv_nxt_ += 1;
      fin_received_ = true;
      switch (state_) {
        case RemoteTcpState::kEstablished:
          state_ = RemoteTcpState::kCloseWait;
          break;
        case RemoteTcpState::kFinWait1:
          break;  // Resolved when our FIN is acked.
        case RemoteTcpState::kFinWait2:
          state_ = RemoteTcpState::kDone;
          app_.OnClosed();
          break;
        default:
          break;
      }
    }
    need_ack = true;
  }
  if (need_ack) {
    SendAck();
  }
  Pump();
}

void RemoteTcpPeer::DeliverFrame(std::vector<uint8_t> frame) {
  if (IsTcpForOtherPort(frame, config_.local_port)) {
    return;
  }
  // `parsed` views `frame`, which lives until this call returns.
  Result<ParsedFrame> parsed = ParseFrame(frame);
  if (!parsed.ok()) {
    FLEXOS_DEBUG("remote peer: dropping frame: %s",
                 parsed.status().ToString().c_str());
    return;
  }
  // Answer ARP who-has queries for our address (any remote machine does).
  if (parsed->arp.has_value()) {
    const ArpPacket& arp = *parsed->arp;
    if (arp.op == kArpOpRequest && arp.target_ip == config_.ip) {
      ArpPacket reply;
      reply.op = kArpOpReply;
      reply.sender_mac = config_.mac;
      reply.sender_ip = config_.ip;
      reply.target_mac = arp.sender_mac;
      reply.target_ip = arp.sender_ip;
      link_.SendFromB(BuildArpFrame(config_.mac, arp.sender_mac, reply));
    }
    return;
  }
  if (!parsed->tcp.has_value() ||
      parsed->tcp->dst_port != config_.local_port) {
    return;
  }
  HandleFrame(parsed.value());
}

bool RemoteTcpPeer::OnTick() {
  if (inflight_.empty() || state_ == RemoteTcpState::kDone) {
    return false;
  }
  const uint64_t now = machine_.clock().cycles();
  const InFlightSeg& first = inflight_.front();
  if (now < first.sent_at_cycles + RtoCycles()) {
    return false;
  }
  ++retries_;
  ++stats_.retransmits;
  if (retries_ > config_.max_retries) {
    state_ = RemoteTcpState::kDone;
    app_.OnClosed();
    return true;
  }
  InFlightSeg& seg = inflight_.front();
  seg.sent_at_cycles = now;
  if (seg.syn) {
    SendSegment(state_ == RemoteTcpState::kSynReceived ? kTcpSyn | kTcpAck
                                                       : kTcpSyn,
                seg.seq, nullptr, 0);
  } else if (seg.fin) {
    SendSegment(kTcpFin | kTcpAck, seg.seq, nullptr, 0);
  } else {
    SendSegment(kTcpAck | kTcpPsh, seg.seq, BufferAt(seg.seq - snd_una_),
                seg.len);
  }
  return true;
}

std::optional<uint64_t> RemoteTcpPeer::NextEventCycles() const {
  if (inflight_.empty() || state_ == RemoteTcpState::kDone) {
    return std::nullopt;
  }
  return inflight_.front().sent_at_cycles + RtoCycles();
}

}  // namespace flexos
