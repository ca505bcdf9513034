#include "net/wire.h"

#include <cstring>

#include "net/checksum.h"
#include "support/strings.h"

namespace flexos {
namespace {

void PutU16(uint8_t* out, uint16_t value) {
  out[0] = static_cast<uint8_t>(value >> 8);
  out[1] = static_cast<uint8_t>(value);
}

void PutU32(uint8_t* out, uint32_t value) {
  out[0] = static_cast<uint8_t>(value >> 24);
  out[1] = static_cast<uint8_t>(value >> 16);
  out[2] = static_cast<uint8_t>(value >> 8);
  out[3] = static_cast<uint8_t>(value);
}

uint16_t GetU16(const uint8_t* data) {
  return static_cast<uint16_t>(data[0]) << 8 | data[1];
}

uint32_t GetU32(const uint8_t* data) {
  return static_cast<uint32_t>(data[0]) << 24 |
         static_cast<uint32_t>(data[1]) << 16 |
         static_cast<uint32_t>(data[2]) << 8 | data[3];
}

// TCP/UDP pseudo-header checksum seed.
uint32_t PseudoHeaderSum(Ipv4Addr src, Ipv4Addr dst, IpProto proto,
                         uint16_t transport_len) {
  uint32_t sum = 0;
  sum += src >> 16;
  sum += src & 0xffff;
  sum += dst >> 16;
  sum += dst & 0xffff;
  sum += static_cast<uint32_t>(proto);
  sum += transport_len;
  return sum;
}

}  // namespace

std::string MacAddr::ToString() const {
  return StrFormat("%02x:%02x:%02x:%02x:%02x:%02x", bytes[0], bytes[1],
                   bytes[2], bytes[3], bytes[4], bytes[5]);
}

std::string Ipv4ToString(Ipv4Addr addr) {
  return StrFormat("%u.%u.%u.%u", addr >> 24 & 0xff, addr >> 16 & 0xff,
                   addr >> 8 & 0xff, addr & 0xff);
}

void EthHeader::SerializeTo(uint8_t* out) const {
  std::memcpy(out, dst.bytes.data(), 6);
  std::memcpy(out + 6, src.bytes.data(), 6);
  PutU16(out + 12, ethertype);
}

EthHeader EthHeader::Parse(const uint8_t* data) {
  EthHeader header;
  std::memcpy(header.dst.bytes.data(), data, 6);
  std::memcpy(header.src.bytes.data(), data + 6, 6);
  header.ethertype = GetU16(data + 12);
  return header;
}

void Ipv4Header::SerializeTo(uint8_t* out) const {
  out[0] = 0x45;  // Version 4, IHL 5.
  out[1] = 0;     // DSCP/ECN.
  PutU16(out + 2, total_len);
  PutU16(out + 4, id);
  PutU16(out + 6, 0x4000);  // Don't-fragment, offset 0.
  out[8] = ttl;
  out[9] = static_cast<uint8_t>(proto);
  PutU16(out + 10, 0);  // Checksum placeholder.
  PutU32(out + 12, src);
  PutU32(out + 16, dst);
  PutU16(out + 10, Checksum(out, kSize));
}

Result<Ipv4Header> Ipv4Header::Parse(std::span<const uint8_t> data) {
  if (data.size() < kSize) {
    return Status(ErrorCode::kInvalidArgument, "short IPv4 header");
  }
  if (data[0] != 0x45) {
    return Status(ErrorCode::kInvalidArgument, "unsupported IPv4 version/IHL");
  }
  if (Checksum(data.data(), kSize) != 0) {
    return Status(ErrorCode::kInvalidArgument, "bad IPv4 header checksum");
  }
  Ipv4Header header;
  header.total_len = GetU16(&data[2]);
  header.id = GetU16(&data[4]);
  header.ttl = data[8];
  header.proto = static_cast<IpProto>(data[9]);
  header.src = GetU32(&data[12]);
  header.dst = GetU32(&data[16]);
  if (header.total_len < kSize || header.total_len > data.size()) {
    return Status(ErrorCode::kInvalidArgument, "bad IPv4 total length");
  }
  return header;
}

void TcpHeader::SerializeTo(uint8_t* out) const {
  PutU16(out, src_port);
  PutU16(out + 2, dst_port);
  PutU32(out + 4, seq);
  PutU32(out + 8, ack);
  out[12] = 0x50;  // Data offset 5 words.
  out[13] = flags;
  PutU16(out + 14, window);
  PutU16(out + 16, 0);  // Checksum (filled by the frame builder).
  PutU16(out + 18, 0);  // Urgent pointer.
}

TcpHeader TcpHeader::Parse(const uint8_t* data) {
  TcpHeader header;
  header.src_port = GetU16(data);
  header.dst_port = GetU16(data + 2);
  header.seq = GetU32(data + 4);
  header.ack = GetU32(data + 8);
  header.flags = data[13];
  header.window = GetU16(data + 14);
  return header;
}

void UdpHeader::SerializeTo(uint8_t* out) const {
  PutU16(out, src_port);
  PutU16(out + 2, dst_port);
  PutU16(out + 4, length);
  PutU16(out + 6, 0);  // Checksum optional over IPv4; we emit 0.
}

UdpHeader UdpHeader::Parse(const uint8_t* data) {
  UdpHeader header;
  header.src_port = GetU16(data);
  header.dst_port = GetU16(data + 2);
  header.length = GetU16(data + 4);
  return header;
}

void ArpPacket::SerializeTo(uint8_t* out) const {
  PutU16(out, 1);       // HTYPE: Ethernet.
  PutU16(out + 2, kEtherTypeIpv4);
  out[4] = 6;           // HLEN.
  out[5] = 4;           // PLEN.
  PutU16(out + 6, op);
  std::memcpy(out + 8, sender_mac.bytes.data(), 6);
  PutU32(out + 14, sender_ip);
  std::memcpy(out + 18, target_mac.bytes.data(), 6);
  PutU32(out + 24, target_ip);
}

Result<ArpPacket> ArpPacket::Parse(std::span<const uint8_t> data) {
  if (data.size() < kSize) {
    return Status(ErrorCode::kInvalidArgument, "short ARP packet");
  }
  if (GetU16(&data[0]) != 1 || GetU16(&data[2]) != kEtherTypeIpv4 ||
      data[4] != 6 || data[5] != 4) {
    return Status(ErrorCode::kUnimplemented, "non-Ethernet/IPv4 ARP");
  }
  ArpPacket arp;
  arp.op = GetU16(&data[6]);
  std::memcpy(arp.sender_mac.bytes.data(), &data[8], 6);
  arp.sender_ip = GetU32(&data[14]);
  std::memcpy(arp.target_mac.bytes.data(), &data[18], 6);
  arp.target_ip = GetU32(&data[24]);
  return arp;
}

void IcmpEcho::SerializeTo(uint8_t* out, const uint8_t* payload,
                           size_t payload_size) const {
  out[0] = type;
  out[1] = 0;  // Code.
  PutU16(out + 2, 0);
  PutU16(out + 4, id);
  PutU16(out + 6, seq);
  if (payload_size > 0) {
    std::memcpy(out + kHeaderSize, payload, payload_size);
  }
  PutU16(out + 2, Checksum(out, kHeaderSize + payload_size));
}

Result<IcmpEcho> IcmpEcho::Parse(std::span<const uint8_t> data) {
  if (data.size() < kHeaderSize) {
    return Status(ErrorCode::kInvalidArgument, "short ICMP message");
  }
  if (Checksum(data.data(), data.size()) != 0) {
    return Status(ErrorCode::kInvalidArgument, "bad ICMP checksum");
  }
  IcmpEcho icmp;
  icmp.type = data[0];
  if (icmp.type != kIcmpEchoRequest && icmp.type != kIcmpEchoReply) {
    return Status(ErrorCode::kUnimplemented, "unsupported ICMP type");
  }
  icmp.id = GetU16(&data[4]);
  icmp.seq = GetU16(&data[6]);
  return icmp;
}

std::vector<uint8_t> BuildArpFrame(const MacAddr& src_mac,
                                   const MacAddr& dst_mac,
                                   const ArpPacket& arp) {
  std::vector<uint8_t> frame(EthHeader::kSize + ArpPacket::kSize);
  EthHeader eth{.dst = dst_mac, .src = src_mac, .ethertype = kEtherTypeArp};
  eth.SerializeTo(frame.data());
  arp.SerializeTo(frame.data() + EthHeader::kSize);
  return frame;
}

std::vector<uint8_t> BuildIcmpEchoFrame(const MacAddr& src_mac,
                                        const MacAddr& dst_mac,
                                        Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                        const IcmpEcho& icmp,
                                        const uint8_t* payload,
                                        size_t payload_size) {
  const size_t transport_len = IcmpEcho::kHeaderSize + payload_size;
  std::vector<uint8_t> frame(EthHeader::kSize + Ipv4Header::kSize +
                             transport_len);
  EthHeader eth{.dst = dst_mac, .src = src_mac};
  eth.SerializeTo(frame.data());
  Ipv4Header ip;
  ip.total_len = static_cast<uint16_t>(Ipv4Header::kSize + transport_len);
  ip.proto = IpProto::kIcmp;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.SerializeTo(frame.data() + EthHeader::kSize);
  icmp.SerializeTo(frame.data() + EthHeader::kSize + Ipv4Header::kSize,
                   payload, payload_size);
  return frame;
}

std::vector<uint8_t> BuildTcpFrame(const MacAddr& src_mac,
                                   const MacAddr& dst_mac, Ipv4Addr src_ip,
                                   Ipv4Addr dst_ip, const TcpHeader& tcp,
                                   const uint8_t* payload,
                                   size_t payload_size) {
  const size_t transport_len = TcpHeader::kSize + payload_size;
  std::vector<uint8_t> frame(EthHeader::kSize + Ipv4Header::kSize +
                             transport_len);
  EthHeader eth{.dst = dst_mac, .src = src_mac};
  eth.SerializeTo(frame.data());

  Ipv4Header ip;
  ip.total_len = static_cast<uint16_t>(Ipv4Header::kSize + transport_len);
  ip.proto = IpProto::kTcp;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.SerializeTo(frame.data() + EthHeader::kSize);

  uint8_t* tcp_out = frame.data() + EthHeader::kSize + Ipv4Header::kSize;
  tcp.SerializeTo(tcp_out);
  if (payload_size > 0) {
    std::memcpy(tcp_out + TcpHeader::kSize, payload, payload_size);
  }
  // Transport checksum over pseudo-header + segment.
  uint32_t sum = PseudoHeaderSum(src_ip, dst_ip, IpProto::kTcp,
                                 static_cast<uint16_t>(transport_len));
  sum = ChecksumPartial(tcp_out, transport_len, sum);
  PutU16(tcp_out + 16, ChecksumFinish(sum));
  return frame;
}

std::vector<uint8_t> BuildUdpFrame(const MacAddr& src_mac,
                                   const MacAddr& dst_mac, Ipv4Addr src_ip,
                                   Ipv4Addr dst_ip, Port src_port,
                                   Port dst_port, const uint8_t* payload,
                                   size_t payload_size) {
  const size_t transport_len = UdpHeader::kSize + payload_size;
  std::vector<uint8_t> frame(EthHeader::kSize + Ipv4Header::kSize +
                             transport_len);
  EthHeader eth{.dst = dst_mac, .src = src_mac};
  eth.SerializeTo(frame.data());

  Ipv4Header ip;
  ip.total_len = static_cast<uint16_t>(Ipv4Header::kSize + transport_len);
  ip.proto = IpProto::kUdp;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.SerializeTo(frame.data() + EthHeader::kSize);

  UdpHeader udp{.src_port = src_port,
                .dst_port = dst_port,
                .length = static_cast<uint16_t>(transport_len)};
  uint8_t* udp_out = frame.data() + EthHeader::kSize + Ipv4Header::kSize;
  udp.SerializeTo(udp_out);
  if (payload_size > 0) {
    std::memcpy(udp_out + UdpHeader::kSize, payload, payload_size);
  }
  return frame;
}

Result<ParsedFrame> ParseFrame(std::span<const uint8_t> frame) {
  if (frame.size() < EthHeader::kSize + Ipv4Header::kSize) {
    return Status(ErrorCode::kInvalidArgument, "frame too short");
  }
  ParsedFrame parsed;
  parsed.eth = EthHeader::Parse(frame.data());
  const std::span<const uint8_t> l3 = frame.subspan(EthHeader::kSize);
  if (parsed.eth.ethertype == kEtherTypeArp) {
    FLEXOS_ASSIGN_OR_RETURN(parsed.arp, ArpPacket::Parse(l3));
    return parsed;
  }
  if (parsed.eth.ethertype != kEtherTypeIpv4) {
    return Status(ErrorCode::kUnimplemented, "non-IPv4 ethertype");
  }
  FLEXOS_ASSIGN_OR_RETURN(parsed.ip, Ipv4Header::Parse(l3));
  const std::span<const uint8_t> transport =
      l3.subspan(Ipv4Header::kSize, parsed.ip.total_len - Ipv4Header::kSize);

  if (parsed.ip.proto == IpProto::kTcp) {
    if (transport.size() < TcpHeader::kSize) {
      return Status(ErrorCode::kInvalidArgument, "short TCP segment");
    }
    // Verify the transport checksum end to end.
    uint32_t sum =
        PseudoHeaderSum(parsed.ip.src, parsed.ip.dst, IpProto::kTcp,
                        static_cast<uint16_t>(transport.size()));
    if (ChecksumFinish(ChecksumPartial(transport.data(), transport.size(),
                                       sum)) != 0) {
      return Status(ErrorCode::kInvalidArgument, "bad TCP checksum");
    }
    parsed.tcp = TcpHeader::Parse(transport.data());
    parsed.payload = transport.subspan(TcpHeader::kSize);
  } else if (parsed.ip.proto == IpProto::kUdp) {
    if (transport.size() < UdpHeader::kSize) {
      return Status(ErrorCode::kInvalidArgument, "short UDP datagram");
    }
    parsed.udp = UdpHeader::Parse(transport.data());
    if (parsed.udp->length < UdpHeader::kSize ||
        parsed.udp->length > transport.size()) {
      return Status(ErrorCode::kInvalidArgument, "bad UDP length");
    }
    parsed.payload = transport.subspan(
        UdpHeader::kSize, parsed.udp->length - UdpHeader::kSize);
  } else if (parsed.ip.proto == IpProto::kIcmp) {
    FLEXOS_ASSIGN_OR_RETURN(parsed.icmp, IcmpEcho::Parse(transport));
    parsed.payload = transport.subspan(IcmpEcho::kHeaderSize);
  } else {
    return Status(ErrorCode::kUnimplemented, "unsupported IP protocol");
  }
  return parsed;
}

}  // namespace flexos
