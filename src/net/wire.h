// Wire formats: Ethernet II, IPv4, TCP, UDP headers with big-endian
// serialization, plus frame build/parse helpers. Frames are host-side byte
// vectors ("bits on the wire"); guest memory enters the picture when the
// NIC and socket layers copy payloads in and out. Parsing copies nothing:
// a ParsedFrame's payload is a view into the frame it was parsed from.
#ifndef FLEXOS_NET_WIRE_H_
#define FLEXOS_NET_WIRE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/status.h"

namespace flexos {

using Ipv4Addr = uint32_t;
using Port = uint16_t;

struct MacAddr {
  std::array<uint8_t, 6> bytes{};

  friend bool operator==(const MacAddr& a, const MacAddr& b) {
    return a.bytes == b.bytes;
  }
  std::string ToString() const;
};

// Builds 10.0.x.y style addresses without parsing.
constexpr Ipv4Addr MakeIpv4(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
  return static_cast<Ipv4Addr>(a) << 24 | static_cast<Ipv4Addr>(b) << 16 |
         static_cast<Ipv4Addr>(c) << 8 | static_cast<Ipv4Addr>(d);
}

std::string Ipv4ToString(Ipv4Addr addr);

inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr uint16_t kEtherTypeArp = 0x0806;

enum class IpProto : uint8_t { kIcmp = 1, kTcp = 6, kUdp = 17 };

struct EthHeader {
  static constexpr size_t kSize = 14;

  MacAddr dst;
  MacAddr src;
  uint16_t ethertype = kEtherTypeIpv4;

  void SerializeTo(uint8_t* out) const;
  static EthHeader Parse(const uint8_t* data);
};

struct Ipv4Header {
  static constexpr size_t kSize = 20;  // No options.

  uint16_t total_len = 0;
  uint16_t id = 0;
  uint8_t ttl = 64;
  IpProto proto = IpProto::kTcp;
  Ipv4Addr src = 0;
  Ipv4Addr dst = 0;

  // Serializes with a freshly computed header checksum.
  void SerializeTo(uint8_t* out) const;

  // Parses and verifies version/IHL/checksum.
  static Result<Ipv4Header> Parse(std::span<const uint8_t> data);
};

// Standard TCP flag bits.
inline constexpr uint8_t kTcpFin = 0x01;
inline constexpr uint8_t kTcpSyn = 0x02;
inline constexpr uint8_t kTcpRst = 0x04;
inline constexpr uint8_t kTcpPsh = 0x08;
inline constexpr uint8_t kTcpAck = 0x10;

struct TcpHeader {
  static constexpr size_t kSize = 20;  // No options.

  Port src_port = 0;
  Port dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t flags = 0;
  uint16_t window = 0;

  void SerializeTo(uint8_t* out) const;
  static TcpHeader Parse(const uint8_t* data);
};

struct UdpHeader {
  static constexpr size_t kSize = 8;

  Port src_port = 0;
  Port dst_port = 0;
  uint16_t length = 0;  // Header + payload.

  void SerializeTo(uint8_t* out) const;
  static UdpHeader Parse(const uint8_t* data);
};

// ARP over Ethernet/IPv4 (RFC 826).
inline constexpr uint16_t kArpOpRequest = 1;
inline constexpr uint16_t kArpOpReply = 2;

struct ArpPacket {
  static constexpr size_t kSize = 28;

  uint16_t op = kArpOpRequest;
  MacAddr sender_mac;
  Ipv4Addr sender_ip = 0;
  MacAddr target_mac;  // All-zero in requests.
  Ipv4Addr target_ip = 0;

  void SerializeTo(uint8_t* out) const;
  static Result<ArpPacket> Parse(std::span<const uint8_t> data);
};

// ICMP echo (RFC 792, types 8/0 only).
inline constexpr uint8_t kIcmpEchoRequest = 8;
inline constexpr uint8_t kIcmpEchoReply = 0;

struct IcmpEcho {
  static constexpr size_t kHeaderSize = 8;

  uint8_t type = kIcmpEchoRequest;
  uint16_t id = 0;
  uint16_t seq = 0;

  // Serializes header + payload with the ICMP checksum filled in.
  // `out` must hold kHeaderSize + payload_size bytes.
  void SerializeTo(uint8_t* out, const uint8_t* payload,
                   size_t payload_size) const;
  // Parses and verifies the checksum over the whole message in `data`.
  static Result<IcmpEcho> Parse(std::span<const uint8_t> data);
};

// Sequence-number arithmetic (RFC 793 comparisons, wraparound-safe).
constexpr bool SeqLt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) < 0;
}
constexpr bool SeqLe(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) <= 0;
}

// A fully parsed inbound frame.
struct ParsedFrame {
  EthHeader eth;
  Ipv4Header ip;  // Unset (zeroed) for ARP frames.
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<ArpPacket> arp;
  std::optional<IcmpEcho> icmp;
  // Transport payload: a view into the frame given to ParseFrame, valid
  // only while that frame lives. Copy it to keep it longer.
  std::span<const uint8_t> payload;
};

// Builds a complete Ethernet+IPv4+TCP frame.
std::vector<uint8_t> BuildTcpFrame(const MacAddr& src_mac,
                                   const MacAddr& dst_mac, Ipv4Addr src_ip,
                                   Ipv4Addr dst_ip, const TcpHeader& tcp,
                                   const uint8_t* payload,
                                   size_t payload_size);

// Builds a complete Ethernet+IPv4+UDP frame.
std::vector<uint8_t> BuildUdpFrame(const MacAddr& src_mac,
                                   const MacAddr& dst_mac, Ipv4Addr src_ip,
                                   Ipv4Addr dst_ip, Port src_port,
                                   Port dst_port, const uint8_t* payload,
                                   size_t payload_size);

// Builds a complete Ethernet+ARP frame.
std::vector<uint8_t> BuildArpFrame(const MacAddr& src_mac,
                                   const MacAddr& dst_mac,
                                   const ArpPacket& arp);

// Builds a complete Ethernet+IPv4+ICMP echo frame.
std::vector<uint8_t> BuildIcmpEchoFrame(const MacAddr& src_mac,
                                        const MacAddr& dst_mac,
                                        Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                        const IcmpEcho& icmp,
                                        const uint8_t* payload,
                                        size_t payload_size);

// Parses an Ethernet frame down to the transport payload. Takes a view, so
// callers holding a vector, an array or a slice of a larger buffer parse in
// place; the result's payload points into `frame`.
Result<ParsedFrame> ParseFrame(std::span<const uint8_t> frame);

}  // namespace flexos

#endif  // FLEXOS_NET_WIRE_H_
