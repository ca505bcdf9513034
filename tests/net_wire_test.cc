#include <gtest/gtest.h>

#include "net/checksum.h"
#include "net/link.h"
#include "net/nic.h"
#include "net/wire.h"

namespace flexos {
namespace {

TEST(Checksum, KnownVector) {
  // Classic RFC 1071 worked example.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(Checksum(data, sizeof(data)), 0x220d);
}

TEST(Checksum, OddLengthHandled) {
  const uint8_t data[] = {0xab};
  EXPECT_EQ(Checksum(data, 1), static_cast<uint16_t>(~0xab00 & 0xffff));
}

TEST(Checksum, VerifiesToZero) {
  uint8_t data[20] = {0x45, 0x00, 0x00, 0x54, 0x12, 0x34, 0x40, 0x00,
                      0x40, 0x06, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01,
                      0x0a, 0x00, 0x00, 0x02};
  const uint16_t sum = Checksum(data, sizeof(data));
  data[10] = static_cast<uint8_t>(sum >> 8);
  data[11] = static_cast<uint8_t>(sum);
  EXPECT_EQ(Checksum(data, sizeof(data)), 0);
}

TEST(Wire, EthRoundTrip) {
  EthHeader eth{.dst = {{1, 2, 3, 4, 5, 6}},
                .src = {{7, 8, 9, 10, 11, 12}},
                .ethertype = kEtherTypeIpv4};
  uint8_t buffer[EthHeader::kSize];
  eth.SerializeTo(buffer);
  const EthHeader parsed = EthHeader::Parse(buffer);
  EXPECT_EQ(parsed.dst, eth.dst);
  EXPECT_EQ(parsed.src, eth.src);
  EXPECT_EQ(parsed.ethertype, kEtherTypeIpv4);
}

TEST(Wire, Ipv4RoundTripAndChecksum) {
  Ipv4Header ip;
  ip.total_len = 40;
  ip.id = 99;
  ip.proto = IpProto::kTcp;
  ip.src = MakeIpv4(10, 0, 0, 1);
  ip.dst = MakeIpv4(10, 0, 0, 2);
  uint8_t buffer[64] = {};
  ip.SerializeTo(buffer);
  Result<Ipv4Header> parsed = Ipv4Header::Parse(buffer);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->src, ip.src);
  EXPECT_EQ(parsed->dst, ip.dst);
  EXPECT_EQ(parsed->total_len, 40);
  // Corrupt a byte: checksum must fail.
  buffer[13] ^= 0xff;
  EXPECT_FALSE(Ipv4Header::Parse(buffer).ok());
}

TEST(Wire, TcpFrameRoundTrip) {
  TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 5001;
  tcp.seq = 0x01020304;
  tcp.ack = 0x0a0b0c0d;
  tcp.flags = kTcpAck | kTcpPsh;
  tcp.window = 0x1234;
  const std::string payload = "hello over tcp";
  const auto frame = BuildTcpFrame(
      MacAddr{{1, 1, 1, 1, 1, 1}}, MacAddr{{2, 2, 2, 2, 2, 2}},
      MakeIpv4(10, 0, 0, 2), MakeIpv4(10, 0, 0, 1), tcp,
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  Result<ParsedFrame> parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->tcp.has_value());
  EXPECT_EQ(parsed->tcp->seq, tcp.seq);
  EXPECT_EQ(parsed->tcp->ack, tcp.ack);
  EXPECT_EQ(parsed->tcp->flags, tcp.flags);
  EXPECT_EQ(parsed->tcp->window, tcp.window);
  EXPECT_EQ(std::string(parsed->payload.begin(), parsed->payload.end()),
            payload);
}

TEST(Wire, CorruptTcpChecksumRejected) {
  TcpHeader tcp;
  tcp.src_port = 1;
  tcp.dst_port = 2;
  const uint8_t payload[] = {1, 2, 3};
  auto frame = BuildTcpFrame(MacAddr{}, MacAddr{}, 1, 2, tcp, payload, 3);
  frame.back() ^= 0x55;  // Flip payload bits.
  EXPECT_FALSE(ParseFrame(frame).ok());
}

TEST(Wire, UdpFrameRoundTrip) {
  const uint8_t payload[] = {9, 8, 7, 6};
  const auto frame =
      BuildUdpFrame(MacAddr{{1, 0, 0, 0, 0, 1}}, MacAddr{{1, 0, 0, 0, 0, 2}},
                    MakeIpv4(192, 168, 0, 1), MakeIpv4(192, 168, 0, 2), 53,
                    5353, payload, sizeof(payload));
  Result<ParsedFrame> parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->udp.has_value());
  EXPECT_EQ(parsed->udp->src_port, 53);
  EXPECT_EQ(parsed->udp->dst_port, 5353);
  EXPECT_EQ(parsed->payload.size(), 4u);
}

TEST(Wire, FrameParsesInPlaceFromLargerBuffer) {
  const uint8_t payload[] = {4, 5, 6};
  const auto frame = BuildUdpFrame(MacAddr{}, MacAddr{}, 1, 2, 7, 8, payload,
                                   sizeof(payload));
  // The frame sits between junk bytes; the view must not read past it.
  std::vector<uint8_t> buffer(16, 0xee);
  buffer.insert(buffer.begin() + 8, frame.begin(), frame.end());
  const std::span<const uint8_t> view =
      std::span<const uint8_t>(buffer).subspan(8, frame.size());
  Result<ParsedFrame> parsed = ParseFrame(view);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(std::vector<uint8_t>(parsed->payload.begin(),
                                 parsed->payload.end()),
            std::vector<uint8_t>({4, 5, 6}));
  // Cut the view short of the IP total length: rejected, not over-read.
  EXPECT_FALSE(ParseFrame(view.first(view.size() - 1)).ok());
}

// True when `view` lies entirely inside `frame`.
bool ViewsInto(std::span<const uint8_t> view,
               const std::vector<uint8_t>& frame) {
  return view.data() >= frame.data() &&
         view.data() + view.size() <= frame.data() + frame.size();
}

TEST(Wire, PayloadViewsTheParsedFrame) {
  const std::string text = "zero-copy payload";
  const auto* bytes = reinterpret_cast<const uint8_t*>(text.data());
  constexpr size_t kL4At = EthHeader::kSize + Ipv4Header::kSize;

  const auto tcp_frame = BuildTcpFrame(MacAddr{}, MacAddr{}, 1, 2,
                                       TcpHeader{}, bytes, text.size());
  Result<ParsedFrame> tcp = ParseFrame(tcp_frame);
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
  EXPECT_TRUE(ViewsInto(tcp->payload, tcp_frame));
  EXPECT_EQ(tcp->payload.data(), tcp_frame.data() + kL4At + TcpHeader::kSize);
  EXPECT_EQ(tcp->payload.size(), text.size());

  const auto udp_frame =
      BuildUdpFrame(MacAddr{}, MacAddr{}, 1, 2, 7, 8, bytes, text.size());
  Result<ParsedFrame> udp = ParseFrame(udp_frame);
  ASSERT_TRUE(udp.ok()) << udp.status().ToString();
  EXPECT_TRUE(ViewsInto(udp->payload, udp_frame));
  EXPECT_EQ(udp->payload.data(), udp_frame.data() + kL4At + UdpHeader::kSize);
  EXPECT_EQ(udp->payload.size(), text.size());

  const auto icmp_frame = BuildIcmpEchoFrame(MacAddr{}, MacAddr{}, 1, 2,
                                             IcmpEcho{}, bytes, text.size());
  Result<ParsedFrame> icmp = ParseFrame(icmp_frame);
  ASSERT_TRUE(icmp.ok()) << icmp.status().ToString();
  EXPECT_TRUE(ViewsInto(icmp->payload, icmp_frame));
  EXPECT_EQ(icmp->payload.data(),
            icmp_frame.data() + kL4At + IcmpEcho::kHeaderSize);
  EXPECT_EQ(icmp->payload.size(), text.size());
}

TEST(Wire, UdpPayloadStopsAtUdpLength) {
  // A UDP length shorter than the IP payload trims the view, which still
  // starts right after the UDP header.
  const uint8_t payload[] = {1, 2, 3};
  auto frame = BuildUdpFrame(MacAddr{}, MacAddr{}, 1, 2, 7, 8, payload,
                             sizeof(payload));
  constexpr size_t kUdpLengthAt = EthHeader::kSize + Ipv4Header::kSize + 4;
  frame[kUdpLengthAt + 1] = static_cast<uint8_t>(UdpHeader::kSize + 1);
  Result<ParsedFrame> parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->payload.size(), 1u);
  EXPECT_EQ(parsed->payload[0], 1);
  EXPECT_TRUE(ViewsInto(parsed->payload, frame));
}

TEST(Wire, ShortFrameRejected) {
  std::vector<uint8_t> frame(10);
  EXPECT_FALSE(ParseFrame(frame).ok());
}

TEST(Wire, SeqArithmeticWrapsCorrectly) {
  EXPECT_TRUE(SeqLt(0xfffffff0u, 0x10u));  // Wraparound: close below.
  EXPECT_FALSE(SeqLt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(SeqLe(5u, 5u));
  EXPECT_TRUE(SeqLt(5u, 6u));
}

TEST(Wire, AddressFormatting) {
  EXPECT_EQ(Ipv4ToString(MakeIpv4(10, 0, 0, 1)), "10.0.0.1");
  EXPECT_EQ((MacAddr{{0xde, 0xad, 0xbe, 0xef, 0, 1}}).ToString(),
            "de:ad:be:ef:00:01");
}

// --- Link model -------------------------------------------------------------

class SinkEndpoint final : public LinkEndpoint {
 public:
  void DeliverFrame(std::vector<uint8_t> frame) override {
    frames.push_back(std::move(frame));
  }
  std::vector<std::vector<uint8_t>> frames;
};

TEST(LinkModel, DeliversAfterLatencyAndSerialization) {
  Machine machine;
  LinkConfig config;
  config.bandwidth_bps = 1e9;  // 1 Gb/s.
  config.latency_ns = 1000;
  Link link(machine, config);
  SinkEndpoint sink;
  link.AttachB(&sink);

  link.SendFromA(std::vector<uint8_t>(125, 0));  // 1000 bits = 1 us at 1 Gb/s.
  EXPECT_EQ(link.DeliverDue(), 0u);  // Not due yet.
  ASSERT_TRUE(link.NextArrivalCycles().has_value());
  machine.clock().AdvanceTo(*link.NextArrivalCycles());
  EXPECT_EQ(link.DeliverDue(), 1u);
  EXPECT_EQ(sink.frames.size(), 1u);
  // 1 us serialization + 1 us latency = 2 us >= 4200 cycles at 2.1 GHz.
  EXPECT_GE(machine.clock().NowNanos(), 2000u);
}

TEST(LinkModel, SerializesBackToBackFrames) {
  Machine machine;
  LinkConfig config;
  config.bandwidth_bps = 1e9;
  config.latency_ns = 0;
  Link link(machine, config);
  SinkEndpoint sink;
  link.AttachB(&sink);
  link.SendFromA(std::vector<uint8_t>(125, 0));
  link.SendFromA(std::vector<uint8_t>(125, 0));
  // Second frame can only arrive after both serialization times. (+1 ns
  // absorbs the conservative rounding in the serialization model.)
  machine.clock().AdvanceTo(machine.clock().NanosToCycles(1001));
  link.DeliverDue();
  EXPECT_EQ(sink.frames.size(), 1u);
  machine.clock().AdvanceTo(machine.clock().NanosToCycles(2100));
  link.DeliverDue();
  EXPECT_EQ(sink.frames.size(), 2u);
}

TEST(LinkModel, LossDropsDeterministically) {
  Machine machine;
  LinkConfig config;
  config.loss_probability = 0.5;
  config.seed = 1234;
  Link link(machine, config);
  SinkEndpoint sink;
  link.AttachB(&sink);
  for (int i = 0; i < 100; ++i) {
    link.SendFromA(std::vector<uint8_t>(64, 0));
  }
  machine.clock().AdvanceTo(machine.clock().cycles() + 1'000'000'000);
  link.DeliverDue();
  EXPECT_GT(link.stats().frames_dropped, 20u);
  EXPECT_GT(sink.frames.size(), 20u);
  EXPECT_EQ(sink.frames.size() + link.stats().frames_dropped, 100u);
}

TEST(NicModel, QueuesAndDropsWhenFull) {
  Machine machine;
  Nic nic(machine, "eth-test", MacAddr{{2, 0, 0, 0, 0, 1}},
          MakeIpv4(10, 0, 0, 1));
  for (size_t i = 0; i < Nic::kDefaultRxQueueDepth + 10; ++i) {
    nic.DeliverFrame(std::vector<uint8_t>(64, 0));
  }
  EXPECT_EQ(nic.stats().rx_dropped, 10u);
  EXPECT_EQ(nic.stats().rx_frames, Nic::kDefaultRxQueueDepth);
  size_t popped = 0;
  while (nic.HasRx()) {
    (void)nic.PopRx();
    ++popped;
  }
  EXPECT_EQ(popped, Nic::kDefaultRxQueueDepth);
}

}  // namespace
}  // namespace flexos
