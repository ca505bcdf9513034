// Guest-initiated networking: ARP resolution (with retries under loss),
// active TCP open against a remote listener, connection refusal paths, and
// ICMP echo responses.
#include <gtest/gtest.h>

#include <cstring>

#include "apps/testbed.h"

namespace flexos {
namespace {

// A remote server app that echoes everything it receives and never
// initiates data of its own.
class EchoRemoteServer final : public RemoteApp {
 public:
  size_t ProduceData(uint8_t* out, size_t max) override {
    const size_t n = std::min(max, pending_.size());
    std::memcpy(out, pending_.data(), n);
    pending_.erase(0, n);
    return n;
  }
  bool Finished() const override { return false; }  // Guest closes first.
  void OnReceive(const uint8_t* data, size_t len) override {
    pending_.append(reinterpret_cast<const char*>(data), len);
    total_received_ += len;
  }
  uint64_t total_received() const { return total_received_; }

 private:
  std::string pending_;
  uint64_t total_received_ = 0;
};

TEST(ActiveOpen, GuestConnectsViaArpAndExchangesData) {
  TestbedConfig config;
  config.image = BaselineConfig(DefaultLibs());
  Testbed bed(config);

  EchoRemoteServer server_app;
  RemoteTcpConfig peer_config;
  peer_config.local_port = 7777;  // The remote listener's port.
  RemoteTcpPeer server(bed.machine(), bed.link(), peer_config, server_app);
  server.Listen();
  bed.AddPeer(&server);

  std::string echoed;
  bed.SpawnApp("client", [&] {
    Image& image = bed.image();
    NetStack& stack = bed.stack();
    AddressSpace& space = image.SpaceOf(kLibApp);
    const Gaddr buffer = bed.AllocShared(4096);

    int conn = -1;
    image.Call(kLibApp, kLibNet, [&] {
      Result<int> r = stack.TcpConnect(MakeIpv4(10, 0, 0, 2), 7777);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      conn = r.value();
    });
    ASSERT_GE(conn, 0);

    const std::string message = "hello from inside the unikernel";
    space.WriteUnchecked(buffer, message.data(), message.size());
    image.Call(kLibApp, kLibNet, [&] {
      ASSERT_TRUE(stack.tcp().Send(conn, buffer, message.size()).ok());
    });
    // Read back the echo.
    while (echoed.size() < message.size()) {
      uint64_t n = 0;
      image.Call(kLibApp, kLibNet, [&] {
        n = stack.tcp().Recv(conn, buffer, 4096).value();
      });
      ASSERT_GT(n, 0u);
      std::string chunk(n, '\0');
      space.ReadUnchecked(buffer, chunk.data(), n);
      echoed += chunk;
    }
    image.Call(kLibApp, kLibNet, [&] { (void)stack.tcp().Close(conn); });
  });

  const Status status = bed.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(echoed, "hello from inside the unikernel");
  EXPECT_EQ(server_app.total_received(), echoed.size());
  // ARP ran: one request out, one reply learned.
  EXPECT_GE(bed.stack().arp().stats().requests_sent, 1u);
  EXPECT_TRUE(bed.stack().arp().Lookup(MakeIpv4(10, 0, 0, 2)).has_value());
}

TEST(ActiveOpen, SurvivesLossDuringHandshakeAndData) {
  TestbedConfig config;
  config.image = BaselineConfig(DefaultLibs());
  config.link.loss_probability = 0.08;
  config.link.seed = 77;
  Testbed bed(config);

  EchoRemoteServer server_app;
  RemoteTcpConfig peer_config;
  peer_config.local_port = 7777;
  RemoteTcpPeer server(bed.machine(), bed.link(), peer_config, server_app);
  server.Listen();
  bed.AddPeer(&server);

  uint64_t received = 0;
  bed.SpawnApp("client", [&] {
    Image& image = bed.image();
    NetStack& stack = bed.stack();
    const Gaddr buffer = bed.AllocShared(4096);
    int conn = -1;
    image.Call(kLibApp, kLibNet, [&] {
      Result<int> r = stack.TcpConnect(MakeIpv4(10, 0, 0, 2), 7777);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      conn = r.value();
    });
    image.SpaceOf(kLibApp).Fill(buffer, 'x', 4096);
    for (int i = 0; i < 4; ++i) {
      image.Call(kLibApp, kLibNet, [&] {
        ASSERT_TRUE(stack.tcp().Send(conn, buffer, 4096).ok());
      });
    }
    while (received < 4 * 4096) {
      uint64_t n = 0;
      image.Call(kLibApp, kLibNet, [&] {
        n = stack.tcp().Recv(conn, buffer, 4096).value();
      });
      ASSERT_GT(n, 0u);
      received += n;
    }
    image.Call(kLibApp, kLibNet, [&] { (void)stack.tcp().Close(conn); });
  });
  const Status status = bed.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(received, 4u * 4096);
}

TEST(ActiveOpen, UnresolvableAddressFailsCleanly) {
  TestbedConfig config;
  config.image = BaselineConfig(DefaultLibs());
  Testbed bed(config);
  // No peer attached: ARP requests go unanswered.
  Status connect_status = Status::Ok();
  bed.SpawnApp("client", [&] {
    bed.image().Call(kLibApp, kLibNet, [&] {
      Result<int> r =
          bed.stack().TcpConnect(MakeIpv4(10, 0, 0, 99), 7777);
      connect_status = r.status();
    });
  });
  const Status status = bed.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(connect_status.code(), ErrorCode::kUnavailable);
  EXPECT_GE(bed.stack().arp().stats().resolution_failures, 1u);
  // Retries happened.
  EXPECT_GT(bed.stack().arp().stats().requests_sent, 1u);
}

TEST(ActiveOpen, StaticArpEntrySkipsResolution) {
  TestbedConfig config;
  config.image = BaselineConfig(DefaultLibs());
  Testbed bed(config);
  EchoRemoteServer server_app;
  RemoteTcpConfig peer_config;
  peer_config.local_port = 7777;
  RemoteTcpPeer server(bed.machine(), bed.link(), peer_config, server_app);
  server.Listen();
  bed.AddPeer(&server);
  bed.stack().arp().Insert(MakeIpv4(10, 0, 0, 2), peer_config.mac);

  bool connected = false;
  bed.SpawnApp("client", [&] {
    bed.image().Call(kLibApp, kLibNet, [&] {
      Result<int> r = bed.stack().TcpConnect(MakeIpv4(10, 0, 0, 2), 7777);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      connected = true;
      (void)bed.stack().tcp().Close(r.value());
    });
  });
  EXPECT_TRUE(bed.Run().ok());
  EXPECT_TRUE(connected);
  EXPECT_EQ(bed.stack().arp().stats().requests_sent, 0u);
}

// --- ICMP ---------------------------------------------------------------------

class PingCollector final : public LinkEndpoint {
 public:
  void DeliverFrame(std::vector<uint8_t> frame) override {
    Result<ParsedFrame> parsed = ParseFrame(frame);
    if (parsed.ok() && parsed->icmp.has_value() &&
        parsed->icmp->type == kIcmpEchoReply) {
      replies.push_back(std::move(frame));  // A parse only views its frame.
    }
  }
  std::vector<std::vector<uint8_t>> replies;
};

TEST(Icmp, GuestAnswersEchoRequests) {
  TestbedConfig config;
  config.image = BaselineConfig(DefaultLibs());
  Testbed bed(config);
  PingCollector collector;
  bed.link().AttachB(&collector);

  const std::string payload = "ping payload 0123456789";
  for (uint16_t seq = 1; seq <= 3; ++seq) {
    IcmpEcho echo;
    echo.type = kIcmpEchoRequest;
    echo.id = 0x77;
    echo.seq = seq;
    bed.link().SendFromB(BuildIcmpEchoFrame(
        MacAddr{{2, 0, 0, 0, 0, 0xbb}}, MacAddr{{2, 0, 0, 0, 0, 0xaa}},
        MakeIpv4(10, 0, 0, 2), MakeIpv4(10, 0, 0, 1), echo,
        reinterpret_cast<const uint8_t*>(payload.data()), payload.size()));
  }
  // No guest threads: pump the platform manually until quiescent.
  for (int i = 0; i < 100 && collector.replies.size() < 3; ++i) {
    bed.link().DeliverDue();
    bed.stack().Poll();
    const std::optional<uint64_t> next = bed.link().NextArrivalCycles();
    if (next.has_value()) {
      bed.machine().clock().AdvanceTo(*next);
    }
  }
  ASSERT_EQ(collector.replies.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    Result<ParsedFrame> parsed = ParseFrame(collector.replies[i]);
    ASSERT_TRUE(parsed.ok());
    const ParsedFrame& reply = parsed.value();
    EXPECT_EQ(reply.icmp->id, 0x77);
    EXPECT_EQ(reply.icmp->seq, static_cast<uint16_t>(i + 1));
    EXPECT_EQ(std::string(reply.payload.begin(), reply.payload.end()),
              payload);
    EXPECT_EQ(reply.ip.src, MakeIpv4(10, 0, 0, 1));
  }
  EXPECT_EQ(bed.stack().stats().icmp_echoes_answered, 3u);
}

TEST(Icmp, IgnoresEchoForOtherAddresses) {
  TestbedConfig config;
  config.image = BaselineConfig(DefaultLibs());
  Testbed bed(config);
  PingCollector collector;
  bed.link().AttachB(&collector);
  IcmpEcho echo;
  echo.type = kIcmpEchoRequest;
  bed.link().SendFromB(BuildIcmpEchoFrame(
      MacAddr{{2, 0, 0, 0, 0, 0xbb}}, MacAddr{{2, 0, 0, 0, 0, 0xaa}},
      MakeIpv4(10, 0, 0, 2), MakeIpv4(10, 0, 0, 55), echo, nullptr, 0));
  for (int i = 0; i < 20; ++i) {
    bed.link().DeliverDue();
    bed.stack().Poll();
    const std::optional<uint64_t> next = bed.link().NextArrivalCycles();
    if (next.has_value()) {
      bed.machine().clock().AdvanceTo(*next);
    }
  }
  EXPECT_TRUE(collector.replies.empty());
  EXPECT_EQ(bed.stack().stats().icmp_echoes_answered, 0u);
}

// --- ARP wire format -----------------------------------------------------------

TEST(ArpWire, RoundTrip) {
  ArpPacket arp;
  arp.op = kArpOpReply;
  arp.sender_mac = MacAddr{{1, 2, 3, 4, 5, 6}};
  arp.sender_ip = MakeIpv4(10, 0, 0, 2);
  arp.target_mac = MacAddr{{6, 5, 4, 3, 2, 1}};
  arp.target_ip = MakeIpv4(10, 0, 0, 1);
  const auto frame =
      BuildArpFrame(arp.sender_mac, arp.target_mac, arp);
  Result<ParsedFrame> parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->arp.has_value());
  EXPECT_EQ(parsed->arp->op, kArpOpReply);
  EXPECT_EQ(parsed->arp->sender_ip, arp.sender_ip);
  EXPECT_EQ(parsed->arp->target_ip, arp.target_ip);
  EXPECT_EQ(parsed->arp->sender_mac, arp.sender_mac);
}

TEST(IcmpWire, ChecksumValidated) {
  IcmpEcho echo;
  echo.id = 9;
  echo.seq = 3;
  const uint8_t payload[] = {1, 2, 3, 4, 5};
  auto frame = BuildIcmpEchoFrame(MacAddr{}, MacAddr{}, 1, 2, echo, payload,
                                  sizeof(payload));
  ASSERT_TRUE(ParseFrame(frame).ok());
  frame.back() ^= 0xff;  // Corrupt the payload.
  EXPECT_FALSE(ParseFrame(frame).ok());
}

}  // namespace
}  // namespace flexos
