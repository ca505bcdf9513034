// TCP engine behavior: handshake, data transfer, flow control, loss
// recovery, teardown — driven end to end through the Testbed with scripted
// remote peers.
#include <gtest/gtest.h>

#include <cstring>

#include "apps/testbed.h"

namespace flexos {
namespace {

// A remote app that sends a fixed blob and records everything it receives.
class ScriptedRemote final : public RemoteApp {
 public:
  explicit ScriptedRemote(std::string to_send, bool finish_after_send = true)
      : to_send_(std::move(to_send)), finish_after_send_(finish_after_send) {}

  size_t ProduceData(uint8_t* out, size_t max) override {
    const size_t n = std::min(max, to_send_.size() - sent_);
    std::memcpy(out, to_send_.data() + sent_, n);
    sent_ += n;
    return n;
  }
  bool Finished() const override {
    return finish_after_send_ ? sent_ == to_send_.size() : finished_;
  }
  void OnReceive(const uint8_t* data, size_t len) override {
    received_.append(reinterpret_cast<const char*>(data), len);
  }
  void Finish() { finished_ = true; }

  const std::string& received() const { return received_; }

 private:
  std::string to_send_;
  size_t sent_ = 0;
  bool finish_after_send_;
  bool finished_ = false;
  std::string received_;
};

struct TcpFixtureResult {
  Status run_status;
  std::string server_got;
  bool got_eof = false;
  uint64_t peer_retransmits = 0;
};

TcpFixtureResult RunEchoServer(TestbedConfig config, ScriptedRemote& app,
                               bool echo_back,
                               uint64_t recv_chunk = 4096) {
  Testbed bed(config);
  TcpFixtureResult out;
  bed.SpawnApp("server", [&] {
    TcpEngine& tcp = bed.stack().tcp();
    Image& image = bed.image();
    AddressSpace& space = image.SpaceOf(kLibApp);
    const Gaddr buffer = bed.AllocShared(recv_chunk);
    int listener = 0, conn = 0;
    image.Call(kLibApp, kLibNet,
               [&] { listener = tcp.Listen(5001, 4).value(); });
    image.Call(kLibApp, kLibNet,
               [&] { conn = tcp.Accept(listener).value(); });
    for (;;) {
      uint64_t n = 0;
      image.Call(kLibApp, kLibNet,
                 [&] { n = tcp.Recv(conn, buffer, recv_chunk).value(); });
      if (n == 0) {
        out.got_eof = true;
        break;
      }
      std::string chunk(n, '\0');
      space.ReadUnchecked(buffer, chunk.data(), n);
      out.server_got += chunk;
      if (echo_back) {
        image.Call(kLibApp, kLibNet,
                   [&] { ASSERT_TRUE(tcp.Send(conn, buffer, n).ok()); });
      }
    }
    image.Call(kLibApp, kLibNet, [&] { (void)tcp.Close(conn); });
  });
  RemoteTcpPeer peer(bed.machine(), bed.link(), RemoteTcpConfig{}, app);
  bed.AddPeer(&peer);
  peer.Connect();
  out.run_status = bed.Run();
  out.peer_retransmits = peer.stats().retransmits;
  return out;
}

TestbedConfig DefaultTestbed() {
  TestbedConfig config;
  config.image = BaselineConfig(DefaultLibs());
  return config;
}

TEST(TcpEngine, HandshakeDataAndEofInOrder) {
  ScriptedRemote app("The quick brown fox jumps over the lazy dog");
  TcpFixtureResult result = RunEchoServer(DefaultTestbed(), app, false);
  EXPECT_TRUE(result.run_status.ok()) << result.run_status.ToString();
  EXPECT_EQ(result.server_got,
            "The quick brown fox jumps over the lazy dog");
  EXPECT_TRUE(result.got_eof);
}

TEST(TcpEngine, EchoRoundTrip) {
  std::string blob;
  for (int i = 0; i < 500; ++i) {
    blob += static_cast<char>('A' + i % 26);
  }
  ScriptedRemote app(blob);
  TcpFixtureResult result = RunEchoServer(DefaultTestbed(), app, true);
  EXPECT_TRUE(result.run_status.ok()) << result.run_status.ToString();
  EXPECT_EQ(result.server_got, blob);
  EXPECT_EQ(app.received(), blob);
}

TEST(TcpEngine, LargeTransferSpanningManySegments) {
  std::string blob(200 * 1024, '\0');
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>(i * 131 % 251);
  }
  ScriptedRemote app(blob);
  TcpFixtureResult result = RunEchoServer(DefaultTestbed(), app, false);
  EXPECT_TRUE(result.run_status.ok()) << result.run_status.ToString();
  EXPECT_EQ(result.server_got.size(), blob.size());
  EXPECT_EQ(result.server_got, blob);
}

// Bytes that differ from their neighbours and do not repeat at any
// segment-sized stride, so data sent from the wrong offset is visible.
std::string PatternedBlob(size_t size) {
  std::string blob(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    blob[i] = static_cast<char>((i * 131 + i / 251) % 251);
  }
  return blob;
}

TEST(TcpEngine, RecoversFromHeavyLoss) {
  TestbedConfig config = DefaultTestbed();
  config.link.loss_probability = 0.05;
  config.link.seed = 99;
  const std::string blob = PatternedBlob(32 * 1024);
  ScriptedRemote app(blob);
  TcpFixtureResult result = RunEchoServer(config, app, false);
  EXPECT_TRUE(result.run_status.ok()) << result.run_status.ToString();
  EXPECT_EQ(result.server_got.size(), blob.size());
  EXPECT_EQ(result.server_got, blob);
}

TEST(TcpEngine, LossyStreamOfManyWindowsArrivesExactly) {
  // 8x the peer's 64 KiB send window over a lossy link: the peer's send
  // buffer is compacted many times, and retransmissions read it after.
  TestbedConfig config = DefaultTestbed();
  config.link.loss_probability = 0.02;
  config.link.seed = 7;
  const std::string blob = PatternedBlob(512 * 1024);
  ScriptedRemote app(blob);
  TcpFixtureResult result = RunEchoServer(config, app, false);
  EXPECT_TRUE(result.run_status.ok()) << result.run_status.ToString();
  EXPECT_TRUE(result.got_eof);
  EXPECT_GT(result.peer_retransmits, 0u);
  EXPECT_EQ(result.server_got.size(), blob.size());
  EXPECT_TRUE(result.server_got == blob) << "stream corrupted";
}

TEST(TcpEngine, SmallRecvBufferStillReceivesEverything) {
  std::string blob(8 * 1024, 'q');
  ScriptedRemote app(blob);
  TcpFixtureResult result =
      RunEchoServer(DefaultTestbed(), app, false, /*recv_chunk=*/64);
  EXPECT_TRUE(result.run_status.ok()) << result.run_status.ToString();
  EXPECT_EQ(result.server_got.size(), blob.size());
}

TEST(TcpEngine, FlowControlSlowReaderDoesNotLoseData) {
  // Small socket buffers + a reader that yields a lot: the window closes
  // and reopens; every byte must still arrive exactly once.
  TestbedConfig config = DefaultTestbed();
  config.tcp.ring_bytes = 8 * 1024;
  std::string blob(64 * 1024, '\0');
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>(i % 256);
  }
  ScriptedRemote app(blob);

  Testbed bed(config);
  std::string server_got;
  bed.SpawnApp("slow-reader", [&] {
    TcpEngine& tcp = bed.stack().tcp();
    Image& image = bed.image();
    AddressSpace& space = image.SpaceOf(kLibApp);
    const Gaddr buffer = bed.AllocShared(512);
    int listener = 0, conn = 0;
    image.Call(kLibApp, kLibNet,
               [&] { listener = tcp.Listen(5001, 4).value(); });
    image.Call(kLibApp, kLibNet,
               [&] { conn = tcp.Accept(listener).value(); });
    for (;;) {
      uint64_t n = 0;
      image.Call(kLibApp, kLibNet,
                 [&] { n = tcp.Recv(conn, buffer, 512).value(); });
      if (n == 0) {
        break;
      }
      std::string chunk(n, '\0');
      space.ReadUnchecked(buffer, chunk.data(), n);
      server_got += chunk;
      bed.scheduler().Yield();  // Dawdle: let the window fill.
    }
    image.Call(kLibApp, kLibNet, [&] { (void)tcp.Close(conn); });
  });
  RemoteTcpPeer peer(bed.machine(), bed.link(), RemoteTcpConfig{}, app);
  bed.AddPeer(&peer);
  peer.Connect();
  const Status status = bed.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(server_got, blob);
}

TEST(TcpEngine, ListenRejectsDuplicatePort) {
  Testbed bed(DefaultTestbed());
  bool checked = false;
  bed.SpawnApp("dup", [&] {
    TcpEngine& tcp = bed.stack().tcp();
    bed.image().Call(kLibApp, kLibNet, [&] {
      ASSERT_TRUE(tcp.Listen(7000, 4).ok());
      EXPECT_EQ(tcp.Listen(7000, 4).code(), ErrorCode::kAlreadyExists);
      EXPECT_EQ(tcp.Listen(7001, 0).code(), ErrorCode::kInvalidArgument);
      checked = true;
    });
  });
  EXPECT_TRUE(bed.Run().ok());
  EXPECT_TRUE(checked);
}

TEST(TcpEngine, OpsOnUnknownConnectionFail) {
  Testbed bed(DefaultTestbed());
  bool checked = false;
  bed.SpawnApp("bogus", [&] {
    TcpEngine& tcp = bed.stack().tcp();
    bed.image().Call(kLibApp, kLibNet, [&] {
      EXPECT_EQ(tcp.Send(1234, 0, 1).code(), ErrorCode::kNotFound);
      EXPECT_EQ(tcp.Recv(1234, 0, 1).code(), ErrorCode::kNotFound);
      EXPECT_EQ(tcp.Close(1234).code(), ErrorCode::kNotFound);
      EXPECT_EQ(tcp.Accept(999).code(), ErrorCode::kNotFound);
      checked = true;
    });
  });
  EXPECT_TRUE(bed.Run().ok());
  EXPECT_TRUE(checked);
}

TEST(TcpEngine, StatsCountSegmentsAndBytes) {
  ScriptedRemote app(std::string(10 * 1024, 's'));
  TestbedConfig config = DefaultTestbed();
  Testbed bed(config);
  uint64_t bytes = 0;
  bed.SpawnApp("server", [&] {
    TcpEngine& tcp = bed.stack().tcp();
    Image& image = bed.image();
    const Gaddr buffer = bed.AllocShared(4096);
    int listener = 0, conn = 0;
    image.Call(kLibApp, kLibNet,
               [&] { listener = tcp.Listen(5001, 4).value(); });
    image.Call(kLibApp, kLibNet,
               [&] { conn = tcp.Accept(listener).value(); });
    for (;;) {
      uint64_t n = 0;
      image.Call(kLibApp, kLibNet,
                 [&] { n = tcp.Recv(conn, buffer, 4096).value(); });
      if (n == 0) {
        break;
      }
      bytes += n;
    }
    image.Call(kLibApp, kLibNet, [&] { (void)tcp.Close(conn); });
  });
  RemoteTcpPeer peer(bed.machine(), bed.link(), RemoteTcpConfig{}, app);
  bed.AddPeer(&peer);
  peer.Connect();
  ASSERT_TRUE(bed.Run().ok());
  const TcpStats& stats = bed.stack().tcp().stats();
  EXPECT_EQ(bytes, 10u * 1024);
  EXPECT_EQ(stats.bytes_rx, 10u * 1024);
  EXPECT_GT(stats.segments_rx, 7u);  // >= ceil(10K/1460) data segments.
  EXPECT_GT(stats.segments_tx, 0u);  // ACKs.
  EXPECT_EQ(stats.conns_accepted, 1u);
}

// --- UDP ---------------------------------------------------------------------

TEST(UdpEngine, OpenCloseAndErrors) {
  Testbed bed(DefaultTestbed());
  bool checked = false;
  bed.SpawnApp("udp", [&] {
    UdpEngine& udp = bed.stack().udp();
    bed.image().Call(kLibApp, kLibNet, [&] {
      Result<int> sock = udp.Open(5353);
      ASSERT_TRUE(sock.ok());
      EXPECT_EQ(udp.Open(5353).code(), ErrorCode::kAlreadyExists);
      EXPECT_TRUE(udp.Close(sock.value()).ok());
      EXPECT_EQ(udp.Close(sock.value()).code(), ErrorCode::kNotFound);
      checked = true;
    });
  });
  EXPECT_TRUE(bed.Run().ok());
  EXPECT_TRUE(checked);
}

TEST(UdpEngine, ReceivesInjectedDatagram) {
  Testbed bed(DefaultTestbed());
  std::string got;
  UdpDatagramInfo info{};
  bed.SpawnApp("udp-rx", [&] {
    UdpEngine& udp = bed.stack().udp();
    Image& image = bed.image();
    AddressSpace& space = image.SpaceOf(kLibApp);
    const Gaddr buffer = bed.AllocShared(256);
    int sock = 0;
    image.Call(kLibApp, kLibNet, [&] { sock = udp.Open(5353).value(); });
    image.Call(kLibApp, kLibNet, [&] {
      info = udp.RecvFrom(sock, buffer, 256).value();
    });
    got.resize(info.bytes);
    space.ReadUnchecked(buffer, got.data(), got.size());
  });
  // Inject a datagram from the "remote side" of the link.
  const std::string payload = "udp-hello";
  bed.link().SendFromB(BuildUdpFrame(
      MacAddr{{2, 0, 0, 0, 0, 0xbb}}, MacAddr{{2, 0, 0, 0, 0, 0xaa}},
      MakeIpv4(10, 0, 0, 2), MakeIpv4(10, 0, 0, 1), 9999, 5353,
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size()));
  ASSERT_TRUE(bed.Run().ok());
  EXPECT_EQ(got, payload);
  EXPECT_EQ(info.src_port, 9999);
  EXPECT_EQ(info.src_ip, MakeIpv4(10, 0, 0, 2));
  EXPECT_EQ(info.full_size, payload.size());
}

TEST(UdpEngine, QueuedDatagramOutlivesItsFrame) {
  // Parsed payloads view the NIC's frame, which is freed once polled; the
  // socket queue must hold its own copy. (Run under ASan to see a stale
  // view as a use-after-free rather than as lucky bytes.)
  Testbed bed(DefaultTestbed());
  UdpEngine& udp = bed.stack().udp();
  const int sock = udp.Open(5353).value();
  std::vector<std::string> sent;
  for (int i = 0; i < 4; ++i) {
    sent.push_back("datagram-" + std::to_string(i) + std::string(40, 'a' + i));
    bed.link().SendFromB(BuildUdpFrame(
        MacAddr{{2, 0, 0, 0, 0, 0xbb}}, MacAddr{{2, 0, 0, 0, 0, 0xaa}},
        MakeIpv4(10, 0, 0, 2), MakeIpv4(10, 0, 0, 1), 9999, 5353,
        reinterpret_cast<const uint8_t*>(sent.back().data()),
        sent.back().size()));
  }
  // No guest threads: pump the platform until every datagram is queued.
  for (int i = 0; i < 100 && udp.stats().datagrams_rx < sent.size(); ++i) {
    bed.link().DeliverDue();
    bed.stack().Poll();
    const std::optional<uint64_t> next = bed.link().NextArrivalCycles();
    if (next.has_value()) {
      bed.machine().clock().AdvanceTo(*next);
    }
  }
  ASSERT_EQ(udp.stats().datagrams_rx, sent.size());
  ASSERT_FALSE(bed.nic().HasRx());  // Every frame has been consumed.

  AddressSpace& space = bed.image().SpaceOf(kLibApp);
  const Gaddr buffer = bed.AllocShared(128);
  for (const std::string& expected : sent) {
    const UdpDatagramInfo info = udp.RecvFrom(sock, buffer, 128).value();
    std::string got(info.bytes, '\0');
    space.ReadUnchecked(buffer, got.data(), got.size());
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace flexos
