// The gate dispatch fast path: FunctionRef, route resolution, cost parity
// between by-name (resolve-per-call) and cached-route dispatch, batched
// crossings (one modeled entry/exit pair for N bodies), per-boundary
// traffic counters, and CallR's exception safety.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "apps/testbed.h"
#include "core/image_builder.h"
#include "core/mpk_gate.h"
#include "core/vm_gate.h"
#include "support/function_ref.h"

namespace flexos {
namespace {

ImageConfig TwoCompartments(IsolationBackend backend) {
  ImageConfig config;
  config.backend = backend;
  config.compartments = {{"net"}, {"app", "sched", "libc", "alloc"}};
  return config;
}

constexpr IsolationBackend kAllBackends[] = {
    IsolationBackend::kNone, IsolationBackend::kMpkSharedStack,
    IsolationBackend::kMpkSwitchedStack, IsolationBackend::kVmRpc};

int Add(int a, int b) { return a + b; }

TEST(FunctionRefTest, InvokesLambdasAndFunctions) {
  int hits = 0;
  const auto bump_body = [&] { ++hits; };
  FunctionRef<void()> bump(bump_body);
  bump();
  bump();
  EXPECT_EQ(hits, 2);

  int (*add_ptr)(int, int) = Add;
  FunctionRef<int(int, int)> add(add_ptr);
  EXPECT_EQ(add(2, 3), 5);

  const auto mul = [](int a, int b) { return a * b; };
  FunctionRef<int(int, int)> ref(mul);
  EXPECT_EQ(ref(4, 5), 20);
}

TEST(GateRouterTest, ResolveClassifiesRoutes) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();

  const RouteHandle cross = image->Resolve(kLibNet, kLibApp);
  EXPECT_TRUE(cross.cross);
  EXPECT_FALSE(cross.vm_local);
  EXPECT_NE(cross.from_comp, cross.to_comp);
  EXPECT_NE(cross.gate, nullptr);
  EXPECT_NE(cross.target_exec, nullptr);
  EXPECT_EQ(cross.from, kLibNet);
  EXPECT_EQ(cross.to, kLibApp);

  const RouteHandle same = image->Resolve(kLibApp, kLibSched);
  EXPECT_FALSE(same.cross);
  EXPECT_EQ(same.from_comp, same.to_comp);

  const RouteHandle to_platform = image->Resolve(kLibApp, kLibPlatform);
  EXPECT_TRUE(to_platform.to_platform);
  EXPECT_TRUE(to_platform.cross);  // Platform is pseudo-compartment -1.
}

TEST(GateRouterTest, ResolveHonorsVmReplication) {
  Machine machine;
  ImageBuilder builder(machine);
  // Default ImageConfig replicates sched/alloc/libc into every VM.
  auto image = builder.Build(TwoCompartments(IsolationBackend::kVmRpc))
                   .value();

  const RouteHandle libc = image->Resolve(kLibNet, kLibLibc);
  EXPECT_TRUE(libc.vm_local);

  const RouteHandle app = image->Resolve(kLibNet, kLibApp);
  EXPECT_FALSE(app.vm_local);
  EXPECT_TRUE(app.cross);
}

TEST(GateRouterTest, ResolvePanicsOnUnknownLibrary) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();
  EXPECT_DEATH(image->Resolve(kLibNet, "nosuchlib"), "not part of this");
  EXPECT_DEATH(image->Resolve("nosuchlib", kLibApp), "not part of this");
}

// The route-keyed fast path must charge exactly what the string-keyed path
// charges — the optimization removes name lookups, not modeled work.
TEST(GateRouterTest, RouteCallCostMatchesStringCall) {
  for (IsolationBackend backend : kAllBackends) {
    for (bool harden_app : {false, true}) {
      ImageConfig config = TwoCompartments(backend);
      if (harden_app) {
        config.hardened_libs = {"app"};
      }
      Machine string_machine;
      auto string_image =
          ImageBuilder(string_machine).Build(config).value();
      Machine route_machine;
      auto route_image = ImageBuilder(route_machine).Build(config).value();

      for (int i = 0; i < 3; ++i) {
        string_image->Call(kLibNet, kLibApp, [] {});
        string_image->Call(kLibApp, kLibSched, [] {});
        string_image->CallLeaf(string_image->Resolve(kLibNet, kLibLibc),
                               [] {});
      }
      const RouteHandle to_app = route_image->Resolve(kLibNet, kLibApp);
      const RouteHandle to_sched = route_image->Resolve(kLibApp, kLibSched);
      const RouteHandle to_libc = route_image->Resolve(kLibNet, kLibLibc);
      for (int i = 0; i < 3; ++i) {
        route_image->Call(to_app, [] {});
        route_image->Call(to_sched, [] {});
        route_image->CallLeaf(to_libc, [] {});
      }

      EXPECT_EQ(string_machine.clock().cycles(),
                route_machine.clock().cycles())
          << "backend " << static_cast<int>(backend) << " hardened "
          << harden_app;
      EXPECT_EQ(string_machine.stats().wrpkru_count,
                route_machine.stats().wrpkru_count);
      EXPECT_EQ(string_machine.stats().vmexit_count,
                route_machine.stats().vmexit_count);
      EXPECT_EQ(string_machine.stats().gate_crossings,
                route_machine.stats().gate_crossings);
      EXPECT_EQ(string_image->stats().cross_compartment_calls,
                route_image->stats().cross_compartment_calls);
      EXPECT_EQ(string_image->stats().same_compartment_calls,
                route_image->stats().same_compartment_calls);
      EXPECT_EQ(string_image->stats().leaf_calls,
                route_image->stats().leaf_calls);
    }
  }
}

// A batch of N bodies charges exactly one gate entry/exit pair plus N
// per-item marshalling charges — verified against the cost model.
TEST(GateRouterTest, BatchChargesOneCrossingPair) {
  for (IsolationBackend backend : kAllBackends) {
    Machine machine;
    auto image = ImageBuilder(machine).Build(TwoCompartments(backend)).value();
    const RouteHandle route = image->Resolve(kLibNet, kLibApp);
    ASSERT_TRUE(route.cross);

    // One full crossing for reference (entry + exit, 64B/16B marshalling).
    const uint64_t before_single = machine.clock().cycles();
    image->Call(route, [] {});
    const uint64_t single_cost = machine.clock().cycles() - before_single;

    // Independently price one batch item straight from the cost model: a
    // direct call, plus payload copies for gates that marshal per item.
    Machine probe(machine.clock().freq_hz(), machine.costs());
    probe.clock().Charge(probe.costs().direct_call);
    if (backend == IsolationBackend::kMpkSwitchedStack ||
        backend == IsolationBackend::kVmRpc) {
      probe.ChargeMemOp(kGateArgBytes);
      probe.ChargeMemOp(kGateRetBytes);
    }
    const uint64_t item_cost = probe.clock().cycles();

    constexpr int kItems = 5;
    const uint64_t crossings_before = machine.stats().gate_crossings;
    const uint64_t wrpkru_before = machine.stats().wrpkru_count;
    const uint64_t vmexit_before = machine.stats().vmexit_count;
    const uint64_t batch_start = machine.clock().cycles();
    int ran = 0;
    {
      GateBatch batch(*image, route);
      for (int i = 0; i < kItems; ++i) {
        batch.Run([&ran] { ++ran; });
      }
      EXPECT_EQ(batch.items(), static_cast<uint64_t>(kItems));
    }
    const uint64_t batch_cost = machine.clock().cycles() - batch_start;
    EXPECT_EQ(ran, kItems);

    // Exactly one modeled entry/exit pair for the whole batch.
    EXPECT_EQ(machine.stats().gate_crossings, crossings_before + 1);
    switch (backend) {
      case IsolationBackend::kMpkSharedStack:
      case IsolationBackend::kMpkSwitchedStack:
        EXPECT_EQ(machine.stats().wrpkru_count, wrpkru_before + 2);
        break;
      case IsolationBackend::kVmRpc:
        EXPECT_EQ(machine.stats().vmexit_count, vmexit_before + 2);
        break;
      case IsolationBackend::kNone:
        EXPECT_EQ(machine.stats().wrpkru_count, wrpkru_before);
        EXPECT_EQ(machine.stats().vmexit_count, vmexit_before);
        break;
    }

    // batch(N) decomposes as (entry + exit, with no payload) + N items.
    // The crossing pair is the single-call cost minus its own marshalling
    // charges minus its body-call charge... measured directly instead: an
    // empty batch charges nothing, so price the pair via a 1-item batch.
    Machine machine2(machine.clock().freq_hz(), machine.costs());
    auto image2 =
        ImageBuilder(machine2).Build(TwoCompartments(backend)).value();
    const RouteHandle route2 = image2->Resolve(kLibNet, kLibApp);
    const uint64_t one_start = machine2.clock().cycles();
    {
      GateBatch batch(*image2, route2);
      batch.Run([] {});
    }
    const uint64_t one_item_batch = machine2.clock().cycles() - one_start;
    const uint64_t pair_cost = one_item_batch - item_cost;
    EXPECT_EQ(batch_cost, pair_cost + kItems * item_cost)
        << "backend " << static_cast<int>(backend);

    // Amortization: for crossings with real gates, batching N calls beats
    // N full crossings.
    if (backend != IsolationBackend::kNone) {
      EXPECT_LT(batch_cost, kItems * single_cost);
    }
  }
}

TEST(GateRouterTest, EmptyBatchChargesNothing) {
  Machine machine;
  auto image =
      ImageBuilder(machine)
          .Build(TwoCompartments(IsolationBackend::kMpkSwitchedStack))
          .value();
  const RouteHandle route = image->Resolve(kLibNet, kLibApp);
  const uint64_t before = machine.clock().cycles();
  const uint64_t crossings_before = machine.stats().gate_crossings;
  { GateBatch batch(*image, route); }
  EXPECT_EQ(machine.clock().cycles(), before);
  EXPECT_EQ(machine.stats().gate_crossings, crossings_before);
}

TEST(GateRouterTest, BatchRunsBodiesInTargetContext) {
  Machine machine;
  auto image =
      ImageBuilder(machine)
          .Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();
  const RouteHandle route = image->Resolve(kLibNet, kLibApp);
  const int caller_comp = machine.context().compartment;
  int body_comp = -100;
  int between_comp = -100;
  {
    GateBatch batch(*image, route);
    batch.Run([&] { body_comp = machine.context().compartment; });
    between_comp = machine.context().compartment;
    batch.Run([&] { body_comp = machine.context().compartment; });
  }
  EXPECT_EQ(body_comp, route.target_exec->compartment);
  EXPECT_EQ(between_comp, caller_comp);  // Caller context between items.
  EXPECT_EQ(machine.context().compartment, caller_comp);  // Restored.
}

TEST(GateRouterTest, BoundaryCountersTrackCrossingsBatchesAndBytes) {
  Machine machine;
  auto image =
      ImageBuilder(machine)
          .Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();
  const RouteHandle route = image->Resolve(kLibNet, kLibApp);

  constexpr int kCalls = 3;
  constexpr int kItems = 4;
  for (int i = 0; i < kCalls; ++i) {
    image->Call(route, [] {});
  }
  {
    GateBatch batch(*image, route);
    for (int i = 0; i < kItems; ++i) {
      batch.Run([] {});
    }
  }

  const auto& crossings = image->stats().crossings;
  const auto it =
      crossings.find({route.from_comp, route.to_comp});
  ASSERT_NE(it, crossings.end());
  const BoundaryStats& boundary = it->second;
  EXPECT_EQ(boundary.crossings, static_cast<uint64_t>(kCalls + 1));
  EXPECT_EQ(boundary.batched, static_cast<uint64_t>(kItems));
  EXPECT_EQ(boundary.bytes,
            (kCalls + kItems) * (kGateArgBytes + kGateRetBytes));

  const std::string described = image->DescribeCrossings();
  EXPECT_NE(described.find("crossings=4"), std::string::npos);
  EXPECT_NE(described.find("batched=4"), std::string::npos);
}

TEST(GateRouterTest, BatchOnNonImageRouterDegradesToCalls) {
  // Routers that never override the batch hooks route every item through
  // their ordinary Call path — batching is an optimization, not a
  // correctness requirement on the router.
  class CountingRouter final : public GateRouter {
   public:
    using GateRouter::Call;
    int calls = 0;
    void Call(const RouteHandle& route, FunctionRef<void()> body) override {
      EXPECT_EQ(route.from, kLibNet);
      EXPECT_EQ(route.to, kLibLibc);
      ++calls;
      body();
    }
  };
  CountingRouter router;
  const RouteHandle route = router.Resolve(kLibNet, kLibLibc);
  int ran = 0;
  {
    GateBatch batch(router, route);
    batch.Run([&ran] { ++ran; });
    batch.Run([&ran] { ++ran; });
  }
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(router.calls, 2);

  // Plain route-keyed calls, and by-name calls through the resolve-then-call
  // helper, land in the same override.
  router.Call(route, [] {});
  router.Call(kLibNet, kLibLibc, [] {});
  EXPECT_EQ(router.calls, 4);
}

TEST(GateRouterTest, CallRReturnsValueThroughGates) {
  Machine machine;
  auto image =
      ImageBuilder(machine)
          .Build(TwoCompartments(IsolationBackend::kMpkSwitchedStack))
          .value();
  const RouteHandle route = image->Resolve(kLibNet, kLibApp);
  const int via_route = image->CallR<int>(route, [] { return 42; });
  EXPECT_EQ(via_route, 42);
}

TEST(GateRouterTest, CallRPropagatesExceptionsWithoutUb) {
  DirectGateRouter router;
  const RouteHandle route = router.Resolve(kLibNet, kLibApp);
  EXPECT_THROW(
      router.CallR<int>(route,
                        []() -> int { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

// A remote server that echoes everything back; the guest closes first.
class EchoRemote final : public RemoteApp {
 public:
  size_t ProduceData(uint8_t* out, size_t max) override {
    const size_t n = std::min(max, pending_.size());
    std::memcpy(out, pending_.data(), n);
    pending_.erase(0, n);
    return n;
  }
  bool Finished() const override { return false; }
  void OnReceive(const uint8_t* data, size_t len) override {
    pending_.append(reinterpret_cast<const char*>(data), len);
  }

 private:
  std::string pending_;
};

struct TransferOutcome {
  std::string echoed;
  uint64_t cycles = 0;
  uint64_t batched = 0;
};

TransferOutcome RunEchoTransfer(bool batch_crossings) {
  TestbedConfig config;
  config.image = TwoCompartments(IsolationBackend::kMpkSwitchedStack);
  config.tcp.batch_crossings = batch_crossings;
  Testbed bed(config);

  EchoRemote server_app;
  RemoteTcpConfig peer_config;
  peer_config.local_port = 7777;
  RemoteTcpPeer server(bed.machine(), bed.link(), peer_config, server_app);
  server.Listen();
  bed.AddPeer(&server);

  TransferOutcome outcome;
  bed.SpawnApp("client", [&] {
    Image& image = bed.image();
    NetStack& stack = bed.stack();
    AddressSpace& space = image.SpaceOf(kLibApp);
    const Gaddr buffer = bed.AllocShared(4096);
    const RouteHandle app_to_net = image.Resolve(kLibApp, kLibNet);

    int conn = -1;
    image.Call(app_to_net, [&] {
      conn = stack.TcpConnect(MakeIpv4(10, 0, 0, 2), 7777).value();
    });
    // Large enough that the echo comes back in multi-frame bursts, which
    // arrive faster than the app drains them — the multi-wakeup polls the
    // signal batching coalesces.
    const uint64_t kMessageBytes = 65536;
    const std::string chunk_out(4096, 'x');
    space.WriteUnchecked(buffer, chunk_out.data(), chunk_out.size());
    for (uint64_t sent = 0; sent < kMessageBytes; sent += chunk_out.size()) {
      image.Call(app_to_net, [&] {
        (void)stack.tcp().Send(conn, buffer, chunk_out.size());
      });
    }
    while (outcome.echoed.size() < kMessageBytes) {
      uint64_t n = 0;
      image.Call(app_to_net,
                 [&] { n = stack.tcp().Recv(conn, buffer, 4096).value(); });
      std::string chunk(n, '\0');
      space.ReadUnchecked(buffer, chunk.data(), n);
      outcome.echoed += chunk;
    }
    image.Call(app_to_net, [&] { (void)stack.tcp().Close(conn); });
  });

  EXPECT_TRUE(bed.Run().ok());
  outcome.cycles = bed.machine().clock().cycles();
  for (const auto& [pair, boundary] : bed.image().stats().crossings) {
    outcome.batched += boundary.batched;
  }
  return outcome;
}

TEST(GateRouterTest, BatchedNetstackTransferMatchesUnbatched) {
  const TransferOutcome plain = RunEchoTransfer(false);
  const TransferOutcome batched = RunEchoTransfer(true);
  // Same application-level result, cheaper in modeled time, and the
  // per-frame signal batching actually fired.
  EXPECT_EQ(plain.echoed, batched.echoed);
  EXPECT_EQ(plain.echoed.size(), 65536u);
  EXPECT_EQ(plain.batched, 0u);
  EXPECT_GT(batched.batched, 0u);
  EXPECT_LT(batched.cycles, plain.cycles);
}

TEST(GateRouterDeathTest, CallRPanicsWhenBodyNeverRan) {
  // A router that drops the call on the floor must not let CallR return
  // moved-from garbage.
  class SwallowingRouter final : public GateRouter {
   public:
    void Call(const RouteHandle&, FunctionRef<void()>) override {}
  };
  SwallowingRouter router;
  const RouteHandle route = router.Resolve(kLibNet, kLibApp);
  EXPECT_DEATH(router.CallR<int>(route, [] { return 1; }),
               "CallR body did not run");
}

}  // namespace
}  // namespace flexos
