// flexpath tests (DESIGN.md §15): critical-path reconstruction must
// reconcile exactly against the gate histograms, self-calibrate against
// core/gate_costs.h's predicted per-crossing cost on every backend, replay
// what-if scenarios with exact arithmetic, recover scheduler edges from the
// trace stream, and emit byte-deterministic flexos-critpath-v1 JSON.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gate_costs.h"
#include "core/image_builder.h"
#include "hw/clock.h"
#include "obs/critpath.h"
#include "obs/names.h"
#include "sched/coop_scheduler.h"

namespace flexos {
namespace {

ImageConfig NetAppConfig(IsolationBackend backend) {
  ImageConfig config;
  config.backend = backend;
  config.compartments = {{"net"}, {"app", "sched", "libc", "alloc"}};
  return config;
}

// Runs `calls` cached-route net->app crossings with tracing + attribution on
// and rebuilds the critical path. The machine must outlive the CriticalPath:
// the what-if engine keeps the cycles->ns conversion bound to its clock.
void BuildAfterCalls(Machine& machine, IsolationBackend backend, int calls,
                     obs::CriticalPath* out) {
  machine.tracer().SetEnabled(true);
  machine.attrib().SetEnabled(true, machine.clock().cycles());
  ImageBuilder builder(machine);
  auto image = builder.Build(NetAppConfig(backend)).value();
  const RouteHandle route = image->Resolve(kLibNet, kLibApp);
  uint64_t sink = 0;
  for (int i = 0; i < calls; ++i) {
    image->Call(route, [&sink] { ++sink; });
  }
  machine.SyncAttribution();
  const Clock& clock = machine.clock_of(0);
  out->Build(machine.attrib(), machine.metrics(),
             machine.tracer().Snapshot(),
             [&clock](uint64_t cycles) { return clock.CyclesToNanos(cycles); },
             machine.costs().ipi);
}

// Every backend's recorded gate nanoseconds must equal crossings times the
// cost model's predicted per-crossing cost — the profiler's view and
// core/gate_costs.h are the same number, not merely close.
TEST(CritpathTest, SelfCalibratesAgainstCostModelOnEveryBackend) {
  constexpr IsolationBackend kBackends[] = {
      IsolationBackend::kNone, IsolationBackend::kMpkSharedStack,
      IsolationBackend::kMpkSwitchedStack, IsolationBackend::kVmRpc};
  for (const IsolationBackend backend : kBackends) {
    Machine machine;
    obs::CriticalPath critpath;
    BuildAfterCalls(machine, backend, 50, &critpath);
    ASSERT_TRUE(critpath.reconciled())
        << IsolationBackendName(backend) << ": "
        << critpath.reconcile_detail();
    const uint64_t predicted_ns = machine.clock().CyclesToNanos(
        PredictedCrossingCycles(machine.costs(), backend, kGateArgBytes,
                                kGateRetBytes));
    ASSERT_FALSE(critpath.boundaries().empty());
    uint64_t crossings = 0;
    for (const obs::BoundaryShare& share : critpath.boundaries()) {
      EXPECT_EQ(share.gate_ns, share.crossings * predicted_ns)
          << share.boundary;
      EXPECT_EQ(share.path_gate_ns, share.gate_ns) << share.boundary;
      crossings += share.crossings;
    }
    EXPECT_GE(crossings, 50u);
  }
}

TEST(CritpathTest, WhatIfIsExactArithmeticAndIdentityOnCurrentBackend) {
  Machine machine;
  obs::CriticalPath critpath;
  BuildAfterCalls(machine, IsolationBackend::kMpkSharedStack, 40, &critpath);
  ASSERT_TRUE(critpath.reconciled()) << critpath.reconcile_detail();

  const obs::BoundaryShare* share = critpath.FindBoundary("c0.c1");
  ASSERT_NE(share, nullptr);
  EXPECT_EQ(share->backend, "mpk-shared");

  // Replaying the current backend's predicted cost reproduces the total.
  const uint64_t current = PredictedCrossingCycles(
      machine.costs(), IsolationBackend::kMpkSharedStack, kGateArgBytes,
      kGateRetBytes);
  EXPECT_EQ(critpath.WhatIfTotalNs(share->boundary, current),
            critpath.total_path_ns());

  // Promoting to vm-rpc follows the formula exactly.
  const uint64_t vm_cycles = PredictedCrossingCycles(
      machine.costs(), IsolationBackend::kVmRpc, kGateArgBytes,
      kGateRetBytes);
  const uint64_t expected = critpath.total_path_ns() - share->gate_ns +
                            share->crossings *
                                machine.clock().CyclesToNanos(vm_cycles);
  EXPECT_EQ(critpath.WhatIfTotalNs("c0.c1", vm_cycles), expected);

  // Unknown boundaries leave the total untouched.
  EXPECT_EQ(critpath.WhatIfTotalNs("no.such.boundary", vm_cycles),
            critpath.total_path_ns());
  EXPECT_EQ(critpath.FindBoundary("no-such"), nullptr);
  // Exact metric names resolve too.
  EXPECT_EQ(critpath.FindBoundary(share->boundary), share);
}

TEST(CritpathTest, ToJsonIsByteDeterministicAcrossIdenticalRuns) {
  std::string json[2];
  for (int run = 0; run < 2; ++run) {
    Machine machine;
    obs::CriticalPath critpath;
    BuildAfterCalls(machine, IsolationBackend::kMpkSwitchedStack, 25,
                    &critpath);
    json[run] = critpath.ToJson();
  }
  EXPECT_FALSE(json[0].empty());
  EXPECT_EQ(json[0], json[1]);
  EXPECT_NE(json[0].find("\"schema\":\"flexos-critpath-v1\""),
            std::string::npos);
  EXPECT_NE(json[0].find("\"reconciled\":true"), std::string::npos);
}

TEST(CritpathTest, RequestDecompositionSumsToWallAndCountsCrossings) {
  Machine machine;
  machine.tracer().SetEnabled(true);
  machine.attrib().SetEnabled(true, machine.clock().cycles());
  ImageBuilder builder(machine);
  auto image =
      builder.Build(NetAppConfig(IsolationBackend::kMpkSharedStack)).value();
  const RouteHandle route = image->Resolve(kLibNet, kLibApp);

  const obs::TraceContext ctx = machine.attrib().BeginRequest(
      "req:test", machine.clock().cycles(), machine.clock().NowNanos());
  ASSERT_TRUE(static_cast<bool>(ctx));
  uint64_t sink = 0;
  for (int i = 0; i < 10; ++i) {
    image->Call(route, [&sink] { ++sink; });
  }
  machine.attrib().EndRequest(ctx.id, machine.clock().cycles(),
                              machine.clock().NowNanos());
  machine.SyncAttribution();

  obs::CriticalPath critpath;
  const Clock& clock = machine.clock_of(0);
  critpath.Build(machine.attrib(), machine.metrics(),
                 machine.tracer().Snapshot(),
                 [&clock](uint64_t c) { return clock.CyclesToNanos(c); },
                 machine.costs().ipi);
  ASSERT_TRUE(critpath.reconciled()) << critpath.reconcile_detail();

  const obs::RequestPath* req = nullptr;
  for (const obs::RequestPath& path : critpath.requests()) {
    if (path.id == ctx.id) {
      req = &path;
    }
  }
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->name, "req:test");
  EXPECT_EQ(req->crossings, 10u);
  // wall partitions exactly into the four path components.
  EXPECT_EQ(req->wall_ns, req->execute_ns + req->gate_ns +
                              req->queue_wait_ns + req->slack_ns);
  // Segment nanoseconds cover execute + gate + queue_wait (the IPI segment
  // is carved out of gate segments, never added on top).
  uint64_t segment_ns = 0;
  for (const obs::PathSegment& segment : req->segments) {
    segment_ns += segment.ns;
  }
  EXPECT_EQ(segment_ns,
            req->execute_ns + req->gate_ns + req->queue_wait_ns);
  // The request's gate share is visible in the boundary rows.
  const obs::BoundaryShare* share = critpath.FindBoundary("c0.c1");
  ASSERT_NE(share, nullptr);
  EXPECT_GE(share->path_gate_ns, req->gate_ns);
}

TEST(CritpathTest, RecoversSchedulerEdgesFromSyntheticTrace) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  // Thread 5: ready 3 times but only switched in twice -> 2 queue edges
  // (the unpaired ready never became a wait). One steal, two IPIs.
  tracer.RecordInstant(obs::TraceCat::kSched, "sched.ready", 1, 5, 0);
  tracer.RecordInstant(obs::TraceCat::kSched, "sched.run_slice", 1, 5, 0);
  tracer.RecordInstant(obs::TraceCat::kSched, "sched.ready", 1, 5, 0);
  tracer.RecordInstant(obs::TraceCat::kSched, "sched.run_slice", 1, 5, 0);
  tracer.RecordInstant(obs::TraceCat::kSched, "sched.ready", 1, 5, 0);
  tracer.RecordInstant(obs::TraceCat::kSched, "sched.steal", 1, 5, 0);
  tracer.RecordInstant(obs::TraceCat::kSched, "sched.ipi", 0, 2, 0);
  tracer.RecordInstant(obs::TraceCat::kSched, "sched.ipi", 0, 2, 0);

  obs::Attributor attrib;
  obs::MetricsRegistry metrics;
  obs::CriticalPath critpath;
  critpath.Build(attrib, metrics, tracer.Snapshot(),
                 [](uint64_t c) { return c; }, /*ipi_cycles=*/1600);
  EXPECT_EQ(critpath.queue_edges(), 2u);
  EXPECT_EQ(critpath.steals(), 1u);
  EXPECT_EQ(critpath.ipis(), 2u);
  EXPECT_TRUE(critpath.reconciled());  // Nothing to reconcile is reconciled.
}

TEST(CritpathTest, SmpRunStampsStealAndIpiEdges) {
  Machine machine;
  machine.SetVCpuCount(2);
  machine.tracer().SetEnabled(true);
  // All unpinned threads spawn onto vCPU 0's queue; the idle second vCPU
  // must steal, stamping sched.steal instants the profiler picks up.
  CoopScheduler sched(machine);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sched.Spawn("w" + std::to_string(i),
                            [&] {
                              for (int k = 0; k < 3; ++k) {
                                machine.ChargeCompute(500);
                                sched.Yield();
                              }
                            })
                    .ok());
  }
  EXPECT_TRUE(sched.Run().ok());
  machine.ChargeIpi(1);

  obs::CriticalPath critpath;
  const Clock& clock = machine.clock_of(0);
  critpath.Build(machine.attrib(), machine.metrics(),
                 machine.tracer().Snapshot(),
                 [&clock](uint64_t c) { return clock.CyclesToNanos(c); },
                 machine.costs().ipi);
  EXPECT_GT(critpath.queue_edges(), 0u);
  EXPECT_GT(critpath.steals(), 0u);
  EXPECT_EQ(critpath.ipis(), 1u);
}

}  // namespace
}  // namespace flexos
