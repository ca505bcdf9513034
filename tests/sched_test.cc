#include <gtest/gtest.h>

#include "sched/coop_scheduler.h"
#include "sched/verified_scheduler.h"

namespace flexos {
namespace {

TEST(CoopScheduler, RunsThreadsToCompletion) {
  Machine machine;
  CoopScheduler sched(machine);
  std::vector<int> order;
  ASSERT_TRUE(sched.Spawn("a", [&] { order.push_back(1); }).ok());
  ASSERT_TRUE(sched.Spawn("b", [&] { order.push_back(2); }).ok());
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.live_threads(), 0u);
}

TEST(CoopScheduler, YieldInterleavesRoundRobin) {
  Machine machine;
  CoopScheduler sched(machine);
  std::string trace;
  ASSERT_TRUE(sched.Spawn("a", [&] {
    for (int i = 0; i < 3; ++i) {
      trace += 'a';
      sched.Yield();
    }
  }).ok());
  ASSERT_TRUE(sched.Spawn("b", [&] {
    for (int i = 0; i < 3; ++i) {
      trace += 'b';
      sched.Yield();
    }
  }).ok());
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_EQ(trace, "ababab");
}

TEST(CoopScheduler, ContextSwitchChargesCycles) {
  Machine machine;
  CoopScheduler sched(machine);
  ASSERT_TRUE(sched.Spawn("a", [&] {
    sched.Yield();
    sched.Yield();
  }).ok());
  EXPECT_TRUE(sched.Run().ok());
  // 3 switches into the thread (initial + 2 resumes after yield), plus the
  // small run-queue memory ops charged at each yield site.
  EXPECT_EQ(sched.context_switches(), 3u);
  EXPECT_GE(machine.clock().cycles(), 3 * machine.costs().context_switch);
  EXPECT_LT(machine.clock().cycles(),
            3 * machine.costs().context_switch + 100);
}

TEST(CoopScheduler, BlockAndWakeViaWaitQueue) {
  Machine machine;
  CoopScheduler sched(machine);
  WaitQueue queue("q");
  std::string trace;
  ASSERT_TRUE(sched.Spawn("waiter", [&] {
    trace += 'w';
    sched.BlockOn(queue);
    trace += 'W';
  }).ok());
  ASSERT_TRUE(sched.Spawn("waker", [&] {
    trace += 'k';
    sched.WakeOne(queue);
    trace += 'K';
  }).ok());
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_EQ(trace, "wkKW");
}

TEST(CoopScheduler, DeadlockDetectedWhenNoIdleProgress) {
  Machine machine;
  CoopScheduler sched(machine);
  WaitQueue queue("q");
  ASSERT_TRUE(sched.Spawn("stuck", [&] { sched.BlockOn(queue); }).ok());
  const Status status = sched.Run();
  EXPECT_EQ(status.code(), ErrorCode::kTimedOut);
}

TEST(CoopScheduler, IdleHandlerCanUnblock) {
  Machine machine;
  CoopScheduler sched(machine);
  WaitQueue queue("q");
  bool woke = false;
  ASSERT_TRUE(sched.Spawn("waiter", [&] {
    sched.BlockOn(queue);
    woke = true;
  }).ok());
  int idle_calls = 0;
  sched.SetIdleHandler([&] {
    ++idle_calls;
    return sched.WakeOne(queue) != nullptr;
  });
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_TRUE(woke);
  // Once to wake the thread, once more as the post-exit drain pass.
  EXPECT_EQ(idle_calls, 2);
}

TEST(CoopScheduler, RemoveReadyThread) {
  Machine machine;
  CoopScheduler sched(machine);
  bool ran = false;
  Thread* victim = sched.Spawn("victim", [&] { ran = true; }).value();
  ASSERT_TRUE(sched.Remove(victim).ok());
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_FALSE(ran);
  EXPECT_EQ(victim->state(), ThreadState::kExited);
}

TEST(CoopScheduler, AddReAddsRemovedThread) {
  Machine machine;
  CoopScheduler sched(machine);
  bool ran = false;
  Thread* thread = sched.Spawn("t", [&] { ran = true; }).value();
  ASSERT_TRUE(sched.Remove(thread).ok());
  ASSERT_TRUE(sched.Add(thread).ok());
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_TRUE(ran);
}

TEST(CoopScheduler, DoubleAddToleratedSilently) {
  // The unverified C scheduler accepts the buggy call (paper §2 contrast).
  Machine machine;
  CoopScheduler sched(machine);
  int runs = 0;
  Thread* thread = sched.Spawn("t", [&] { ++runs; }).value();
  EXPECT_TRUE(sched.Add(thread).ok());  // Already queued.
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_EQ(runs, 1);
}

TEST(CoopScheduler, TrapInThreadSurfacesAsFatal) {
  Machine machine;
  CoopScheduler sched(machine);
  Thread* thread = sched.Spawn("crasher", [] {
    RaiseTrap(TrapInfo{.kind = TrapKind::kProtectionFault,
                       .guest_addr = 0xbad,
                       .detail = {}});
  }).value();
  const Status status = sched.Run();
  EXPECT_EQ(status.code(), ErrorCode::kBadState);
  ASSERT_TRUE(thread->fatal_trap().has_value());
  EXPECT_EQ(thread->fatal_trap()->kind, TrapKind::kProtectionFault);
}

TEST(CoopScheduler, ExecContextIsPerThread) {
  Machine machine;
  CoopScheduler sched(machine);
  ASSERT_TRUE(sched.Spawn("one", [&] {
    machine.context().compartment = 11;
    sched.Yield();
    EXPECT_EQ(machine.context().compartment, 11);
  }).ok());
  ASSERT_TRUE(sched.Spawn("two", [&] {
    machine.context().compartment = 22;
    sched.Yield();
    EXPECT_EQ(machine.context().compartment, 22);
  }).ok());
  EXPECT_TRUE(sched.Run().ok());
}

// --- VerifiedScheduler ------------------------------------------------------

TEST(VerifiedScheduler, RunsNormalWorkloads) {
  Machine machine;
  VerifiedScheduler sched(machine);
  int runs = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sched.Spawn("t", [&] {
      ++runs;
      sched.Yield();
    }).ok());
  }
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_EQ(runs, 5);
  EXPECT_GT(sched.contract_checks(), 0u);
}

TEST(VerifiedScheduler, ContextSwitchIsSlowerThanC) {
  // Paper §4: 218.6 ns vs 76.6 ns (~3x).
  Machine c_machine;
  CoopScheduler c_sched(c_machine);
  ASSERT_TRUE(c_sched.Spawn("t", [&] { c_sched.Yield(); }).ok());
  EXPECT_TRUE(c_sched.Run().ok());

  Machine v_machine;
  VerifiedScheduler v_sched(v_machine);
  ASSERT_TRUE(v_sched.Spawn("t", [&] { v_sched.Yield(); }).ok());
  EXPECT_TRUE(v_sched.Run().ok());

  const double ratio = static_cast<double>(v_machine.clock().cycles()) /
                       static_cast<double>(c_machine.clock().cycles());
  EXPECT_NEAR(ratio, 218.6 / 76.6, 0.15);
}

TEST(VerifiedScheduler, DoubleAddTrapsAsContractViolation) {
  // The paper's thread_add precondition example: the verified scheduler
  // catches the double add the C scheduler silently tolerates.
  Machine machine;
  VerifiedScheduler sched(machine);
  Thread* thread = sched.Spawn("t", [] {}).value();
  try {
    (void)sched.Add(thread);
    FAIL() << "double thread_add not caught";
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kContractViolation);
    EXPECT_NE(trap.info().detail.find("thread_add"), std::string::npos);
  }
}

TEST(WaitQueueBasics, FifoOrderAndContains) {
  WaitQueue queue("q");
  Thread a(1, "a", [] {});
  Thread b(2, "b", [] {});
  queue.Enqueue(&a);
  queue.Enqueue(&b);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(queue.Contains(&a));
  EXPECT_EQ(queue.Dequeue(), &a);
  EXPECT_EQ(queue.Dequeue(), &b);
  EXPECT_EQ(queue.Dequeue(), nullptr);
}

}  // namespace
}  // namespace flexos
