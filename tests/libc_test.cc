#include <gtest/gtest.h>

#include "libc/ring_buffer.h"
#include "libc/semaphore.h"
#include "sched/coop_scheduler.h"
#include "support/strings.h"

namespace flexos {
namespace {

class LibcTest : public ::testing::Test {
 protected:
  LibcTest() {
    FLEXOS_CHECK(space_.Map(0, 1 << 20, 0).ok(), "map failed");
  }

  Machine machine_;
  AddressSpace space_{machine_, "libc-test", 2 << 20};
};

// --- RingBuffer -------------------------------------------------------------

TEST_F(LibcTest, RingPushPopRoundTrip) {
  RingBuffer ring = RingBuffer::Create(space_, 0, 128);
  const char data[] = "0123456789";
  EXPECT_EQ(ring.Push(data, 10), 10u);
  EXPECT_EQ(ring.ReadableBytes(), 10u);
  char out[16] = {};
  EXPECT_EQ(ring.Pop(out, sizeof(out)), 10u);
  EXPECT_STREQ(out, "0123456789");
  EXPECT_TRUE(ring.Empty());
}

TEST_F(LibcTest, RingWrapsAround) {
  RingBuffer ring = RingBuffer::Create(space_, 0, 16);
  char buffer[16];
  for (int round = 0; round < 10; ++round) {
    const std::string chunk = StrFormat("round%03d", round);
    ASSERT_EQ(ring.Push(chunk.data(), chunk.size()), chunk.size());
    ASSERT_EQ(ring.Pop(buffer, chunk.size()), chunk.size());
    ASSERT_EQ(std::string(buffer, chunk.size()), chunk);
  }
}

TEST_F(LibcTest, RingRespectsCapacity) {
  RingBuffer ring = RingBuffer::Create(space_, 0, 8);
  const char data[] = "0123456789";
  EXPECT_EQ(ring.Push(data, 10), 8u);
  EXPECT_TRUE(ring.Full());
  EXPECT_EQ(ring.Push(data, 1), 0u);
}

TEST_F(LibcTest, RingPeekAndDiscard) {
  RingBuffer ring = RingBuffer::Create(space_, 0, 64);
  ring.Push("abcdefgh", 8);
  char out[4];
  ring.Peek(2, out, 4);
  EXPECT_EQ(std::string(out, 4), "cdef");
  EXPECT_EQ(ring.ReadableBytes(), 8u);  // Peek does not consume.
  ring.Discard(3);
  ring.Peek(0, out, 4);
  EXPECT_EQ(std::string(out, 4), "defg");
}

TEST_F(LibcTest, RingGuestSideTransfer) {
  RingBuffer ring = RingBuffer::Create(space_, 0, 256);
  space_.Write(4096, "guest-data", 10);
  EXPECT_EQ(ring.PushFromGuest(4096, 10), 10u);
  EXPECT_EQ(ring.PopToGuest(8192, 10), 10u);
  char out[10];
  space_.Read(8192, out, sizeof(out));
  EXPECT_EQ(std::string(out, sizeof(out)), "guest-data");
}

TEST_F(LibcTest, RingAttachSeesSameState) {
  RingBuffer ring = RingBuffer::Create(space_, 0, 64);
  ring.Push("xy", 2);
  RingBuffer attached = RingBuffer::Attach(space_, 0);
  EXPECT_EQ(attached.capacity(), 64u);
  char out[2];
  EXPECT_EQ(attached.Pop(out, 2), 2u);
  EXPECT_TRUE(ring.Empty());
}

// --- Semaphore --------------------------------------------------------------

TEST(SemaphoreTest, ProducerConsumer) {
  Machine machine;
  CoopScheduler sched(machine);
  Semaphore items(sched, "items", 0);
  std::string trace;
  ASSERT_TRUE(sched.Spawn("consumer", [&] {
    for (int i = 0; i < 3; ++i) {
      items.Wait();
      trace += 'c';
    }
  }).ok());
  ASSERT_TRUE(sched.Spawn("producer", [&] {
    for (int i = 0; i < 3; ++i) {
      trace += 'p';
      items.Signal();
      sched.Yield();
    }
  }).ok());
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_EQ(trace, "pcpcpc");
}

TEST(SemaphoreTest, TryWaitNeverBlocks) {
  Machine machine;
  CoopScheduler sched(machine);
  Semaphore sem(sched, "s", 1);
  EXPECT_TRUE(sem.TryWait());
  EXPECT_FALSE(sem.TryWait());
  sem.Signal();
  EXPECT_TRUE(sem.TryWait());
}

TEST(SemaphoreTest, InitialCountConsumable) {
  Machine machine;
  CoopScheduler sched(machine);
  Semaphore sem(sched, "s", 2);
  bool done = false;
  ASSERT_TRUE(sched.Spawn("t", [&] {
    sem.Wait();
    sem.Wait();
    done = true;
  }).ok());
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_TRUE(done);
}

TEST(SemaphoreTest, RoutedCallsGoThroughRouter) {
  // With a router installed, scheduler operations cross libc -> sched.
  class CountingRouter final : public GateRouter {
   public:
    int calls = 0;
    void Call(const RouteHandle& route, FunctionRef<void()> body) override {
      EXPECT_EQ(route.from, kLibLibc);
      EXPECT_EQ(route.to, kLibSched);
      ++calls;
      body();
    }
  };
  Machine machine;
  CoopScheduler sched(machine);
  CountingRouter router;
  Semaphore sem(sched, "s", 0, &router);
  ASSERT_TRUE(sched.Spawn("w", [&] { sem.Wait(); }).ok());
  ASSERT_TRUE(sched.Spawn("s", [&] { sem.Signal(); }).ok());
  EXPECT_TRUE(sched.Run().ok());
  EXPECT_GE(router.calls, 2);
}

}  // namespace
}  // namespace flexos
