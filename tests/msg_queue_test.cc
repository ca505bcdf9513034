#include <gtest/gtest.h>

#include "alloc/freelist_heap.h"
#include "libc/msg_queue.h"
#include "sched/coop_scheduler.h"

namespace flexos {
namespace {

class MsgQueueTest : public ::testing::Test {
 protected:
  MsgQueueTest() : heap_(space_, 0, 1 << 20) {
    FLEXOS_CHECK(space_.Map(0, 2 << 20, 0).ok(), "map failed");
    // Scratch area for message payloads.
    scratch_ = heap_.Allocate(4096).value();
  }

  std::unique_ptr<MsgQueue> MakeQueue(uint32_t depth, uint32_t msg_bytes) {
    Result<std::unique_ptr<MsgQueue>> queue = MsgQueue::Create(
        sched_, heap_, "testq", depth, msg_bytes);
    FLEXOS_CHECK(queue.ok(), "queue create failed");
    return std::move(queue).value();
  }

  Machine machine_;
  AddressSpace space_{machine_, "mq-test", 4 << 20};
  CoopScheduler sched_{machine_};
  FreelistHeap heap_;
  Gaddr scratch_ = 0;
};

TEST_F(MsgQueueTest, CreateValidatesArguments) {
  EXPECT_FALSE(MsgQueue::Create(sched_, heap_, "q", 0, 64).ok());
  EXPECT_FALSE(MsgQueue::Create(sched_, heap_, "q", 4, 0).ok());
}

TEST_F(MsgQueueTest, FifoRoundTrip) {
  auto queue = MakeQueue(4, 64);
  // Each message is "msg<i>" plus its NUL: 5 bytes.
  for (int i = 0; i < 3; ++i) {
    const std::string msg = "msg" + std::to_string(i);
    space_.Write(scratch_, msg.c_str(), msg.size() + 1);
    ASSERT_TRUE(queue->TrySend(scratch_, 5).ok());
  }
  EXPECT_EQ(queue->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    Result<uint32_t> size = queue->TryRecv(scratch_ + 512, 64);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(size.value(), 5u);
    char out[5];
    space_.Read(scratch_ + 512, out, sizeof(out));
    EXPECT_EQ(std::string(out, sizeof(out)),
              "msg" + std::to_string(i) + '\0');
  }
  EXPECT_TRUE(queue->Empty());
}

TEST_F(MsgQueueTest, TryOpsReportWouldBlock) {
  auto queue = MakeQueue(2, 16);
  EXPECT_EQ(queue->TryRecv(scratch_, 16).code(), ErrorCode::kWouldBlock);
  ASSERT_TRUE(queue->TrySend(scratch_, 8).ok());
  ASSERT_TRUE(queue->TrySend(scratch_, 8).ok());
  EXPECT_TRUE(queue->Full());
  EXPECT_EQ(queue->TrySend(scratch_, 8).code(), ErrorCode::kWouldBlock);
}

TEST_F(MsgQueueTest, OversizedMessageRejected) {
  auto queue = MakeQueue(2, 16);
  EXPECT_EQ(queue->TrySend(scratch_, 17).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(queue->Send(scratch_, 17).code(), ErrorCode::kInvalidArgument);
}

TEST_F(MsgQueueTest, SmallRecvBufferLeavesMessageQueued) {
  auto queue = MakeQueue(2, 64);
  ASSERT_TRUE(queue->TrySend(scratch_, 32).ok());
  EXPECT_EQ(queue->TryRecv(scratch_ + 512, 8).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(queue->size(), 1u);  // Still there.
  EXPECT_TRUE(queue->TryRecv(scratch_ + 512, 64).ok());
}

TEST_F(MsgQueueTest, WrapsAroundManyTimes) {
  auto queue = MakeQueue(3, 16);
  for (uint32_t round = 0; round < 50; ++round) {
    space_.WriteT<uint32_t>(scratch_, round);
    ASSERT_TRUE(queue->TrySend(scratch_, 4).ok());
    ASSERT_TRUE(queue->TryRecv(scratch_ + 512, 16).ok());
    EXPECT_EQ(space_.ReadT<uint32_t>(scratch_ + 512), round);
  }
  EXPECT_EQ(queue->messages_sent(), 50u);
}

TEST_F(MsgQueueTest, BlockingProducerConsumer) {
  auto queue = MakeQueue(2, 32);
  std::vector<uint32_t> received;
  ASSERT_TRUE(sched_.Spawn("consumer", [&] {
    for (int i = 0; i < 8; ++i) {
      Result<uint32_t> size = queue->Recv(scratch_ + 1024, 32);
      ASSERT_TRUE(size.ok());
      received.push_back(space_.ReadT<uint32_t>(scratch_ + 1024));
    }
  }).ok());
  ASSERT_TRUE(sched_.Spawn("producer", [&] {
    for (uint32_t i = 0; i < 8; ++i) {
      space_.WriteT<uint32_t>(scratch_, i);
      // Depth 2: the producer must block on a full queue at least once.
      ASSERT_TRUE(queue->Send(scratch_, 4).ok());
    }
  }).ok());
  EXPECT_TRUE(sched_.Run().ok());
  ASSERT_EQ(received.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(received[i], i);
  }
}

TEST_F(MsgQueueTest, ZeroLengthMessagesWork) {
  auto queue = MakeQueue(2, 16);
  ASSERT_TRUE(queue->TrySend(scratch_, 0).ok());
  Result<uint32_t> size = queue->TryRecv(scratch_ + 512, 16);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 0u);
}

TEST_F(MsgQueueTest, StorageComesFromTheGivenAllocator) {
  const uint64_t before = heap_.stats().bytes_in_use;
  auto queue = MakeQueue(8, 256);
  EXPECT_GT(heap_.stats().bytes_in_use, before);
  queue.reset();
  EXPECT_EQ(heap_.stats().bytes_in_use, before);
}

}  // namespace
}  // namespace flexos
