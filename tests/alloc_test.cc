#include <gtest/gtest.h>

#include <map>

#include "alloc/allocator_registry.h"
#include "alloc/buddy_allocator.h"
#include "alloc/freelist_heap.h"
#include "alloc/hardened_heap.h"
#include "support/rng.h"

namespace flexos {
namespace {

class AllocTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kArena = 1 << 20;

  AllocTest() {
    FLEXOS_CHECK(space_.Map(0, 4 << 20, 0).ok(), "map failed");
  }

  Machine machine_;
  AddressSpace space_{machine_, "alloc-test", 8 << 20};
};

// --- BuddyAllocator ---------------------------------------------------------

TEST_F(AllocTest, BuddyAllocFreeRoundTrip) {
  BuddyAllocator buddy(space_, 0, kArena);
  const Gaddr a = buddy.Allocate(100).value();
  EXPECT_EQ(buddy.UsableSize(a).value(), 128u);  // Rounded to a block.
  EXPECT_TRUE(buddy.Free(a).ok());
  EXPECT_EQ(buddy.FreeBytes(), kArena);
  EXPECT_TRUE(buddy.CheckInvariants());
}

TEST_F(AllocTest, BuddyDetectsDoubleFree) {
  BuddyAllocator buddy(space_, 0, kArena);
  const Gaddr a = buddy.Allocate(64).value();
  EXPECT_TRUE(buddy.Free(a).ok());
  EXPECT_EQ(buddy.Free(a).code(), ErrorCode::kInvalidArgument);
}

TEST_F(AllocTest, BuddyCoalescesBuddies) {
  BuddyAllocator buddy(space_, 0, kArena);
  const Gaddr a = buddy.Allocate(64).value();
  const Gaddr b = buddy.Allocate(64).value();
  EXPECT_TRUE(buddy.Free(a).ok());
  EXPECT_TRUE(buddy.Free(b).ok());
  EXPECT_EQ(buddy.FreeBytes(), kArena);
  // After full coalescing a max-size block must be allocatable again.
  EXPECT_TRUE(buddy.Allocate(kArena).ok());
}

TEST_F(AllocTest, BuddyRejectsOversized) {
  BuddyAllocator buddy(space_, 0, kArena);
  EXPECT_EQ(buddy.Allocate(kArena + 1).code(), ErrorCode::kOutOfMemory);
}

TEST_F(AllocTest, BuddyAlignmentHonored) {
  BuddyAllocator buddy(space_, 0, kArena);
  const Gaddr a = buddy.Allocate(10, 4096).value();
  EXPECT_EQ(a % 4096, 0u);
}

TEST(BuddyProperty, RandomTraceKeepsInvariants) {
  Machine machine;
  AddressSpace space(machine, "buddy-prop", 8 << 20);
  ASSERT_TRUE(space.Map(0, 4 << 20, 0).ok());
  BuddyAllocator buddy(space, 0, 1 << 20);
  Rng rng(2024);
  std::vector<Gaddr> live;
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      const uint64_t size = 1 + rng.NextBelow(8192);
      Result<Gaddr> addr = buddy.Allocate(size);
      if (addr.ok()) {
        live.push_back(addr.value());
      }
    } else {
      const size_t index = rng.NextBelow(live.size());
      ASSERT_TRUE(buddy.Free(live[index]).ok());
      live[index] = live.back();
      live.pop_back();
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(buddy.CheckInvariants()) << "at step " << step;
    }
  }
  for (Gaddr addr : live) {
    ASSERT_TRUE(buddy.Free(addr).ok());
  }
  EXPECT_TRUE(buddy.CheckInvariants());
  EXPECT_EQ(buddy.FreeBytes(), 1u << 20);
}

// --- FreelistHeap -----------------------------------------------------------

TEST_F(AllocTest, FreelistRoundTripAndReuse) {
  FreelistHeap heap(space_, 0, kArena);
  const Gaddr a = heap.Allocate(100).value();
  EXPECT_GE(heap.UsableSize(a).value(), 100u);
  EXPECT_TRUE(heap.Free(a).ok());
  const Gaddr b = heap.Allocate(100).value();
  EXPECT_EQ(a, b);  // First fit reuses the freed chunk.
  EXPECT_TRUE(heap.CheckInvariants());
}

TEST_F(AllocTest, FreelistDetectsDoubleFreeAndBadPointer) {
  FreelistHeap heap(space_, 0, kArena);
  const Gaddr a = heap.Allocate(64).value();
  EXPECT_TRUE(heap.Free(a).ok());
  EXPECT_EQ(heap.Free(a).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(heap.Free(a + 8).code(), ErrorCode::kInvalidArgument);
}

TEST_F(AllocTest, FreelistCoalesces) {
  FreelistHeap heap(space_, 0, kArena);
  const Gaddr a = heap.Allocate(1000).value();
  const Gaddr b = heap.Allocate(1000).value();
  const Gaddr c = heap.Allocate(1000).value();
  (void)b;
  EXPECT_TRUE(heap.Free(a).ok());
  EXPECT_TRUE(heap.Free(c).ok());
  EXPECT_TRUE(heap.Free(b).ok());
  EXPECT_TRUE(heap.CheckInvariants());
  EXPECT_EQ(heap.FreeBytes(), kArena);
  // Everything coalesced back: a max allocation fits again.
  EXPECT_TRUE(heap.Allocate(kArena - 64).ok());
}

TEST_F(AllocTest, FreelistAlignmentWithPadding) {
  FreelistHeap heap(space_, 0, kArena);
  (void)heap.Allocate(24).value();
  const Gaddr b = heap.Allocate(64, 256).value();
  EXPECT_EQ(b % 256, 0u);
  EXPECT_TRUE(heap.Free(b).ok());
  EXPECT_TRUE(heap.CheckInvariants());
}

TEST(FreelistProperty, RandomTraceKeepsInvariants) {
  Machine machine;
  AddressSpace space(machine, "fl-prop", 8 << 20);
  ASSERT_TRUE(space.Map(0, 4 << 20, 0).ok());
  FreelistHeap heap(space, 0, 1 << 20);
  Rng rng(77);
  std::map<Gaddr, uint64_t> live;
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.NextBool(0.55)) {
      const uint64_t size = 1 + rng.NextBelow(4096);
      Result<Gaddr> addr = heap.Allocate(size, uint64_t{16}
                                                   << rng.NextBelow(5));
      if (addr.ok()) {
        // No live allocation may overlap another.
        auto next = live.upper_bound(addr.value());
        if (next != live.end()) {
          ASSERT_LE(addr.value() + size, next->first);
        }
        if (next != live.begin()) {
          auto prev = std::prev(next);
          ASSERT_LE(prev->first + prev->second, addr.value());
        }
        live[addr.value()] = size;
      }
    } else {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      ASSERT_TRUE(heap.Free(it->first).ok());
      live.erase(it);
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(heap.CheckInvariants()) << "at step " << step;
    }
  }
  for (const auto& [addr, size] : live) {
    ASSERT_TRUE(heap.Free(addr).ok());
  }
  EXPECT_TRUE(heap.CheckInvariants());
  EXPECT_EQ(heap.FreeBytes(), 1u << 20);
}

// --- HardenedHeap -----------------------------------------------------------

class HardenedTest : public AllocTest {
 protected:
  HardenedTest() : backing_(space_, 0, kArena), hardened_(backing_, 4096) {
    machine_.context().shadow_checks = true;
  }

  FreelistHeap backing_;
  HardenedHeap hardened_;
};

TEST_F(HardenedTest, PayloadAccessibleRedzonesPoisoned) {
  const Gaddr a = hardened_.Allocate(100).value();
  std::vector<uint8_t> buffer(100, 0xab);
  EXPECT_NO_THROW(space_.Write(a, buffer.data(), buffer.size()));
  // One byte past the payload hits the tail padding/redzone.
  uint8_t byte = 1;
  EXPECT_THROW(space_.Write(a + 100, &byte, 1), TrapException);
  // Before the payload is the left redzone.
  EXPECT_THROW(space_.Write(a - 1, &byte, 1), TrapException);
}

TEST_F(HardenedTest, UseAfterFreeCaughtViaQuarantine) {
  const Gaddr a = hardened_.Allocate(64).value();
  ASSERT_TRUE(hardened_.Free(a).ok());
  uint8_t byte = 0;
  try {
    space_.Read(a, &byte, 1);
    FAIL() << "use-after-free not caught";
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kAsanViolation);
  }
}

TEST_F(HardenedTest, DoubleFreeRejected) {
  const Gaddr a = hardened_.Allocate(64).value();
  ASSERT_TRUE(hardened_.Free(a).ok());
  EXPECT_EQ(hardened_.Free(a).code(), ErrorCode::kInvalidArgument);
}

TEST_F(HardenedTest, QuarantineEvictsAndMemoryIsReusable) {
  // Quarantine capacity is 4096 bytes; freeing more must recycle cleanly.
  std::vector<Gaddr> addrs;
  for (int i = 0; i < 64; ++i) {
    addrs.push_back(hardened_.Allocate(256).value());
  }
  for (Gaddr addr : addrs) {
    ASSERT_TRUE(hardened_.Free(addr).ok());
  }
  EXPECT_LE(hardened_.quarantined_bytes(), 4096u);
  // New allocations reuse evicted memory and are accessible.
  const Gaddr fresh = hardened_.Allocate(256).value();
  std::vector<uint8_t> buffer(256, 1);
  EXPECT_NO_THROW(space_.Write(fresh, buffer.data(), buffer.size()));
}

TEST_F(HardenedTest, ChargesMoreThanBackingAlloc) {
  const uint64_t t0 = machine_.clock().cycles();
  (void)backing_.Allocate(128).value();
  const uint64_t plain = machine_.clock().cycles() - t0;
  const uint64_t t1 = machine_.clock().cycles();
  (void)hardened_.Allocate(128).value();
  const uint64_t instrumented = machine_.clock().cycles() - t1;
  EXPECT_GT(instrumented, plain);
}

// --- AllocatorRegistry -------------------------------------------------------

TEST_F(AllocTest, RegistryRoutesPerCompartment) {
  AllocatorRegistry registry;
  Allocator& heap0 = registry.Adopt(
      std::make_unique<FreelistHeap>(space_, 0, 1 << 18));
  Allocator& heap1 = registry.Adopt(
      std::make_unique<FreelistHeap>(space_, 1 << 18, 1 << 18));
  registry.SetGlobal(heap0);
  registry.SetForCompartment(1, heap1);
  EXPECT_EQ(&registry.For(0), &heap0);
  EXPECT_EQ(&registry.For(1), &heap1);
  EXPECT_EQ(&registry.For(7), &heap0);
  EXPECT_TRUE(registry.HasDedicated(1));
  EXPECT_FALSE(registry.HasDedicated(0));
}

}  // namespace
}  // namespace flexos
