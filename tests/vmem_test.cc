#include <gtest/gtest.h>

#include "vmem/address_space.h"

namespace flexos {
namespace {

class VmemTest : public ::testing::Test {
 protected:
  Machine machine_;
  AddressSpace space_{machine_, "test", 64 * kPageSize};
};

TEST_F(VmemTest, MapWriteReadRoundTrip) {
  ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 1).ok());
  const char data[] = "hello flexos";
  space_.Write(100, data, sizeof(data));
  char out[sizeof(data)] = {};
  space_.Read(100, out, sizeof(data));
  EXPECT_STREQ(out, "hello flexos");
}

TEST_F(VmemTest, CrossPageAccess) {
  ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 1).ok());
  std::vector<uint8_t> data(3 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  space_.Write(kPageSize / 2, data.data(), data.size());
  std::vector<uint8_t> out(data.size());
  space_.Read(kPageSize / 2, out.data(), out.size());
  EXPECT_EQ(data, out);
}

TEST_F(VmemTest, UnmappedAccessPageFaults) {
  uint8_t byte = 0;
  EXPECT_THROW(space_.Read(10 * kPageSize, &byte, 1), TrapException);
  try {
    space_.Write(10 * kPageSize, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kPageFault);
    EXPECT_EQ(trap.info().access, AccessKind::kWrite);
  }
}

TEST_F(VmemTest, PkruWriteDisableFaultsOnWriteNotRead) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 2).ok());
  machine_.context().pkru =
      Pkru::AllowAll().WithAccess(2, /*allow_read=*/true,
                                  /*allow_write=*/false);
  uint8_t byte = 7;
  EXPECT_NO_THROW(space_.Read(0, &byte, 1));
  try {
    space_.Write(0, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kProtectionFault);
    EXPECT_EQ(trap.info().pkey, 2);
  }
  EXPECT_EQ(machine_.stats().traps, 1u);
}

TEST_F(VmemTest, PkruAccessDisableFaultsOnRead) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 3).ok());
  machine_.context().pkru = Pkru::AllowAll().WithAccess(3, false, false);
  uint8_t byte = 0;
  EXPECT_THROW(space_.Read(0, &byte, 1), TrapException);
}

TEST_F(VmemTest, SetKeyRetags) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 1).ok());
  ASSERT_TRUE(space_.SetKey(0, kPageSize, 4).ok());
  EXPECT_EQ(space_.KeyOf(0).value(), 4);
  machine_.context().pkru = Pkru::AllowAll().WithAccess(4, false, false);
  uint8_t byte = 0;
  EXPECT_THROW(space_.Read(0, &byte, 1), TrapException);
}

TEST_F(VmemTest, GuardPageTrapsAsStackOverflow) {
  ASSERT_TRUE(space_.MapGuard(0, kPageSize).ok());
  uint8_t byte = 0;
  try {
    space_.Read(16, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kStackOverflow);
  }
}

TEST_F(VmemTest, DoubleMapRejected) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 1).ok());
  EXPECT_EQ(space_.Map(0, kPageSize, 1).code(), ErrorCode::kAlreadyExists);
}

TEST_F(VmemTest, UnalignedMapRejected) {
  EXPECT_EQ(space_.Map(10, kPageSize, 1).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(space_.Map(0, 100, 1).code(), ErrorCode::kInvalidArgument);
}

TEST_F(VmemTest, MapBeyondSpaceRejected) {
  EXPECT_EQ(space_.Map(63 * kPageSize, 2 * kPageSize, 1).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(VmemTest, BadPkeyRejected) {
  EXPECT_EQ(space_.Map(0, kPageSize, 16).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(VmemTest, UnmapThenAccessFaults) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 1).ok());
  ASSERT_TRUE(space_.Unmap(0, kPageSize).ok());
  uint8_t byte = 0;
  EXPECT_THROW(space_.Read(0, &byte, 1), TrapException);
}

TEST_F(VmemTest, AccessChargesCycles) {
  ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 0).ok());
  const uint64_t before = machine_.clock().cycles();
  std::vector<uint8_t> buffer(8192);
  space_.Write(0, buffer.data(), buffer.size());
  EXPECT_GT(machine_.clock().cycles(), before);
}

TEST_F(VmemTest, UncheckedAccessBypassesProtectionAndCharges) {
  ASSERT_TRUE(space_.Map(0, kPageSize, 5).ok());
  machine_.context().pkru = Pkru::DenyAll();
  const uint64_t before = machine_.clock().cycles();
  uint8_t byte = 9;
  EXPECT_NO_THROW(space_.WriteUnchecked(0, &byte, 1));
  EXPECT_NO_THROW(space_.ReadUnchecked(0, &byte, 1));
  EXPECT_EQ(machine_.clock().cycles(), before);
}

TEST_F(VmemTest, AliasSharesBacking) {
  AddressSpace other(machine_, "other", 64 * kPageSize);
  ASSERT_TRUE(space_.Map(0, kPageSize, 0).ok());
  ASSERT_TRUE(other.MapAlias(0, space_, 0, kPageSize).ok());
  const uint32_t value = 0xdeadbeef;
  space_.WriteT<uint32_t>(64, value);
  EXPECT_EQ(other.ReadT<uint32_t>(64), value);
  other.WriteT<uint32_t>(64, 7);
  EXPECT_EQ(space_.ReadT<uint32_t>(64), 7u);
}

// --- Lazy backing -----------------------------------------------------------

TEST_F(VmemTest, UnwrittenPagesReadAsZerosWithoutBacking) {
  ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 1).ok());
  std::vector<uint8_t> out(3 * kPageSize, 0xaa);
  space_.Read(kPageSize / 2, out.data(), out.size());
  EXPECT_EQ(out, std::vector<uint8_t>(out.size(), 0));
  space_.ReadUnchecked(0, out.data(), kPageSize);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(space_.resident_pages(), 0u);
}

TEST_F(VmemTest, WriteAcrossPageBoundaryMaterializesTwoPages) {
  ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 1).ok());
  const uint64_t value = 0x0123456789abcdefull;
  space_.WriteT<uint64_t>(2 * kPageSize - 4, value);
  EXPECT_EQ(space_.resident_pages(), 2u);
  EXPECT_EQ(space_.ReadT<uint64_t>(2 * kPageSize - 4), value);
  EXPECT_EQ(space_.ReadT<uint32_t>(kPageSize - 4), 0u);
  EXPECT_EQ(space_.resident_pages(), 2u);
}

TEST_F(VmemTest, AliasOfUnwrittenPagesStaysLazyAndShared) {
  AddressSpace other(machine_, "other", 64 * kPageSize);
  ASSERT_TRUE(space_.Map(0, 2 * kPageSize, 0).ok());
  ASSERT_TRUE(other.MapAlias(0, space_, 0, 2 * kPageSize).ok());
  EXPECT_EQ(other.resident_pages(), 0u);
  EXPECT_EQ(space_.resident_pages(), 0u);

  // First write through the alias lands in the source's backing...
  other.WriteT<uint32_t>(8, 0xfeedu);
  EXPECT_EQ(space_.ReadT<uint32_t>(8), 0xfeedu);
  // ...and a first write through the source shows in the alias.
  space_.WriteT<uint32_t>(kPageSize + 8, 0xbeefu);
  EXPECT_EQ(other.ReadT<uint32_t>(kPageSize + 8), 0xbeefu);
  EXPECT_EQ(space_.resident_pages(), 2u);
  EXPECT_EQ(other.resident_pages(), 2u);
}

TEST_F(VmemTest, UnwrittenPagesTrapAsBeforeAndStayUnbacked) {
  ASSERT_TRUE(space_.MapGuard(0, kPageSize).ok());
  ASSERT_TRUE(space_.Map(kPageSize, kPageSize, 2).ok());
  ASSERT_TRUE(space_.Map(2 * kPageSize, kPageSize, 3, /*writable=*/false)
                  .ok());
  const uint8_t byte = 1;
  const auto write_trap = [&](Gaddr addr) {
    try {
      space_.Write(addr, &byte, 1);
    } catch (const TrapException& trap) {
      EXPECT_EQ(trap.info().access, AccessKind::kWrite);
      return trap.info().kind;
    }
    ADD_FAILURE() << "write did not trap";
    return TrapKind::kPageFault;
  };
  EXPECT_EQ(write_trap(16), TrapKind::kStackOverflow);
  EXPECT_EQ(write_trap(10 * kPageSize), TrapKind::kPageFault);
  EXPECT_EQ(write_trap(2 * kPageSize + 16), TrapKind::kProtectionFault);
  machine_.context().pkru = Pkru::AllowAll().WithAccess(2, true, false);
  EXPECT_EQ(write_trap(kPageSize + 16), TrapKind::kProtectionFault);
  EXPECT_EQ(space_.resident_pages(), 0u);
}

TEST_F(VmemTest, ShadowOfUntouchedPage) {
  ASSERT_TRUE(space_.Map(0, 2 * kPageSize, 0).ok());
  EXPECT_FALSE(space_.IsPoisoned(0, 2 * kPageSize));
  EXPECT_EQ(space_.resident_pages(), 0u);
  space_.Poison(kPageSize + 64, 32, kShadowFreed);
  EXPECT_EQ(space_.resident_pages(), 1u);
  EXPECT_TRUE(space_.IsPoisoned(kPageSize + 64, 1));
  EXPECT_FALSE(space_.IsPoisoned(kPageSize, 64));
  space_.Unpoison(kPageSize + 64, 32);
  EXPECT_FALSE(space_.IsPoisoned(kPageSize, kPageSize));
  // Unpoisoning a partial tail granule backs the page too.
  space_.Unpoison(0, 12);
  EXPECT_EQ(space_.resident_pages(), 2u);
  EXPECT_TRUE(space_.IsPoisoned(12, 1));
  EXPECT_FALSE(space_.IsPoisoned(0, 12));
}

TEST_F(VmemTest, UnmapThenMapReadsZeros) {
  ASSERT_TRUE(space_.Map(0, 2 * kPageSize, 1).ok());
  space_.Fill(0, 0x5a, 2 * kPageSize);
  EXPECT_EQ(space_.resident_pages(), 2u);
  ASSERT_TRUE(space_.Unmap(0, 2 * kPageSize).ok());
  EXPECT_EQ(space_.resident_pages(), 0u);
  ASSERT_TRUE(space_.Map(0, 2 * kPageSize, 1).ok());
  EXPECT_EQ(space_.ReadT<uint64_t>(kPageSize + 8), 0u);
  EXPECT_EQ(space_.resident_pages(), 0u);
}

// --- ASAN-lite shadow -----------------------------------------------------

class ShadowTest : public VmemTest {
 protected:
  void SetUp() override {
    ASSERT_TRUE(space_.Map(0, 4 * kPageSize, 0).ok());
    machine_.context().shadow_checks = true;
  }
};

TEST_F(ShadowTest, PoisonedAccessTraps) {
  space_.Poison(64, 32, kShadowHeapRedzone);
  uint8_t byte = 0;
  try {
    space_.Read(64, &byte, 1);
    FAIL();
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kAsanViolation);
  }
}

TEST_F(ShadowTest, UnpoisonedAccessPasses) {
  space_.Poison(64, 32, kShadowHeapRedzone);
  space_.Unpoison(64, 32);
  uint8_t byte = 0;
  EXPECT_NO_THROW(space_.Read(64, &byte, 1));
}

TEST_F(ShadowTest, AccessBeforeRedzoneIsFine) {
  space_.Poison(128, 64, kShadowHeapRedzone);
  uint8_t buffer[64];
  EXPECT_NO_THROW(space_.Read(64, buffer, 64));
  EXPECT_THROW(space_.Read(64, buffer, 65), TrapException);
}

TEST_F(ShadowTest, PartialGranuleTailHonored) {
  // Unpoison 12 bytes: granule 0 fully addressable, granule 1 has 4 valid.
  space_.Poison(0, 32, kShadowHeapRedzone);
  space_.Unpoison(0, 12);
  uint8_t buffer[16];
  EXPECT_NO_THROW(space_.Read(0, buffer, 12));
  EXPECT_THROW(space_.Read(0, buffer, 13), TrapException);
}

TEST_F(ShadowTest, ChecksOffWhenUninstrumented) {
  space_.Poison(64, 32, kShadowFreed);
  machine_.context().shadow_checks = false;
  uint8_t byte = 0;
  EXPECT_NO_THROW(space_.Read(64, &byte, 1));
}

TEST_F(ShadowTest, IsPoisonedReflectsState) {
  EXPECT_FALSE(space_.IsPoisoned(0, 64));
  space_.Poison(0, 64, kShadowFreed);
  EXPECT_TRUE(space_.IsPoisoned(0, 64));
  EXPECT_TRUE(space_.IsPoisoned(32, 8));
}

}  // namespace
}  // namespace flexos
