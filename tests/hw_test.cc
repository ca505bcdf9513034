#include <gtest/gtest.h>

#include "hw/clock.h"
#include "hw/machine.h"
#include "hw/pkru.h"
#include "hw/trap.h"

namespace flexos {
namespace {

TEST(Clock, ChargesAndConverts) {
  Clock clock(2'100'000'000);
  clock.Charge(2100);
  EXPECT_EQ(clock.cycles(), 2100u);
  EXPECT_EQ(clock.NowNanos(), 1000u);  // 2100 cycles at 2.1 GHz = 1 us.
}

TEST(Clock, NanosToCyclesRoundsUp) {
  Clock clock(2'100'000'000);
  EXPECT_EQ(clock.NanosToCycles(1), 3u);  // 2.1 cycles -> 3.
  EXPECT_EQ(clock.NanosToCycles(1'000'000'000), 2'100'000'000u);
}

TEST(Clock, AdvanceToNeverGoesBackwards) {
  Clock clock;
  clock.Charge(100);
  clock.AdvanceTo(50);
  EXPECT_EQ(clock.cycles(), 100u);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.cycles(), 500u);
}

TEST(Clock, LargeCycleCountsDontOverflowNanos) {
  Clock clock(2'100'000'000);
  clock.Charge(2'100'000'000ull * 1000);  // 1000 virtual seconds.
  EXPECT_EQ(clock.NowNanos(), 1'000'000'000'000ull);
}

// CyclesToNanos uses a division-free fixed-point reciprocal (it sits on the
// gate-dispatch record path); pin it to the reference division so the
// fast path stays an exact floor at any frequency, including ones above
// and below 1 GHz and divisible-boundary inputs like 21 cycles at 2.1 GHz.
TEST(Clock, CyclesToNanosMatchesReferenceDivision) {
  for (uint64_t freq :
       {2'100'000'000ull, 1'000'000'000ull, 999'999'937ull, 3'500'000'000ull,
        1'000'000ull}) {
    Clock clock(freq);
    for (uint64_t cycles : std::initializer_list<uint64_t>{
             0, 1, 7, 20, 21, 22, 238, 8051, 123'457, freq - 1, freq,
             freq + 1, 1000 * freq + 12'345}) {
      const uint64_t expected =
          (cycles / freq) * 1'000'000'000ull +
          (cycles % freq) * 1'000'000'000ull / freq;
      EXPECT_EQ(clock.CyclesToNanos(cycles), expected)
          << "cycles=" << cycles << " freq=" << freq;
    }
  }
}

TEST(Pkru, AllowAllAllowsEverything) {
  const Pkru pkru = Pkru::AllowAll();
  for (Pkey key = 0; key < kNumPkeys; ++key) {
    EXPECT_TRUE(pkru.CanRead(key));
    EXPECT_TRUE(pkru.CanWrite(key));
  }
}

TEST(Pkru, DenyAllDeniesEverything) {
  const Pkru pkru = Pkru::DenyAll();
  for (Pkey key = 0; key < kNumPkeys; ++key) {
    EXPECT_FALSE(pkru.CanRead(key));
    EXPECT_FALSE(pkru.CanWrite(key));
  }
}

TEST(Pkru, ReadOnlyGrant) {
  const Pkru pkru =
      Pkru::DenyAll().WithAccess(3, /*allow_read=*/true, /*allow_write=*/false);
  EXPECT_TRUE(pkru.CanRead(3));
  EXPECT_FALSE(pkru.CanWrite(3));
  EXPECT_FALSE(pkru.CanRead(2));
}

TEST(Pkru, RegrantAndRevoke) {
  Pkru pkru = Pkru::AllowAll().WithAccess(5, false, false);
  EXPECT_FALSE(pkru.CanRead(5));
  pkru = pkru.WithAccess(5, true, true);
  EXPECT_TRUE(pkru.CanWrite(5));
}

TEST(Machine, WrpkruChargesAndCounts) {
  Machine machine;
  const uint64_t before = machine.clock().cycles();
  machine.Wrpkru(Pkru::DenyAll());
  EXPECT_EQ(machine.clock().cycles() - before, machine.costs().wrpkru);
  EXPECT_EQ(machine.stats().wrpkru_count, 1u);
  EXPECT_EQ(machine.context().pkru, Pkru::DenyAll());
}

TEST(Machine, VmExitChargesExitEntryAndNotify) {
  Machine machine;
  const uint64_t before = machine.clock().cycles();
  machine.VmExitEnter();
  EXPECT_EQ(machine.clock().cycles() - before,
            2 * machine.costs().vmexit + machine.costs().vm_notify);
  EXPECT_EQ(machine.stats().vmexit_count, 1u);
}

TEST(Machine, MemOpHonorsInstrumentationMultiplier) {
  Machine machine;
  machine.context().mem_cost_multiplier = 1.0;
  const uint64_t t0 = machine.clock().cycles();
  machine.ChargeMemOp(4096);
  const uint64_t plain = machine.clock().cycles() - t0;

  machine.context().mem_cost_multiplier = 4.0;
  const uint64_t t1 = machine.clock().cycles();
  machine.ChargeMemOp(4096);
  const uint64_t instrumented = machine.clock().cycles() - t1;
  EXPECT_EQ(instrumented, plain * 4);
}

TEST(Machine, ComputeIsInstrumentationInsensitive) {
  Machine machine;
  machine.context().mem_cost_multiplier = 10.0;
  const uint64_t t0 = machine.clock().cycles();
  machine.ChargeCompute(100);
  EXPECT_EQ(machine.clock().cycles() - t0, 100u);
}

TEST(ScopedExecContext, RestoresOnExit) {
  Machine machine;
  machine.context().compartment = 1;
  {
    ExecContext other;
    other.compartment = 2;
    ScopedExecContext scope(machine, other);
    EXPECT_EQ(machine.context().compartment, 2);
  }
  EXPECT_EQ(machine.context().compartment, 1);
}

TEST(Trap, RaiseThrowsWithInfo) {
  try {
    RaiseTrap(TrapInfo{.kind = TrapKind::kProtectionFault,
                       .access = AccessKind::kWrite,
                       .guest_addr = 0x1234,
                       .detail = {}});
    FAIL() << "RaiseTrap returned";
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kProtectionFault);
    EXPECT_EQ(trap.info().guest_addr, 0x1234u);
    EXPECT_NE(trap.info().ToString().find("PROTECTION_FAULT"),
              std::string::npos);
  }
}

TEST(Trap, EveryKindHasAName) {
  for (int kind = 0; kind <= static_cast<int>(TrapKind::kUbsanViolation);
       ++kind) {
    EXPECT_NE(TrapKindName(static_cast<TrapKind>(kind)), "UNKNOWN_TRAP");
  }
}

}  // namespace
}  // namespace flexos
