// Image building and the protection semantics of built images: compartment
// layout, per-compartment allocators, MPK enforcement of cross-compartment
// memory access, shared-region reachability, CFI enforcement, and the
// global-vs-local allocator hardening policy.
#include <gtest/gtest.h>

#include "alloc/hardened_heap.h"
#include "core/image_builder.h"
#include "support/strings.h"

namespace flexos {
namespace {

std::vector<std::string> Libs() {
  return {"app", "net", "sched", "libc", "alloc"};
}

ImageConfig TwoCompartments(IsolationBackend backend) {
  ImageConfig config;
  config.backend = backend;
  config.compartments = {{"net"}, {"app", "sched", "libc", "alloc"}};
  return config;
}

TEST(ImageBuilder, RejectsBadConfigs) {
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig empty;
  EXPECT_FALSE(builder.Build(empty).ok());

  ImageConfig dup = TwoCompartments(IsolationBackend::kMpkSharedStack);
  dup.compartments[0].push_back("app");  // app in two compartments.
  EXPECT_EQ(builder.Build(dup).status().code(), ErrorCode::kAlreadyExists);

  ImageConfig unknown_hardened = BaselineConfig(Libs());
  unknown_hardened.hardened_libs = {"nosuchlib"};
  EXPECT_EQ(builder.Build(unknown_hardened).status().code(),
            ErrorCode::kNotFound);

  ImageConfig has_platform = BaselineConfig(Libs());
  has_platform.compartments[0].push_back("platform");
  EXPECT_FALSE(builder.Build(has_platform).ok());

  ImageConfig empty_group = BaselineConfig(Libs());
  empty_group.compartments.push_back({});
  EXPECT_FALSE(builder.Build(empty_group).ok());
}

TEST(ImageBuilder, BaselineHasOneCompartmentOneSpace) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image = builder.Build(BaselineConfig(Libs())).value();
  EXPECT_EQ(image->compartment_count(), 1);
  EXPECT_EQ(image->CompartmentOf("app"), 0);
  EXPECT_EQ(image->CompartmentOf("net"), 0);
  EXPECT_EQ(&image->SpaceOf("app"), &image->SpaceOf("net"));
  EXPECT_EQ(&image->AllocatorOf("app"), &image->AllocatorOf("net"));
}

TEST(ImageBuilder, MpkCompartmentsGetDistinctKeysAndHeaps) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();
  ASSERT_EQ(image->compartment_count(), 2);
  const CompartmentRuntime& net = image->compartment(0);
  const CompartmentRuntime& rest = image->compartment(1);
  EXPECT_NE(net.pkey, rest.pkey);
  EXPECT_NE(net.pkey, 0);  // Key 0 is the shared region.
  EXPECT_NE(net.heap_base, rest.heap_base);
  EXPECT_EQ(&image->SpaceOf("net"), &image->SpaceOf("app"));  // One space.
  EXPECT_NE(&image->AllocatorOf("net"), &image->AllocatorOf("app"));
}

TEST(ImageBuilder, VmBackendGetsSpacePerCompartment) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kVmRpc)).value();
  EXPECT_NE(&image->SpaceOf("net"), &image->SpaceOf("app"));
}

TEST(ImageSemantics, MpkCrossCompartmentWriteFaults) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();
  // Allocate in net's heap, then try to touch it from the app compartment.
  const Gaddr net_buf = image->AllocatorOf("net").Allocate(64).value();
  AddressSpace& space = image->SpaceOf("app");
  uint8_t byte = 1;

  bool trapped = false;
  image->Call(kLibPlatform, "app", [&] {
    try {
      space.Write(net_buf, &byte, 1);
    } catch (const TrapException& trap) {
      trapped = true;
      EXPECT_EQ(trap.info().kind, TrapKind::kProtectionFault);
    }
  });
  EXPECT_TRUE(trapped);

  // The owning compartment can write it fine.
  image->Call(kLibPlatform, "net", [&] {
    EXPECT_NO_THROW(space.Write(net_buf, &byte, 1));
  });
}

TEST(ImageSemantics, SharedRegionWritableFromAllCompartments) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();
  const Gaddr shared = image->shared_allocator().Allocate(64).value();
  uint8_t byte = 7;
  image->Call(kLibPlatform, "app", [&] {
    EXPECT_NO_THROW(image->SpaceOf("app").Write(shared, &byte, 1));
  });
  image->Call(kLibPlatform, "net", [&] {
    EXPECT_NO_THROW(image->SpaceOf("net").Write(shared, &byte, 1));
  });
}

TEST(ImageSemantics, VmPrivateMemoryUnmappedElsewhere) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kVmRpc)).value();
  const Gaddr net_buf = image->AllocatorOf("net").Allocate(64).value();
  // net's heap address is not even mapped in app's VM... but both VMs use
  // the same layout, so the address IS mapped — to app's own private page.
  // Writing through app's space must not affect net's view.
  uint8_t value_a = 0xaa;
  image->SpaceOf("app").Write(net_buf, &value_a, 1);
  uint8_t value_n = 0;
  image->SpaceOf("net").Read(net_buf, &value_n, 1);
  EXPECT_NE(value_n, 0xaa);  // Distinct backing pages.
}

TEST(ImageSemantics, VmSharedRegionAliased) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kVmRpc)).value();
  const Gaddr shared = image->shared_allocator().Allocate(64).value();
  const uint32_t value = 0xfeedface;
  image->SpaceOf("app").WriteT<uint32_t>(shared, value);
  EXPECT_EQ(image->SpaceOf("net").ReadT<uint32_t>(shared), value);
}

TEST(ImageSemantics, CrossCallsChargeTheConfiguredGate) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();
  const uint64_t wrpkru_before = machine.stats().wrpkru_count;
  image->Call("app", "net", [] {});
  EXPECT_EQ(machine.stats().wrpkru_count, wrpkru_before + 2);
  EXPECT_EQ(image->stats().cross_compartment_calls, 1u);

  image->Call("app", "sched", [] {});  // Same compartment: no PKRU write.
  EXPECT_EQ(machine.stats().wrpkru_count, wrpkru_before + 2);
  EXPECT_EQ(image->stats().same_compartment_calls, 1u);
}

TEST(ImageSemantics, HardenedLibGetsInstrumentedContext) {
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig config = BaselineConfig(Libs());
  config.hardened_libs = {"net"};
  auto image = builder.Build(config).value();
  EXPECT_TRUE(image->IsHardened("net"));
  EXPECT_FALSE(image->IsHardened("app"));
  image->Call("app", "net", [&] {
    EXPECT_GT(machine.context().mem_cost_multiplier, 1.0);
    EXPECT_TRUE(machine.context().shadow_checks);
  });
  image->Call("app", "libc", [&] {
    EXPECT_EQ(machine.context().mem_cost_multiplier, 1.0);
    EXPECT_FALSE(machine.context().shadow_checks);
  });
}

TEST(ImageSemantics, GlobalAllocatorHardenedWhenAnyLibIs) {
  // Paper Fig. 4: with one global allocator, hardening anything makes the
  // whole system pay instrumented malloc.
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig config = BaselineConfig(Libs());
  config.per_compartment_allocators = false;
  config.hardened_libs = {"net"};
  auto image = builder.Build(config).value();
  // app's allocator IS the hardened global one.
  EXPECT_EQ(&image->AllocatorOf("app"), &image->AllocatorOf("net"));
  EXPECT_NE(dynamic_cast<HardenedHeap*>(&image->AllocatorOf("app")),
            nullptr);
}

TEST(ImageSemantics, LocalAllocatorsConfineTheHardeningTax) {
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig config = TwoCompartments(IsolationBackend::kMpkSharedStack);
  config.hardened_libs = {"net"};  // net is alone in compartment 0.
  auto image = builder.Build(config).value();
  EXPECT_NE(dynamic_cast<HardenedHeap*>(&image->AllocatorOf("net")),
            nullptr);
  EXPECT_EQ(dynamic_cast<HardenedHeap*>(&image->AllocatorOf("app")),
            nullptr);
}

TEST(ImageSemantics, CfiChecksDeclaredApi) {
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig config = BaselineConfig(Libs());
  config.cfi_libs = {"sched"};
  config.apis["sched"] = {"thread_add", "thread_rm", "yield"};
  auto image = builder.Build(config).value();

  bool ran = false;
  EXPECT_NO_THROW(
      image->CallNamed("app", "sched", "yield", [&] { ran = true; }));
  EXPECT_TRUE(ran);

  try {
    image->CallNamed("app", "sched", "corrupt_runqueue", [] {});
    FAIL() << "CFI violation not caught";
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kCfiViolation);
  }
  EXPECT_GE(image->stats().cfi_checks, 2u);
}

TEST(ImageSemantics, DescribeListsCompartments) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kVmRpc)).value();
  const std::string description = image->Describe();
  EXPECT_NE(description.find("vm-rpc"), std::string::npos);
  EXPECT_NE(description.find("net"), std::string::npos);
}

TEST(ImageSemantics, ApiContractsRunOnlyAcrossTrustDomains) {
  // Paper §5: "if component A is together with component B in the same
  // trust domain, then checks are not necessary, but they are when
  // component C (in another domain) calls component B."
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();
  bool legal = true;
  image->RegisterApiContract("net", "listen", [&legal] { return legal; },
                             "port must be unbound");

  // Same compartment as net? No: app is in the other compartment, so the
  // check runs.
  image->CallNamed("app", "net", "listen", [] {});
  EXPECT_EQ(image->contract_checks_run(), 1u);
  EXPECT_EQ(image->contract_checks_skipped(), 0u);

  // sched shares app's compartment; net is alone, so sched -> net also
  // crosses. But net -> net-internal calls would skip. Emulate a
  // same-domain call using two libs of compartment 1.
  image->RegisterApiContract("libc", "memcpy", [] { return false; },
                             "never called legally");
  // app and libc share compartment 1: the (failing!) check is skipped.
  EXPECT_NO_THROW(image->CallNamed("app", "libc", "memcpy", [] {}));
  EXPECT_EQ(image->contract_checks_skipped(), 1u);

  // Violation across domains traps.
  legal = false;
  try {
    image->CallNamed("app", "net", "listen", [] {});
    FAIL() << "contract violation not caught";
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kContractViolation);
    EXPECT_NE(trap.info().detail.find("port must be unbound"),
              std::string::npos);
  }
}

TEST(ImageSemantics, SwitchedStackCompartmentsGetGuardedStacks) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kMpkSwitchedStack))
          .value();
  const CompartmentRuntime& net = image->compartment(0);
  ASSERT_NE(net.stack_base, 0u);
  ASSERT_GT(net.stack_bytes, 0u);
  // The stack is tagged with the compartment's key...
  EXPECT_EQ(net.space->KeyOf(net.stack_base).value(), net.pkey);
  // ...usable from inside the compartment...
  image->Call(kLibPlatform, "net", [&] {
    uint8_t byte = 1;
    EXPECT_NO_THROW(net.space->Write(net.stack_base, &byte, 1));
  });
  // ...not from another one...
  image->Call(kLibPlatform, "app", [&] {
    uint8_t byte = 1;
    EXPECT_THROW(net.space->Write(net.stack_base, &byte, 1), TrapException);
  });
  // ...and running past the bottom hits the guard page.
  try {
    uint8_t byte = 0;
    net.space->Read(net.stack_base - 1, &byte, 1);
    FAIL() << "guard page not armed";
  } catch (const TrapException& trap) {
    EXPECT_EQ(trap.info().kind, TrapKind::kStackOverflow);
  }
}

TEST(ImageSemantics, SharedStackBackendHasNoPrivateStacks) {
  Machine machine;
  ImageBuilder builder(machine);
  auto image =
      builder.Build(TwoCompartments(IsolationBackend::kMpkSharedStack))
          .value();
  EXPECT_EQ(image->compartment(0).stack_base, 0u);
}

TEST(ImageSemantics, VmReplicatedLibsStayLocal) {
  // Calls to per-VM-replicated libraries must not pay VM exits.
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig config;
  config.backend = IsolationBackend::kVmRpc;
  config.compartments = {{"net"}, {"app", "sched", "libc", "alloc"}};
  auto image = builder.Build(config).value();

  const uint64_t exits_before = machine.stats().vmexit_count;
  image->Call("net", "libc", [] {});   // Replicated: local.
  image->Call("net", "sched", [] {});  // Replicated: local.
  EXPECT_EQ(machine.stats().vmexit_count, exits_before);
  image->Call("app", "net", [] {});  // Service boundary: real RPC.
  EXPECT_GT(machine.stats().vmexit_count, exits_before);
}

TEST(ImageSemantics, LeafCallKeepsCallerDomainWithTargetInstrumentation) {
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig config = TwoCompartments(IsolationBackend::kMpkSharedStack);
  config.hardened_libs = {"libc"};
  auto image = builder.Build(config).value();

  image->Call(kLibPlatform, "net", [&] {
    const Pkru net_pkru = machine.context().pkru;
    image->CallLeaf(image->Resolve("net", "libc"), [&] {
      // Protection domain unchanged (still net's PKRU)...
      EXPECT_EQ(machine.context().pkru, net_pkru);
      // ...but libc's instrumentation applies.
      EXPECT_TRUE(machine.context().shadow_checks);
      EXPECT_GT(machine.context().mem_cost_multiplier, 1.0);
    });
    // Restored on return.
    EXPECT_FALSE(machine.context().shadow_checks);
  });
  EXPECT_GT(image->stats().leaf_calls, 0u);
}

TEST(ImageBuilder, TooManyCompartmentsRejected) {
  Machine machine;
  ImageBuilder builder(machine);
  ImageConfig config;
  config.backend = IsolationBackend::kMpkSharedStack;
  for (int i = 0; i < 16; ++i) {
    config.compartments.push_back({StrFormat("lib%d", i)});
  }
  config.heap_bytes_per_compartment = 1 << 20;
  EXPECT_FALSE(builder.Build(config).ok());
}

}  // namespace
}  // namespace flexos
