#include "vmem/address_space.h"

#include <algorithm>
#include <cstring>

#include "support/strings.h"

namespace flexos {
namespace {

constexpr bool PageAligned(uint64_t value) { return value % kPageSize == 0; }

// Backs every read of a page that was never written.
constexpr PageData kZeroPage{};

// A mapped page's backing, or null while no space has written it.
PageData* Backing(PageEntry& entry) {
  if (entry.data == nullptr) {
    entry.data = entry.slot->get();
  }
  return entry.data;
}

// A mapped page's bytes and shadow for reading: the zero page if unbacked.
const PageData& Contents(PageEntry& entry) {
  const PageData* data = Backing(entry);
  return data != nullptr ? *data : kZeroPage;
}

// A mapped page's backing for writing, allocated on first use. Callers run
// every check of the access first, so a trapping access allocates nothing.
PageData& Materialize(PageEntry& entry) {
  if (Backing(entry) == nullptr) {
    *entry.slot = std::make_unique<PageData>();
    entry.data = entry.slot->get();
  }
  return *entry.data;
}

// In-page offset of the first byte of [off, off+span) that the shadow marks
// unaddressable, or kPageSize if there is none. A partially addressable
// granule (shadow < kShadowGranule) admits its first `shadow` bytes; an
// access past them is reported at its first byte inside that granule.
uint64_t FirstPoisonedByte(const PageData& page, uint64_t off, uint64_t span) {
  const uint64_t end = off + span;
  for (uint64_t g = off / kShadowGranule; g <= (end - 1) / kShadowGranule;
       ++g) {
    const uint8_t shadow = page.shadow[g];
    if (shadow == kShadowAddressable) {
      continue;
    }
    const uint64_t granule_begin = g * kShadowGranule;
    if (shadow < kShadowGranule &&
        std::min(end, granule_begin + kShadowGranule) - granule_begin <=
            shadow) {
      continue;
    }
    return std::max(off, granule_begin);
  }
  return kPageSize;
}

}  // namespace

AddressSpace::AddressSpace(Machine& machine, std::string name,
                           uint64_t size_bytes)
    : machine_(machine), name_(std::move(name)) {
  FLEXOS_CHECK(PageAligned(size_bytes), "address space size not page-aligned");
  pages_.resize(size_bytes / kPageSize);
}

Status AddressSpace::Map(Gaddr addr, uint64_t size, Pkey key, bool writable) {
  if (!PageAligned(addr) || !PageAligned(size) || size == 0) {
    return Status(ErrorCode::kInvalidArgument, "Map: unaligned range");
  }
  if (addr / kPageSize + size / kPageSize > pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "Map: beyond address space");
  }
  if (key >= kNumPkeys) {
    return Status(ErrorCode::kInvalidArgument, "Map: bad pkey");
  }
  const uint64_t first = addr / kPageSize;
  const uint64_t count = size / kPageSize;
  for (uint64_t i = first; i < first + count; ++i) {
    if (pages_[i].mapped() || pages_[i].guard) {
      return Status(ErrorCode::kAlreadyExists,
                    StrFormat("Map: page 0x%llx already mapped",
                              static_cast<unsigned long long>(i * kPageSize)));
    }
  }
  // One allocation for the whole range; each entry aliases its own slot.
  const std::shared_ptr<PageSlot[]> region(new PageSlot[count]);
  for (uint64_t i = 0; i < count; ++i) {
    pages_[first + i] = PageEntry{.slot = std::shared_ptr<PageSlot>(
                                      region, &region[i]),
                                  .key = key,
                                  .writable = writable,
                                  .guard = false};
  }
  return Status::Ok();
}

Status AddressSpace::MapAlias(Gaddr dst_addr, AddressSpace& source,
                              Gaddr src_addr, uint64_t size) {
  if (!PageAligned(dst_addr) || !PageAligned(src_addr) || !PageAligned(size) ||
      size == 0) {
    return Status(ErrorCode::kInvalidArgument, "MapAlias: unaligned range");
  }
  if (dst_addr / kPageSize + size / kPageSize > pages_.size() ||
      src_addr / kPageSize + size / kPageSize > source.pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "MapAlias: beyond address space");
  }
  const uint64_t count = size / kPageSize;
  for (uint64_t i = 0; i < count; ++i) {
    const PageEntry& src = source.pages_[src_addr / kPageSize + i];
    PageEntry& dst = pages_[dst_addr / kPageSize + i];
    if (!src.mapped()) {
      return Status(ErrorCode::kNotFound, "MapAlias: source page unmapped");
    }
    if (dst.mapped() || dst.guard) {
      return Status(ErrorCode::kAlreadyExists, "MapAlias: dest page mapped");
    }
  }
  for (uint64_t i = 0; i < count; ++i) {
    const PageEntry& src = source.pages_[src_addr / kPageSize + i];
    PageEntry& dst = pages_[dst_addr / kPageSize + i];
    dst.slot = src.slot;  // Shared slot: writes are visible in both.
    dst.data = src.data;
    dst.key = src.key;
    dst.writable = src.writable;
    dst.guard = false;
  }
  return Status::Ok();
}

Status AddressSpace::MapGuard(Gaddr addr, uint64_t size) {
  if (!PageAligned(addr) || !PageAligned(size) || size == 0) {
    return Status(ErrorCode::kInvalidArgument, "MapGuard: unaligned range");
  }
  if (addr / kPageSize + size / kPageSize > pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "MapGuard: beyond address space");
  }
  const uint64_t first = addr / kPageSize;
  const uint64_t count = size / kPageSize;
  for (uint64_t i = first; i < first + count; ++i) {
    if (pages_[i].mapped()) {
      return Status(ErrorCode::kAlreadyExists, "MapGuard: page mapped");
    }
    pages_[i].guard = true;
  }
  return Status::Ok();
}

Status AddressSpace::Unmap(Gaddr addr, uint64_t size) {
  if (!PageAligned(addr) || !PageAligned(size) || size == 0) {
    return Status(ErrorCode::kInvalidArgument, "Unmap: unaligned range");
  }
  if (addr / kPageSize + size / kPageSize > pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "Unmap: beyond address space");
  }
  const uint64_t first = addr / kPageSize;
  const uint64_t count = size / kPageSize;
  for (uint64_t i = first; i < first + count; ++i) {
    pages_[i] = PageEntry{};
  }
  return Status::Ok();
}

Status AddressSpace::SetKey(Gaddr addr, uint64_t size, Pkey key) {
  if (!PageAligned(addr) || !PageAligned(size) || size == 0) {
    return Status(ErrorCode::kInvalidArgument, "SetKey: unaligned range");
  }
  if (key >= kNumPkeys) {
    return Status(ErrorCode::kInvalidArgument, "SetKey: bad pkey");
  }
  if (addr / kPageSize + size / kPageSize > pages_.size()) {
    return Status(ErrorCode::kOutOfRange, "SetKey: beyond address space");
  }
  const uint64_t first = addr / kPageSize;
  const uint64_t count = size / kPageSize;
  for (uint64_t i = first; i < first + count; ++i) {
    if (!pages_[i].mapped()) {
      return Status(ErrorCode::kNotFound, "SetKey: page unmapped");
    }
  }
  for (uint64_t i = first; i < first + count; ++i) {
    pages_[i].key = key;
  }
  return Status::Ok();
}

Result<Pkey> AddressSpace::KeyOf(Gaddr addr) const {
  const uint64_t index = addr / kPageSize;
  if (index >= pages_.size() || !pages_[index].mapped()) {
    return Status(ErrorCode::kNotFound, "KeyOf: page unmapped");
  }
  return pages_[index].key;
}

bool AddressSpace::IsMapped(Gaddr addr) const {
  const uint64_t index = addr / kPageSize;
  return index < pages_.size() && pages_[index].mapped();
}

uint64_t AddressSpace::resident_pages() const {
  return static_cast<uint64_t>(
      std::count_if(pages_.begin(), pages_.end(),
                    [](const PageEntry& page) { return page.resident(); }));
}

void AddressSpace::FaultUnmapped(Gaddr addr, AccessKind access) {
  ++machine_.stats().traps;
  RaiseTrap(TrapInfo{.kind = TrapKind::kPageFault,
                     .access = access,
                     .guest_addr = addr,
                     .pkru = machine_.context().pkru.raw(),
                     .detail = StrFormat("space '%s'", name_.c_str())});
}

PageEntry& AddressSpace::ResolvePage(Gaddr addr, AccessKind access,
                                     CheckMode mode) {
  const uint64_t index = addr / kPageSize;
  if (index >= pages_.size()) {
    FaultUnmapped(addr, access);
  }
  PageEntry& page = pages_[index];
  if (page.guard && mode == CheckMode::kChecked) {
    ++machine_.stats().traps;
    RaiseTrap(TrapInfo{.kind = TrapKind::kStackOverflow,
                       .access = access,
                       .guest_addr = addr,
                       .detail = StrFormat("guard page in '%s'",
                                           name_.c_str())});
  }
  if (!page.mapped()) {
    FaultUnmapped(addr, access);
  }
  if (mode == CheckMode::kChecked) {
    const Pkru pkru = machine_.context().pkru;
    const bool allowed = access == AccessKind::kWrite
                             ? (page.writable && pkru.CanWrite(page.key))
                             : pkru.CanRead(page.key);
    if (!allowed) {
      ++machine_.stats().traps;
      RaiseTrap(TrapInfo{.kind = TrapKind::kProtectionFault,
                         .access = access,
                         .guest_addr = addr,
                         .pkey = page.key,
                         .pkru = pkru.raw(),
                         .detail = StrFormat("space '%s'", name_.c_str())});
    }
  }
  return page;
}

void AddressSpace::CheckShadow(const PageData& page, Gaddr addr,
                               uint64_t in_page_off, uint64_t span,
                               AccessKind access) {
  const uint64_t bad = FirstPoisonedByte(page, in_page_off, span);
  if (bad == kPageSize) {
    return;
  }
  ++machine_.stats().traps;
  RaiseTrap(TrapInfo{
      .kind = TrapKind::kAsanViolation,
      .access = access,
      .guest_addr = addr - in_page_off + bad,
      .pkru = machine_.context().pkru.raw(),
      .detail = StrFormat("shadow=0x%02x in '%s'",
                          page.shadow[bad / kShadowGranule], name_.c_str())});
}

template <typename Fn>
void AddressSpace::ForEachChunk(Gaddr addr, uint64_t size, AccessKind access,
                                CheckMode mode, Fn&& fn) {
  if (size == 0) {
    return;
  }
  if (mode == CheckMode::kChecked) {
    machine_.ChargeMemOp(size);
  }
  uint64_t done = 0;
  while (done < size) {
    const Gaddr current = addr + done;
    const uint64_t in_page_off = current % kPageSize;
    const uint64_t span = std::min(size - done, kPageSize - in_page_off);
    PageEntry& entry = ResolvePage(current, access, mode);
    if (mode == CheckMode::kChecked && machine_.context().shadow_checks) {
      CheckShadow(Contents(entry), current, in_page_off, span, access);
    }
    if (mode == CheckMode::kChecked && machine_.race_detection() &&
        access != AccessKind::kExecute) {
      // flexrace probe: key-0 pages are the shared region — the only memory
      // visible from more than one compartment (and hence more than one
      // vCPU). Immutable pages cannot race.
      if (entry.key == 0 && entry.writable) {
        machine_.ProbeSharedAccess(current, span,
                                   access == AccessKind::kWrite);
      }
    }
    fn(entry, in_page_off, span, done);
    done += span;
  }
}

void AddressSpace::Read(Gaddr addr, void* dst, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kRead, CheckMode::kChecked,
               [&](PageEntry& entry, uint64_t off, uint64_t span,
                   uint64_t done) {
                 std::memcpy(static_cast<uint8_t*>(dst) + done,
                             Contents(entry).bytes.data() + off, span);
               });
}

void AddressSpace::Write(Gaddr addr, const void* src, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kWrite, CheckMode::kChecked,
               [&](PageEntry& entry, uint64_t off, uint64_t span,
                   uint64_t done) {
                 std::memcpy(Materialize(entry).bytes.data() + off,
                             static_cast<const uint8_t*>(src) + done, span);
               });
}

void AddressSpace::Fill(Gaddr addr, uint8_t value, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kWrite, CheckMode::kChecked,
               [&](PageEntry& entry, uint64_t off, uint64_t span, uint64_t) {
                 std::memset(Materialize(entry).bytes.data() + off, value,
                             span);
               });
}

void AddressSpace::Copy(Gaddr dst, Gaddr src, uint64_t size) {
  // Bounce through a host buffer page by page; charges both sides.
  uint8_t buffer[kPageSize];
  uint64_t done = 0;
  while (done < size) {
    const uint64_t span = std::min<uint64_t>(size - done, kPageSize);
    Read(src + done, buffer, span);
    Write(dst + done, buffer, span);
    done += span;
  }
}

void AddressSpace::Poison(Gaddr addr, uint64_t size, uint8_t code) {
  ForEachChunk(
      addr, size, AccessKind::kWrite, CheckMode::kUnchecked,
      [&](PageEntry& entry, uint64_t off, uint64_t span, uint64_t) {
        // Poison whole granules; a partial head/tail granule is poisoned
        // conservatively only when fully covered, else left as-is (the
        // allocator aligns redzones to the granule so this path is exact in
        // practice).
        PageData& page = Materialize(entry);
        for (uint64_t g = (off + kShadowGranule - 1) / kShadowGranule;
             g < (off + span) / kShadowGranule; ++g) {
          page.shadow[g] = code;
        }
      });
}

void AddressSpace::Unpoison(Gaddr addr, uint64_t size) {
  ForEachChunk(
      addr, size, AccessKind::kWrite, CheckMode::kUnchecked,
      [&](PageEntry& entry, uint64_t off, uint64_t span, uint64_t) {
        PageData& page = Materialize(entry);
        const uint64_t end = off + span;
        for (uint64_t g = off / kShadowGranule;
             g <= (end - 1) / kShadowGranule; ++g) {
          const uint64_t granule_begin = g * kShadowGranule;
          const uint64_t granule_end = granule_begin + kShadowGranule;
          if (off <= granule_begin && end >= granule_end) {
            page.shadow[g] = kShadowAddressable;
          } else if (off <= granule_begin && end > granule_begin) {
            // Partial tail: first (end - granule_begin) bytes addressable.
            page.shadow[g] = static_cast<uint8_t>(end - granule_begin);
          }
          // A partial head (off inside the granule) cannot be represented
          // by ASAN's encoding; leave the existing shadow byte untouched.
        }
      });
}

bool AddressSpace::IsPoisoned(Gaddr addr, uint64_t size) {
  uint64_t done = 0;
  while (done < size) {
    const Gaddr current = addr + done;
    const uint64_t in_page_off = current % kPageSize;
    const uint64_t span = std::min(size - done, kPageSize - in_page_off);
    PageEntry& entry =
        ResolvePage(current, AccessKind::kRead, CheckMode::kUnchecked);
    if (FirstPoisonedByte(Contents(entry), in_page_off, span) != kPageSize) {
      return true;
    }
    done += span;
  }
  return false;
}

void AddressSpace::ReadUnchecked(Gaddr addr, void* dst, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kRead, CheckMode::kUnchecked,
               [&](PageEntry& entry, uint64_t off, uint64_t span,
                   uint64_t done) {
                 std::memcpy(static_cast<uint8_t*>(dst) + done,
                             Contents(entry).bytes.data() + off, span);
               });
}

void AddressSpace::WriteUnchecked(Gaddr addr, const void* src, uint64_t size) {
  ForEachChunk(addr, size, AccessKind::kWrite, CheckMode::kUnchecked,
               [&](PageEntry& entry, uint64_t off, uint64_t span,
                   uint64_t done) {
                 std::memcpy(Materialize(entry).bytes.data() + off,
                             static_cast<const uint8_t*>(src) + done, span);
               });
}

}  // namespace flexos
