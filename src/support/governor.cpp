#include "support/governor.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "support/sanitizer.hpp"

namespace otter::gov {

BudgetExceeded::BudgetExceeded(uint64_t req, uint64_t in_use,
                               uint64_t limit) noexcept
    : requested(req), used(in_use), budget(limit) {
  std::snprintf(msg_, sizeof(msg_),
                "memory budget exceeded: allocation of %" PRIu64
                " bytes with %" PRIu64 " already charged against a budget of %"
                PRIu64 " bytes",
                req, in_use, limit);
}

ResourceGovernor& ResourceGovernor::instance() {
  static ResourceGovernor g;
  return g;
}

void ResourceGovernor::charge(uint64_t bytes) {
  const uint64_t budget = budget_.load(std::memory_order_relaxed);
  uint64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (budget != 0 && now > budget) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    denials_.fetch_add(1, std::memory_order_relaxed);
    throw BudgetExceeded(bytes, now - bytes, budget);
  }
  // Advance the high-water mark (racy CAS loop; losers retry).
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void ResourceGovernor::release(uint64_t bytes) noexcept {
  uint64_t prev = used_.load(std::memory_order_relaxed);
  // Clamp at zero: a buffer charged before a window reset may be released
  // after one; the ledger must not wrap to 2^64.
  while (true) {
    uint64_t next = prev >= bytes ? prev - bytes : 0;
    if (used_.compare_exchange_weak(prev, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

GovernorStats ResourceGovernor::stats() const {
  GovernorStats s;
  s.used = used_.load(std::memory_order_relaxed);
  s.peak = peak_.load(std::memory_order_relaxed);
  s.denials = denials_.load(std::memory_order_relaxed);
  s.budget = budget_.load(std::memory_order_relaxed);
  return s;
}

void ResourceGovernor::reset_window() {
  peak_.store(used_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  denials_.store(0, std::memory_order_relaxed);
}

#ifdef OTTER_SANITIZED

void* allocate_large(std::size_t bytes) {
  return std::memset(::operator new(bytes), 0, bytes);
}

void deallocate_large(void* p, std::size_t bytes) noexcept {
  ::operator delete(p, bytes);
}

#else

namespace {

uintptr_t round_up(uintptr_t v, uintptr_t to) { return (v + to - 1) / to * to; }

std::size_t mapped_length(std::size_t bytes) {
  static const auto kPage = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return round_up(bytes, kPage);
}

}  // namespace

void* allocate_large(std::size_t bytes) {
  // Over-map by one huge page, then trim both ends, so exactly `len` bytes
  // stay mapped from a 2 MiB boundary.
  const std::size_t len = mapped_length(bytes);
  const std::size_t span = len + kLargePayloadBytes;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  char* base = static_cast<char*>(raw);
  const auto addr = reinterpret_cast<uintptr_t>(base);
  char* p = base + (round_up(addr, kLargePayloadBytes) - addr);
  if (p != base) ::munmap(base, static_cast<std::size_t>(p - base));
  char* tail = p + len;
  if (tail != base + span) {
    ::munmap(tail, static_cast<std::size_t>(base + span - tail));
  }
  // Only whole extents: the partial tail stays on base pages and never
  // costs a whole huge page of RSS. Where THP is off the advice fails or
  // is ignored, and every page stays a base page.
  ::madvise(p, len / kLargePayloadBytes * kLargePayloadBytes, MADV_HUGEPAGE);
  return p;
}

void deallocate_large(void* p, std::size_t bytes) noexcept {
  ::munmap(p, mapped_length(bytes));
}

#endif  // OTTER_SANITIZED

}  // namespace otter::gov
