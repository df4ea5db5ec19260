// Process-wide memory resource governor.
//
// otterd runs untrusted scripts whose matrix dimensions are user-controlled:
// one `zeros(40000)` is a ~12 GB allocation that used to reach the host
// allocator unchecked and kill the daemon (or the whole machine) with an
// OOM instead of the offending request. The governor is the accounting
// layer between the run-time library's buffers and the host allocator:
// every DMat / interpreter Mat payload is allocated through
// gov::Accounted<T>, which charges the process-wide ledger and fails a
// request that exceeds its byte budget with a catchable BudgetExceeded
// (mapped to the stable E5006 diagnostic at the exception barriers) long
// before the host OOM killer gets involved.
//
// Budgets are installed per run with ScopedBudget. In the sandboxed
// execution tier (service/sandbox.hpp) the child process runs exactly one
// request, so "process-wide" *is* "per-request"; under --isolate=none the
// ledger is shared by every in-flight request and the budget is best-effort
// (DESIGN.md §17 documents the difference).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace otter::gov {

/// Charge refused: the request's byte budget would be exceeded. Derives
/// from std::bad_alloc so the existing allocation-failure barriers catch
/// governor denials and true host OOM through one handler; what() carries
/// the accounting detail a plain bad_alloc cannot.
class BudgetExceeded : public std::bad_alloc {
 public:
  BudgetExceeded(uint64_t requested, uint64_t used, uint64_t budget) noexcept;
  [[nodiscard]] const char* what() const noexcept override { return msg_; }

  uint64_t requested = 0;  ///< bytes the denied charge asked for
  uint64_t used = 0;       ///< bytes charged at the time of denial
  uint64_t budget = 0;     ///< the budget that was exceeded

 private:
  char msg_[160];  // preformatted: throwing must not itself allocate
};

/// Ledger snapshot (all byte counts).
struct GovernorStats {
  uint64_t used = 0;      ///< currently charged
  uint64_t peak = 0;      ///< high-water mark since the last reset_window()
  uint64_t denials = 0;   ///< charges refused since the last reset_window()
  uint64_t budget = 0;    ///< active budget (0 = unlimited)
};

/// The process-wide accounted-allocation ledger. All operations are
/// lock-free atomics: charge/release sit on the matrix-allocation hot path
/// of every rank thread.
class ResourceGovernor {
 public:
  static ResourceGovernor& instance();

  /// Installs a budget in bytes (0 = unlimited). Does not disturb the
  /// current usage count — long-lived objects keep their charges.
  void set_budget(uint64_t bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t budget() const {
    return budget_.load(std::memory_order_relaxed);
  }

  /// Charges `bytes` against the ledger. Throws BudgetExceeded (a
  /// std::bad_alloc) when a budget is installed and the charge would pass
  /// it; the ledger is left unchanged on refusal.
  void charge(uint64_t bytes);

  /// Returns a previous charge. Never throws; clamps at zero so a release
  /// that outlives a budget reset cannot underflow the ledger.
  void release(uint64_t bytes) noexcept;

  [[nodiscard]] GovernorStats stats() const;

  /// Starts a fresh observation window: peak := current usage, denials := 0.
  /// Called at the top of a request so its reported peak is its own.
  void reset_window();

 private:
  std::atomic<uint64_t> budget_{0};
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> denials_{0};
};

/// RAII budget scope: installs `bytes` (when nonzero) and a fresh
/// observation window, restores the previous budget on exit. Zero bytes
/// installs nothing (the surrounding budget, if any, stays active).
class ScopedBudget {
 public:
  explicit ScopedBudget(uint64_t bytes) : installed_(bytes != 0) {
    if (installed_) {
      prev_ = ResourceGovernor::instance().budget();
      ResourceGovernor::instance().set_budget(bytes);
      ResourceGovernor::instance().reset_window();
    }
  }
  ~ScopedBudget() {
    if (installed_) ResourceGovernor::instance().set_budget(prev_);
  }
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

 private:
  bool installed_;
  uint64_t prev_ = 0;
};

/// Payloads of at least this many bytes get their own mapping on 2 MiB
/// transparent huge pages: the x86-64 PMD page size (DESIGN.md §17,
/// "Large payloads").
inline constexpr uint64_t kLargePayloadBytes = uint64_t{2} << 20;

/// Allocates a payload of at least kLargePayloadBytes: a private anonymous
/// mapping of `bytes` rounded up to whole pages, at a 2 MiB-aligned
/// address, with its whole 2 MiB extents advised for huge pages. Sanitizer
/// builds use plain operator new instead, so ASan keeps its redzones. In
/// every build the memory arrives zero-filled: a fresh mapping is zero by
/// the kernel, and the operator new path clears it. Payload owners rely on
/// this instead of writing +0.0 over the whole payload a second time.
/// Throws std::bad_alloc when the host allocation fails. Out of line, so
/// the small-payload path stays short and the sanitizer choice is made
/// once, in this library: generated C inlines Accounted without the
/// library's sanitizer flags.
void* allocate_large(std::size_t bytes);

/// Releases an allocate_large(bytes) result.
void deallocate_large(void* p, std::size_t bytes) noexcept;

/// STL allocator that routes through the governor: charge before the host
/// allocation, release on deallocation. The charge is refunded if the host
/// allocation itself fails, so the ledger never drifts. Large payloads get
/// their own huge-page mapping; the rest come from std::allocator.
template <typename T>
struct Accounted {
  using value_type = T;

  Accounted() noexcept = default;
  template <typename U>
  /* implicit */ Accounted(const Accounted<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    const uint64_t bytes = static_cast<uint64_t>(n) * sizeof(T);
    ResourceGovernor::instance().charge(bytes);
    try {
      if (bytes >= kLargePayloadBytes) {
        return static_cast<T*>(allocate_large(bytes));
      }
      return std::allocator<T>().allocate(n);
    } catch (...) {
      ResourceGovernor::instance().release(bytes);
      throw;
    }
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const uint64_t bytes = static_cast<uint64_t>(n) * sizeof(T);
    if (bytes >= kLargePayloadBytes) {
      deallocate_large(p, bytes);
    } else {
      std::allocator<T>().deallocate(p, n);
    }
    ResourceGovernor::instance().release(bytes);
  }

  template <typename U>
  bool operator==(const Accounted<U>&) const noexcept { return true; }
  template <typename U>
  bool operator!=(const Accounted<U>&) const noexcept { return false; }
};

/// The governed buffer type used for matrix payloads throughout the
/// run-time library and the interpreter.
using DoubleBuffer = std::vector<double, Accounted<double>>;

/// Accounted, except that constructing an element without a value (as
/// resize(n) does) leaves it as the allocation returned it: +0.0 for a
/// payload of at least kLargePayloadBytes (allocate_large's guarantee),
/// indeterminate below that, where the owner must write it.
template <typename T>
struct AccountedNoInit : Accounted<T> {
  AccountedNoInit() noexcept = default;
  template <typename U>
  /* implicit */ AccountedNoInit(const AccountedNoInit<U>&) noexcept {}  // NOLINT

  /// Default-initialises; std::allocator_traits constructs from values
  /// itself, as for any allocator without a matching construct.
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

/// The distributed-matrix payload: like DoubleBuffer, but large payloads are
/// sized without a zero pass (rt::DMat zeroes only the small ones).
using PayloadBuffer = std::vector<double, AccountedNoInit<double>>;

}  // namespace otter::gov
