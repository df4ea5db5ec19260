// Content-addressed artifact cache for the compile service.
//
// Key: (script hash, opt level, machine profile, strict-inference flag) —
// everything that can change what the compiler produces. Because the key is
// content-addressed there is no staleness to invalidate: a changed script is
// a different key. The only eviction is LRU under a byte budget, so a hot
// script's compiled LIR and bytecode stay resident while one-shot scripts
// age out.
//
// Entries are immutable once inserted (shared_ptr<const Entry>); concurrent
// requests execute the same cached LProgram and BcModule simultaneously —
// the VM treats both as read-only (each rank's VM owns its registers,
// inline caches and scratch), which the concurrent-pipeline stress test
// pins down under TSan.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "driver/pipeline.hpp"
#include "support/json.hpp"

namespace otter::vm {
struct BcModule;
}  // namespace otter::vm

namespace otter::service {

/// Cache key for one compilation configuration of one script.
std::string artifact_key(const std::string& script_hash, int opt_level,
                         const std::string& machine, bool strict_infer);

/// One cached compilation: the full compile result (diagnostics engine,
/// inference tables, post-optimizer LIR) plus the pre-rendered diagnostics
/// array so responses never re-walk the DiagEngine of a shared artifact.
/// It also carries the bytecode module compiled once at insert time, shared
/// read-only by every request that hits the entry.
struct Artifact {
  std::shared_ptr<const driver::CompileResult> compiled;
  // Declared after `compiled` so it is destroyed first: the module borrows
  // the CompileResult's LProgram (kernel slot tables point into the LIR).
  std::shared_ptr<const vm::BcModule> bytecode;
  json::JValue diags;  ///< rendered diagnostics (warnings for ok compiles)
  size_t bytes = 0;    ///< estimated resident size, charged to the budget
};

/// Rough resident-size estimate for the byte budget: LIR dump length scaled
/// for node overhead plus the source size. Off by a constant factor at
/// worst, which an LRU budget tolerates.
size_t estimate_artifact_bytes(const lower::LProgram& lir,
                               size_t source_bytes);

class ArtifactCache {
 public:
  explicit ArtifactCache(size_t byte_budget) : budget_(byte_budget) {}

  /// Returns the entry and bumps it most-recently-used, or nullptr (a miss).
  std::shared_ptr<const Artifact> lookup(const std::string& key);

  /// Inserts (or replaces) an entry and evicts LRU entries until the byte
  /// budget holds. An artifact larger than the whole budget is not cached.
  void insert(const std::string& key, std::shared_ptr<const Artifact> art);

  [[nodiscard]] uint64_t hits() const { return hits_.load(); }
  [[nodiscard]] uint64_t misses() const { return misses_.load(); }
  [[nodiscard]] uint64_t evictions() const { return evictions_.load(); }
  [[nodiscard]] size_t bytes() const;
  [[nodiscard]] size_t entries() const;

 private:
  void evict_to_budget_locked();

  const size_t budget_;
  mutable std::mutex mu_;
  // LRU list front = most recent; map holds the list iterator for O(1) bump.
  std::list<std::string> lru_;
  struct Slot {
    std::shared_ptr<const Artifact> art;
    std::list<std::string>::iterator pos;
  };
  std::unordered_map<std::string, Slot> map_;
  size_t bytes_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace otter::service
