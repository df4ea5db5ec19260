#include "service/cache.hpp"

#include "lower/lir.hpp"

namespace otter::service {

std::string artifact_key(const std::string& script_hash, int opt_level,
                         const std::string& machine, bool strict_infer) {
  return script_hash + "|O" + std::to_string(opt_level) + "|" + machine +
         (strict_infer ? "|strict" : "");
}

size_t estimate_artifact_bytes(const lower::LProgram& lir,
                               size_t source_bytes) {
  // The textual dump is proportional to instruction/operand count; the
  // in-memory representation carries pointer + container overhead on top.
  return lower::dump_lir(lir).size() * 4 + source_bytes;
}

std::shared_ptr<const Artifact> ArtifactCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses_.fetch_add(1);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.pos);
  hits_.fetch_add(1);
  return it->second.art;
}

void ArtifactCache::insert(const std::string& key,
                           std::shared_ptr<const Artifact> art) {
  if (art == nullptr || art->bytes > budget_) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Lost a compile race with another worker: keep the incumbent (equal by
    // construction — the key covers everything that shapes the artifact).
    return;
  }
  lru_.push_front(key);
  bytes_ += art->bytes;
  map_.emplace(key, Slot{std::move(art), lru_.begin()});
  evict_to_budget_locked();
}

void ArtifactCache::evict_to_budget_locked() {
  while (bytes_ > budget_ && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto it = map_.find(victim);
    bytes_ -= it->second.art->bytes;
    map_.erase(it);
    lru_.pop_back();
    evictions_.fetch_add(1);
  }
}

size_t ArtifactCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t ArtifactCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace otter::service
