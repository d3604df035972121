#include "nocmap/serve/result_cache.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "nocmap/util/rng.hpp"

namespace nocmap::serve {

namespace {

using util::fold;

std::uint64_t context_hash(const std::string& context) {
  std::uint64_t h = fold(0xc047e47ULL, context.size());
  for (const char c : context) {
    h = fold(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::optional<CachedResult> ResultCache::find_exact(const CanonicalForm& form,
                                                    const std::string& context) {
  const std::uint64_t key = fold(form.exact_hash, context_hash(context));
  std::lock_guard<std::mutex> lock(mu_);
  auto bucket = by_exact_.find(key);
  if (bucket != by_exact_.end()) {
    for (Lru::iterator it : bucket->second) {
      if (it->context == context &&
          canonical_equal(it->canonical, form.canonical)) {
        ++stats_.exact_hits;
        touch(it);
        return CachedResult{it->canon_assignment, it->cost_j};
      }
      ++stats_.verify_rejects;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

std::optional<CachedResult> ResultCache::find_family(
    const CanonicalForm& form, const std::string& context) {
  const std::uint64_t key = fold(form.family_hash, context_hash(context));
  std::lock_guard<std::mutex> lock(mu_);
  auto bucket = by_family_.find(key);
  if (bucket == by_family_.end()) return std::nullopt;
  // Several family members may be resident; seed from the cheapest (their
  // costs are for different payloads, but within a family "cheap" is still
  // the best-informed prior available).
  Lru::iterator best = lru_.end();
  for (Lru::iterator it : bucket->second) {
    if (it->context != context ||
        !family_equal(it->canonical, form.canonical)) {
      ++stats_.verify_rejects;
      continue;
    }
    if (best == lru_.end() || it->cost_j < best->cost_j) best = it;
  }
  if (best == lru_.end()) return std::nullopt;
  ++stats_.family_hits;
  touch(best);
  return CachedResult{best->canon_assignment, best->cost_j};
}

void ResultCache::insert(const CanonicalForm& form, const std::string& context,
                         std::vector<noc::TileId> canon_assignment,
                         double cost_j) {
  const std::uint64_t ch = context_hash(context);
  const std::uint64_t exact_key = fold(form.exact_hash, ch);
  const std::uint64_t family_key = fold(form.family_hash, ch);
  std::lock_guard<std::mutex> lock(mu_);
  auto bucket = by_exact_.find(exact_key);
  if (bucket != by_exact_.end()) {
    for (Lru::iterator it : bucket->second) {
      if (it->context == context &&
          canonical_equal(it->canonical, form.canonical)) {
        if (cost_j < it->cost_j) {
          it->cost_j = cost_j;
          it->canon_assignment = std::move(canon_assignment);
          ++stats_.updates;
        }
        touch(it);
        return;
      }
    }
  }
  lru_.push_front(Entry{exact_key, family_key, form.canonical, context,
                        std::move(canon_assignment), cost_j});
  by_exact_[exact_key].push_back(lru_.begin());
  by_family_[family_key].push_back(lru_.begin());
  ++stats_.inserts;
  while (lru_.size() > capacity_) evict_lru();
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void ResultCache::touch(Lru::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ResultCache::unindex(Index& index, std::uint64_t key, Lru::iterator it) {
  auto bucket = index.find(key);
  if (bucket == index.end()) return;
  std::vector<Lru::iterator>& v = bucket->second;
  v.erase(std::remove(v.begin(), v.end(), it), v.end());
  if (v.empty()) index.erase(bucket);
}

void ResultCache::evict_lru() {
  Lru::iterator victim = std::prev(lru_.end());
  unindex(by_exact_, victim->exact_key, victim);
  unindex(by_family_, victim->family_key, victim);
  lru_.erase(victim);
  ++stats_.evictions;
}

}  // namespace nocmap::serve
