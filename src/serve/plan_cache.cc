#include "serve/plan_cache.h"

#include <algorithm>

#include "common/string_util.h"
#include "workload/io.h"

namespace sam::serve {

std::string CanonicalQueryKey(const Query& q) {
  std::vector<std::string> relations = q.relations;
  std::sort(relations.begin(), relations.end());
  // Predicates in the order of their encoded text: the encoding escapes the
  // separator characters, so it is injective and the order is total.
  std::vector<std::string> predicates;
  predicates.reserve(q.predicates.size());
  for (Predicate p : q.predicates) {
    std::sort(p.in_list.begin(), p.in_list.end());
    predicates.push_back(EncodeWorkloadPredicate(p));
  }
  std::sort(predicates.begin(), predicates.end());
  return Join(relations, ",") + '\t' + Join(predicates, ";");
}

std::shared_ptr<const engine::CompiledQuery> PlanCache::Get(
    const std::string& key) {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void PlanCache::Put(const std::string& key,
                    std::shared_ptr<const engine::CompiledQuery> plan) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(key) > 0) return;
  lru_.emplace_front(key, std::move(plan));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace sam::serve
