#include "plan/plan_cache.h"

#include <mutex>

namespace ccpi {

std::optional<PlanCache::Tier1Decision> PlanCache::FindTier1(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tier1_.find(key);
  if (it == tier1_.end()) return std::nullopt;
  return it->second;
}

bool PlanCache::StoreTier1(const std::string& key, Tier1Decision decision) {
  if (!store_) return true;
  std::unique_lock<std::shared_mutex> lock(mu_);
  return tier1_.emplace(key, decision).second;  // first insert wins
}

std::optional<std::shared_ptr<const PlanCache::Tier2Artifacts>>
PlanCache::FindTier2(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tier2_.find(key);
  if (it == tier2_.end()) return std::nullopt;
  return it->second;
}

std::shared_ptr<const PlanCache::Tier2Artifacts> PlanCache::StoreTier2(
    const std::string& key, std::shared_ptr<const Tier2Artifacts> artifacts) {
  if (!store_) return artifacts;
  std::unique_lock<std::shared_mutex> lock(mu_);
  return tier2_.emplace(key, std::move(artifacts)).first->second;
}

std::shared_ptr<const RaPlanTemplate> PlanCache::FindTemplate(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = templates_.find(key);
  return it == templates_.end() ? nullptr : it->second;
}

std::shared_ptr<const RaPlanTemplate> PlanCache::StoreTemplate(
    const std::string& key, std::shared_ptr<const RaPlanTemplate> tpl) {
  if (!store_) return tpl;
  std::unique_lock<std::shared_mutex> lock(mu_);
  return templates_.emplace(key, std::move(tpl)).first->second;
}

std::optional<PlanCache::BoundResult> PlanCache::FindResult(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = results_.find(key);
  if (it == results_.end()) return std::nullopt;
  return it->second;
}

bool PlanCache::StoreResult(const std::string& key, BoundResult result) {
  if (!store_) return true;
  std::unique_lock<std::shared_mutex> lock(mu_);
  return results_.emplace(key, std::move(result)).second;
}

std::shared_ptr<const CompiledProgram> PlanCache::FindProgram(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = programs_.find(key);
  return it == programs_.end() ? nullptr : it->second;
}

std::shared_ptr<const CompiledProgram> PlanCache::StoreProgram(
    const std::string& key, std::shared_ptr<const CompiledProgram> program) {
  if (!store_) return program;
  std::unique_lock<std::shared_mutex> lock(mu_);
  return programs_.emplace(key, std::move(program)).first->second;
}

void PlanCache::Invalidate() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  tier1_.clear();
  tier2_.clear();
  templates_.clear();
  results_.clear();
  programs_.clear();
}

size_t PlanCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tier1_.size() + tier2_.size() + templates_.size() + results_.size() +
         programs_.size();
}

}  // namespace ccpi
