#ifndef CCPI_PLAN_PLAN_CACHE_H_
#define CCPI_PLAN_PLAN_CACHE_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cqc_form.h"
#include "core/icq_compiler.h"
#include "eval/engine.h"
#include "plan/ra_plan.h"
#include "util/outcome.h"

namespace ccpi {

/// Thread-safe store of compiled checking plans, keyed by strings the
/// manager derives from (constraint id, update pattern) — see
/// docs/plan_cache.md for the keying discipline. Five entry families:
///
///   tier-1 memo      (constraint, pattern) -> the independence decision
///   tier-2 artifacts (constraint, updated predicate) -> Tier2Artifacts,
///                    or null when tier 2 does not apply
///   RA templates     (constraint, pattern) -> RaPlanTemplate (Theorem 5.3)
///   bound results    (constraint, pattern, tuple, relation version) ->
///                    a tier-2 evaluation's outcome plus its exact observed
///                    reads, replayable while the version stamp still
///                    matches (equal version => equal contents)
///   compiled programs (constraint) -> the tier-3 CompiledProgram
///
/// A never-store cache (`PlanCache(false)`, the manager's plan cache off)
/// keeps nothing: every Find misses and every Store returns its argument,
/// so callers run one code path whether the cache is on or off.
///
/// Lookups take the shared lock, stores the exclusive lock; compilation
/// always happens outside any lock. Store is first-insert-wins: when two
/// lanes compile the same key concurrently, the loser adopts the winner's
/// entry, so every reader of a key sees one plan. (Under the manager's
/// phase-1 fan-out keys embed the constraint id and each lane owns one
/// constraint, so the race is theoretical there — but the cache does not
/// rely on that.)
class PlanCache {
 public:
  explicit PlanCache(bool store = true) : store_(store) {}

  /// The memoized tier-1 verdict for an update pattern: holds (resolve at
  /// kIndependence) or falls through to tier 2.
  struct Tier1Decision {
    bool holds = false;
  };

  /// A memoized tier-2 evaluation: the outcome plus the exact (pred, count)
  /// read sequence the evaluation charged, replayed verbatim on a hit so
  /// access accounting is byte-identical to re-evaluating.
  struct BoundResult {
    Outcome outcome = Outcome::kUnknown;
    std::vector<std::pair<std::string, size_t>> reads;
  };

  /// The tier-2 compilation of one constraint for insertions into one
  /// local predicate: the unfolded single-CQ form, the Fig 6.1 interval
  /// compilation when applicable, and the normalized CQC for the general
  /// Theorem 5.2 test.
  struct Tier2Artifacts {
    Rule rule;                          // the unfolded single-CQ form
    bool arithmetic_free = false;       // Theorem 5.3 applies
    std::optional<IcqCompilation> icq;  // Fig 6.1 machinery, if applicable
    std::optional<Cqc> cqc;             // general Theorem 5.2 form
  };

  std::optional<Tier1Decision> FindTier1(const std::string& key) const;
  /// Returns false when a concurrent first inserter's entry was already
  /// there and `decision` was dropped; true otherwise (a never-store cache
  /// always returns true: the caller's entry is the one in effect).
  bool StoreTier1(const std::string& key, Tier1Decision decision);

  /// nullopt on a miss; a stored null means tier 2 does not apply.
  std::optional<std::shared_ptr<const Tier2Artifacts>> FindTier2(
      const std::string& key) const;
  std::shared_ptr<const Tier2Artifacts> StoreTier2(
      const std::string& key, std::shared_ptr<const Tier2Artifacts> artifacts);

  std::shared_ptr<const RaPlanTemplate> FindTemplate(
      const std::string& key) const;
  /// Returns the winning entry (the argument, or a concurrent first
  /// inserter's).
  std::shared_ptr<const RaPlanTemplate> StoreTemplate(
      const std::string& key, std::shared_ptr<const RaPlanTemplate> tpl);

  std::optional<BoundResult> FindResult(const std::string& key) const;
  /// Returns whether `result` was inserted, as StoreTier1.
  bool StoreResult(const std::string& key, BoundResult result);

  std::shared_ptr<const CompiledProgram> FindProgram(
      const std::string& key) const;
  std::shared_ptr<const CompiledProgram> StoreProgram(
      const std::string& key, std::shared_ptr<const CompiledProgram> program);

  /// Drops every entry. The manager calls this when the constraint set
  /// changes (AddConstraint): tier-1 decisions quantify over the *other*
  /// active constraints, so registration is a cache epoch.
  void Invalidate();

  /// Total entries across all families (tests/diagnostics).
  size_t size() const;

 private:
  const bool store_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Tier1Decision> tier1_;
  std::unordered_map<std::string, std::shared_ptr<const Tier2Artifacts>>
      tier2_;
  std::unordered_map<std::string, std::shared_ptr<const RaPlanTemplate>>
      templates_;
  std::unordered_map<std::string, BoundResult> results_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledProgram>>
      programs_;
};

}  // namespace ccpi

#endif  // CCPI_PLAN_PLAN_CACHE_H_
