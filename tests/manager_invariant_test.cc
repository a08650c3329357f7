// Whole-system soundness fuzz: random constraint sets and update streams
// run through the tiered ConstraintManager, with two invariants checked
// after EVERY update against ground truth (full evaluation):
//
//  1. No violation ever gets through: all active constraints hold on the
//     database the manager maintains. (Soundness of every tier at once —
//     a bug in subsumption, independence, or any local test breaks this.)
//  2. No false rejections: when the manager rejects an update, actually
//     applying it would have violated some constraint.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "eval/engine.h"
#include "manager/constraint_manager.h"
#include "util/rng.h"

namespace ccpi {
namespace {

Program MustParse(const std::string& text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

class ManagerInvariant : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ManagerInvariant, CascadeIsSoundAndNeverOverRejects) {
  Rng rng(GetParam());

  // A pool of constraint shapes over small relations; each trial picks a
  // few.
  const char* pool[] = {
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y",  // forbidden intervals
      "panic :- l(X,Y) & X > Y",                   // purely local order
      "panic :- l(X,Y) & r(X)",                    // join, arithmetic-free
      "panic :- r(Z) & Z > 8",                     // remote-only cap
      "panic :- l(X,Y) & l(Y,X2) & X = X2",        // self-join via equality
  };
  std::vector<Program> chosen;
  std::vector<std::string> names;
  ConstraintManager mgr({"l"}, CostModel{});
  size_t count = 2 + rng.Below(3);
  for (size_t i = 0; i < count; ++i) {
    std::string text = pool[rng.Below(5)];
    Program p = MustParse(text);
    std::string name = "c" + std::to_string(i);
    auto added = mgr.AddConstraint(name, p);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    chosen.push_back(std::move(p));
    names.push_back(std::move(name));
  }

  for (int step = 0; step < 60; ++step) {
    // Random single-tuple update over l (local) or r (remote).
    std::string pred = rng.Chance(2, 3) ? "l" : "r";
    Tuple t = pred == "l" ? Tuple{V(rng.Range(0, 6)), V(rng.Range(0, 9))}
                          : Tuple{V(rng.Range(0, 9))};
    Update u = rng.Chance(3, 4) ? Update::Insert(pred, t)
                                : Update::Delete(pred, t);

    Database before = mgr.site().db();
    auto reports = mgr.ApplyUpdate(u);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    bool rejected = false;
    for (const CheckReport& r : *reports) {
      rejected = rejected || r.outcome == Outcome::kViolated;
    }

    // Invariant 1: every constraint holds on the maintained database.
    for (const Program& c : chosen) {
      auto violated = IsViolated(c, mgr.site().db());
      ASSERT_TRUE(violated.ok());
      EXPECT_FALSE(*violated)
          << "tier cascade admitted a violation of\n"
          << c.ToString() << "after " << u.ToString() << "\ndb:\n"
          << mgr.site().db().ToString();
    }

    if (rejected) {
      // Invariant 2: the rejection was justified.
      Database would_be = before;
      ASSERT_TRUE(u.ApplyTo(&would_be).ok());
      bool any = false;
      for (const Program& c : chosen) {
        auto violated = IsViolated(c, would_be);
        ASSERT_TRUE(violated.ok());
        any = any || *violated;
      }
      EXPECT_TRUE(any) << "false rejection of " << u.ToString();
      // And the database is unchanged.
      EXPECT_EQ(mgr.site().db().ToString(), before.ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManagerInvariant,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(ManagerInvariantTransactions, AtomicityUnderRandomBatches) {
  Rng rng(99);
  ConstraintManager mgr({"l"}, CostModel{});
  ASSERT_TRUE(mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y"))
                  .ok());
  ASSERT_TRUE(
      mgr.AddConstraint(
             "fi", MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
          .ok());
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(7)}).ok());

  for (int round = 0; round < 30; ++round) {
    Database before = mgr.site().db();
    std::vector<Update> batch;
    size_t len = 1 + rng.Below(4);
    for (size_t i = 0; i < len; ++i) {
      Tuple t = {V(rng.Range(0, 9)), V(rng.Range(0, 9))};
      batch.push_back(rng.Chance(3, 4) ? Update::Insert("l", t)
                                       : Update::Delete("l", t));
    }
    auto result = mgr.ApplyTransaction(batch);
    ASSERT_TRUE(result.ok());
    if (!result->committed) {
      EXPECT_EQ(mgr.site().db().ToString(), before.ToString())
          << "rollback left residue";
    }
    // Constraints hold either way.
    auto v1 = IsViolated(MustParse("panic :- l(X,Y) & X > Y"),
                         mgr.site().db());
    ASSERT_TRUE(v1.ok());
    EXPECT_FALSE(*v1);
  }
}

// ---- Execution budgets: the overload-control invariants ------------------
//
// The budget envelope's two acceptance properties, checked directly:
//
//  1. Accounting balances exactly: every tier-3 check admitted to the
//     resolution loop is accounted for as completed, deferred, or shed —
//     nothing vanishes, nothing is counted twice.
//  2. A tight per-episode deadline actually bounds ApplyUpdate's wall
//     clock: each episode returns within 2x the deadline (the slack covers
//     one checkpoint interval — the engine only notices expiry at the next
//     fixpoint-round / rule-batch / enumeration checkpoint).
//
// (Suite names deliberately avoid the TSan job's -R filter: these assert
// wall-clock bounds, meaningless under a 10x sanitizer slowdown. The
// thread-interleaving half of budgeting is covered by the
// ParallelEquivalence budget tests, which do run under TSan.)

/// A manager with one cheap and one expensive tier-3 constraint: "fi"
/// joins the local interval table with a single remote tuple; "deep" walks
/// the transitive closure of a `chain`-edge remote chain.
std::unique_ptr<ConstraintManager> HeavyRig(size_t chain, BudgetConfig budget,
                                            ResilienceConfig resilience = {}) {
  auto mgr = std::make_unique<ConstraintManager>(
      std::set<std::string>{"l", "lq"}, CostModel{},
      ManagerConfig{.resilience = resilience, .budget = budget});
  EXPECT_TRUE(
      mgr->AddConstraint(
             "fi", MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
          .ok());
  EXPECT_TRUE(mgr->AddConstraint(
                     "deep",
                     MustParse("panic :- lq(X) & path(X,Y) & bad(Y)\n"
                               "path(X,Y) :- edge(X,Y)\n"
                               "path(X,Y) :- edge(X,Z) & path(Z,Y)"))
                  .ok());
  EXPECT_TRUE(mgr->site().db().Insert("r", {V(1000)}).ok());
  for (size_t i = 0; i < chain; ++i) {
    EXPECT_TRUE(mgr->site()
                    .db()
                    .Insert("edge", {V(static_cast<int64_t>(i)),
                                     V(static_cast<int64_t>(i + 1))})
                    .ok());
  }
  return mgr;
}

size_t CompletedAtT3(const ManagerStats& stats) {
  auto it = stats.resolved_by.find(Tier::kFullCheck);
  return it != stats.resolved_by.end() ? it->second : 0;
}

TEST(BudgetAccounting, AdmittedEqualsCompletedPlusDeferredPlusShed) {
  // Deterministic shedding (no wall clock): four fixpoint rounds never
  // close a 64-edge chain, while the nonrecursive "fi" check finishes well
  // inside them — so the stream mixes completed and shed tier-3 checks and
  // the ledger must balance exactly, not merely approximately.
  BudgetConfig budget;
  budget.per_check.max_fixpoint_rounds = 4;
  auto mgr = HeavyRig(64, budget);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(mgr->ApplyUpdate(Update::Insert("lq", {V(i)})).ok());
    ASSERT_TRUE(
        mgr->ApplyUpdate(Update::Insert("l", {V(10 * i), V(10 * i + 3)}))
            .ok());
  }
  ManagerStats stats = mgr->stats();
  EXPECT_GT(stats.shed_checks, 0u);      // the cap actually bit
  EXPECT_GT(CompletedAtT3(stats), 0u);   // and didn't bite everything
  EXPECT_EQ(stats.deferred, 0u);         // no injector: nothing unreachable
  EXPECT_EQ(stats.t3_admitted,
            CompletedAtT3(stats) + stats.deferred + stats.shed_checks);
  // Every shed check is sitting in the queue awaiting a future budget.
  EXPECT_EQ(mgr->deferred_queue().size(), stats.shed_checks);
}

TEST(BudgetEnvelope, TightDeadlineBoundsEpisodeWallClock) {
  // An unbudgeted "deep" check on a 768-edge chain takes high hundreds of
  // milliseconds; under a 250ms per-episode deadline every ApplyUpdate —
  // including the ones that also drain prior sheds inside the same
  // envelope — must return within 2x the deadline.
  BudgetConfig budget;
  budget.per_episode.deadline_ms = 250;
  auto mgr = HeavyRig(768, budget);
  for (int i = 0; i < 4; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto reports = mgr->ApplyUpdate(Update::Insert("lq", {V(i)}));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    EXPECT_LT(elapsed, 500) << "episode " << i << " overran 2x its deadline";
  }
  ManagerStats stats = mgr->stats();
  EXPECT_GT(stats.shed_checks, 0u);
  EXPECT_EQ(stats.t3_admitted,
            CompletedAtT3(stats) + stats.deferred + stats.shed_checks);
}

}  // namespace
}  // namespace ccpi
