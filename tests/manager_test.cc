#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "manager/active_rules.h"
#include "manager/constraint_manager.h"
#include "manager/view_maint.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

Tier TierOf(const std::vector<CheckReport>& reports,
            const std::string& name) {
  for (const CheckReport& r : reports) {
    if (r.constraint == name) return r.tier;
  }
  ADD_FAILURE() << "no report for " << name;
  return Tier::kFullCheck;
}

Outcome OutcomeOf(const std::vector<CheckReport>& reports,
                  const std::string& name) {
  for (const CheckReport& r : reports) {
    if (r.constraint == name) return r.outcome;
  }
  ADD_FAILURE() << "no report for " << name;
  return Outcome::kUnknown;
}

TEST(ManagerTest, SubsumedConstraintDropped) {
  ConstraintManager mgr({"l"}, CostModel{});
  auto first = mgr.AddConstraint("strong", MustParse("panic :- p(X)"));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  auto second =
      mgr.AddConstraint("weak", MustParse("panic :- p(X) & q(X)"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(*second);  // subsumed at registration

  auto reports = mgr.ApplyUpdate(Update::Insert("q", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "weak"), Tier::kSubsumed);
}

TEST(ManagerTest, DuplicateConstraintNameIsRejected) {
  // Plan-cache entries are keyed by constraint name, so a second "c" would
  // be checked with the first one's compiled tier-3 program and, with the
  // cache on, let the violating insert below through.
  for (bool plan_cache : {true, false}) {
    ConstraintManager mgr({"l"}, CostModel{}, {.plan_cache = plan_cache});
    ASSERT_TRUE(mgr.AddConstraint("c", MustParse("panic :- l(X) & r(X)")).ok());
    auto again = mgr.AddConstraint("c", MustParse("panic :- l(X) & s(X)"));
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(
        mgr.AddConstraint("c2", MustParse("panic :- l(X) & s(X)")).ok());
    ASSERT_TRUE(mgr.site().db().Insert("s", {V(7)}).ok());
    auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(7)}));
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports->size(), 2u);
    EXPECT_EQ(OutcomeOf(*reports, "c2"), Outcome::kViolated);
    EXPECT_FALSE(mgr.site().db().Contains("l", {V(7)}));
  }
}

TEST(ManagerTest, UnaffectedTier) {
  ConstraintManager mgr({"l"}, CostModel{});
  ASSERT_TRUE(mgr.AddConstraint("c", MustParse("panic :- p(X) & q(X)")).ok());
  auto reports = mgr.ApplyUpdate(Update::Insert("other", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "c"), Tier::kUnaffected);
  EXPECT_EQ(OutcomeOf(*reports, "c"), Outcome::kHolds);
}

TEST(ManagerTest, IndependenceTierOnSafeInsert) {
  ConstraintManager mgr({"emp"}, CostModel{});
  ASSERT_TRUE(
      mgr.AddConstraint("cap", MustParse("panic :- emp(E,D,S) & S > 100"))
          .ok());
  auto reports =
      mgr.ApplyUpdate(Update::Insert("emp", {V("a"), V("d"), V(50)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "cap"), Tier::kIndependence);
  EXPECT_EQ(OutcomeOf(*reports, "cap"), Outcome::kHolds);
}

TEST(ManagerTest, LocalTestTierForForbiddenIntervals) {
  ConstraintManager mgr({"l"}, CostModel{});
  ASSERT_TRUE(mgr.AddConstraint(
                     "fi",
                     MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                  .ok());
  // Seed L (each insert is itself checked; the first ones go to full
  // evaluation since nothing covers them and remote r is empty).
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(3), V(6)})).ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(5), V(10)})).ok());
  // (4,8) is covered by local data alone: resolved at the local tier.
  auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(4), V(8)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "fi"), Tier::kLocalTest);
  EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kHolds);
  EXPECT_TRUE(mgr.site().db().Contains("l", {V(4), V(8)}));
}

TEST(ManagerTest, FullCheckDetectsAndRejectsViolation) {
  ConstraintManager mgr({"l"}, CostModel{});
  ASSERT_TRUE(mgr.AddConstraint(
                     "fi",
                     MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                  .ok());
  // Remote relation r lives on the other site; populate it directly.
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(7)}).ok());
  // Inserting (5,10) forbids 7, which exists remotely: violation.
  auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(5), V(10)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "fi"), Tier::kFullCheck);
  EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kViolated);
  // The update was rejected.
  EXPECT_FALSE(mgr.site().db().Contains("l", {V(5), V(10)}));
  EXPECT_EQ(mgr.stats().violations, 1u);
}

TEST(ManagerTest, LocalOnlyConstraintViolatedAtLocalTier) {
  ConstraintManager mgr({"l"}, CostModel{});
  ASSERT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  auto ok = mgr.ApplyUpdate(Update::Insert("l", {V(1), V(2)}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(OutcomeOf(*ok, "ord"), Outcome::kHolds);
  auto bad = mgr.ApplyUpdate(Update::Insert("l", {V(5), V(2)}));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(OutcomeOf(*bad, "ord"), Outcome::kViolated);
  EXPECT_EQ(TierOf(*bad, "ord"), Tier::kLocalTest);
  EXPECT_FALSE(mgr.site().db().Contains("l", {V(5), V(2)}));
}

TEST(ManagerTest, NoopUpdateResolvesTrivially) {
  ConstraintManager mgr({"l"}, CostModel{});
  ASSERT_TRUE(
      mgr.AddConstraint("c", MustParse("panic :- l(X) & r(X)")).ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("l", {V(1)})).ok());  // absent
  auto reports = mgr.ApplyUpdate(Update::Delete("l", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "c"), Tier::kUnaffected);
}

TEST(ManagerTest, DeletionOfMonotoneConstraintIndependent) {
  ConstraintManager mgr({"l"}, CostModel{});
  ASSERT_TRUE(
      mgr.AddConstraint("c", MustParse("panic :- l(X) & r(X)")).ok());
  ASSERT_TRUE(mgr.site().db().Insert("l", {V(1)}).ok());
  auto reports = mgr.ApplyUpdate(Update::Delete("l", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "c"), Tier::kIndependence);
  EXPECT_FALSE(mgr.site().db().Contains("l", {V(1)}));
}

TEST(ManagerTest, AccessAccountingSeparatesSites) {
  ConstraintManager mgr({"l"}, CostModel{});
  ASSERT_TRUE(mgr.AddConstraint(
                     "fi",
                     MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                  .ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(0), V(10)})).ok());
  AccessStats after_seed = mgr.stats().access;
  // A covered insert resolves locally: remote counters must not move.
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(2), V(8)})).ok());
  EXPECT_EQ(mgr.stats().access.remote_tuples, after_seed.remote_tuples);
  EXPECT_EQ(mgr.stats().access.remote_trips, after_seed.remote_trips);
  EXPECT_GT(mgr.stats().access.local_tuples, after_seed.local_tuples);
}

// --- Episode pipeline scheduler --------------------------------------------

/// A depth-4 pipelined manager over one local and one remote predicate.
ConstraintManager MakePipelinedManager(size_t depth) {
  return ConstraintManager({"l"}, CostModel{},
                           {.threads = 2, .pipeline = {.depth = depth}});
}

TEST(ManagerTest, AsyncDrainMatchesApplyUpdate) {
  std::vector<Update> stream = {
      Update::Insert("l", {V(1), V(2)}),
      Update::Insert("r", {V(2)}),
      Update::Insert("l", {V(5), V(3)}),  // violates ord
      Update::Insert("l", {V(4), V(2)}),  // joins with remote r(2)
  };
  auto setup = [](ConstraintManager* mgr) {
    ASSERT_TRUE(
        mgr->AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
    ASSERT_TRUE(
        mgr->AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
  };
  ConstraintManager serial = MakePipelinedManager(1);
  setup(&serial);
  std::vector<std::vector<CheckReport>> expected;
  for (const Update& u : stream) {
    auto reports = serial.ApplyUpdate(u);
    ASSERT_TRUE(reports.ok());
    expected.push_back(*reports);
  }

  ConstraintManager piped = MakePipelinedManager(4);
  setup(&piped);
  for (const Update& u : stream) piped.ApplyUpdateAsync(u);
  auto results = piped.Drain();
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ASSERT_EQ(results[i]->size(), expected[i].size()) << "update " << i;
    for (size_t c = 0; c < expected[i].size(); ++c) {
      EXPECT_EQ((*results[i])[c].constraint, expected[i][c].constraint);
      EXPECT_EQ((*results[i])[c].outcome, expected[i][c].outcome);
      EXPECT_EQ((*results[i])[c].tier, expected[i][c].tier);
    }
  }
  EXPECT_EQ(piped.site().db().ToString(), serial.site().db().ToString());
  // Drain is destructive: a second call returns nothing new.
  EXPECT_TRUE(piped.Drain().empty());
}

TEST(ManagerTest, AddConstraintDrainsInFlightEpisodes) {
  ConstraintManager mgr = MakePipelinedManager(4);
  ASSERT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  mgr.ApplyUpdateAsync(Update::Insert("l", {V(1), V(2)}));
  mgr.ApplyUpdateAsync(Update::Insert("l", {V(5), V(3)}));
  // Registering a constraint mid-stream retires every in-flight episode
  // first (documented precondition): the new constraint only ever checks
  // updates admitted after it, and never races a speculation.
  ASSERT_TRUE(
      mgr.AddConstraint("cap", MustParse("panic :- l(X,Y) & Y > 90")).ok());
  EXPECT_EQ(mgr.in_flight(), 0u);
  auto results = mgr.Drain();
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(OutcomeOf(*results[0], "ord"), Outcome::kHolds);
  EXPECT_EQ(OutcomeOf(*results[1], "ord"), Outcome::kViolated);
}

TEST(ManagerTest, ResetStatsDrainsAndZeroesCounters) {
  ConstraintManager mgr = MakePipelinedManager(4);
  ASSERT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  mgr.ApplyUpdateAsync(Update::Insert("l", {V(5), V(3)}));
  mgr.ResetStats();
  // ResetStats drains first, so the in-flight episode's violation was
  // fully booked — and then wiped with everything else.
  EXPECT_EQ(mgr.in_flight(), 0u);
  ManagerStats s = mgr.stats();
  EXPECT_EQ(s.violations, 0u);
  EXPECT_TRUE(s.resolved_by.empty());
  // The episode's *result* survives: only statistics were reset.
  auto results = mgr.Drain();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(OutcomeOf(*results[0], "ord"), Outcome::kViolated);
}

// --- Active rules (application 2) ------------------------------------------

TEST(ActiveRulesTest, FiresWhenConditionBecomesTrue) {
  Database db;
  ActiveRuleEngine engine(&db);
  int fired = 0;
  ASSERT_TRUE(engine
                  .AddRule("audit", MustParse("panic :- emp(E,D,S) & S > 100"),
                           [&fired](Database*) { ++fired; })
                  .ok());
  auto r1 = engine.ProcessUpdate(
      Update::Insert("emp", {V("a"), V("d"), V(50)}));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(fired, 0);
  // Below-threshold insert is provably irrelevant: not even re-evaluated.
  EXPECT_EQ(r1->skipped_irrelevant.size(), 1u);
  auto r2 = engine.ProcessUpdate(
      Update::Insert("emp", {V("b"), V("d"), V(500)}));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(r2->fired.size(), 1u);
}

TEST(ActiveRulesTest, NoPriorSatisfactionAssumed) {
  // Unlike integrity constraints, the condition may already be true; the
  // engine must re-fire rather than conclude "held before, still holds".
  Database db;
  ASSERT_TRUE(db.Insert("emp", {V("x"), V("d"), V(900)}).ok());
  ActiveRuleEngine engine(&db);
  int fired = 0;
  ASSERT_TRUE(engine
                  .AddRule("audit", MustParse("panic :- emp(E,D,S) & S > 100"),
                           [&fired](Database*) { ++fired; })
                  .ok());
  auto r = engine.ProcessUpdate(
      Update::Insert("emp", {V("y"), V("d"), V(700)}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fired, 1);
}

TEST(ActiveRulesTest, ActionMayModifyDatabase) {
  Database db;
  ActiveRuleEngine engine(&db);
  ASSERT_TRUE(engine
                  .AddRule("log", MustParse("panic :- emp(E,D,S) & S > 100"),
                           [](Database* d) {
                             ASSERT_TRUE(d->Insert("flag", {V(1)}).ok());
                           })
                  .ok());
  ASSERT_TRUE(
      engine.ProcessUpdate(Update::Insert("emp", {V("a"), V("d"), V(500)}))
          .ok());
  EXPECT_TRUE(db.Contains("flag", {V(1)}));
}

// --- View maintenance (application 3) ---------------------------------------

TEST(ViewMaintTest, IrrelevantUpdateDetected) {
  Program view = MustParse("v(E) :- emp(E,D,S) & S > 100");
  view.goal = "v";
  // Inserting a low-salary employee cannot change the view.
  auto low = IrrelevantUpdate(
      view, Update::Insert("emp", {V("a"), V("d"), V(50)}));
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  EXPECT_EQ(*low, Outcome::kHolds);
  // A high-salary insert can.
  auto high = IrrelevantUpdate(
      view, Update::Insert("emp", {V("a"), V("d"), V(500)}));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(*high, Outcome::kUnknown);
}

TEST(ViewMaintTest, IrrelevantMeansViewNeverChanges) {
  Program view = MustParse("v(E) :- emp(E,D,S) & S > 100");
  view.goal = "v";
  Update u = Update::Insert("emp", {V("a"), V("d"), V(50)});
  ASSERT_EQ(*IrrelevantUpdate(view, u), Outcome::kHolds);
  Database db;
  ASSERT_TRUE(db.Insert("emp", {V("x"), V("d"), V(200)}).ok());
  auto changed = ViewChanges(view, u, db);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*changed);
}

TEST(ViewMaintTest, RelevantUpdateChangesView) {
  Program view = MustParse("v(E) :- emp(E,D,S) & S > 100");
  view.goal = "v";
  Update u = Update::Insert("emp", {V("a"), V("d"), V(500)});
  Database db;
  auto changed = ViewChanges(view, u, db);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
}

TEST(ViewMaintTest, DeletionIrrelevantWhenFilteredOut) {
  Program view = MustParse("v(E) :- emp(E,D,S) & S > 100");
  view.goal = "v";
  auto del = IrrelevantUpdate(
      view, Update::Delete("emp", {V("a"), V("d"), V(50)}));
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*del, Outcome::kHolds);
  auto del_high = IrrelevantUpdate(
      view, Update::Delete("emp", {V("a"), V("d"), V(500)}));
  ASSERT_TRUE(del_high.ok());
  EXPECT_EQ(*del_high, Outcome::kUnknown);
}

}  // namespace
}  // namespace ccpi
