// The compiled-plan cache (src/plan/) end to end: shape signatures as
// sound pattern keys, the Bind-equals-fresh-compile property of RA plan
// templates, the PlanCache store itself, CompiledProgram-vs-Program
// evaluation equality, and the manager-level guarantee the whole subsystem
// is built around — byte-identical reports and ManagerStats with the cache
// on and off, while the cache demonstrably serves hits.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ra_local_test.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "manager/constraint_manager.h"
#include "plan/plan_cache.h"
#include "plan/ra_plan.h"
#include "plan/update_signature.h"
#include "ra/ra_eval.h"
#include "relational/database.h"
#include "relational/value.h"
#include "updates/independence.h"
#include "updates/update.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

Rule MustParseRule(const char* text) {
  auto r = ParseRule(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

// ---- Shape signatures ----------------------------------------------------

TEST(UpdateSignatureTest, ShapeClassesFollowFirstAppearance) {
  std::vector<Value> none;
  EXPECT_EQ(ShapeSignature({V("a"), V("b"), V("b")}, none), "N0.N1.N1");
  EXPECT_EQ(ShapeSignature({V("x"), V("y"), V("y")}, none), "N0.N1.N1");
  EXPECT_EQ(ShapeSignature({V("a"), V("b"), V("c")}, none), "N0.N1.N2");
  EXPECT_EQ(ShapeSignature({V("a"), V("a"), V("b")}, none), "N0.N0.N1");
  EXPECT_EQ(ShapeSignature({}, none), "");
}

TEST(UpdateSignatureTest, DistinguishedConstantsGetTheirOwnClasses) {
  // Sorted, deduplicated constant pool (Value's total order).
  std::vector<Value> constants = {V("a"), V("b")};
  EXPECT_EQ(ShapeSignature({V("a"), V("x"), V("x")}, constants), "C0.N0.N0");
  EXPECT_EQ(ShapeSignature({V("b"), V("a"), V("q")}, constants), "C1.C0.N0");
  // A non-constant repeating a constant's *class* is impossible: equality
  // with the pool is what routes to C — so same-shape tuples agree on
  // every pool equality.
  EXPECT_NE(ShapeSignature({V("a"), V("a")}, constants),
            ShapeSignature({V("x"), V("x")}, constants));
}

TEST(UpdateSignatureTest, MixedTypesAndKeyRendering) {
  std::vector<Value> constants = {V(5)};
  Update ins = Update::Insert("emp", {V("ann"), V(5)});
  Update del = Update::Delete("emp", {V("ann"), V(5)});
  UpdateSignature a = MakeUpdateSignature(ins, constants);
  UpdateSignature b = MakeUpdateSignature(del, constants);
  EXPECT_EQ(a.Key(), "emp/+/N0.C0");
  EXPECT_EQ(b.Key(), "emp/-/N0.C0");
  EXPECT_NE(a.Key(), b.Key());  // kind is part of the pattern
}

TEST(UpdateSignatureTest, CollectProgramConstantsAndSafety) {
  Program with_cmp = MustParse("panic :- l(X, a) & r(X) & X > 5");
  Program plain = MustParse("panic :- emp(E, b) & not dept(E)");
  std::vector<Value> constants =
      CollectProgramConstants({&with_cmp, &plain});
  // Sorted and deduplicated; contains every constant from atom args and
  // comparison operands across both programs.
  ASSERT_EQ(constants.size(), 3u);
  EXPECT_TRUE(std::is_sorted(constants.begin(), constants.end(),
                             [](const Value& x, const Value& y) {
                               return x < y;
                             }));
  EXPECT_NE(std::find(constants.begin(), constants.end(), V(5)),
            constants.end());
  EXPECT_NE(std::find(constants.begin(), constants.end(), V("a")),
            constants.end());
  EXPECT_NE(std::find(constants.begin(), constants.end(), V("b")),
            constants.end());
  EXPECT_FALSE(SignatureSafe(with_cmp));
  EXPECT_TRUE(SignatureSafe(plain));
}

// ---- RA plan templates: Bind == fresh compile ----------------------------

/// For every (rule, template tuple, bound tuple) triple, the bound
/// template must render identically to compiling the bound tuple from
/// scratch — flags included.
void ExpectBindMatchesFreshCompile(const Rule& rule, const std::string& pred,
                                   const Tuple& representative,
                                   const Tuple& bound_to) {
  Result<RaPlanTemplate> tpl = CompileRaPlan(rule, pred, representative);
  Result<RaLocalTest> fresh = CompileRaLocalTest(rule, pred, bound_to);
  ASSERT_TRUE(tpl.ok()) << tpl.status().ToString();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(tpl->trivially_holds, fresh->trivially_holds);
  EXPECT_EQ(tpl->trivially_violated, fresh->trivially_violated);
  if (tpl->trivially_holds || tpl->trivially_violated) return;
  ASSERT_NE(tpl->expr, nullptr);
  ASSERT_NE(fresh->expr, nullptr);
  RaExprPtr bound = tpl->Bind(bound_to);
  EXPECT_EQ(bound->ToString(), fresh->expr->ToString())
      << "rule: " << rule.ToString()
      << " rep: " << TupleToString(representative)
      << " bound: " << TupleToString(bound_to);
}

TEST(RaPlanTest, BindMatchesFreshCompileAcrossShapes) {
  struct Case {
    const char* rule;
    const char* pred;
    Tuple rep;
    Tuple bound;
  };
  const Case cases[] = {
      // Plain join, all-distinct components.
      {"panic :- l(X, Y) & r(X)", "l", {V(1), V(2)}, {V(7), V(8)}},
      // Repeated variable in the local atom.
      {"panic :- l(X, X) & r(X)", "l", {V(3), V(3)}, {V(9), V(9)}},
      // Repeated component against distinct variables (pattern equality).
      {"panic :- l(X, Y) & r(Y)", "l", {V(4), V(4)}, {V(6), V(6)}},
      // Constant in the local atom, matching tuple.
      {"panic :- l(a, Y) & r(Y)", "l", {V("a"), V(1)}, {V("a"), V(2)}},
      // Several remote atoms sharing variables.
      {"panic :- l(X, Y) & r(X) & s(X, Y)", "l", {V(1), V(2)}, {V(5), V(6)}},
      // String components.
      {"panic :- emp(E, D) & dept(D)", "emp",
       {V("ann"), V("cs")}, {V("bob"), V("ee")}},
  };
  for (const Case& c : cases) {
    ExpectBindMatchesFreshCompile(MustParseRule(c.rule), c.pred, c.rep,
                                  c.bound);
  }
}

TEST(RaPlanTest, TrivialFlagsTransferToSameShapeTuples) {
  // Constant mismatch => trivially holds, for every same-shape tuple.
  Rule rule = MustParseRule("panic :- l(a, Y) & r(Y)");
  ExpectBindMatchesFreshCompile(rule, "l", {V("x"), V(1)}, {V("y"), V(2)});
  // No remote atoms => trivially violated.
  Rule local_only = MustParseRule("panic :- l(X, Y)");
  ExpectBindMatchesFreshCompile(local_only, "l", {V(1), V(2)}, {V(3), V(4)});
}

TEST(RaPlanTest, BoundPlanEvaluatesLikeFreshCompile) {
  Rule rule = MustParseRule("panic :- l(X, Y) & r(X)");
  Database db;
  ASSERT_TRUE(db.Insert("l", {V(7), V(0)}).ok());
  ASSERT_TRUE(db.Insert("l", {V(8), V(1)}).ok());
  Result<RaPlanTemplate> tpl = CompileRaPlan(rule, "l", {V(1), V(2)});
  ASSERT_TRUE(tpl.ok());
  for (const Tuple& t : {Tuple{V(7), V(3)}, Tuple{V(9), V(4)}}) {
    RaExprPtr bound = tpl->Bind(t);
    Result<bool> via_plan = RaNonempty(*bound, db);
    Result<Outcome> via_cold = RaLocalTestOnInsert(rule, "l", t, db);
    ASSERT_TRUE(via_plan.ok());
    ASSERT_TRUE(via_cold.ok());
    EXPECT_EQ(*via_plan ? Outcome::kHolds : Outcome::kUnknown, *via_cold);
  }
}

// ---- PlanCache: the store itself -----------------------------------------

TEST(PlanCacheTest, FindMissThenStoreThenHit) {
  PlanCache cache;
  EXPECT_FALSE(cache.FindTier1("k").has_value());
  cache.StoreTier1("k", PlanCache::Tier1Decision{true});
  ASSERT_TRUE(cache.FindTier1("k").has_value());
  EXPECT_TRUE(cache.FindTier1("k")->holds);
  // First insert wins: a second store does not overwrite.
  cache.StoreTier1("k", PlanCache::Tier1Decision{false});
  EXPECT_TRUE(cache.FindTier1("k")->holds);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, TemplateStoreReturnsWinner) {
  PlanCache cache;
  auto first = std::make_shared<const RaPlanTemplate>();
  auto second = std::make_shared<const RaPlanTemplate>();
  EXPECT_EQ(cache.StoreTemplate("k", first), first);
  // The loser adopts the winner's entry.
  EXPECT_EQ(cache.StoreTemplate("k", second), first);
  EXPECT_EQ(cache.FindTemplate("k"), first);
  EXPECT_EQ(cache.FindTemplate("other"), nullptr);
}

TEST(PlanCacheTest, StoresReportWhetherTheyInserted) {
  // The manager counts a compile only for the store that inserted; a
  // losing store adopted an entry that was already there.
  PlanCache cache;
  EXPECT_TRUE(cache.StoreTier1("k", PlanCache::Tier1Decision{true}));
  EXPECT_FALSE(cache.StoreTier1("k", PlanCache::Tier1Decision{false}));
  EXPECT_TRUE(cache.StoreResult("r", {Outcome::kHolds, {}}));
  EXPECT_FALSE(cache.StoreResult("r", {Outcome::kUnknown, {}}));
  EXPECT_EQ(cache.FindResult("r")->outcome, Outcome::kHolds);
  // A never-store cache keeps nothing, and every caller's entry is the
  // one in effect.
  PlanCache never(/*store=*/false);
  EXPECT_TRUE(never.StoreTier1("k", PlanCache::Tier1Decision{true}));
  EXPECT_TRUE(never.StoreTier1("k", PlanCache::Tier1Decision{true}));
  EXPECT_TRUE(never.StoreResult("r", {Outcome::kHolds, {}}));
}

TEST(PlanCacheTest, InvalidateDropsEveryFamily) {
  PlanCache cache;
  cache.StoreTier1("t1", PlanCache::Tier1Decision{true});
  cache.StoreTemplate("tpl", std::make_shared<const RaPlanTemplate>());
  cache.StoreResult("res", PlanCache::BoundResult{Outcome::kHolds, {}});
  auto program = CompileProgram(MustParse("panic :- r(X)"));
  ASSERT_TRUE(program.ok());
  cache.StoreProgram("prog",
                     std::make_shared<const CompiledProgram>(
                         std::move(*program)));
  EXPECT_EQ(cache.size(), 4u);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.FindTier1("t1").has_value());
  EXPECT_EQ(cache.FindTemplate("tpl"), nullptr);
  EXPECT_FALSE(cache.FindResult("res").has_value());
  EXPECT_EQ(cache.FindProgram("prog"), nullptr);
}

TEST(PlanCacheTest, ConcurrentStoresConverge) {
  PlanCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const RaPlanTemplate>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &seen, i] {
      seen[i] = cache.StoreTemplate(
          "k", std::make_shared<const RaPlanTemplate>());
    });
  }
  for (std::thread& t : threads) t.join();
  // Every lane adopted the same winning entry.
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[i], seen[0]);
  EXPECT_EQ(cache.FindTemplate("k"), seen[0]);
}

TEST(PlanCacheTest, NeverStoreCacheKeepsNothing) {
  // The plan cache off: every Store hands its argument back, every Find
  // misses, and nothing is kept in any of the five families.
  PlanCache cache(/*store=*/false);
  cache.StoreTier1("t1", PlanCache::Tier1Decision{true});
  EXPECT_FALSE(cache.FindTier1("t1").has_value());
  auto artifacts = std::make_shared<const PlanCache::Tier2Artifacts>();
  EXPECT_EQ(cache.StoreTier2("t2", artifacts), artifacts);
  EXPECT_FALSE(cache.FindTier2("t2").has_value());
  auto tpl = std::make_shared<const RaPlanTemplate>();
  EXPECT_EQ(cache.StoreTemplate("tpl", tpl), tpl);
  EXPECT_EQ(cache.FindTemplate("tpl"), nullptr);
  cache.StoreResult("res", PlanCache::BoundResult{Outcome::kHolds, {}});
  EXPECT_FALSE(cache.FindResult("res").has_value());
  auto compiled = CompileProgram(MustParse("panic :- r(X)"));
  ASSERT_TRUE(compiled.ok());
  auto program = std::make_shared<const CompiledProgram>(std::move(*compiled));
  EXPECT_EQ(cache.StoreProgram("prog", program), program);
  EXPECT_EQ(cache.FindProgram("prog"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, Tier2FamilyKeepsInapplicableAndFirstInsertWins) {
  PlanCache cache;
  EXPECT_FALSE(cache.FindTier2("c\x1fl").has_value());  // a miss...
  // ...is distinct from a stored "tier 2 does not apply".
  EXPECT_EQ(cache.StoreTier2("c\x1fr", nullptr), nullptr);
  auto inapplicable = cache.FindTier2("c\x1fr");
  ASSERT_TRUE(inapplicable.has_value());
  EXPECT_EQ(*inapplicable, nullptr);
  // First insert wins: the loser adopts the stored entry.
  auto first = std::make_shared<const PlanCache::Tier2Artifacts>();
  auto second = std::make_shared<const PlanCache::Tier2Artifacts>();
  EXPECT_EQ(cache.StoreTier2("c\x1fl", first), first);
  EXPECT_EQ(cache.StoreTier2("c\x1fl", second), first);
  EXPECT_EQ(cache.StoreTier2("c\x1fr", second), nullptr);
  EXPECT_EQ(cache.FindTier2("c\x1fl"), first);
  EXPECT_EQ(cache.size(), 2u);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.FindTier2("c\x1fl").has_value());
  EXPECT_FALSE(cache.FindTier2("c\x1fr").has_value());
}

// ---- CompiledProgram == Program ------------------------------------------

TEST(CompiledProgramTest, EvaluatesIdenticallyToProgramOverload) {
  Program program = MustParse(
      "panic :- q(X) & path(X, Y) & bad(Y)\n"
      "path(X, Y) :- edge(X, Y)\n"
      "path(X, Y) :- edge(X, Z) & path(Z, Y)");
  Database db;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.Insert("edge", {V(i), V(i + 1)}).ok());
  }
  ASSERT_TRUE(db.Insert("q", {V(0)}).ok());
  ASSERT_TRUE(db.Insert("bad", {V(6)}).ok());

  Result<CompiledProgram> plan = CompileProgram(program);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<Database> cold = Evaluate(program, db);
  Result<Database> warm = Evaluate(*plan, db);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold->ToString(), warm->ToString());
  Result<bool> cold_violated = IsViolated(program, db);
  Result<bool> warm_violated = IsViolated(*plan, db);
  ASSERT_TRUE(cold_violated.ok());
  ASSERT_TRUE(warm_violated.ok());
  EXPECT_EQ(*cold_violated, *warm_violated);
  EXPECT_TRUE(*warm_violated);  // the chain really reaches bad(6)
}

TEST(CompiledProgramTest, CompileFailsExactlyWhereEvaluateWould) {
  // Unsafe: head variable not bound by a positive body literal.
  Program unsafe = MustParse("p(X, Y) :- q(X)");
  Result<CompiledProgram> plan = CompileProgram(unsafe);
  Result<Database> eval = Evaluate(unsafe, Database{});
  ASSERT_FALSE(plan.ok());
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(plan.status().code(), eval.status().code());
}

// ---- Manager-level: on/off equality with hits ----------------------------

struct ManagerRun {
  std::vector<std::vector<CheckReport>> reports;
  ManagerStats stats;
  uint64_t plan_hits = 0;
  uint64_t plan_compiles = 0;
};

void ExpectIdenticalRuns(const ManagerRun& off, const ManagerRun& on) {
  ASSERT_EQ(off.reports.size(), on.reports.size());
  for (size_t u = 0; u < off.reports.size(); ++u) {
    ASSERT_EQ(off.reports[u].size(), on.reports[u].size());
    for (size_t i = 0; i < off.reports[u].size(); ++i) {
      EXPECT_EQ(off.reports[u][i].constraint, on.reports[u][i].constraint);
      EXPECT_EQ(off.reports[u][i].outcome, on.reports[u][i].outcome)
          << "update " << u << " " << off.reports[u][i].constraint;
      EXPECT_EQ(off.reports[u][i].tier, on.reports[u][i].tier)
          << "update " << u << " " << off.reports[u][i].constraint;
    }
  }
  EXPECT_EQ(off.stats.resolved_by, on.stats.resolved_by);
  EXPECT_EQ(off.stats.violations, on.stats.violations);
  EXPECT_EQ(off.stats.remote_attempts, on.stats.remote_attempts);
  EXPECT_EQ(off.stats.t3_admitted, on.stats.t3_admitted);
  EXPECT_EQ(off.stats.deferred, on.stats.deferred);
  EXPECT_EQ(off.stats.shed_checks, on.stats.shed_checks);
  // The strong clause: access accounting is byte-identical too — a plan
  // cache hit never changes which reads the evaluation charged.
  EXPECT_EQ(off.stats.access.local_tuples, on.stats.access.local_tuples);
  EXPECT_EQ(off.stats.access.remote_tuples, on.stats.access.remote_tuples);
  EXPECT_EQ(off.stats.access.remote_trips, on.stats.access.remote_trips);
  EXPECT_EQ(off.stats.access.cache_hits, on.stats.access.cache_hits);
  EXPECT_EQ(off.stats.access.cached_tuples, on.stats.access.cached_tuples);
}

/// A comparison-free workload (so the tier-1 memo's soundness gate is
/// open) with heavy pattern repetition across every tier.
ManagerRun RunPatternWorkload(bool plan_cache) {
  ConstraintManager mgr({"l", "emp"}, CostModel{}, {.plan_cache = plan_cache});
  // Two remote-only variables (A, B) put "join" past the Fig 6.1 interval
  // machinery and onto the Theorem 5.3 RA test — the path the template
  // cache compiles.
  EXPECT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y,A,B)"))
          .ok());
  EXPECT_TRUE(mgr.AddConstraint(
                     "ref", MustParse("panic :- emp(E,D) & not dept(D)"))
                  .ok());
  EXPECT_TRUE(
      mgr.AddConstraint("noloop", MustParse("panic :- l(X,X)")).ok());
  EXPECT_TRUE(mgr.site().db().Insert("dept", {V("cs")}).ok());
  EXPECT_TRUE(mgr.site().db().Insert("r", {V(100), V(1), V(2)}).ok());

  std::vector<Update> stream;
  for (int i = 0; i < 8; ++i) {
    stream.push_back(Update::Insert("l", {V(i), V(i + 50)}));   // same pattern
    stream.push_back(Update::Insert("emp", {V(i), V("cs")}));   // T3, repeats
    stream.push_back(Update::Delete("l", {V(i), V(i + 50)}));   // T1, repeats
  }
  stream.push_back(Update::Insert("l", {V(3), V(3)}));  // violates noloop
  stream.push_back(Update::Insert("l", {V(3), V(3)}));  // again: same version
  ManagerRun run;
  for (const Update& u : stream) {
    auto reports = mgr.ApplyUpdate(u);
    EXPECT_TRUE(reports.ok()) << reports.status().ToString();
    if (reports.ok()) run.reports.push_back(*reports);
  }
  run.stats = mgr.stats();
  if (plan_cache) {
    run.plan_hits = mgr.metrics().GetCounter("plan.hits")->value();
    run.plan_compiles = mgr.metrics().GetCounter("plan.compiles")->value();
  }
  return run;
}

TEST(PlanCacheManagerTest, CacheOnMatchesOffWithHits) {
  ManagerRun off = RunPatternWorkload(false);
  ManagerRun on = RunPatternWorkload(true);
  ExpectIdenticalRuns(off, on);
  // Non-vacuous: repeated patterns really served cached plans, and
  // compiles stayed well below one per check.
  EXPECT_GT(on.plan_hits, 0u);
  EXPECT_GT(on.plan_compiles, 0u);
  EXPECT_GT(on.plan_hits, on.plan_compiles);
  EXPECT_EQ(off.plan_hits, 0u);
  // The workload exercised something at every tier.
  EXPECT_GT(on.stats.violations, 0u);
  EXPECT_GT(on.stats.resolved_by[Tier::kFullCheck], 0u);
}

TEST(PlanCacheManagerTest, RepeatedRejectedUpdateHitsBoundResultMemo) {
  // A rejected update leaves the database — and so every relation
  // version — untouched, which is exactly when the bound-result memo may
  // replay a tier-2 evaluation. Re-submitting the same violating insert
  // must serve the join constraint's RA evaluation from the memo (hits
  // grow) while charging identical reads (access equality is covered by
  // CacheOnMatchesOffWithHits; here we pin the hit itself).
  ConstraintManager mgr({"l"}, CostModel{}, {.plan_cache = true});
  // ICQ-inapplicable (two remote-only variables), so the tier-2 check is
  // the RA test the template cache serves.
  ASSERT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y,A,B)"))
          .ok());
  ASSERT_TRUE(
      mgr.AddConstraint("noloop", MustParse("panic :- l(X,X)")).ok());
  ASSERT_TRUE(mgr.site().db().Insert("l", {V(9), V(5)}).ok());

  Update bad = Update::Insert("l", {V(5), V(5)});
  auto first = mgr.ApplyUpdate(bad);
  ASSERT_TRUE(first.ok());
  uint64_t delta_after_first =
      mgr.metrics().GetCounter("plan.delta_tuples")->value();
  uint64_t hits_after_first = mgr.metrics().GetCounter("plan.hits")->value();
  EXPECT_EQ(delta_after_first, 1u);  // one bound tuple for the join test
  auto second = mgr.ApplyUpdate(bad);
  ASSERT_TRUE(second.ok());
  // Both submissions were rejected by noloop; reports identical.
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].outcome, (*second)[i].outcome);
    EXPECT_EQ((*first)[i].tier, (*second)[i].tier);
  }
  // The second episode bound the same delta tuple into the cached
  // template (delta grows by exactly one) and served both the template
  // and the bound-result memo — at least two hits beyond the first
  // episode's count.
  EXPECT_EQ(mgr.metrics().GetCounter("plan.delta_tuples")->value(),
            delta_after_first + 1);
  EXPECT_GE(mgr.metrics().GetCounter("plan.hits")->value(),
            hits_after_first + 2);
}

TEST(PlanCacheManagerTest, AddConstraintInvalidatesThePatternMemo) {
  ConstraintManager mgr({"l"}, CostModel{}, {.plan_cache = true});
  ASSERT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
  // Seed the rows first: deleting an absent tuple is a no-op episode and
  // runs no checks at all.
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(mgr.site().db().Insert("l", {V(i), V(i + 1)}).ok());
  }
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("l", {V(1), V(2)})).ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("l", {V(3), V(4)})).ok());
  uint64_t compiles_before =
      mgr.metrics().GetCounter("plan.compiles")->value();
  EXPECT_GT(mgr.metrics().GetCounter("plan.hits")->value(), 0u);
  // Registration is a cache epoch: the same pattern recompiles after.
  ASSERT_TRUE(
      mgr.AddConstraint("join2", MustParse("panic :- l(X,Y) & s(X)")).ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("l", {V(5), V(6)})).ok());
  EXPECT_GT(mgr.metrics().GetCounter("plan.compiles")->value(),
            compiles_before);
}

/// A mixed budgeted workload: "deep" walks a 64-edge transitive closure a
/// 4-round fixpoint cap can never finish (deterministic sheds, no wall
/// clock), "ref" completes at tier 3, "join" resolves locally — all
/// comparison-free so every plan-cache layer participates.
ManagerRun RunBudgetedWorkload(bool plan_cache) {
  BudgetConfig budget;
  budget.per_check.max_fixpoint_rounds = 4;
  ConstraintManager mgr({"l", "lq", "emp"}, CostModel{},
                        {.plan_cache = plan_cache, .budget = budget});
  EXPECT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
  EXPECT_TRUE(mgr.AddConstraint(
                     "deep",
                     MustParse("panic :- lq(X) & path(X,Y) & bad(Y)\n"
                               "path(X,Y) :- edge(X,Y)\n"
                               "path(X,Y) :- edge(X,Z) & path(Z,Y)"))
                  .ok());
  EXPECT_TRUE(mgr.AddConstraint(
                     "ref", MustParse("panic :- emp(E,D) & not dept(D)"))
                  .ok());
  EXPECT_TRUE(mgr.site().db().Insert("dept", {V("cs")}).ok());
  EXPECT_TRUE(mgr.site().db().Insert("r", {V(100)}).ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(mgr.site().db().Insert("edge", {V(i), V(i + 1)}).ok());
  }
  ManagerRun run;
  for (int i = 0; i < 6; ++i) {
    for (const Update& u :
         {Update::Insert("lq", {V(i)}),                // deep: shed at T3
          Update::Insert("emp", {V(i), V("cs")}),      // ref: completes at T3
          Update::Insert("l", {V(i), V(i + 50)}),      // join
          Update::Delete("l", {V(i), V(i + 50)})}) {   // T1 independence
      auto reports = mgr.ApplyUpdate(u);
      EXPECT_TRUE(reports.ok()) << reports.status().ToString();
      if (reports.ok()) run.reports.push_back(*reports);
    }
  }
  run.stats = mgr.stats();
  if (plan_cache) {
    run.plan_hits = mgr.metrics().GetCounter("plan.hits")->value();
    run.plan_compiles = mgr.metrics().GetCounter("plan.compiles")->value();
  }
  return run;
}

TEST(PlanCacheManagerTest, BudgetInvariantHoldsUnderCacheHits) {
  // PR 5's shed/accounting invariant must balance exactly when tier-3
  // evaluations run behind cache-served compilations: a cached plan
  // changes nothing about what tier 3 admits, splits, or sheds.
  ManagerRun off = RunBudgetedWorkload(false);
  ManagerRun on = RunBudgetedWorkload(true);
  ExpectIdenticalRuns(off, on);
  EXPECT_GT(on.plan_hits, 0u);
  auto full = on.stats.resolved_by.find(Tier::kFullCheck);
  size_t resolved_full =
      full != on.stats.resolved_by.end() ? full->second : 0;
  EXPECT_EQ(on.stats.t3_admitted,
            resolved_full + on.stats.deferred + on.stats.shed_checks);
  EXPECT_GT(on.stats.shed_checks, 0u);   // the cap really fired
  EXPECT_GT(resolved_full, 0u);          // and didn't fire on everything
}

// ---- Regression: tier-1 oracle on ground rewritten disjuncts -------------

TEST(IndependenceRegressionTest, GroundRewriteWithNegatedAssumptionIsSafe) {
  // RewriteAfterUpdate(panic :- l(X,X), +l(3,3)) produces a ground,
  // empty-bodied disjunct: X is substituted away and SimplifyCQ discharges
  // the 3=3 equalities, leaving no atoms and no constants. With a negated
  // assumed constraint the check routes to the exact small-model oracle,
  // whose linearization universe is then zero; it used to enumerate one
  // bogus instantiation anyway and throw std::out_of_range. The ground
  // disjunct fires on the empty database where neither member can, so the
  // correct exact answer is "not contained" — kUnknown, never a crash.
  Program noloop = MustParse("panic :- l(X, X)");
  Program ref = MustParse("panic :- emp(E, D) & not dept(D)");
  auto r = HoldsAfterUpdate(noloop, Update::Insert("l", {V(3), V(3)}), {ref});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->outcome, Outcome::kHolds);
}

}  // namespace
}  // namespace ccpi
