// The columnar read path must be invisible in every observable output:
// replaying the same seeded workload with columnar segments on and off
// produces byte-identical CheckReport vectors, ManagerStats (access
// accounting included — the kernels change how a verdict is computed,
// never which tuples the evaluation charges), deferred-queue contents,
// breaker state, and final database dump — at any thread count, with the
// remote and plan caches in any combination, and under execution budgets.
// These tests are the manager-level half of the columnar correctness
// story; tests/columnar_test.cc covers the kernels themselves.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <vector>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "relational/relation.h"
#include "util/rng.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

uint64_t FaultSeedOr(uint64_t fallback) {
  const char* env = std::getenv("CCPI_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

/// Scoped flip of the process-wide columnar switch; restores the previous
/// setting however the test exits so suites can interleave freely.
class ColumnarToggle {
 public:
  explicit ColumnarToggle(bool enabled)
      : saved_(Relation::ColumnarEnabled()) {
    Relation::SetColumnarEnabled(enabled);
  }
  ~ColumnarToggle() { Relation::SetColumnarEnabled(saved_); }
  ColumnarToggle(const ColumnarToggle&) = delete;
  ColumnarToggle& operator=(const ColumnarToggle&) = delete;

 private:
  bool saved_;
};

struct RunResult {
  std::vector<std::vector<CheckReport>> reports;
  ManagerStats stats;
  std::vector<DeferredCheck> deferred;
  CircuitState breaker_state = CircuitState::kClosed;
  uint64_t injector_trips = 0;
  std::string db_dump;
  /// Columnar segments built during the run (a delta of the process-wide
  /// counter): the non-vacuity witness that a columnar-on run actually
  /// routed reads through segments, and that a columnar-off run built none.
  uint64_t segments_built = 0;
};

std::vector<Update> RandomWorkload(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Update> out;
  const char* emps[] = {"ann", "bob", "cho", "dee"};
  const char* depts[] = {"cs", "ee", "toy"};
  for (size_t i = 0; i < n; ++i) {
    bool insert = !rng.Chance(1, 3);
    switch (rng.Below(4)) {
      case 0:
        out.push_back(Update{
            insert ? Update::Kind::kInsert : Update::Kind::kDelete,
            "l",
            {V(static_cast<int64_t>(rng.Below(12))),
             V(static_cast<int64_t>(rng.Below(12)))}});
        break;
      case 1:
        out.push_back(Update{
            insert ? Update::Kind::kInsert : Update::Kind::kDelete,
            "emp",
            {V(emps[rng.Below(4)]), V(depts[rng.Below(3)]),
             V(static_cast<int64_t>(rng.Below(150)))}});
        break;
      case 2:
        out.push_back(Update{
            insert ? Update::Kind::kInsert : Update::Kind::kDelete,
            "r",
            {V(static_cast<int64_t>(rng.Below(12)))}});
        break;
      default:
        out.push_back(
            Update{insert ? Update::Kind::kInsert : Update::Kind::kDelete,
                   "dept",
                   {V(depts[rng.Below(3)])}});
        break;
    }
  }
  return out;
}

/// The parallel_equivalence_test workload (same constraints, same seeds,
/// same initial data) with the columnar switch as an explicit parameter.
/// The mix matters: mixed int/symbol columns exercise both column kinds,
/// the interval and join constraints hit the vectorized compare and
/// hash-join kernels, and the negated referential constraint hits the
/// difference path.
RunResult RunWorkload(uint64_t seed, size_t threads, bool columnar,
                      const std::optional<FaultConfig>& faults,
                      bool cache = true, bool plan_cache = true,
                      size_t depth = 1) {
  ColumnarToggle toggle(columnar);
  uint64_t segments_before = Relation::DebugSegmentBuildCount();
  ConstraintManager mgr({"l", "emp"}, CostModel{},
                        {.threads = threads,
                         .remote_cache = {.enabled = cache},
                         .plan_cache = plan_cache,
                         .pipeline = {.depth = depth}});
  std::optional<FaultInjector> injector;
  if (faults.has_value()) {
    injector.emplace(*faults);
    mgr.site().set_fault_injector(&*injector);
  }

  EXPECT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  EXPECT_TRUE(
      mgr.AddConstraint(
             "fi", MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
          .ok());
  EXPECT_TRUE(mgr.AddConstraint(
                     "ref", MustParse("panic :- emp(E,D,S) & not dept(D)"))
                  .ok());
  EXPECT_TRUE(
      mgr.AddConstraint("cap", MustParse("panic :- emp(E,D,S) & S > 100"))
          .ok());
  EXPECT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());

  EXPECT_TRUE(mgr.site().db().Insert("dept", {V("cs")}).ok());
  EXPECT_TRUE(mgr.site().db().Insert("dept", {V("ee")}).ok());
  EXPECT_TRUE(mgr.site().db().Insert("r", {V(static_cast<int64_t>(20))}).ok());

  RunResult result;
  if (depth > 1) {
    for (const Update& u : RandomWorkload(seed, 60)) mgr.ApplyUpdateAsync(u);
    for (auto& reports : mgr.Drain()) {
      EXPECT_TRUE(reports.ok()) << reports.status().ToString();
      if (reports.ok()) result.reports.push_back(*reports);
    }
  } else {
    for (const Update& u : RandomWorkload(seed, 60)) {
      auto reports = mgr.ApplyUpdate(u);
      EXPECT_TRUE(reports.ok()) << reports.status().ToString();
      if (reports.ok()) result.reports.push_back(*reports);
    }
  }
  result.stats = mgr.stats();
  result.deferred.assign(mgr.deferred_queue().begin(),
                         mgr.deferred_queue().end());
  result.breaker_state = mgr.breaker().state();
  result.db_dump = mgr.site().db().ToString();
  if (injector.has_value()) result.injector_trips = injector->stats().trips;
  result.segments_built =
      Relation::DebugSegmentBuildCount() - segments_before;
  return result;
}

void ExpectSameReports(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (size_t u = 0; u < a.reports.size(); ++u) {
    ASSERT_EQ(a.reports[u].size(), b.reports[u].size()) << "update " << u;
    for (size_t i = 0; i < a.reports[u].size(); ++i) {
      const CheckReport& x = a.reports[u][i];
      const CheckReport& y = b.reports[u][i];
      EXPECT_EQ(x.constraint, y.constraint) << "update " << u;
      EXPECT_EQ(x.outcome, y.outcome)
          << "update " << u << " constraint " << x.constraint;
      EXPECT_EQ(x.tier, y.tier)
          << "update " << u << " constraint " << x.constraint;
      EXPECT_EQ(x.retries, y.retries)
          << "update " << u << " constraint " << x.constraint;
      EXPECT_EQ(x.reason, y.reason)
          << "update " << u << " constraint " << x.constraint;
      EXPECT_EQ(x.queue_overflow, y.queue_overflow)
          << "update " << u << " constraint " << x.constraint;
    }
  }
}

/// The columnar path is held to the plan cache's standard: EVERY field of
/// ManagerStats matches, access accounting included. Scanning a segment
/// instead of the row vector reads the same logical tuples, so the charged
/// local/remote counts must not move.
void ExpectSameStats(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.stats.resolved_by, b.stats.resolved_by);
  EXPECT_EQ(a.stats.violations, b.stats.violations);
  EXPECT_EQ(a.stats.remote_attempts, b.stats.remote_attempts);
  EXPECT_EQ(a.stats.remote_retries, b.stats.remote_retries);
  EXPECT_EQ(a.stats.remote_failures, b.stats.remote_failures);
  EXPECT_EQ(a.stats.deferred, b.stats.deferred);
  EXPECT_EQ(a.stats.breaker_fast_fails, b.stats.breaker_fast_fails);
  EXPECT_EQ(a.stats.deferred_recovered, b.stats.deferred_recovered);
  EXPECT_EQ(a.stats.deferred_violations, b.stats.deferred_violations);
  EXPECT_EQ(a.stats.t3_admitted, b.stats.t3_admitted);
  EXPECT_EQ(a.stats.shed_checks, b.stats.shed_checks);
  EXPECT_EQ(a.stats.budget_exhausted, b.stats.budget_exhausted);
  EXPECT_EQ(a.stats.deferred_dropped, b.stats.deferred_dropped);
  EXPECT_EQ(a.stats.access.local_tuples, b.stats.access.local_tuples);
  EXPECT_EQ(a.stats.access.remote_tuples, b.stats.access.remote_tuples);
  EXPECT_EQ(a.stats.access.remote_trips, b.stats.access.remote_trips);
  EXPECT_EQ(a.stats.access.remote_failures, b.stats.access.remote_failures);
  EXPECT_EQ(a.stats.access.cache_hits, b.stats.access.cache_hits);
  EXPECT_EQ(a.stats.access.cached_tuples, b.stats.access.cached_tuples);
}

void ExpectSameDeferred(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.deferred.size(), b.deferred.size());
  for (size_t i = 0; i < a.deferred.size(); ++i) {
    EXPECT_EQ(a.deferred[i].constraint, b.deferred[i].constraint);
    EXPECT_EQ(a.deferred[i].sequence, b.deferred[i].sequence);
    EXPECT_EQ(a.deferred[i].update.pred, b.deferred[i].update.pred);
    EXPECT_EQ(a.deferred[i].update.kind, b.deferred[i].update.kind);
    EXPECT_EQ(a.deferred[i].update.tuple, b.deferred[i].update.tuple);
  }
  EXPECT_EQ(a.breaker_state, b.breaker_state);
}

void ExpectEquivalent(const RunResult& a, const RunResult& b) {
  ExpectSameReports(a, b);
  ExpectSameStats(a, b);
  ExpectSameDeferred(a, b);
  EXPECT_EQ(a.db_dump, b.db_dump);
}

TEST(ColumnarEquivalenceTest, OnMatchesOffAtEveryThreadCount) {
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    for (uint64_t seed : {11u, 23u, 47u}) {
      RunResult off = RunWorkload(seed, threads, false, std::nullopt);
      RunResult on = RunWorkload(seed, threads, true, std::nullopt);
      ExpectEquivalent(off, on);
    }
  }
}

TEST(ColumnarEquivalenceTest, SegmentsActuallyBuiltOnAndOnlyOn) {
  // Guard against a vacuous pass: the columnar-on run must really build
  // segments (routing reads through the vectorized kernels), the off run
  // must build none, and the workload must exercise violations and the
  // full-check tier so the diffs above compare live verdicts.
  RunResult on = RunWorkload(11, 1, true, std::nullopt);
  RunResult off = RunWorkload(11, 1, false, std::nullopt);
  EXPECT_GT(on.segments_built, 0u);
  EXPECT_EQ(off.segments_built, 0u);
  EXPECT_GT(on.stats.violations, 0u);
  EXPECT_GT(on.stats.resolved_by[Tier::kFullCheck], 0u);
}

TEST(ColumnarEquivalenceTest, OnMatchesOffUnderFaults) {
  // The failure schedule is draw-for-draw identical: columnar reads must
  // consume exactly the trips the row path consumes.
  FaultConfig faults;
  faults.seed = FaultSeedOr(99);
  faults.transient_rate = 0.25;
  faults.timeout_rate = 0.1;
  faults.outages.push_back(OutageWindow{10, 25});
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (uint64_t seed : {11u, 23u, 47u}) {
      RunResult off = RunWorkload(seed, threads, false, faults);
      RunResult on = RunWorkload(seed, threads, true, faults);
      ExpectEquivalent(off, on);
      EXPECT_EQ(off.injector_trips, on.injector_trips);
    }
  }
}

TEST(ColumnarEquivalenceTest, OnMatchesOffWithoutCaches) {
  // Cache-off runs route every evaluation through the live scan path —
  // no cached plan or snapshot can mask a kernel divergence.
  for (uint64_t seed : {11u, 47u}) {
    RunResult off = RunWorkload(seed, 4, false, std::nullopt, false, false);
    RunResult on = RunWorkload(seed, 4, true, std::nullopt, false, false);
    ExpectEquivalent(off, on);
  }
}

TEST(ColumnarEquivalenceTest, OnMatchesOffThroughThePipeline) {
  // Pipelined episodes read admission snapshots (frozen, segment-bearing)
  // while commits mutate the live database — the sharpest test of segment
  // snapshot semantics.
  for (uint64_t seed : {11u, 47u}) {
    RunResult off =
        RunWorkload(seed, 4, false, std::nullopt, true, true, 8);
    RunResult on = RunWorkload(seed, 4, true, std::nullopt, true, true, 8);
    ExpectEquivalent(off, on);
  }
}

TEST(ColumnarEquivalenceTest, ColumnarOnThreadsStillMatchSequential) {
  // Columnar on, the original thread-invisibility guarantee must hold
  // unchanged: segments are immutable, so lanes share them freely.
  for (uint64_t seed : {11u, 47u}) {
    RunResult seq = RunWorkload(seed, 1, true, std::nullopt);
    RunResult par = RunWorkload(seed, 8, true, std::nullopt);
    ExpectEquivalent(seq, par);
  }
}

// ---- Budgeted runs: columnar on/off shed parity ---------------------------

/// The heavy-recursion budget workload of parallel_equivalence_test, with
/// the columnar switch as a parameter. Which checks shed under a cancelled
/// token must not depend on the storage layout: the budget checkpoints sit
/// at operator/enumeration boundaries that exist on both paths.
RunResult RunBudgetWorkload(size_t threads, bool columnar,
                            BudgetConfig budget) {
  ColumnarToggle toggle(columnar);
  ConstraintManager mgr({"lq", "l"}, CostModel{},
                        {.threads = threads, .budget = budget});
  EXPECT_TRUE(mgr.AddConstraint(
                     "deep1",
                     MustParse("panic :- lq(X) & path(X,Y) & bad(Y)\n"
                               "path(X,Y) :- edge(X,Y)\n"
                               "path(X,Y) :- edge(X,Z) & path(Z,Y)"))
                  .ok());
  EXPECT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  for (int i = 0; i < 128; ++i) {
    EXPECT_TRUE(mgr.site().db().Insert("edge", {V(i), V(i + 1)}).ok());
  }

  RunResult result;
  std::vector<Update> stream;
  for (int i = 0; i < 5; ++i) {
    stream.push_back(Update::Insert("lq", {V(i)}));
    stream.push_back(Update::Insert("l", {V(i), V(i + 1)}));
    stream.push_back(Update::Insert("l", {V(i + 1), V(i)}));
  }
  for (const Update& u : stream) {
    auto reports = mgr.ApplyUpdate(u);
    EXPECT_TRUE(reports.ok()) << reports.status().ToString();
    if (reports.ok()) result.reports.push_back(*reports);
  }
  result.stats = mgr.stats();
  result.deferred.assign(mgr.deferred_queue().begin(),
                         mgr.deferred_queue().end());
  result.breaker_state = mgr.breaker().state();
  return result;
}

TEST(ColumnarEquivalenceTest, CancelledEpisodesShedIdenticallyOnAndOff) {
  // A pre-cancelled token makes shedding deterministic (no wall clock):
  // every tier-3 check sheds at its first checkpoint on both paths, so
  // reports, stats, and the deferred queue must diff clean.
  CancellationToken token;
  token.Cancel();
  BudgetConfig budget;
  budget.cancel = &token;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RunResult off = RunBudgetWorkload(threads, false, budget);
    RunResult on = RunBudgetWorkload(threads, true, budget);
    ExpectSameReports(off, on);
    ExpectSameStats(off, on);
    ExpectSameDeferred(off, on);
    EXPECT_GT(on.stats.shed_checks, 0u);
  }
}

TEST(ColumnarEquivalenceTest, RoundCapShedsIdenticallyOnAndOff) {
  // A fixpoint-round cap is deterministic at any machine speed (unlike a
  // millisecond deadline) and fires mid-evaluation, after real kernel
  // work — the shed point itself must be layout-independent.
  BudgetConfig budget;
  budget.per_check.max_fixpoint_rounds = 3;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RunResult off = RunBudgetWorkload(threads, false, budget);
    RunResult on = RunBudgetWorkload(threads, true, budget);
    ExpectSameReports(off, on);
    ExpectSameStats(off, on);
    ExpectSameDeferred(off, on);
    EXPECT_GT(on.stats.shed_checks, 0u);
  }
}

}  // namespace
}  // namespace ccpi
