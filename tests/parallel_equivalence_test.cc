// The parallel check fan-out must be invisible in every observable output:
// ApplyUpdate at threads=N produces byte-identical CheckReport vectors,
// ManagerStats, and deferred-queue contents to threads=1, on any workload
// — including under deterministic fault injection, where the manager
// serializes tier 3 to keep the failure schedule reproducible. These tests
// replay randomized seeded workloads through sequentially- and
// parallel-configured managers and diff everything.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/rng.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

/// Base fault seed for the equivalence workloads; CI's seed sweep exports
/// CCPI_FAULT_SEED to rerun them under different schedules. Safe here
/// because every assertion is an *identity between two runs* of the same
/// seed, never a property of one particular schedule.
uint64_t FaultSeedOr(uint64_t fallback) {
  const char* env = std::getenv("CCPI_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

/// Everything ApplyUpdate lets a caller observe about one run.
struct RunResult {
  std::vector<std::vector<CheckReport>> reports;
  ManagerStats stats;
  std::vector<DeferredCheck> deferred;
  CircuitState breaker_state = CircuitState::kClosed;
  /// Fault-schedule draws consumed, when an injector was attached. The
  /// remote cache must not change this: a cached read still consumes its
  /// draw, or the schedule would shift and runs would diverge.
  uint64_t injector_trips = 0;
  /// Multi-site runs additionally capture each site's breaker state and
  /// access-counter slice; both must be thread-count invariant too.
  std::vector<CircuitState> site_breaker_states;
  std::vector<AccessStats> site_access;
  /// plan.hits / plan.compiles, captured when the plan cache was enabled
  /// (0 otherwise) — used only for non-vacuity guards, never diffed.
  uint64_t plan_hits = 0;
  uint64_t plan_compiles = 0;
  /// Full dump of the final database state: the pipeline must leave the
  /// exact same relation contents behind as the serial checker.
  std::string db_dump;
  /// manager.pipeline.* accounting, captured when depth > 1 (0 otherwise);
  /// used for the conflict/fallback non-vacuity guards, never diffed
  /// against a serial run (which has no pipeline counters by design).
  uint64_t pipe_admitted = 0;
  uint64_t pipe_committed = 0;
  uint64_t pipe_conflicts = 0;
  uint64_t pipe_unspeculated = 0;
};

std::vector<Update> RandomWorkload(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Update> out;
  const char* emps[] = {"ann", "bob", "cho", "dee"};
  const char* depts[] = {"cs", "ee", "toy"};
  for (size_t i = 0; i < n; ++i) {
    bool insert = !rng.Chance(1, 3);  // 2/3 inserts, 1/3 deletes
    switch (rng.Below(4)) {
      case 0:  // local l(x, y): small domain, so no-ops and violations occur
        out.push_back(Update{
            insert ? Update::Kind::kInsert : Update::Kind::kDelete,
            "l",
            {V(static_cast<int64_t>(rng.Below(12))),
             V(static_cast<int64_t>(rng.Below(12)))}});
        break;
      case 1:  // local emp(e, d, s)
        out.push_back(Update{
            insert ? Update::Kind::kInsert : Update::Kind::kDelete,
            "emp",
            {V(emps[rng.Below(4)]), V(depts[rng.Below(3)]),
             V(static_cast<int64_t>(rng.Below(150)))}});
        break;
      case 2:  // remote r(z): shifts which intervals are forbidden
        out.push_back(Update{
            insert ? Update::Kind::kInsert : Update::Kind::kDelete,
            "r",
            {V(static_cast<int64_t>(rng.Below(12)))}});
        break;
      default:  // remote dept(d): shifts referential integrity
        out.push_back(
            Update{insert ? Update::Kind::kInsert : Update::Kind::kDelete,
                   "dept",
                   {V(depts[rng.Below(3)])}});
        break;
    }
  }
  return out;
}

/// Drives `stream` through `mgr` — the serial ApplyUpdate loop at depth 1,
/// ApplyUpdateAsync + Drain through the episode pipeline otherwise — and
/// captures the observables every run shares.
RunResult Drive(ConstraintManager* mgr, const std::vector<Update>& stream,
                size_t depth) {
  RunResult result;
  if (depth > 1) {
    for (const Update& u : stream) mgr->ApplyUpdateAsync(u);
    for (auto& reports : mgr->Drain()) {
      EXPECT_TRUE(reports.ok()) << reports.status().ToString();
      if (reports.ok()) result.reports.push_back(*reports);
    }
    result.pipe_admitted =
        mgr->metrics().GetCounter("manager.pipeline.admitted")->value();
    result.pipe_committed =
        mgr->metrics().GetCounter("manager.pipeline.committed")->value();
    result.pipe_conflicts =
        mgr->metrics().GetCounter("manager.pipeline.conflicts")->value();
    result.pipe_unspeculated =
        mgr->metrics().GetCounter("manager.pipeline.unspeculated")->value();
  } else {
    for (const Update& u : stream) {
      auto reports = mgr->ApplyUpdate(u);
      EXPECT_TRUE(reports.ok()) << reports.status().ToString();
      if (reports.ok()) result.reports.push_back(*reports);
    }
  }
  result.stats = mgr->stats();
  result.deferred.assign(mgr->deferred_queue().begin(),
                         mgr->deferred_queue().end());
  result.breaker_state = mgr->breaker().state();
  result.db_dump = mgr->site().db().ToString();
  return result;
}

/// Replays the seeded workload through a fresh manager with `threads`
/// checker lanes (and, optionally, a fresh same-seeded fault injector).
/// `cache` toggles the remote-read snapshot cache, which must be
/// semantically invisible: only the access accounting may change.
/// `plan_cache` toggles the compiled-plan cache, which must be invisible
/// even in the access accounting. `depth` > 1 drives the stream through
/// the episode pipeline (ApplyUpdateAsync + Drain) instead of the serial
/// ApplyUpdate loop — which must also be invisible in every observable.
RunResult RunWorkload(uint64_t seed, size_t threads,
                      const std::optional<FaultConfig>& faults,
                      bool cache = true, bool plan_cache = true,
                      size_t depth = 1) {
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

  // A mix that exercises every tier: pure-local order (T1/T2, can
  // violate), forbidden intervals over remote r (T2 when covered, else
  // T3), referential integrity with negation (T3), a salary cap
  // (independence for small inserts), and a local-remote join (T3).
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

  // Initial data, identical across runs, bypassing the checkers.
  EXPECT_TRUE(mgr.site().db().Insert("dept", {V("cs")}).ok());
  EXPECT_TRUE(mgr.site().db().Insert("dept", {V("ee")}).ok());
  EXPECT_TRUE(mgr.site().db().Insert("r", {V(static_cast<int64_t>(20))}).ok());

  RunResult result = Drive(&mgr, RandomWorkload(seed, 60), depth);
  if (injector.has_value()) result.injector_trips = injector->stats().trips;
  if (plan_cache) {
    result.plan_hits = mgr.metrics().GetCounter("plan.hits")->value();
    result.plan_compiles = mgr.metrics().GetCounter("plan.compiles")->value();
  }
  return result;
}

void ExpectSameReports(const RunResult& seq, const RunResult& par) {
  ASSERT_EQ(seq.reports.size(), par.reports.size());
  for (size_t u = 0; u < seq.reports.size(); ++u) {
    ASSERT_EQ(seq.reports[u].size(), par.reports[u].size()) << "update " << u;
    for (size_t i = 0; i < seq.reports[u].size(); ++i) {
      const CheckReport& a = seq.reports[u][i];
      const CheckReport& b = par.reports[u][i];
      EXPECT_EQ(a.constraint, b.constraint) << "update " << u;
      EXPECT_EQ(a.outcome, b.outcome)
          << "update " << u << " constraint " << a.constraint;
      EXPECT_EQ(a.tier, b.tier)
          << "update " << u << " constraint " << a.constraint;
      EXPECT_EQ(a.retries, b.retries)
          << "update " << u << " constraint " << a.constraint;
      EXPECT_EQ(a.reason, b.reason)
          << "update " << u << " constraint " << a.constraint;
      EXPECT_EQ(a.queue_overflow, b.queue_overflow)
          << "update " << u << " constraint " << a.constraint;
    }
  }
}

void ExpectSameStats(const RunResult& seq, const RunResult& par) {
  EXPECT_EQ(seq.stats.resolved_by, par.stats.resolved_by);
  EXPECT_EQ(seq.stats.violations, par.stats.violations);
  EXPECT_EQ(seq.stats.remote_attempts, par.stats.remote_attempts);
  EXPECT_EQ(seq.stats.remote_retries, par.stats.remote_retries);
  EXPECT_EQ(seq.stats.remote_failures, par.stats.remote_failures);
  EXPECT_EQ(seq.stats.deferred, par.stats.deferred);
  EXPECT_EQ(seq.stats.breaker_fast_fails, par.stats.breaker_fast_fails);
  EXPECT_EQ(seq.stats.deferred_recovered, par.stats.deferred_recovered);
  EXPECT_EQ(seq.stats.deferred_violations, par.stats.deferred_violations);
  EXPECT_EQ(seq.stats.t3_admitted, par.stats.t3_admitted);
  EXPECT_EQ(seq.stats.shed_checks, par.stats.shed_checks);
  EXPECT_EQ(seq.stats.budget_exhausted, par.stats.budget_exhausted);
  EXPECT_EQ(seq.stats.deferred_dropped, par.stats.deferred_dropped);
  EXPECT_EQ(seq.stats.access.local_tuples, par.stats.access.local_tuples);
  EXPECT_EQ(seq.stats.access.remote_tuples, par.stats.access.remote_tuples);
  EXPECT_EQ(seq.stats.access.remote_trips, par.stats.access.remote_trips);
  EXPECT_EQ(seq.stats.access.remote_failures,
            par.stats.access.remote_failures);
  EXPECT_EQ(seq.stats.access.cache_hits, par.stats.access.cache_hits);
  EXPECT_EQ(seq.stats.access.cached_tuples, par.stats.access.cached_tuples);
}

/// The stats a cache-on run must share with a cache-off run: everything
/// except the remote access accounting, which is exactly what the cache
/// exists to change (trips/tuples move into hits/cached_tuples; prefetch
/// may even fetch a relation a short-circuiting evaluation never scans).
void ExpectSameSemanticStats(const RunResult& off, const RunResult& on) {
  EXPECT_EQ(off.stats.resolved_by, on.stats.resolved_by);
  EXPECT_EQ(off.stats.violations, on.stats.violations);
  EXPECT_EQ(off.stats.remote_attempts, on.stats.remote_attempts);
  EXPECT_EQ(off.stats.remote_retries, on.stats.remote_retries);
  EXPECT_EQ(off.stats.remote_failures, on.stats.remote_failures);
  EXPECT_EQ(off.stats.deferred, on.stats.deferred);
  EXPECT_EQ(off.stats.breaker_fast_fails, on.stats.breaker_fast_fails);
  EXPECT_EQ(off.stats.deferred_recovered, on.stats.deferred_recovered);
  EXPECT_EQ(off.stats.deferred_violations, on.stats.deferred_violations);
  EXPECT_EQ(off.stats.access.local_tuples, on.stats.access.local_tuples);
  EXPECT_EQ(off.stats.access.remote_failures,
            on.stats.access.remote_failures);
  EXPECT_EQ(off.stats.access.cache_hits, 0u);  // `off` really ran uncached
}

void ExpectSameDeferred(const RunResult& seq, const RunResult& par) {
  ASSERT_EQ(seq.deferred.size(), par.deferred.size());
  for (size_t i = 0; i < seq.deferred.size(); ++i) {
    EXPECT_EQ(seq.deferred[i].constraint, par.deferred[i].constraint);
    EXPECT_EQ(seq.deferred[i].sequence, par.deferred[i].sequence);
    EXPECT_EQ(seq.deferred[i].update.pred, par.deferred[i].update.pred);
    EXPECT_EQ(seq.deferred[i].update.kind, par.deferred[i].update.kind);
    EXPECT_EQ(seq.deferred[i].update.tuple, par.deferred[i].update.tuple);
  }
  EXPECT_EQ(seq.breaker_state, par.breaker_state);
}

void ExpectEquivalent(const RunResult& seq, const RunResult& par) {
  ExpectSameReports(seq, par);
  ExpectSameStats(seq, par);
  ExpectSameDeferred(seq, par);
  EXPECT_EQ(seq.db_dump, par.db_dump);
}

TEST(ParallelEquivalenceTest, FourThreadsMatchSequential) {
  for (uint64_t seed : {11u, 23u, 47u}) {
    RunResult seq = RunWorkload(seed, 1, std::nullopt);
    RunResult par = RunWorkload(seed, 4, std::nullopt);
    ExpectEquivalent(seq, par);
  }
}

TEST(ParallelEquivalenceTest, SomethingActuallyHappened) {
  // Guard against a vacuous pass: the workloads must exercise violations
  // and the full-check tier, or the diffs above prove nothing.
  RunResult r = RunWorkload(11, 1, std::nullopt);
  EXPECT_GT(r.stats.violations, 0u);
  EXPECT_GT(r.stats.resolved_by[Tier::kFullCheck], 0u);
  EXPECT_GT(r.stats.access.remote_trips, 0u);
}

TEST(ParallelEquivalenceTest, FourThreadsMatchSequentialUnderFaults) {
  FaultConfig faults;
  faults.seed = FaultSeedOr(99);
  faults.transient_rate = 0.25;
  faults.timeout_rate = 0.1;
  faults.outages.push_back(OutageWindow{10, 25});
  for (uint64_t seed : {11u, 23u, 47u}) {
    RunResult seq = RunWorkload(seed, 1, faults);
    RunResult par = RunWorkload(seed, 4, faults);
    ExpectEquivalent(seq, par);
  }
}

TEST(ParallelEquivalenceTest, FaultWorkloadsActuallyDefer) {
  FaultConfig faults;
  faults.seed = FaultSeedOr(99);
  faults.transient_rate = 0.25;
  faults.timeout_rate = 0.1;
  faults.outages.push_back(OutageWindow{10, 25});
  RunResult r = RunWorkload(11, 1, faults);
  // The outage window plus fault rates must push checks through the
  // deferred/retry machinery, or the fault-equivalence test is vacuous.
  EXPECT_GT(r.stats.deferred, 0u);
  EXPECT_GT(r.stats.remote_retries, 0u);
}

TEST(ParallelEquivalenceTest, EightThreadsMatchSequential) {
  RunResult seq = RunWorkload(123, 1, std::nullopt);
  RunResult par = RunWorkload(123, 8, std::nullopt);
  ExpectEquivalent(seq, par);
}

TEST(ParallelEquivalenceTest, ZeroThreadsMeansSequential) {
  RunResult a = RunWorkload(7, 0, std::nullopt);
  RunResult b = RunWorkload(7, 1, std::nullopt);
  ExpectEquivalent(a, b);
}

// ---- Remote-read cache: on/off equivalence ------------------------------
//
// The cache must be invisible in every verdict-bearing output: CheckReport
// vectors, deferred-queue contents, and the semantic half of ManagerStats
// are byte-identical with the cache on and off, at every thread count.
// Only the access accounting moves — and in the right direction.

TEST(ParallelEquivalenceTest, CacheOnMatchesCacheOff) {
  size_t trips_on = 0;
  size_t trips_off = 0;
  size_t hits = 0;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    for (uint64_t seed : {11u, 23u, 47u}) {
      RunResult off = RunWorkload(seed, threads, std::nullopt, false);
      RunResult on = RunWorkload(seed, threads, std::nullopt, true);
      ExpectSameReports(off, on);
      ExpectSameDeferred(off, on);
      ExpectSameSemanticStats(off, on);
      trips_off += off.stats.access.remote_trips;
      trips_on += on.stats.access.remote_trips;
      hits += on.stats.access.cache_hits;
    }
  }
  // Non-vacuous and effective: the cache engaged and cut physical trips.
  // (Per-seed trip counts need not be ordered — prefetch can fetch a
  // relation a short-circuiting evaluation never scans — but across the
  // sweep the cache must win clearly.)
  EXPECT_GT(hits, 0u);
  EXPECT_LT(trips_on, trips_off);
}

TEST(ParallelEquivalenceTest, CacheOnMatchesCacheOffUnderFaults) {
  FaultConfig faults;
  faults.seed = FaultSeedOr(99);
  faults.transient_rate = 0.25;
  faults.timeout_rate = 0.1;
  faults.outages.push_back(OutageWindow{10, 25});
  size_t hits = 0;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    for (uint64_t seed : {11u, 23u, 47u}) {
      RunResult off = RunWorkload(seed, threads, faults, false);
      RunResult on = RunWorkload(seed, threads, faults, true);
      ExpectSameReports(off, on);
      ExpectSameDeferred(off, on);
      ExpectSameSemanticStats(off, on);
      // With an injector attached prefetch is disabled and every cached
      // read still consumes its schedule draw, so the accounting is
      // conserved read-by-read, not just equivalent in aggregate.
      EXPECT_EQ(on.stats.access.remote_trips + on.stats.access.cache_hits,
                off.stats.access.remote_trips);
      EXPECT_EQ(on.stats.access.remote_tuples + on.stats.access.cached_tuples,
                off.stats.access.remote_tuples);
      EXPECT_EQ(on.injector_trips, off.injector_trips);
      hits += on.stats.access.cache_hits;
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST(ParallelEquivalenceTest, CacheOffThreadsStillMatchSequential) {
  // The --remote-cache=off path must preserve the original thread
  // invisibility guarantee, including the full access accounting.
  for (uint64_t seed : {11u, 47u}) {
    RunResult seq = RunWorkload(seed, 1, std::nullopt, false);
    RunResult par = RunWorkload(seed, 4, std::nullopt, false);
    ExpectEquivalent(seq, par);
  }
}

// ---- Compiled-plan cache: on/off equivalence -----------------------------
//
// The plan cache is held to a stronger standard than the remote cache: it
// must be invisible in EVERY field of ManagerStats, access accounting
// included — a cached plan changes how a verdict was computed, never which
// reads the evaluation charged. So the on/off diff here uses the full
// ExpectSameStats, at threads 1/4/8, with and without faults.

TEST(ParallelEquivalenceTest, PlanCacheOnMatchesOff) {
  uint64_t hits = 0;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    for (uint64_t seed : {11u, 23u, 47u}) {
      RunResult off = RunWorkload(seed, threads, std::nullopt, true, false);
      RunResult on = RunWorkload(seed, threads, std::nullopt, true, true);
      ExpectSameReports(off, on);
      ExpectSameStats(off, on);
      ExpectSameDeferred(off, on);
      hits += on.plan_hits;
    }
  }
  // Non-vacuous: the repeated update patterns really served cached plans.
  EXPECT_GT(hits, 0u);
}

TEST(ParallelEquivalenceTest, PlanCacheOnMatchesOffUnderFaults) {
  FaultConfig faults;
  faults.seed = FaultSeedOr(99);
  faults.transient_rate = 0.25;
  faults.timeout_rate = 0.1;
  faults.outages.push_back(OutageWindow{10, 25});
  uint64_t hits = 0;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    for (uint64_t seed : {11u, 23u, 47u}) {
      RunResult off = RunWorkload(seed, threads, faults, true, false);
      RunResult on = RunWorkload(seed, threads, faults, true, true);
      ExpectSameReports(off, on);
      ExpectSameStats(off, on);
      ExpectSameDeferred(off, on);
      // Cached analysis never skips a remote trip, so the injector's
      // failure schedule advances identically.
      EXPECT_EQ(on.injector_trips, off.injector_trips);
      hits += on.plan_hits;
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST(ParallelEquivalenceTest, PlanCacheThreadsStillMatchSequential) {
  // Cache state must be thread-count deterministic too: keys embed the
  // constraint id, so phase-1 lanes touch disjoint key families.
  for (uint64_t seed : {11u, 47u}) {
    RunResult seq = RunWorkload(seed, 1, std::nullopt, true, true);
    RunResult par = RunWorkload(seed, 8, std::nullopt, true, true);
    ExpectEquivalent(seq, par);
    EXPECT_EQ(seq.plan_hits, par.plan_hits);
    EXPECT_EQ(seq.plan_compiles, par.plan_compiles);
  }
}

// ---- Execution budgets: thread-count invariance --------------------------
//
// Budgeted shedding must also be invisible to the lane count: the
// per-episode caps are split deterministically across the tier-3 worklist
// before the fan-out, so which checks shed — and every report field,
// including reason — is identical at 1, 4, and 8 threads. Access
// accounting is deliberately NOT compared here: how much remote data a
// check managed to read before its deadline fired is timing-dependent by
// nature; the verdicts must not be.

/// The thread-count-independent half of ManagerStats under budgets.
void ExpectSameBudgetStats(const RunResult& seq, const RunResult& par) {
  EXPECT_EQ(seq.stats.resolved_by, par.stats.resolved_by);
  EXPECT_EQ(seq.stats.violations, par.stats.violations);
  EXPECT_EQ(seq.stats.deferred, par.stats.deferred);
  EXPECT_EQ(seq.stats.t3_admitted, par.stats.t3_admitted);
  EXPECT_EQ(seq.stats.shed_checks, par.stats.shed_checks);
  EXPECT_EQ(seq.stats.budget_exhausted, par.stats.budget_exhausted);
  EXPECT_EQ(seq.stats.deferred_dropped, par.stats.deferred_dropped);
}

/// Two deliberately heavy recursive constraints — a tier-3 evaluation of
/// either walks the transitive closure of a 128-edge remote chain, tens of
/// milliseconds of work — next to a pure-local ordering constraint. Every
/// constraint that can reach tier 3 here is heavy, so a millisecond-scale
/// per-check budget sheds all of them robustly at any machine speed and
/// any lane count; the local constraint keeps resolving (and violating)
/// outside the budget envelope.
RunResult RunBudgetWorkload(size_t threads, BudgetConfig budget) {
  ConstraintManager mgr({"lq", "l"}, CostModel{},
                        {.threads = threads, .budget = budget});
  EXPECT_TRUE(mgr.AddConstraint(
                     "deep1",
                     MustParse("panic :- lq(X) & path(X,Y) & bad(Y)\n"
                               "path(X,Y) :- edge(X,Y)\n"
                               "path(X,Y) :- edge(X,Z) & path(Z,Y)"))
                  .ok());
  EXPECT_TRUE(mgr.AddConstraint(
                     "deep2",
                     MustParse("panic :- lq(X) & rpath(X,Y) & bad2(Y)\n"
                               "rpath(X,Y) :- edge(X,Y)\n"
                               "rpath(X,Y) :- rpath(X,Z) & edge(Z,Y)"))
                  .ok());
  EXPECT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  for (int i = 0; i < 128; ++i) {
    EXPECT_TRUE(mgr.site().db().Insert("edge", {V(i), V(i + 1)}).ok());
  }

  RunResult result;
  std::vector<Update> stream;
  for (int i = 0; i < 5; ++i) {
    stream.push_back(Update::Insert("lq", {V(i)}));         // T3 both deeps
    stream.push_back(Update::Insert("l", {V(i), V(i + 1)}));  // local, holds
    stream.push_back(Update::Insert("l", {V(i + 1), V(i)}));  // local, violates
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

TEST(ParallelEquivalenceTest, DeadlineShedsIdenticallyAtAnyThreadCount) {
  BudgetConfig budget;
  budget.per_check.deadline_ms = 1;
  RunResult seq = RunBudgetWorkload(1, budget);
  // Non-vacuous: the deadline really shed the heavy checks mid-stream, the
  // local constraint kept firing, and the accounting balances.
  EXPECT_GT(seq.stats.shed_checks, 0u);
  EXPECT_GT(seq.stats.violations, 0u);
  auto completed = seq.stats.resolved_by.find(Tier::kFullCheck);
  EXPECT_EQ(seq.stats.t3_admitted,
            (completed != seq.stats.resolved_by.end() ? completed->second
                                                      : 0) +
                seq.stats.deferred + seq.stats.shed_checks);
  for (size_t threads : {size_t{4}, size_t{8}}) {
    RunResult par = RunBudgetWorkload(threads, budget);
    ExpectSameReports(seq, par);
    ExpectSameDeferred(seq, par);
    ExpectSameBudgetStats(seq, par);
  }
}

TEST(ParallelEquivalenceTest, CancelledEpisodesShedIdenticallyAtAnyThreadCount) {
  CancellationToken token;
  token.Cancel();  // cancelled before the stream: every T3 check sheds
  BudgetConfig budget;
  budget.cancel = &token;
  RunResult seq = RunBudgetWorkload(1, budget);
  EXPECT_GT(seq.stats.shed_checks, 0u);
  EXPECT_EQ(seq.stats.resolved_by.count(Tier::kFullCheck), 0u);
  EXPECT_GT(seq.stats.violations, 0u);  // local tiers ignore the token
  for (size_t threads : {size_t{4}, size_t{8}}) {
    RunResult par = RunBudgetWorkload(threads, budget);
    ExpectSameReports(seq, par);
    ExpectSameDeferred(seq, par);
    ExpectSameBudgetStats(seq, par);
  }
}

// ---- N-site topologies: thread-count invariance --------------------------
//
// The sharded remote side must not loosen the original guarantee: at any
// site count the reports, deferred queue, aggregate stats, AND every
// per-site slice (breaker state, trips, hits, failures) are identical at
// threads 1/4/8 — healthy and under per-site fault injection alike. A
// divergence in a per-site counter would mean the batched prefetch or the
// per-site breaker accounting depends on lane scheduling.

/// How RunTopologyWorkload prices its sites' trips.
enum class SiteLatency {
  kDefault,
  /// Explicit kFixed/0us overrides plus a windowless failure domain.
  kNeutral,
  /// Site 0 on a heavy-tailed two-point model, so hedges can fire.
  kSkewedSite0,
};

/// RunWorkload generalized to an N-site topology: remote r and dept are
/// pinned to the first and last site, per-site injectors derive their
/// seeds the same way the script layer does (site 0 verbatim, then the
/// golden-ratio stride).
RunResult RunTopologyWorkload(uint64_t seed, size_t threads, size_t sites,
                              const std::optional<FaultConfig>& faults,
                              SiteLatency latency = SiteLatency::kDefault,
                              uint64_t hedge_after = 0, size_t depth = 1) {
  TopologyConfig topology;
  topology.sites = sites;
  topology.placement["r"] = 0;
  topology.placement["dept"] = sites - 1;
  if (latency == SiteLatency::kSkewedSite0) {
    SiteLatencyOverride skewed;
    skewed.model = LatencyModel::kTwoPoint;
    skewed.lo_us = 1;
    skewed.hi_us = 50;
    skewed.slow_share = 0.4;
    topology.site_latency[0] = skewed;
  }
  if (latency == SiteLatency::kNeutral) {
    // A maximally-spelled-out-but-inert config: every site carries an
    // explicit kFixed/0us latency override (identical to the default
    // pricing) and all sites are grouped into one failure domain with no
    // outage windows (pure membership). Neither may perturb a single
    // observable.
    for (size_t s = 0; s < sites; ++s) {
      topology.site_latency[s] = SiteLatencyOverride{};
    }
    FailureDomain quiet;
    quiet.name = "quiet";
    for (size_t s = 0; s < sites; ++s) quiet.members.push_back(s);
    topology.domains.push_back(quiet);
  }
  RemoteCacheConfig remote_cache;
  remote_cache.hedge_after = hedge_after;
  ConstraintManager mgr({"l", "emp"}, CostModel{},
                        {.threads = threads,
                         .remote_cache = remote_cache,
                         .topology = topology,
                         .pipeline = {.depth = depth}});
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  if (faults.has_value()) {
    for (size_t s = 0; s < sites; ++s) {
      FaultConfig config = *faults;
      if (s > 0) config.seed = config.seed + s * 0x9e3779b97f4a7c15ull;
      injectors.push_back(std::make_unique<FaultInjector>(config));
      mgr.site().set_site_fault_injector(s, injectors.back().get());
    }
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

  RunResult result = Drive(&mgr, RandomWorkload(seed, 60), depth);
  for (size_t s = 0; s < sites; ++s) {
    result.site_breaker_states.push_back(mgr.site_breaker(s).state());
    result.site_access.push_back(mgr.site().site_stats(s));
  }
  for (const auto& injector : injectors) {
    result.injector_trips += injector->stats().trips;
  }
  return result;
}

void ExpectSameSiteState(const RunResult& seq, const RunResult& par) {
  ASSERT_EQ(seq.site_breaker_states.size(), par.site_breaker_states.size());
  for (size_t s = 0; s < seq.site_breaker_states.size(); ++s) {
    EXPECT_EQ(seq.site_breaker_states[s], par.site_breaker_states[s])
        << "site " << s;
    const AccessStats& a = seq.site_access[s];
    const AccessStats& b = par.site_access[s];
    EXPECT_EQ(a.remote_trips, b.remote_trips) << "site " << s;
    EXPECT_EQ(a.remote_tuples, b.remote_tuples) << "site " << s;
    EXPECT_EQ(a.remote_failures, b.remote_failures) << "site " << s;
    EXPECT_EQ(a.cache_hits, b.cache_hits) << "site " << s;
    EXPECT_EQ(a.cached_tuples, b.cached_tuples) << "site " << s;
  }
  EXPECT_EQ(seq.stats.sites_recovered, par.stats.sites_recovered);
  EXPECT_EQ(seq.stats.cache_revalidated, par.stats.cache_revalidated);
}

TEST(ParallelEquivalenceTest, MultiSiteThreadsMatchSequential) {
  for (size_t sites : {size_t{2}, size_t{4}}) {
    for (uint64_t seed : {11u, 47u}) {
      RunResult seq = RunTopologyWorkload(seed, 1, sites, std::nullopt);
      for (size_t threads : {size_t{4}, size_t{8}}) {
        RunResult par = RunTopologyWorkload(seed, threads, sites, std::nullopt);
        ExpectSameReports(seq, par);
        ExpectSameStats(seq, par);
        ExpectSameDeferred(seq, par);
        ExpectSameSiteState(seq, par);
      }
    }
  }
}

TEST(ParallelEquivalenceTest, MultiSiteWorkloadsActuallyShard) {
  // Non-vacuous: both pinned sites really served reads, so the per-site
  // diffs above compare live counters, not zeros.
  RunResult r = RunTopologyWorkload(11, 1, 2, std::nullopt);
  ASSERT_EQ(r.site_access.size(), 2u);
  EXPECT_GT(r.site_access[0].remote_trips + r.site_access[0].cache_hits, 0u);
  EXPECT_GT(r.site_access[1].remote_trips + r.site_access[1].cache_hits, 0u);
}

TEST(ParallelEquivalenceTest, MultiSiteThreadsMatchSequentialUnderFaults) {
  FaultConfig faults;
  faults.seed = FaultSeedOr(99);
  faults.transient_rate = 0.25;
  faults.timeout_rate = 0.1;
  faults.outages.push_back(OutageWindow{10, 25});
  for (size_t sites : {size_t{2}, size_t{4}}) {
    for (uint64_t seed : {11u, 47u}) {
      RunResult seq = RunTopologyWorkload(seed, 1, sites, faults);
      for (size_t threads : {size_t{4}, size_t{8}}) {
        RunResult par = RunTopologyWorkload(seed, threads, sites, faults);
        ExpectSameReports(seq, par);
        ExpectSameStats(seq, par);
        ExpectSameDeferred(seq, par);
        ExpectSameSiteState(seq, par);
        EXPECT_EQ(seq.injector_trips, par.injector_trips);
      }
    }
  }
}

TEST(ParallelEquivalenceTest, SingleSiteTopologyIsExactlyLegacy) {
  // --sites=1 must reproduce the pre-topology manager EXACTLY: the same
  // seeded workload through an explicit 1-site topology and through the
  // default constructor diffs clean on every observable, faults included.
  FaultConfig faults;
  faults.seed = FaultSeedOr(99);
  faults.transient_rate = 0.25;
  faults.timeout_rate = 0.1;
  faults.outages.push_back(OutageWindow{10, 25});
  for (uint64_t seed : {11u, 47u}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      RunResult legacy = RunWorkload(seed, threads, faults);
      RunResult one_site = RunTopologyWorkload(seed, threads, 1, faults);
      ExpectSameReports(legacy, one_site);
      ExpectSameStats(legacy, one_site);
      ExpectSameDeferred(legacy, one_site);
      EXPECT_EQ(legacy.injector_trips, one_site.injector_trips);
    }
  }
}

TEST(ParallelEquivalenceTest, NeutralLatencyConfigIsExactlyBaseline) {
  // The latency/hedging layer must be pay-for-what-you-use: a topology
  // that spells out kFixed/0us overrides for every site, wraps all sites
  // in a windowless failure domain, AND arms hedge_after must diff clean
  // against the plain topology run on every observable, at every thread
  // count — healthy and under per-site fault injection alike. (Hedging
  // is structurally inert here: kFixed sites consume no latency draws,
  // so the EWMA stays at the no-observation sentinel and no hedge can
  // ever be issued.)
  FaultConfig faults;
  faults.seed = FaultSeedOr(99);
  faults.transient_rate = 0.25;
  faults.timeout_rate = 0.1;
  faults.outages.push_back(OutageWindow{10, 25});
  for (size_t sites : {size_t{2}, size_t{4}}) {
    for (uint64_t seed : {11u, 47u}) {
      for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
        for (const std::optional<FaultConfig>& f :
             {std::optional<FaultConfig>{}, std::optional<FaultConfig>{faults}}) {
          RunResult plain = RunTopologyWorkload(seed, threads, sites, f);
          RunResult neutral = RunTopologyWorkload(
              seed, threads, sites, f, SiteLatency::kNeutral,
              /*hedge_after=*/3);
          ExpectSameReports(plain, neutral);
          ExpectSameStats(plain, neutral);
          ExpectSameDeferred(plain, neutral);
          ExpectSameSiteState(plain, neutral);
          EXPECT_EQ(plain.injector_trips, neutral.injector_trips);
          EXPECT_EQ(neutral.stats.hedges_issued, 0u);
          EXPECT_EQ(neutral.stats.latency_shed, 0u);
        }
      }
    }
  }
}

// ---- Episode pipeline: depth equivalence ---------------------------------
//
// The pipelined scheduler must be invisible in every observable: driving a
// workload through ApplyUpdateAsync/Drain at any depth and thread count
// produces byte-identical reports, ManagerStats, deferred queue, breaker
// state, and final database contents to the serial depth-1 checker on the
// same seed. Speculation, conflict re-runs, and the serial fallback may
// only change manager.pipeline.* accounting — never a verdict.

/// The pipeline books every admitted episode exactly once: it either
/// committed its speculation, re-ran after a conflict, or was admitted
/// unspeculated (serial fallback / non-speculable episode).
void ExpectPipelineAccounting(const RunResult& r, size_t episodes) {
  EXPECT_EQ(r.pipe_admitted, episodes);
  EXPECT_EQ(r.pipe_admitted,
            r.pipe_committed + r.pipe_conflicts + r.pipe_unspeculated);
}

TEST(ParallelEquivalenceTest, PipelinedDepthsMatchSerial) {
  for (uint64_t seed : {11u, 47u}) {
    RunResult serial = RunWorkload(seed, 1, std::nullopt);
    for (size_t depth : {size_t{2}, size_t{8}}) {
      for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
        RunResult piped =
            RunWorkload(seed, threads, std::nullopt, true, true, depth);
        ExpectEquivalent(serial, piped);
        ExpectPipelineAccounting(piped, serial.reports.size());
      }
    }
  }
}

TEST(ParallelEquivalenceTest, PipelinedDepthsMatchSerialUnderFaults) {
  // With an injector attached speculation still runs (staged prefetch is
  // disabled, so the failure schedule is consumed only at commit turns,
  // in admission order) — draws, deferred queue, and breaker state must
  // all land exactly where the serial run puts them.
  FaultConfig faults;
  faults.seed = FaultSeedOr(99);
  faults.transient_rate = 0.25;
  faults.timeout_rate = 0.1;
  faults.outages.push_back(OutageWindow{10, 25});
  for (uint64_t seed : {11u, 47u}) {
    RunResult serial = RunWorkload(seed, 1, faults);
    for (size_t depth : {size_t{2}, size_t{8}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        RunResult piped = RunWorkload(seed, threads, faults, true, true, depth);
        ExpectEquivalent(serial, piped);
        EXPECT_EQ(serial.injector_trips, piped.injector_trips);
      }
    }
  }
}

TEST(ParallelEquivalenceTest, PipelinedDepthsMatchSerialWithoutCaches) {
  // Cache-off runs must keep the exact access accounting too: with no
  // remote cache there are no staged fetches to commit, so the pipeline
  // degrades to pure speculative checking plus serialized commits.
  for (uint64_t seed : {11u, 23u}) {
    RunResult serial = RunWorkload(seed, 1, std::nullopt, false, false);
    for (size_t depth : {size_t{2}, size_t{8}}) {
      RunResult piped =
          RunWorkload(seed, 4, std::nullopt, false, false, depth);
      ExpectEquivalent(serial, piped);
    }
  }
}

TEST(ParallelEquivalenceTest, PipelinedSpeculationActuallyCommits) {
  // Non-vacuous: on this workload the pipeline must retire a healthy
  // share of episodes from speculation, or the depth sweep above is just
  // re-testing the serial path with extra steps.
  RunResult piped = RunWorkload(11, 4, std::nullopt, true, true, 8);
  EXPECT_GT(piped.pipe_committed, 0u);
}

TEST(ParallelEquivalenceTest, MultiSitePipelinedDepthsMatchSerial) {
  // Staging and hedging work per site batch at every site count, so the
  // pipeline must stay invisible at N > 1 too — per-site slices and hedge
  // counters included. With site 0 heavy-tailed, the latency and hedge
  // draws are consumed at commit turns, in commit order, whether or not a
  // speculation already slept the trip.
  for (size_t sites : {size_t{2}, size_t{4}}) {
    for (SiteLatency latency :
         {SiteLatency::kNeutral, SiteLatency::kSkewedSite0}) {
      const uint64_t hedge_after =
          latency == SiteLatency::kSkewedSite0 ? 2 : 0;
      RunResult serial = RunTopologyWorkload(11, 1, sites, std::nullopt,
                                             latency, hedge_after);
      if (latency == SiteLatency::kSkewedSite0) {
        EXPECT_GT(serial.stats.hedges_issued, 0u) << "sites " << sites;
      }
      for (size_t depth : {size_t{2}, size_t{8}}) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          RunResult piped = RunTopologyWorkload(
              11, threads, sites, std::nullopt, latency, hedge_after, depth);
          ExpectEquivalent(serial, piped);
          ExpectSameSiteState(serial, piped);
          EXPECT_EQ(serial.stats.hedges_issued, piped.stats.hedges_issued);
          EXPECT_EQ(serial.stats.hedges_won, piped.stats.hedges_won);
          EXPECT_EQ(serial.stats.hedges_wasted, piped.stats.hedges_wasted);
          ExpectPipelineAccounting(piped, serial.reports.size());
          EXPECT_GT(piped.pipe_committed, 0u);
        }
      }
    }
  }
}

/// A pinned worst case for speculation: every update writes the one local
/// predicate every constraint reads, so each in-flight speculation is
/// invalidated by its predecessor's commit. The conflict streak must trip
/// the serial fallback (depth admissions run unspeculated), and the final
/// state must still match the serial run byte-for-byte.
RunResult RunConflictWorkload(size_t depth) {
  ConstraintManager mgr({"l"}, CostModel{},
                        {.threads = 4, .pipeline = {.depth = depth}});
  EXPECT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  EXPECT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
  EXPECT_TRUE(mgr.site().db().Insert("r", {V(static_cast<int64_t>(99))}).ok());

  std::vector<Update> stream;
  for (int i = 0; i < 40; ++i) {
    stream.push_back(Update::Insert("l", {V(i), V(i + 1)}));
    if (i % 3 == 2) stream.push_back(Update::Delete("l", {V(i), V(i + 1)}));
  }
  return Drive(&mgr, stream, depth);
}

TEST(ParallelEquivalenceTest, HighConflictStreamStaysEquivalent) {
  RunResult serial = RunConflictWorkload(1);
  RunResult piped = RunConflictWorkload(4);
  ExpectEquivalent(serial, piped);
  ExpectPipelineAccounting(piped, serial.reports.size());
  // The retry and fallback paths really ran: same-predicate writes
  // invalidated in-flight speculation (conflict re-runs), and the streak
  // tripped the serial-fallback hysteresis (unspeculated admissions).
  EXPECT_GT(piped.pipe_conflicts, 0u);
  EXPECT_GT(piped.pipe_unspeculated, 0u);
}

}  // namespace
}  // namespace ccpi
