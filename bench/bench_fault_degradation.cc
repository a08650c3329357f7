// Experiment FAULT-DEGRADE: graceful degradation of the tiered manager
// when the remote site fails. A fixed mixed update stream is replayed
// under increasing transient-failure rates and under a full hard outage;
// the table shows that tiers 0-2 keep answering regardless of the remote
// link (their resolution counts are fault-invariant), that retries absorb
// moderate fault rates at a bounded cost in attempts, and that under a
// hard outage every tier-3 check degrades to a deferred verdict which the
// post-outage drain re-verifies — including rolling back the optimistic
// applies the late checks expose as violations.
//
// The timed benchmarks compare per-update latency on a healthy link, on a
// lossy link (retries), and during an outage with the circuit breaker
// failing fast.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_harness.h"
#include "datalog/parser.h"
#include "distsim/fault_injector.h"
#include "manager/constraint_manager.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

std::unique_ptr<ConstraintManager> MakeManager(ResilienceConfig resilience) {
  auto mgr = std::make_unique<ConstraintManager>(
      std::set<std::string>{"reserved", "emp"}, CostModel{},
      ManagerConfig{.resilience = resilience});
  CCPI_CHECK(mgr->AddConstraint(
                    "no-reserved-order",
                    *ParseProgram("panic :- reserved(P,Lo,Hi) & order(P,Q) & "
                                  "Lo <= Q & Q <= Hi"))
                 .ok());
  CCPI_CHECK(
      mgr->AddConstraint("cap-200",
                         *ParseProgram("panic :- emp(E,D,S) & S > 200"))
          .ok());
  return mgr;
}

void Seed(ConstraintManager* mgr) {
  // Remote orders in the high band; the initial state is installed
  // unchecked (the paper's standing assumption: constraints hold before
  // the first update), so seeding works even if the link is already down.
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    CCPI_CHECK(mgr->site()
                   .db()
                   .Insert("order", {V("p" + std::to_string(rng.Below(3))),
                                     V(rng.Range(500, 1000))})
                   .ok());
  }
  for (int p = 0; p < 3; ++p) {
    CCPI_CHECK(mgr->site()
                   .db()
                   .Insert("reserved",
                           {V("p" + std::to_string(p)), V(0), V(400)})
                   .ok());
  }
}

std::vector<Update> MakeStream(size_t count, Rng* rng) {
  std::vector<Update> stream;
  for (size_t i = 0; i < count; ++i) {
    switch (rng->Below(4)) {
      case 0:  // hire below the cap: independence resolves it
        stream.push_back(Update::Insert(
            "emp", {V(static_cast<int64_t>(i)), V(rng->Range(0, 5)),
                    V(rng->Range(0, 200))}));
        break;
      case 1: {  // sub-range reservation: local test resolves it
        int64_t lo = rng->Range(0, 300);
        stream.push_back(Update::Insert(
            "reserved", {V("p" + std::to_string(rng->Below(3))), V(lo),
                         V(lo + rng->Range(0, 50))}));
        break;
      }
      case 2:  // unrelated relation: prefilter resolves it
        stream.push_back(
            Update::Insert("audit_log", {V(static_cast<int64_t>(i))}));
        break;
      default: {  // risky reservation: needs the remote orders
        int64_t lo = rng->Range(350, 900);
        stream.push_back(Update::Insert(
            "reserved", {V("p" + std::to_string(rng->Below(3))), V(lo),
                         V(lo + rng->Range(0, 50))}));
        break;
      }
    }
  }
  return stream;
}

struct SweepRow {
  const char* label;
  size_t local_resolved = 0;  // checks settled at tiers 0-2
  size_t full_checks = 0;     // checks settled at tier 3
  size_t deferred = 0;
  size_t retries = 0;
  size_t failed_trips = 0;
  size_t recovered = 0;
  size_t late_violations = 0;
  size_t pending = 0;
  double cost = 0;
};

SweepRow RunSweep(const char* label, double transient_rate,
                  bool hard_outage) {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = hard_outage ? 2 : 6;
  auto mgr = MakeManager(resilience);
  Seed(mgr.get());
  FaultConfig faults;
  faults.seed = 11;
  faults.transient_rate = transient_rate;
  FaultInjector injector(faults);
  if (hard_outage) injector.ForceOutage(true);
  mgr->site().set_fault_injector(&injector);

  Rng rng(99);
  for (const Update& u : MakeStream(120, &rng)) {
    CCPI_CHECK(mgr->ApplyUpdate(u).ok());  // never errors, whatever fails
  }

  // The link heals at shutdown (a tier-3 recheck touches every reserved
  // row, so at 50% per-trip loss the site is *effectively* unreachable
  // until it does); simulated time is free here, so wait out the breaker
  // cooldown between rounds and drain until the queue clears.
  mgr->site().set_fault_injector(nullptr);
  for (int idle = 0; !mgr->deferred_queue().empty() && idle < 4;) {
    mgr->TickBreaker(resilience.breaker.cooldown_ticks + 1);
    auto late = mgr->RecheckDeferred();
    CCPI_CHECK(late.ok());
    idle = late->empty() ? idle + 1 : 0;
  }

  const ManagerStats& stats = mgr->stats();
  SweepRow row;
  row.label = label;
  for (const auto& [tier, count] : stats.resolved_by) {
    if (tier == Tier::kFullCheck) {
      row.full_checks += count;
    } else {
      row.local_resolved += count;
    }
  }
  row.deferred = stats.deferred;
  row.retries = stats.remote_retries;
  row.failed_trips = stats.access.remote_failures;
  row.recovered = stats.deferred_recovered;
  row.late_violations = stats.deferred_violations;
  row.pending = mgr->deferred_queue().size();
  row.cost = stats.access.Cost(CostModel{});
  return row;
}

void PrintDegradationTable(bench::Harness* harness) {
  std::printf(
      "=== FAULT-DEGRADE: 120 mixed updates vs remote-site failures ===\n");
  std::printf("%-14s %6s %5s %6s %7s %6s %6s %5s %7s %9s\n", "fault level",
              "t0-2", "t3", "defer", "retries", "failed", "recov", "late",
              "pending", "cost");
  std::vector<SweepRow> rows;
  rows.push_back(RunSweep("healthy", 0.0, false));
  rows.push_back(RunSweep("lossy 10%", 0.10, false));
  rows.push_back(RunSweep("lossy 25%", 0.25, false));
  rows.push_back(RunSweep("lossy 50%", 0.50, false));
  rows.push_back(RunSweep("hard outage", 0.0, true));
  for (const SweepRow& r : rows) {
    std::printf("%-14s %6zu %5zu %6zu %7zu %6zu %6zu %5zu %7zu %9.1f\n",
                r.label, r.local_resolved, r.full_checks, r.deferred,
                r.retries, r.failed_trips, r.recovered, r.late_violations,
                r.pending, r.cost);
    harness->Sweep(
        std::string("fault_degradation/") + r.label,
        {{"local_resolved", static_cast<double>(r.local_resolved)},
         {"full_checks", static_cast<double>(r.full_checks)},
         {"deferred", static_cast<double>(r.deferred)},
         {"retries", static_cast<double>(r.retries)},
         {"failed_trips", static_cast<double>(r.failed_trips)},
         {"recovered", static_cast<double>(r.recovered)},
         {"late_violations", static_cast<double>(r.late_violations)},
         {"pending", static_cast<double>(r.pending)},
         {"cost", r.cost}});
  }
  // The availability story in two invariants: the local tiers resolve
  // exactly the same checks whatever the link does (this stream's tier-2
  // verdicts rest only on the seeded, verified coverage — never on
  // pending optimistic tuples, which tier 2 refuses to trust), and
  // nothing stays pending once the link heals.
  for (const SweepRow& r : rows) {
    CCPI_CHECK(r.local_resolved == rows[0].local_resolved);
    CCPI_CHECK(r.pending == 0);
  }
  CCPI_CHECK(rows.back().late_violations > 0);  // late rollback exercised
  std::printf("\n");
}

void BM_UpdateHealthyLink(benchmark::State& state) {
  auto mgr = MakeManager({});
  Seed(mgr.get());
  Rng rng(3);
  for (auto _ : state) {
    int64_t lo = rng.Range(350, 900);
    auto reports = mgr->ApplyUpdate(Update::Insert(
        "reserved",
        {V("p" + std::to_string(rng.Below(3))), V(lo), V(lo + 20)}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["remote_trips"] =
      static_cast<double>(mgr->site().stats().remote_trips);
}
BENCHMARK(BM_UpdateHealthyLink);

void BM_UpdateLossyLinkRetries(benchmark::State& state) {
  auto mgr = MakeManager({});
  Seed(mgr.get());
  FaultConfig faults;
  faults.seed = 5;
  faults.transient_rate = 0.3;
  FaultInjector injector(faults);
  mgr->site().set_fault_injector(&injector);
  Rng rng(3);
  for (auto _ : state) {
    int64_t lo = rng.Range(350, 900);
    auto reports = mgr->ApplyUpdate(Update::Insert(
        "reserved",
        {V("p" + std::to_string(rng.Below(3))), V(lo), V(lo + 20)}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["remote_trips"] =
      static_cast<double>(mgr->site().stats().remote_trips);
}
BENCHMARK(BM_UpdateLossyLinkRetries);

void BM_UpdateDuringOutageFastFail(benchmark::State& state) {
  // kReject keeps the deferred queue empty, isolating the steady-state
  // cost of the open-breaker fast path.
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 1;
  resilience.breaker.failure_threshold = 1;
  resilience.breaker.cooldown_ticks = 1u << 30;
  resilience.on_unreachable = DeferredPolicy::kReject;
  auto mgr = MakeManager(resilience);
  Seed(mgr.get());
  FaultInjector injector(FaultConfig{});
  injector.ForceOutage(true);
  mgr->site().set_fault_injector(&injector);
  // Trip the breaker once so every timed update takes the fast path.
  CCPI_CHECK(
      mgr->ApplyUpdate(Update::Insert("reserved", {V("p0"), V(500), V(520)}))
          .ok());
  Rng rng(3);
  for (auto _ : state) {
    int64_t lo = rng.Range(350, 900);
    auto reports = mgr->ApplyUpdate(Update::Insert(
        "reserved",
        {V("p" + std::to_string(rng.Below(3))), V(lo), V(lo + 20)}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["remote_trips"] =
      static_cast<double>(mgr->site().stats().remote_trips);
}
BENCHMARK(BM_UpdateDuringOutageFastFail);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("fault_degradation");
  ccpi::PrintDegradationTable(&harness);
  return harness.RunAndWrite(argc, argv);
}
