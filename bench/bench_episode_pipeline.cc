// Experiment PIPE-1: wall-clock throughput of the pipelined episode
// scheduler. The workload streams K tier-3 re-check episodes — constraint
// k joins local l<k> against remote r<k>, so every episode must consult a
// cold remote predicate — through managers at pipeline depth 1/2/4/8, with
// the simulated remote round trip costing trip_latency_us of real time.
// Depth 1 pays the trips one after another on the commit thread; depth N
// overlaps them during speculation on the checker pool, which is exactly
// where the speedup comes from (the machine may have a single core: the
// overlapped time is simulated WAN latency, not CPU).
//
// Two conflict regimes per thread count:
//   low   each update writes its own local predicate, so in-flight
//         speculations are (almost) never invalidated — the depth>1 rows
//         must show speedup_vs_depth1 >= 1, and >= 2 at depth >= 4
//         (contract-checked by tools/check_bench_json.py)
//   high  every update writes the one predicate every affected check
//         reads, so speculation conflicts, retries, and the serial
//         fallback dominate — the row documents graceful degradation,
//         not speedup
//
// Every row also records the pipeline accounting, which must balance:
// admitted == committed + retried_commits, where retried_commits counts
// episodes that could not retire from speculation (conflict re-runs plus
// unspeculated serial-fallback admissions). Depth-1 rows run the plain
// serial path (no pipeline counters exist) and synthesize the trivial
// accounting. Each run is also diffed against the depth-1 stats — the
// scheduler must not move a single verdict.

#include <benchmark/benchmark.h>

#include "bench_harness.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/check.h"

namespace ccpi {
namespace {

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// K join constraints `panic :- l<k>(X) & r<k>(X)` over K disjoint
/// local/remote predicate pairs; each r<k> is seeded with rows that never
/// match a streamed insert, so every re-check verifies remotely and
/// applies. The seed is deep enough that the low-conflict stream's
/// remote-churn deletes never run dry.
std::unique_ptr<ConstraintManager> MakeManager(size_t constraints,
                                               size_t threads, size_t depth,
                                               uint64_t trip_latency_us) {
  std::set<std::string> locals;
  for (size_t k = 0; k < constraints; ++k) {
    locals.insert("l" + std::to_string(k));
  }
  CostModel costs;
  costs.trip_latency_us = trip_latency_us;
  auto mgr = std::make_unique<ConstraintManager>(
      locals, costs,
      ManagerConfig{.threads = threads, .pipeline = {.depth = depth}});
  for (size_t k = 0; k < constraints; ++k) {
    std::string ks = std::to_string(k);
    auto p = ParseProgram("panic :- l" + ks + "(X) & r" + ks + "(X)");
    CCPI_CHECK(p.ok());
    CCPI_CHECK(mgr->AddConstraint("join" + ks, *p).ok());
    for (int d = 0; d < 16; ++d) {
      CCPI_CHECK(mgr->site().db().Insert("r" + ks, {V(d)}).ok());
    }
  }
  return mgr;
}

/// The episode stream.
///
/// Low conflict is a *re-check stream with remote churn*, the paper's
/// motivating scenario: blocks of K deletes — one existing row out of
/// each r<k> — alternate with blocks of K inserts into each l<k>. The
/// deletes are resolved db-free (removing a body tuple preserves the
/// constraint) but bump r<k>'s content version, so the insert block's
/// tier-3 re-checks really are cold: the remote cache cannot absorb them
/// and every re-check pays one simulated round trip. Block order keeps
/// the pipeline clean at any depth <= K: r<k>'s delete commits before the
/// episode reading r<k> is admitted, so staged fetches validate, and a
/// depth-sized window of writes never touches a speculation's read set.
///
/// High conflict: every episode writes the one predicate every in-flight
/// speculation read, the worst case for the conflict detector.
std::vector<Update> MakeStream(size_t episodes, size_t constraints,
                               bool high_conflict) {
  std::vector<Update> out;
  std::vector<int> next_delete(constraints, 0);
  for (size_t i = 0; i < episodes; ++i) {
    if (high_conflict) {
      out.push_back(Update::Insert("l0", {V(static_cast<int64_t>(1000 + i))}));
      continue;
    }
    const size_t k = i % constraints;
    const std::string ks = std::to_string(k);
    const bool delete_block = (i / constraints) % 2 == 0;
    if (delete_block) {
      out.push_back(Update::Delete("r" + ks, {V(next_delete[k]++)}));
    } else {
      out.push_back(
          Update::Insert("l" + ks, {V(static_cast<int64_t>(1000 + i))}));
    }
  }
  return out;
}

struct StreamPoint {
  double ns = 0;
  double admitted = 0;
  double committed = 0;
  double conflicts = 0;
  double unspeculated = 0;
  ManagerStats stats;
};

StreamPoint RunStream(size_t depth, size_t threads, bool high_conflict,
                      size_t episodes, uint64_t trip_latency_us) {
  // Both regimes run K=8 constraints: big enough that a depth-8 window of
  // low-conflict writes stays on distinct predicates, small enough that
  // phase-1 CPU (which scans every constraint per episode) does not drown
  // the round-trip latency the pipeline exists to hide.
  const size_t constraints = 8;
  std::unique_ptr<ConstraintManager> mgr =
      MakeManager(constraints, threads, depth, trip_latency_us);
  std::vector<Update> stream =
      MakeStream(episodes, constraints, high_conflict);
  StreamPoint point;
  double t0 = NowNs();
  if (depth > 1) {
    for (const Update& u : stream) mgr->ApplyUpdateAsync(u);
    for (auto& reports : mgr->Drain()) CCPI_CHECK(reports.ok());
  } else {
    for (const Update& u : stream) CCPI_CHECK(mgr->ApplyUpdate(u).ok());
  }
  point.ns = NowNs() - t0;
  if (depth > 1) {
    auto counter = [&](const char* name) {
      return static_cast<double>(mgr->metrics().GetCounter(name)->value());
    };
    point.admitted = counter("manager.pipeline.admitted");
    point.committed = counter("manager.pipeline.committed");
    point.conflicts = counter("manager.pipeline.conflicts");
    point.unspeculated = counter("manager.pipeline.unspeculated");
  } else {
    // The serial path books no pipeline counters; the trivial accounting
    // keeps the artifact schema uniform across rows.
    point.admitted = static_cast<double>(episodes);
    point.committed = static_cast<double>(episodes);
  }
  point.stats = mgr->stats();
  return point;
}

void CheckSameVerdicts(const ManagerStats& a, const ManagerStats& b) {
  CCPI_CHECK(a.resolved_by == b.resolved_by);
  CCPI_CHECK(a.violations == b.violations);
  CCPI_CHECK(a.deferred == b.deferred);
}

void RunSweep(ccpi::bench::Harness* harness, bool quick) {
  const size_t episodes = quick ? 32 : 96;
  const uint64_t trip_latency_us = 400;
  std::printf("=== PIPE-1: pipelined episodes vs. serial checking ===\n");
  std::printf("%-22s %12s %12s %10s %10s %10s %10s\n", "stream", "ns_total",
              "eps/sec", "speedup", "committed", "conflicts", "serial");
  for (bool high_conflict : {false, true}) {
    const char* regime = high_conflict ? "high" : "low";
    for (size_t threads : {size_t{4}, size_t{8}}) {
      StreamPoint base =
          RunStream(1, threads, high_conflict, episodes, trip_latency_us);
      for (size_t depth : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        StreamPoint p =
            depth == 1 ? base
                       : RunStream(depth, threads, high_conflict, episodes,
                                   trip_latency_us);
        CheckSameVerdicts(base.stats, p.stats);
        double retried = p.conflicts + p.unspeculated;
        CCPI_CHECK(p.admitted == p.committed + retried);
        double eps_per_sec =
            p.ns > 0 ? static_cast<double>(episodes) * 1e9 / p.ns : 0;
        double speedup = p.ns > 0 ? base.ns / p.ns : 0;
        std::printf("%-22s %12.0f %12.0f %9.2fx %10.0f %10.0f %10.0f\n",
                    (std::string(regime) + "/t" + std::to_string(threads) +
                     "/d" + std::to_string(depth))
                        .c_str(),
                    p.ns, eps_per_sec, speedup, p.committed, p.conflicts,
                    p.unspeculated);

        char point_name[64];
        std::snprintf(point_name, sizeof(point_name), "pipeline/%s/t%zu/d%zu",
                      regime, threads, depth);
        harness->Sweep(
            point_name,
            {{"depth", static_cast<double>(depth)},
             {"threads", static_cast<double>(threads)},
             {"high_conflict", high_conflict ? 1.0 : 0.0},
             {"episodes", static_cast<double>(episodes)},
             {"trip_latency_us", static_cast<double>(trip_latency_us)},
             {"ns_total", p.ns},
             {"episodes_per_sec", eps_per_sec},
             {"speedup_vs_depth1", speedup},
             {"admitted", p.admitted},
             {"committed", p.committed},
             {"conflicts", p.conflicts},
             {"retried_commits", retried}});
      }
    }
  }
  std::printf("\n");
}

/// Timed loop: one 16-episode low-conflict stream per iteration, at the
/// given depth. The counter of record is the per-episode wall time.
void BM_EpisodeStream(benchmark::State& state) {
  size_t depth = static_cast<size_t>(state.range(0));
  const size_t episodes = 16;
  for (auto _ : state) {
    StreamPoint p = RunStream(depth, 4, false, episodes, 50);
    benchmark::DoNotOptimize(p.ns);
  }
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["episodes_per_stream"] = static_cast<double>(episodes);
}
BENCHMARK(BM_EpisodeStream)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("episode_pipeline");
  const char* quick_env = std::getenv("CCPI_BENCH_QUICK");
  bool quick = quick_env != nullptr && *quick_env != '\0' && *quick_env != '0';
  ccpi::RunSweep(&harness, quick);
  return harness.RunAndWrite(argc, argv);
}
