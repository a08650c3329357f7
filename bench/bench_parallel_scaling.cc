// Experiment PAR-1: scaling of ApplyUpdate's per-constraint check fan-out
// with the ThreadPool lane count. The workload routes every constraint to
// tier 3 (inserts into a remote predicate, so no local test applies):
// each check is an independent full evaluation over the frozen database,
// which is the embarrassingly parallel case the fan-out targets. The sweep
// crosses constraint count with thread count and reports throughput,
// speedup over the sequential configuration, and tail latency. Speedup is
// bounded by the machine's core count — on a single-core runner every
// configuration degenerates to ~1x.

#include <benchmark/benchmark.h>

#include "bench_harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

/// A manager with `constraints` tier-3-bound constraints: each joins the
/// remote stream predicate `hub` against its own remote table t<k>, with a
/// comparison no seeded row satisfies (the checks always hold, so every
/// update is applied and each one costs `constraints` full evaluations).
std::unique_ptr<ConstraintManager> MakeManager(size_t constraints,
                                               size_t threads) {
  auto mgr = std::make_unique<ConstraintManager>(
      std::set<std::string>{"l"}, CostModel{},
      ManagerConfig{.threads = threads});
  Rng rng(17);
  for (size_t k = 0; k < constraints; ++k) {
    std::string t = "t" + std::to_string(k);
    auto p = ParseProgram("panic :- hub(X,Y) & " + t + "(Y,Z) & Z < X");
    CCPI_CHECK(p.ok());
    CCPI_CHECK(mgr->AddConstraint("c" + std::to_string(k), *p).ok());
    for (size_t row = 0; row < 60; ++row) {
      // Z in [1000, 2000) can never be below an X in [0, 100).
      CCPI_CHECK(mgr->site()
                     .db()
                     .Insert(t, {V(rng.Range(0, 99)),
                                 V(rng.Range(1000, 1999))})
                     .ok());
    }
  }
  return mgr;
}

std::vector<Update> Stream(size_t n) {
  Rng rng(29);
  std::vector<Update> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(
        Update::Insert("hub", {V(rng.Range(0, 99)), V(rng.Range(0, 99))}));
  }
  return out;
}

struct ScalePoint {
  double total_ms = 0;
  double updates_per_s = 0;
  double p50_ns = 0;
  double p95_ns = 0;
};

ScalePoint RunScale(size_t constraints, size_t threads, size_t updates) {
  std::unique_ptr<ConstraintManager> mgr = MakeManager(constraints, threads);
  std::vector<double> latencies_ns;
  latencies_ns.reserve(updates);
  auto begin = std::chrono::steady_clock::now();
  for (const Update& u : Stream(updates)) {
    auto t0 = std::chrono::steady_clock::now();
    auto reports = mgr->ApplyUpdate(u);
    auto t1 = std::chrono::steady_clock::now();
    CCPI_CHECK(reports.ok());
    latencies_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }
  auto end = std::chrono::steady_clock::now();

  std::sort(latencies_ns.begin(), latencies_ns.end());
  auto percentile = [&](double p) {
    size_t idx = static_cast<size_t>(p * (latencies_ns.size() - 1) + 0.5);
    return latencies_ns[idx];
  };
  ScalePoint point;
  point.total_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
          .count() /
      1000.0;
  point.updates_per_s =
      point.total_ms > 0 ? updates / (point.total_ms / 1000.0) : 0;
  point.p50_ns = percentile(0.50);
  point.p95_ns = percentile(0.95);
  return point;
}

void RunSweep(ccpi::bench::Harness* harness, bool quick) {
  std::vector<size_t> constraint_counts = {8, 64};
  std::vector<size_t> thread_counts = quick
                                          ? std::vector<size_t>{1, 4}
                                          : std::vector<size_t>{1, 2, 4, 8};
  size_t updates = quick ? 12 : 32;

  std::printf("=== PAR-1: check fan-out scaling (%zu hardware threads) ===\n",
              static_cast<size_t>(std::thread::hardware_concurrency()));
  std::printf("%-12s %-8s %12s %12s %10s %12s\n", "constraints", "threads",
              "total_ms", "updates/s", "speedup", "p95_us");
  for (size_t c : constraint_counts) {
    double base_ms = 0;
    for (size_t t : thread_counts) {
      ScalePoint p = RunScale(c, t, updates);
      if (t == 1) base_ms = p.total_ms;
      double speedup = p.total_ms > 0 ? base_ms / p.total_ms : 0;
      std::printf("%-12zu %-8zu %12.2f %12.1f %9.2fx %12.1f\n", c, t,
                  p.total_ms, p.updates_per_s, speedup, p.p95_ns / 1000.0);
      harness->Sweep(
          "scaling/c" + std::to_string(c) + "/t" + std::to_string(t),
          {{"constraints", static_cast<double>(c)},
           {"threads", static_cast<double>(t)},
           {"updates", static_cast<double>(updates)},
           {"total_ms", p.total_ms},
           {"updates_per_s", p.updates_per_s},
           {"speedup_vs_t1", speedup},
           {"p50_latency_ns", p.p50_ns},
           {"p95_latency_ns", p.p95_ns}});
    }
  }
  std::printf("\n");
}

void BM_ApplyUpdateFanout(benchmark::State& state) {
  size_t constraints = 16;
  size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ConstraintManager> mgr = MakeManager(constraints, threads);
  std::vector<Update> stream = Stream(256);
  size_t next = 0;
  for (auto _ : state) {
    auto reports = mgr->ApplyUpdate(stream[next++ % stream.size()]);
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["constraints"] = static_cast<double>(constraints);
}
BENCHMARK(BM_ApplyUpdateFanout)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("parallel_scaling");
  const char* quick_env = std::getenv("CCPI_BENCH_QUICK");
  bool quick = quick_env != nullptr && *quick_env != '\0' && *quick_env != '0';
  ccpi::RunSweep(&harness, quick);
  return harness.RunAndWrite(argc, argv);
}
