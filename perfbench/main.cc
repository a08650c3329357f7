// The perfbench binary: the end-to-end checking benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run generates the workload's plan from the seed, lets a naive
// reference checker decide every update (outside any timed region), and
// then repeats rounds until --seconds have passed: each round builds a
// fresh ConstraintManager (the timed set-up), then drives the whole update
// stream through it from one closed-loop caller (the timed stream). Every
// round sees the same stream, so the exact counters must repeat from round
// to round, and every verdict is held against the reference.
//
// Spans time every benchmark call, in every round. --trace 0 prints the
// end-to-end metrics. --trace 1 runs untraced rounds for comparison, then
// traced rounds (the program's own timing histograms on; the first traced
// round also replays each update through the layers' public entry points),
// and prints the per-layer metrics. The last line of standard output is the result
// object.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "datalog/parser.h"
#include "layers.h"
#include "manager/constraint_manager.h"
#include "obs/metrics.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ccpi::CheckReport;
using ccpi::ConstraintManager;
using ccpi::ManagerStats;
using ccpi::Outcome;
using ccpi::Tier;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The highest percentile that still has at least ten samples beyond it,
/// capped at p99.
double TailQuantile(size_t samples) {
  if (samples == 0) return 0.99;
  return std::clamp(1.0 - 10.0 / static_cast<double>(samples), 0.5, 0.99);
}

// ---- set-up ----------------------------------------------------------------

/// Set-up times are microseconds.
struct Setup {
  std::unique_ptr<ConstraintManager> mgr;
  std::vector<bool> subsumed;
  double parse_us = 0;     // ParseProgram calls
  double register_us = 0;  // AddConstraint calls
  double seed_us = 0;      // seeding Database::Insert calls + first freeze
  double total_us = 0;
};

/// Builds the plan's manager: parse, AddConstraint (tier-0 subsumption
/// included), seeding, and the first freeze — everything before the first
/// update can be applied. The spans write into `*s`, so they may close after
/// the return.
ccpi::Status BuildManager(const Plan& plan, Setup* s) {
  Span total(&s->total_us);
  s->mgr = NewManager(plan);
  std::vector<ccpi::Program> programs;
  for (const ConstraintText& c : plan.constraints) {
    Span span(&s->parse_us);
    CCPI_ASSIGN_OR_RETURN(ccpi::Program p, ccpi::ParseProgram(c.text));
    programs.push_back(std::move(p));
  }
  for (size_t i = 0; i < programs.size(); ++i) {
    Span span(&s->register_us);
    CCPI_ASSIGN_OR_RETURN(bool subsumed,
                          s->mgr->AddConstraint(plan.constraints[i].name,
                                                std::move(programs[i])));
    s->subsumed.push_back(subsumed);
  }
  Span span(&s->seed_us);
  ccpi::Database& db = s->mgr->site().db();
  for (const Fact& f : plan.facts) {
    CCPI_RETURN_IF_ERROR(db.Insert(f.pred, f.tuple));
  }
  db.FreezeIndexes();
  return ccpi::Status::OK();
}

// ---- one round -------------------------------------------------------------

enum class Verdict { kAccepted, kRejected, kDeferred, kFailed };

Verdict Classify(const ccpi::Result<std::vector<CheckReport>>& reports) {
  if (!reports.ok()) return Verdict::kFailed;
  bool deferred = false;
  for (const CheckReport& r : *reports) {
    if (r.outcome == Outcome::kViolated) return Verdict::kRejected;
    deferred = deferred || r.outcome == Outcome::kDeferred;
  }
  return deferred ? Verdict::kDeferred : Verdict::kAccepted;
}

/// The counters that must repeat exactly from round to round of one seed.
struct ExactCounts {
  std::map<Tier, size_t> resolved_by;
  size_t violations = 0;
  size_t deferred = 0;
  size_t t3_admitted = 0;
  size_t local_tuples = 0;
  size_t remote_tuples = 0;
  size_t remote_trips = 0;
  size_t cached_tuples = 0;

  explicit ExactCounts(const ManagerStats& s)
      : resolved_by(s.resolved_by),
        violations(s.violations),
        deferred(s.deferred),
        t3_admitted(s.t3_admitted),
        local_tuples(s.access.local_tuples),
        remote_tuples(s.access.remote_tuples),
        remote_trips(s.access.remote_trips),
        cached_tuples(s.access.cached_tuples) {}

  bool operator==(const ExactCounts& o) const {
    return resolved_by == o.resolved_by && violations == o.violations &&
           deferred == o.deferred && t3_admitted == o.t3_admitted &&
           local_tuples == o.local_tuples && remote_tuples == o.remote_tuples &&
           remote_trips == o.remote_trips && cached_tuples == o.cached_tuples;
  }
};

struct Round {
  Setup setup;
  std::vector<double> latency_us;  // per stream position
  std::vector<Verdict> verdicts;   // per stream position
  size_t local_start = 0;
  size_t local_end = 0;
  ManagerStats stats;
  bool final_db_matches = false;
};

bool Kept(Verdict v) {
  return v == Verdict::kAccepted || v == Verdict::kDeferred;
}

/// Drives the stream through the round's manager, one ApplyUpdate at a
/// time. With a `replay`, each update is replayed through the layers right
/// after the manager returns its verdict, outside the update's span.
ccpi::Status RunStream(const Plan& plan, Round* round, LayerReplay* replay) {
  ConstraintManager& mgr = *round->setup.mgr;
  const size_t n = plan.stream.size();
  round->latency_us.assign(n, 0);
  round->verdicts.assign(n, Verdict::kFailed);
  round->local_start = LocalTuples(plan, mgr.site().db());

  for (size_t i = 0; i < n; ++i) {
    {
      Span span(&round->latency_us[i]);
      round->verdicts[i] = Classify(mgr.ApplyUpdate(plan.stream[i]));
    }
    if (replay != nullptr) {
      CCPI_RETURN_IF_ERROR(replay->Step(i, Kept(round->verdicts[i])));
    }
  }
  // Nothing here can reach an unreachable site, so nothing may be deferred.
  if (!mgr.deferred_queue().empty()) {
    return ccpi::Status::Internal("deferred checks left after the stream");
  }
  round->local_end = LocalTuples(plan, mgr.site().db());
  round->stats = mgr.stats();
  return ccpi::Status::OK();
}

/// Moves the calling thread to the next CPU it may run on, in turn, one
/// move per call. On a shared virtual machine a CPU can stay disturbed for
/// a whole run (its physical core busy with another tenant), and a thread
/// left there never has an undisturbed round; taking the rounds in turn
/// on every CPU gives each update's best latency the same chances in every
/// run.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);  // best effort
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Runs rounds until `seconds` have passed (at least one), keeping each
/// round's manager alive only until the next one starts. With a `replay`,
/// the first round also steps it (see RunStream).
ccpi::Result<std::vector<Round>> RunRounds(
    const Plan& plan, double seconds, CpuRotation* cpus,
    const std::function<void(Round*)>& keep,
    std::optional<LayerReplay>* replay = nullptr) {
  std::vector<Round> rounds;
  const uint64_t start = NowNs();
  do {
    cpus->Next();
    Round round;
    CCPI_RETURN_IF_ERROR(BuildManager(plan, &round.setup));
    LayerReplay* stepping = nullptr;
    if (replay != nullptr && rounds.empty()) {
      CCPI_ASSIGN_OR_RETURN(*replay,
                            LayerReplay::Make(plan, round.setup.subsumed));
      stepping = &**replay;
    }
    CCPI_RETURN_IF_ERROR(RunStream(plan, &round, stepping));
    keep(&round);
    round.setup.mgr.reset();
    rounds.push_back(std::move(round));
  } while (static_cast<double>(NowNs() - start) / 1e9 < seconds);
  return rounds;
}

// ---- checking --------------------------------------------------------------

struct Check {
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void Problem(const std::string& p) {
    correct = false;
    if (problems.size() < 8) problems.push_back(p);
  }
};

/// Holds the round against the reference: every update's verdict must
/// agree with the reference's, and the final database must equal the
/// reference's.
void CheckRound(const Plan& plan, const std::vector<bool>& reference,
                const Round& round, Check* check) {
  for (size_t i = 0; i < plan.stream.size(); ++i) {
    ++check->attempted;
    const Verdict v = round.verdicts[i];
    if (v == Verdict::kFailed || Kept(v) != reference[i]) {
      ++check->failed;
      check->Problem("update " + std::to_string(i) + " " +
                     plan.stream[i].ToString() + ": verdict differs from the "
                     "reference");
    }
  }
  if (!round.final_db_matches) {
    check->Problem("final database differs from the reference");
  }
}

// ---- output ----------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Check& check, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += check.correct && check.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(check.attempted);
  out += ", \"failed\": " + std::to_string(check.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Share of all constraint checks settled at tiers 0-2.
double LocalDecidedShare(const ManagerStats& s) {
  double local = 0;
  for (const auto& [tier, count] : s.resolved_by) {
    if (tier != Tier::kFullCheck) local += static_cast<double>(count);
  }
  return Ratio(local, local + static_cast<double>(s.t3_admitted));
}

/// Median latency over the first and over the last quarter of the stream,
/// pooled across rounds: the drift guard.
std::pair<double, double> QuarterMedians(const std::vector<Round>& rounds) {
  std::vector<double> first, last;
  for (const Round& r : rounds) {
    const size_t n = r.latency_us.size();
    for (size_t i = 0; i < n / 4; ++i) first.push_back(r.latency_us[i]);
    for (size_t i = n - n / 4; i < n; ++i) last.push_back(r.latency_us[i]);
  }
  return {Median(first), Median(last)};
}

void PrintDrift(const std::vector<Round>& rounds) {
  auto [first, last] = QuarterMedians(rounds);
  std::printf("drift: apply_p50_us first quarter %.1f, last quarter %.1f; "
              "local tuples start %zu, end %zu\n",
              first, last, rounds[0].local_start, rounds[0].local_end);
}

/// Completed updates over the summed ApplyUpdate time, per round: shown
/// as a line, to make the machine's interference visible.
std::vector<double> Throughputs(const std::vector<Round>& rounds, size_t n) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    out.push_back(static_cast<double>(n) / (Sum(r.latency_us) / 1e6));
  }
  return out;
}

/// Each stream position's fastest latency over the rounds. Every round
/// replays the same updates on a fresh manager, from one thread, with no
/// waiting, so repeats of one position differ only by what else the
/// machine runs; the fastest repeat is the update's own cost. The latency
/// and throughput metrics are taken over these, so they follow the
/// program, while per-round figures follow the machine's load.
std::vector<double> BestLatencies(const std::vector<Round>& rounds) {
  std::vector<double> best = rounds[0].latency_us;
  for (const Round& r : rounds) {
    for (size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], r.latency_us[i]);
    }
  }
  return best;
}

/// Updates over the summed best latencies.
double BestThroughput(const std::vector<Round>& rounds) {
  const std::vector<double> best = BestLatencies(rounds);
  return static_cast<double>(best.size()) / (Sum(best) / 1e6);
}

std::vector<Metric> EndToEnd(const Plan& plan, const std::vector<Round>& rounds,
                             const std::vector<double>& setup_s,
                             double peak_rss_mb) {
  const size_t n = plan.stream.size();
  const double per = 1.0 / static_cast<double>(n);
  const ManagerStats& s = rounds[0].stats;
  const double tail_q = TailQuantile(n);
  const std::vector<double> best = BestLatencies(rounds);
  std::printf("latencies: each of the %zu updates' fastest of %zu rounds; "
              "apply_p99_us is their p%.2f\n",
              n, rounds.size(), 100 * tail_q);
  return {
      {"updates_per_s", BestThroughput(rounds), "updates/s"},
      {"apply_p50_us", Median(best), "us"},
      {"apply_p99_us", Quantile(best, tail_q), "us"},
      {"remote_trips_per_update",
       static_cast<double>(s.access.remote_trips) * per, "trips"},
      {"remote_tuples_per_update",
       static_cast<double>(s.access.remote_tuples) * per, "tuples"},
      {"sim_cost_per_update", s.access.Cost(ccpi::CostModel{}) * per,
       "cost_units"},
      {"local_decided_share", LocalDecidedShare(s), "fraction"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

/// Registry readings of one traced round.
struct Registry {
  std::map<std::string, double> counters;
  std::map<std::string, ccpi::obs::HistogramSnapshot> histograms;
};

const char* kCounterNames[] = {
    "plan.compiles",
    "plan.hits",
    "ra.nodes_evaluated",
    "eval.rule_evals",
    "eval.tuples_derived",
    "distsim.cache_hits",
    "distsim.cache_misses",
};
const char* kHistogramNames[] = {
    "manager.check_latency_ns.independence",
    "manager.check_latency_ns.local-test",
    "manager.check_latency_ns.full-check",
};

Registry ReadRegistry(ConstraintManager* mgr) {
  Registry r;
  for (const char* name : kCounterNames) {
    r.counters[name] =
        static_cast<double>(mgr->metrics().GetCounter(name)->value());
  }
  for (const char* name : kHistogramNames) {
    r.histograms[name] = mgr->metrics().GetHistogram(name)->Snapshot();
  }
  return r;
}

/// Histogram p50 in microseconds over every traced round (bucket counts
/// summed; every round's histogram has the same bounds).
double HistP50Us(const std::vector<Registry>& regs, const std::string& name) {
  ccpi::obs::HistogramSnapshot merged;
  for (const Registry& r : regs) {
    const ccpi::obs::HistogramSnapshot& h = r.histograms.at(name);
    if (merged.bucket_counts.empty()) {
      merged = h;
      continue;
    }
    merged.count += h.count;
    merged.sum += h.sum;
    merged.min = std::min(merged.min, h.min);
    merged.max = std::max(merged.max, h.max);
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      merged.bucket_counts[b] += h.bucket_counts[b];
    }
  }
  return merged.Quantile(0.5) / 1e3;
}

std::vector<Metric> PerLayer(const Plan& plan, const std::vector<Round>& traced,
                             const std::vector<Registry>& regs,
                             const LayerSamples& layers,
                             double untraced_updates_per_s) {
  const size_t n = plan.stream.size();
  const double per = 1.0 / static_cast<double>(n);
  const Round& first = traced[0];
  const Registry& reg = regs[0];
  const ManagerStats& s = first.stats;
  auto counter = [&](const char* name) { return reg.counters.at(name); };
  auto resolved = [&](Tier t) {
    auto it = s.resolved_by.find(t);
    return it == s.resolved_by.end() ? 0.0
                                     : static_cast<double>(it->second) * per;
  };

  std::vector<double> self_us;
  for (size_t i = 0; i < n; ++i) {
    self_us.push_back(first.latency_us[i] - layers.update_us[i]);
  }
  const double apply_total_us = Sum(first.latency_us);
  std::vector<double> seed_ms, parse_ms, register_ms;
  for (const Round& r : traced) {
    seed_ms.push_back(r.setup.seed_us / 1e3);
    parse_ms.push_back(r.setup.parse_us / 1e3);
    register_ms.push_back(r.setup.register_us / 1e3);
  }
  auto [q1_us, q4_us] = QuarterMedians(traced);
  return {
      {"manager.self_us_p50", Median(self_us), "us"},
      {"manager.check_us_p50.independence",
       HistP50Us(regs, "manager.check_latency_ns.independence"), "us"},
      {"manager.check_us_p50.local-test",
       HistP50Us(regs, "manager.check_latency_ns.local-test"), "us"},
      {"manager.check_us_p50.full-check",
       HistP50Us(regs, "manager.check_latency_ns.full-check"), "us"},
      {"manager.resolved.subsumed", resolved(Tier::kSubsumed), "checks/update"},
      {"manager.resolved.unaffected", resolved(Tier::kUnaffected),
       "checks/update"},
      {"manager.resolved.independence", resolved(Tier::kIndependence),
       "checks/update"},
      {"manager.resolved.local-test", resolved(Tier::kLocalTest),
       "checks/update"},
      {"manager.resolved.full-check", resolved(Tier::kFullCheck),
       "checks/update"},
      {"relational.freeze_us_p50", Median(layers.freeze_us), "us"},
      {"relational.freeze_share", Ratio(Sum(layers.freeze_us), apply_total_us),
       "fraction"},
      {"relational.local_tuples_start",
       static_cast<double>(first.local_start), "tuples"},
      {"relational.local_tuples_end", static_cast<double>(first.local_end),
       "tuples"},
      {"relational.seed_ms", Median(seed_ms), "ms"},
      {"updates.t1_us_p50", Median(layers.t1_us), "us"},
      {"updates.t1_calls_per_update",
       static_cast<double>(layers.t1_us.size()) * per, "calls/update"},
      {"core.t2_us_p50", Median(layers.t2_us), "us"},
      {"core.t2_reductions_per_call",
       Ratio(static_cast<double>(layers.t2_reductions),
             static_cast<double>(layers.t2_us.size())),
       "reductions/call"},
      {"plan.hit_ratio",
       Ratio(counter("plan.hits"),
             counter("plan.hits") + counter("plan.compiles")),
       "fraction"},
      {"plan.compiles", counter("plan.compiles"), "count"},
      {"ra.nodes_per_update", counter("ra.nodes_evaluated") * per,
       "nodes/update"},
      {"eval.t3_us_p50", Median(layers.t3_us), "us"},
      {"eval.rule_evals_per_update", counter("eval.rule_evals") * per,
       "evals/update"},
      {"eval.tuples_derived_per_update", counter("eval.tuples_derived") * per,
       "tuples/update"},
      {"distsim.cache_hit_ratio",
       Ratio(counter("distsim.cache_hits"),
             counter("distsim.cache_hits") + counter("distsim.cache_misses")),
       "fraction"},
      {"datalog.parse_ms", Median(parse_ms), "ms"},
      {"subsumption.register_ms", Median(register_ms), "ms"},
      {"trace.updates_per_s", BestThroughput(traced), "updates/s"},
      {"trace.untraced_updates_per_s", untraced_updates_per_s, "updates/s"},
      {"trace.span_cover_share", Ratio(Sum(layers.update_us), apply_total_us),
       "fraction"},
      {"drift.apply_p50_us_q1", q1_us, "us"},
      {"drift.apply_p50_us_q4", q4_us, "us"},
  };
}

int Run(const Args& args) {
  ccpi::Result<Plan> made = MakePlan(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const Plan& plan = *made;
  const size_t n = plan.stream.size();
  Check check;

  // The generator is a pure function of the seed: regenerating gives the
  // same stream byte for byte, and a neighbouring seed a different one.
  const uint64_t hash = PlanHash(plan);
  const bool same = PlanHash(*MakePlan(args.workload, args.seed)) == hash;
  const bool differs =
      PlanHash(*MakePlan(args.workload, args.seed + 1)) != hash;
  std::printf("workload %s seed %llu: %zu facts, %zu updates, %zu constraints; "
              "stream hash %016llx (regenerated: %s, seed+1: %s)\n",
              plan.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plan.facts.size(), n, plan.constraints.size(),
              static_cast<unsigned long long>(hash),
              same ? "identical" : "DIFFERENT", differs ? "different" : "SAME");
  if (!same) check.Problem("the same seed gave a different stream");
  if (!differs) check.Problem("a different seed gave the same stream");

  // The reference verdicts and final database, outside every timed region.
  uint64_t phase = NowNs();
  ccpi::Result<NaiveReference> ref = NaiveReference::Make(plan);
  if (!ref.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", ref.status().ToString().c_str());
    return 1;
  }
  std::vector<bool> reference(n);
  for (size_t i = 0; i < n; ++i) {
    ccpi::Result<bool> ok = ref->Accepts(plan.stream[i]);
    if (!ok.ok()) {
      std::fprintf(stderr, "perfbench: reference: %s\n",
                   ok.status().ToString().c_str());
      return 1;
    }
    reference[i] = *ok;
  }
  const ccpi::Database ref_db = ref->db();
  std::printf("reference checker: %.2f s\n",
              static_cast<double>(NowNs() - phase) / 1e9);

  // Timed rounds. In a traced run a share of the time goes to untraced
  // rounds first, for the tracing overhead.
  const double untraced_seconds =
      args.trace ? args.seconds * 0.4 : args.seconds;
  auto compare_db = [&](Round* r) {
    r->final_db_matches = SameContents(r->setup.mgr->site().db(), ref_db);
  };
  CpuRotation cpus;
  ccpi::Result<std::vector<Round>> rounds =
      RunRounds(plan, untraced_seconds, &cpus, compare_db);
  if (!rounds.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", rounds.status().ToString().c_str());
    return 1;
  }
  const double peak_rss_mb = PeakRssMb();
  std::vector<Round> traced;
  std::vector<Registry> regs;
  std::optional<LayerReplay> replay;
  if (args.trace) {
    ccpi::obs::SetTimingEnabled(true);
    ccpi::Result<std::vector<Round>> t = RunRounds(
        plan, args.seconds - untraced_seconds, &cpus,
        [&](Round* r) {
          compare_db(r);
          regs.push_back(ReadRegistry(r->setup.mgr.get()));
        },
        &replay);
    ccpi::obs::SetTimingEnabled(false);
    if (!t.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", t.status().ToString().c_str());
      return 1;
    }
    traced = std::move(*t);
  }

  // Set-up is sampled once per round; top it up to at least ten samples.
  std::vector<double> setup_s;
  for (const Round& r : *rounds) setup_s.push_back(r.setup.total_us / 1e6);
  while (setup_s.size() < 10) {
    Setup s;
    ccpi::Status st = BuildManager(plan, &s);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(s.total_us / 1e6);
  }

  // Every round must reproduce the first round's exact counts, and agree
  // with the reference.
  std::vector<const Round*> all;
  for (const Round& r : *rounds) all.push_back(&r);
  for (const Round& r : traced) all.push_back(&r);
  const ExactCounts counts(all[0]->stats);
  for (const Round* r : all) {
    if (!(ExactCounts(r->stats) == counts)) {
      check.Problem("exact counts differ between rounds of one seed");
    }
    CheckRound(plan, reference, *r, &check);
  }

  size_t rejected = 0;
  for (bool kept : reference) rejected += kept ? 0 : 1;
  std::printf("reference: %zu of %zu updates rejected\n", rejected, n);
  std::printf("rounds: %zu untraced, %zu traced; untraced updates/s by round "
              "(summed ApplyUpdate time):",
              rounds->size(), traced.size());
  for (double r : Throughputs(*rounds, n)) std::printf(" %.1f", r);
  std::printf("\n");
  PrintDrift(*rounds);
  std::printf("error_rate %s (%zu of %zu)\n",
              Num(Ratio(static_cast<double>(check.failed),
                        static_cast<double>(check.attempted)))
                  .c_str(),
              check.failed, check.attempted);
  for (const std::string& p : check.problems) {
    std::printf("PROBLEM: %s\n", p.c_str());
  }

  if (!args.trace) {
    PrintResult(check, EndToEnd(plan, *rounds, setup_s, peak_rss_mb));
    return 0;
  }
  const double untraced = BestThroughput(*rounds);
  std::printf("tracing: %.1f updates/s traced vs %.1f untraced\n",
              BestThroughput(traced), untraced);
  std::vector<Metric> metrics =
      PerLayer(plan, traced, regs, replay->samples(), untraced);
  PrintResult(check, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
