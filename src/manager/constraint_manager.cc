#include "manager/constraint_manager.h"

#include <algorithm>

#include "core/cqc_form.h"
#include "core/icq_compiler.h"
#include "core/local_test.h"
#include "datalog/unfold.h"
#include "eval/engine.h"
#include "obs/trace.h"
#include "ra/ra_eval.h"
#include "subsumption/subsumption.h"
#include "updates/independence.h"

namespace ccpi {

const char* TierToString(Tier tier) {
  switch (tier) {
    case Tier::kSubsumed:
      return "subsumed";
    case Tier::kUnaffected:
      return "unaffected";
    case Tier::kIndependence:
      return "independence";
    case Tier::kLocalTest:
      return "local-test";
    case Tier::kFullCheck:
      return "full-check";
  }
  return "?";
}

namespace {

bool Mentions(const Program& p, const std::string& pred) {
  for (const Rule& r : p.rules) {
    for (const Literal& l : r.body) {
      if (!l.is_comparison() && l.atom.pred == pred) return true;
    }
  }
  return false;
}

Update InverseOf(const Update& u) {
  return u.kind == Update::Kind::kInsert ? Update::Delete(u.pred, u.tuple)
                                         : Update::Insert(u.pred, u.tuple);
}

/// Whether the effect of `u` is visible in `db` (nothing has undone or
/// superseded it). Guards compensation: never "roll back" an update whose
/// effect is already gone. Before an update is applied, it is the no-op
/// test: inserting a present tuple or deleting an absent one cannot change
/// any constraint.
bool EffectPresent(const Update& u, const Database& db) {
  bool contains = db.Contains(u.pred, u.tuple);
  return u.kind == Update::Kind::kInsert ? contains : !contains;
}

/// Forwards every read to the real observer unchanged (so access
/// accounting is identical to an unrecorded evaluation) while keeping the
/// (pred, count) sequence for the bound-result memo: a later same-version
/// hit replays exactly these charges instead of re-evaluating.
struct RecordingObserver : AccessObserver {
  AccessObserver* inner;
  std::vector<std::pair<std::string, size_t>> reads;
  explicit RecordingObserver(AccessObserver* observer) : inner(observer) {}
  Status OnRead(const std::string& pred, size_t count) override {
    CCPI_RETURN_IF_ERROR(inner->OnRead(pred, count));
    reads.emplace_back(pred, count);
    return Status::OK();
  }
};

/// Observer of a speculative phase 1: charges nothing, records everything.
/// A committed episode replays the buffer through the site observer in
/// recorded order, so AccessStats end up byte-identical to an unpipelined
/// run; a conflicted episode's buffer is dropped without a trace.
struct BufferingObserver : AccessObserver {
  std::vector<std::pair<std::string, size_t>> reads;
  Status OnRead(const std::string& pred, size_t count) override {
    reads.emplace_back(pred, count);
    return Status::OK();
  }
};

}  // namespace

/// Read routing of one constraint check. The serial path reads the live
/// database, charges the site observer directly, and consults the live
/// deferred queue; a speculative phase 1 reads its episode's admission
/// snapshot, buffers its charges, and consults the queue as of admission.
struct ConstraintManager::CheckContext {
  const Database* db;
  AccessObserver* observer;
  const std::deque<DeferredCheck>* deferred;
};

/// One pipelined update episode. Admission state is written by the
/// admitting thread before the speculation task is launched; speculation
/// outputs are written only by the task; the done/cv handshake publishes
/// them back to the committing (admitting) thread. After `done`, the
/// episode is owned by the committer again.
struct ConstraintManager::Episode {
  Update update;
  uint64_t sequence = 0;
  /// Admission-time MVCC snapshot (copy-on-write Database copy).
  Database snapshot;
  /// The deferred queue as of admission; tier 2's verified-data adjustment
  /// reads it.
  std::deque<DeferredCheck> deferred_snapshot;
  /// deferred_epoch_ at admission: any structural queue change since then
  /// invalidates the speculation wholesale.
  uint64_t deferred_epoch = 0;
  /// commit_writes_ length at admission: the validation suffix.
  size_t write_mark = 0;
  /// False for a serial-fallback admission: no snapshot, no task, the
  /// commit runs the episode from scratch.
  bool speculated = false;

  // ---- Speculation outputs (valid once `done`).
  bool noop = false;
  std::vector<CheckReport> reports;
  std::vector<Status> check_status;
  /// Local-read charges of phase 1, in charge order.
  std::vector<std::pair<std::string, size_t>> buffered_reads;
  /// Every predicate phase 1 read (always includes update.pred: the noop
  /// probe and tier 2 read it).
  std::set<std::string> read_preds;
  /// Remote trips staged for the tier-3 worklist (latency already
  /// slept); the commit-time prefetch skips the sleeps they cover.
  SiteDatabase::StagedTrips staged;

  // ---- Retire handshake.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

void ConstraintManager::InitObservability() {
  site_.set_metrics(&metrics_);
  for (Tier tier : kAllTiers) {
    std::string suffix = TierToString(tier);
    ctr_resolved_[TierIndex(tier)] =
        metrics_.GetCounter("manager.resolved." + suffix);
    hist_check_[TierIndex(tier)] =
        metrics_.GetHistogram("manager.check_latency_ns." + suffix);
  }
  ctr_violations_ = metrics_.GetCounter("manager.violations");
  ctr_remote_attempts_ = metrics_.GetCounter("manager.remote.attempts");
  ctr_remote_retries_ = metrics_.GetCounter("manager.remote.retries");
  ctr_remote_failures_ = metrics_.GetCounter("manager.remote.failed_episodes");
  ctr_deferred_ = metrics_.GetCounter("manager.deferred.total");
  ctr_fast_fails_ = metrics_.GetCounter("manager.deferred.fast_fail");
  ctr_deferred_recovered_ = metrics_.GetCounter("manager.deferred.recovered");
  ctr_deferred_violations_ =
      metrics_.GetCounter("manager.deferred.violations");
  ctr_t3_admitted_ = metrics_.GetCounter("manager.t3_admitted");
  ctr_shed_ = metrics_.GetCounter("manager.shed_checks");
  ctr_plan_compiles_ = metrics_.GetCounter("plan.compiles");
  ctr_plan_hits_ = metrics_.GetCounter("plan.hits");
  ctr_plan_delta_ = metrics_.GetCounter("plan.delta_tuples");
  hist_plan_compile_ = metrics_.GetHistogram("plan.compile_latency_ns");
  ctr_budget_exhausted_ = metrics_.GetCounter("manager.budget_exhausted");
  ctr_deferred_dropped_ = metrics_.GetCounter("manager.deferred.dropped");
  ctr_hedge_issued_ = metrics_.GetCounter("manager.hedge.issued");
  ctr_hedge_won_ = metrics_.GetCounter("manager.hedge.won");
  ctr_hedge_wasted_ = metrics_.GetCounter("manager.hedge.wasted");
  ctr_latency_shed_ = metrics_.GetCounter("manager.latency_shed");
  ctr_sites_recovered_ = metrics_.GetCounter("manager.recovery.sites");
  ctr_cache_revalidated_ = metrics_.GetCounter("manager.recovery.revalidated");
  for (size_t s = 0; s < site_.sites(); ++s) {
    ctr_site_recovered_.push_back(
        metrics_.GetCounter("manager.recovery.site" + std::to_string(s)));
  }
  // Millisecond-scale bounds: the registry's default ladder is tuned for
  // nanosecond latencies, while this histogram records wall-clock budget
  // left when a deadlined episode completes.
  hist_budget_remaining_ = metrics_.GetHistogram(
      "manager.budget_remaining_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
  hist_apply_ = metrics_.GetHistogram("manager.apply_latency_ns");
  hist_remote_eval_ = metrics_.GetHistogram("manager.remote_eval_latency_ns");
  gauge_deferred_len_ = metrics_.GetGauge("manager.deferred_queue_len");
  ctr_pipe_admitted_ = metrics_.GetCounter("manager.pipeline.admitted");
  ctr_pipe_committed_ = metrics_.GetCounter("manager.pipeline.committed");
  ctr_pipe_conflicts_ = metrics_.GetCounter("manager.pipeline.conflicts");
  ctr_pipe_retries_ = metrics_.GetCounter("manager.pipeline.retries");
  ctr_pipe_unspeculated_ = metrics_.GetCounter("manager.pipeline.unspeculated");
  gauge_pipe_in_flight_ = metrics_.GetGauge("manager.pipeline.in_flight");
  hist_pipe_commit_wait_ =
      metrics_.GetHistogram("manager.pipeline.commit_wait_ns");
  // The datalog engine and the RA evaluator resolve their counters by name
  // when they run; registering the names here makes a fresh manager's dump
  // the whole catalog.
  for (const char* name :
       {"eval.evaluations", "eval.rule_evals", "eval.fixpoint_rounds",
        "eval.tuples_derived", "eval.budget_checks", "ra.evaluations",
        "ra.nodes_evaluated"}) {
    metrics_.GetCounter(name);
  }
}

ConstraintManager::ConstraintManager(std::set<std::string> local_preds,
                                     CostModel cost_model,
                                     ManagerConfig config)
    : config_(std::move(config)),
      site_(std::move(local_preds), config_.topology),
      budget_armed_(config_.budget.armed()),
      retry_rng_(config_.resilience.retry_seed),
      plans_(config_.plan_cache),
      pool_(std::make_unique<ThreadPool>(config_.threads)) {
  // One independent fault domain per site: each gets its own breaker
  // (same config) and its own recovery bookkeeping.
  breakers_.reserve(site_.sites());
  for (size_t s = 0; s < site_.sites(); ++s) {
    breakers_.push_back(
        std::make_unique<CircuitBreaker>(config_.resilience.breaker));
  }
  site_was_dark_.assign(site_.sites(), false);
  site_.EnableRemoteCache(config_.remote_cache.enabled);
  // Price every site with the manager's cost model, folding in the
  // topology's per-site latency overrides (the billing weights stay
  // uniform; only the latency distribution is per-site). Without this the
  // sites keep the default CostModel{}, which silently zeroes
  // trip_latency_us — the simulated round trips would be billed but never
  // block, and latency-hiding machinery could not be measured.
  const auto& latency_overrides = config_.topology.site_latency;
  for (size_t s = 0; s < site_.sites(); ++s) {
    CostModel priced = cost_model;
    auto it = latency_overrides.find(s);
    if (it != latency_overrides.end()) {
      const SiteLatencyOverride& o = it->second;
      priced.latency_model = o.model;
      if (o.model == LatencyModel::kFixed) priced.trip_latency_us = o.fixed_us;
      priced.latency_lo_us = o.lo_us;
      priced.latency_hi_us = o.hi_us;
      priced.latency_slow_share = o.slow_share;
    }
    if (priced.latency_model != LatencyModel::kFixed) latency_aware_ = true;
    site_.set_site_cost_model(s, priced);
  }
  InitObservability();
  site_.set_hedge(config_.remote_cache.hedge_after, ctr_hedge_issued_,
                  ctr_hedge_won_, ctr_hedge_wasted_);
}

ConstraintManager::~ConstraintManager() { AbandonInflight(); }

void ConstraintManager::ResetStats() {
  // Resetting mid-flight would split one episode's counts across the
  // boundary; retire everything first.
  DrainInflightInternal();
  CCPI_DCHECK(inflight_.empty());
  for (obs::Counter* c : ctr_resolved_) c->Reset();
  for (obs::Counter* c : ctr_site_recovered_) c->Reset();
  for (obs::Counter* c :
       {ctr_violations_, ctr_remote_attempts_, ctr_remote_retries_,
        ctr_remote_failures_, ctr_deferred_, ctr_fast_fails_,
        ctr_deferred_recovered_, ctr_deferred_violations_, ctr_t3_admitted_,
        ctr_shed_, ctr_budget_exhausted_, ctr_deferred_dropped_,
        ctr_sites_recovered_, ctr_cache_revalidated_, ctr_hedge_issued_,
        ctr_hedge_won_, ctr_hedge_wasted_, ctr_latency_shed_}) {
    c->Reset();
  }
}

ManagerStats ConstraintManager::stats() const {
  ManagerStats s;
  for (Tier tier : kAllTiers) {
    uint64_t n = ctr_resolved_[TierIndex(tier)]->value();
    if (n > 0) s.resolved_by[tier] = n;
  }
  s.violations = ctr_violations_->value();
  s.remote_attempts = ctr_remote_attempts_->value();
  s.remote_retries = ctr_remote_retries_->value();
  s.remote_failures = ctr_remote_failures_->value();
  s.deferred = ctr_deferred_->value();
  s.breaker_fast_fails = ctr_fast_fails_->value();
  s.deferred_recovered = ctr_deferred_recovered_->value();
  s.deferred_violations = ctr_deferred_violations_->value();
  s.t3_admitted = ctr_t3_admitted_->value();
  s.shed_checks = ctr_shed_->value();
  s.budget_exhausted = ctr_budget_exhausted_->value();
  s.deferred_dropped = ctr_deferred_dropped_->value();
  s.sites_recovered = ctr_sites_recovered_->value();
  s.cache_revalidated = ctr_cache_revalidated_->value();
  s.hedges_issued = ctr_hedge_issued_->value();
  s.hedges_won = ctr_hedge_won_->value();
  s.hedges_wasted = ctr_hedge_wasted_->value();
  s.latency_shed = ctr_latency_shed_->value();
  s.access = site_.stats();
  return s;
}

Result<bool> ConstraintManager::AddConstraint(const std::string& name,
                                              Program constraint) {
  // Registration changes the active set every speculation quantifies over
  // (tier-1 assumptions, the signature constant pool): retire in-flight
  // episodes before touching it.
  DrainInflightInternal();
  CCPI_DCHECK(inflight_.empty());
  // The name identifies the constraint in plan-cache keys, reports and
  // the deferred queue, so a second constraint under it would be checked
  // with the first one's cached plans.
  for (const Registered& r : constraints_) {
    if (r.name == name) {
      return Status::InvalidArgument("constraint " + name +
                                     " is already registered");
    }
  }
  std::vector<Program> active;
  for (const Registered& r : constraints_) {
    if (!r.subsumed) active.push_back(r.program);
  }
  bool subsumed = false;
  if (!active.empty()) {
    Result<ContainmentDecision> decision = Subsumes(constraint, active);
    if (decision.ok()) {
      subsumed = decision->outcome == Outcome::kHolds;
    } else if (decision.status().code() != StatusCode::kUnsupported) {
      return decision.status();
    }
  }
  constraints_.push_back(Registered{name, std::move(constraint), subsumed});
  // Registration-time footprint: which remote relations a tier-3
  // evaluation of this constraint may touch (prefetch unions them).
  for (const std::string& pred : EdbPredicates(constraints_.back().program)) {
    if (!site_.IsLocal(pred)) constraints_.back().remote_edb.insert(pred);
  }
  // Site footprint for breaker gating. With one site every constraint
  // names it (even with an empty remote_edb) so gating degenerates to the
  // single global breaker; with N sites the footprint is exactly the
  // placement of the remote relations, and a constraint with no remote
  // reads is never gated at all.
  if (site_.sites() == 1) {
    constraints_.back().remote_sites.insert(0);
  } else {
    for (const std::string& pred : constraints_.back().remote_edb) {
      constraints_.back().remote_sites.insert(site_.SiteOf(pred));
    }
  }
  // Registration is a plan-cache epoch: the tier-1 memo quantifies over
  // the set of active constraints, which just changed, so every cached
  // decision (and, wholesale for simplicity, every plan) is dropped. The
  // signature inputs are refreshed too — the distinguished-constant pool
  // and whether every active program is comparison-free, the soundness
  // gate of shape-keyed decision memoization (see docs/plan_cache.md).
  plans_.Invalidate();
  std::vector<const Program*> active_programs;
  plan_sig_safe_ = true;
  for (const Registered& r : constraints_) {
    if (r.subsumed) continue;
    active_programs.push_back(&r.program);
    plan_sig_safe_ = plan_sig_safe_ && SignatureSafe(r.program);
  }
  plan_constants_ = CollectProgramConstants(active_programs);
  return subsumed;
}

std::shared_ptr<const PlanCache::Tier2Artifacts>
ConstraintManager::PrepareTier2(const Registered& r,
                                const std::string& local_pred) {
  // Uncounted in plan.*: the artifacts are per (constraint, predicate),
  // not per update pattern. Two racing builders (concurrent episode
  // speculations) compile identical artifacts, a pure function of the
  // program and predicate; the first insert wins.
  const std::string key = r.name + '\x1f' + local_pred;
  if (auto cached = plans_.FindTier2(key)) return *cached;

  using Tier2Artifacts = PlanCache::Tier2Artifacts;
  std::shared_ptr<const Tier2Artifacts> artifacts;  // null = inapplicable
  Result<UCQ> unfolded = UnfoldToUCQ(r.program);
  if (unfolded.ok() && unfolded->size() == 1 &&
      !(*unfolded)[0].HasNegation()) {
    auto built = std::make_shared<Tier2Artifacts>();
    built->rule = (*unfolded)[0].ToRule();
    built->arithmetic_free = !(*unfolded)[0].HasArithmetic();
    Result<IcqCompilation> icq = CompileIcq(built->rule, local_pred);
    if (icq.ok()) built->icq = std::move(*icq);
    Result<Cqc> cqc = MakeCqc(built->rule, local_pred);
    if (cqc.ok()) built->cqc = std::move(*cqc);
    if (built->icq.has_value() || built->cqc.has_value() ||
        built->arithmetic_free) {
      artifacts = std::move(built);
    }
  }
  return plans_.StoreTier2(key, std::move(artifacts));
}

Result<CheckReport> ConstraintManager::CheckOne(const Registered& r,
                                                const Update& u,
                                                const UpdateSignature& sig,
                                                const CheckContext& ctx) {
  obs::Span span("manager.check", "manager");
  obs::Stopwatch sw;
  Result<CheckReport> report = CheckOneImpl(r, u, sig, ctx);
  if (report.ok()) {
    if (span.active()) {
      span.Attr("constraint", r.name);
      span.Attr("tier", TierToString(report->tier));
      span.Attr("outcome", OutcomeToString(report->outcome));
    }
    sw.RecordTo(hist_check_[TierIndex(report->tier)]);
  }
  return report;
}

Result<CheckReport> ConstraintManager::CheckOneImpl(
    const Registered& r, const Update& u, const UpdateSignature& sig,
    const CheckContext& ctx) {
  CheckReport report;
  report.constraint = r.name;

  // Tier 1 prefilter: the constraint cannot see the updated relation.
  if (!Mentions(r.program, u.pred)) {
    report.outcome = Outcome::kHolds;
    report.tier = Tier::kUnaffected;
    return report;
  }

  // The plan-cache key for this (constraint, update pattern). Keys embed
  // the constraint id, so under the phase-1 fan-out each lane touches a
  // disjoint key family and cache contents stay thread-count independent.
  const std::string plan_key = r.name + '\x1f' + sig.Key();

  // Tier 1: constraints + update only (Section 4). The decision is a pure
  // function of (constraint, update pattern, active constraint set): it
  // compares the constraint against the update via equality reasoning
  // alone, so two updates with the same shape signature get the same
  // verdict — memoizable per pattern, as long as no active program carries
  // an order comparison (those can distinguish same-shape tuples; see
  // docs/plan_cache.md). AddConstraint invalidates the memo wholesale.
  bool tier1_known = false;
  bool tier1_holds = false;
  if (plan_sig_safe_) {
    if (std::optional<PlanCache::Tier1Decision> memo =
            plans_.FindTier1(plan_key)) {
      ctr_plan_hits_->Add(1);
      tier1_known = true;
      tier1_holds = memo->holds;
    }
  }
  if (!tier1_known) {
    obs::Stopwatch compile_sw;
    std::vector<Program> assumed;
    for (const Registered& other : constraints_) {
      if (!other.subsumed && other.name != r.name) {
        assumed.push_back(other.program);
      }
    }
    Result<ContainmentDecision> independent =
        HoldsAfterUpdate(r.program, u, assumed);
    if (!independent.ok() &&
        independent.status().code() != StatusCode::kUnsupported) {
      return independent.status();
    }
    tier1_holds =
        independent.ok() && independent->outcome == Outcome::kHolds;
    // Memoize both verdicts — holds and falls-through — but never an
    // error path (kUnsupported falls through cold every time).
    if (plan_sig_safe_) {
      CountPlanStore(
          plans_.StoreTier1(plan_key, PlanCache::Tier1Decision{tier1_holds}),
          compile_sw);
    }
  }
  if (tier1_holds) {
    report.outcome = Outcome::kHolds;
    report.tier = Tier::kIndependence;
    return report;
  }

  // Tier 2: complete local test with local data — insertions into a local
  // relation, single-CQ constraints (Sections 5 and 6). The compiled
  // artifacts are cached per (constraint, predicate). Local reads never
  // fail: tiers 0-2 keep answering through any remote outage.
  if (u.kind == Update::Kind::kInsert && site_.IsLocal(u.pred)) {
    std::shared_ptr<const PlanCache::Tier2Artifacts> t2 =
        PrepareTier2(r, u.pred);
    if (t2 != nullptr) {
      // Tier 2 may only trust *verified* local data. A tuple applied
      // optimistically while its own check is still deferred must not
      // serve as evidence (e.g. interval coverage) for accepting further
      // updates: one unverified insert could otherwise launder
      // arbitrarily many dependents past the local test, and its late
      // rollback would leave them standing unchecked.
      const Relation* local = &ctx.db->Get(u.pred, u.tuple.size());
      bool has_pending = false;
      for (const DeferredCheck& d : *ctx.deferred) {
        has_pending = has_pending || d.update.pred == u.pred;
      }
      Relation verified(u.tuple.size());
      if (has_pending) {
        verified = *local;
        for (const DeferredCheck& d : *ctx.deferred) {
          if (d.update.pred != u.pred) continue;
          if (d.update.kind == Update::Kind::kInsert) {
            verified.Erase(d.update.tuple);
          } else {
            verified.Insert(d.update.tuple);
          }
        }
        local = &verified;
      }
      Outcome outcome = Outcome::kUnknown;
      bool decided = false;

      // Fastest applicable method first: the Fig 6.1 interval machinery,
      // then the Theorem 5.3 RA test, then the general Theorem 5.2 test.
      if (t2->icq.has_value()) {
        Result<Outcome> o = IcqDirectTestOnInsert(*t2->icq, *local, u.tuple);
        if (o.ok()) {
          outcome = *o;
          decided = true;
          // One pass over L, always a local read.
          CCPI_RETURN_IF_ERROR(ctx.observer->OnRead(u.pred, local->size()));
        }
      }
      if (!decided && t2->arithmetic_free && !has_pending) {
        // The RA evaluator reports its own reads through the observer.
        // It reads L from the database directly, so it is skipped when
        // unverified tuples would be visible there.
        //
        // The Theorem 5.3 compilation happens once per update pattern: the
        // compiled template is cached and later same-shape tuples are
        // *bound* into it (delta evaluation) instead of recompiling. The
        // evaluation itself is never skipped — except by the bound-result
        // memo, which replays an identical recorded read sequence — so
        // reports and access accounting do not depend on the cache.
        std::shared_ptr<const RaPlanTemplate> tpl =
            plans_.FindTemplate(plan_key);
        if (tpl != nullptr) {
          ctr_plan_hits_->Add(1);
        } else {
          obs::Stopwatch compile_sw;
          Result<RaPlanTemplate> built =
              CompileRaPlan(t2->rule, u.pred, u.tuple);
          if (built.ok()) {
            auto ours =
                std::make_shared<const RaPlanTemplate>(std::move(*built));
            tpl = plans_.StoreTemplate(plan_key, ours);
            CountPlanStore(tpl == ours, compile_sw);
          }
          // A failed compile falls through undecided and is not cached,
          // so error behavior stays per-update.
        }
        if (tpl != nullptr) {
          Result<Outcome> o = EvalPlannedRa(*tpl, u, plan_key, ctx);
          if (o.ok()) {
            outcome = *o;
            decided = true;
          }
        }
      }
      if (!decided && t2->cqc.has_value()) {
        Result<LocalTestResult> o =
            CompleteLocalTestOnInsert(*t2->cqc, u.tuple, *local);
        if (o.ok()) {
          outcome = o->outcome;
          decided = true;
          CCPI_RETURN_IF_ERROR(ctx.observer->OnRead(u.pred, local->size()));
        }
      }
      if (decided) {
        if (outcome != Outcome::kUnknown) {
          report.outcome = outcome;
          report.tier = Tier::kLocalTest;
          return report;
        }
      }
    }
  }

  report.outcome = Outcome::kUnknown;  // needs the full (remote) check
  report.tier = Tier::kFullCheck;
  return report;
}

Status ConstraintManager::CheckAllLocally(const Update& u, bool noop,
                                          const CheckContext& ctx,
                                          bool fan_out,
                                          std::vector<CheckReport>* reports,
                                          std::vector<Status>* check_status) {
  // Each lane owns exactly one constraint's slots and reads only through
  // `ctx`; every shared sink on this path (AccessStats, metrics counters,
  // Relation index builds, the plan cache) is atomic or internally locked,
  // and their final values are order-independent sums — so the fan-out is
  // report- and stats-equivalent to the sequential loop.
  reports->assign(constraints_.size(), CheckReport{});
  check_status->assign(constraints_.size(), Status::OK());
  // The update signature: the per-pattern plan-cache key component shared
  // by every constraint's check (a no-op update checks nothing).
  std::optional<UpdateSignature> sig;
  if (!noop) sig = MakeUpdateSignature(u, plan_constants_);
  auto check = [&](size_t i) -> Status {
    const Registered& r = constraints_[i];
    if (r.subsumed) {
      (*reports)[i] = CheckReport{r.name, Outcome::kHolds, Tier::kSubsumed};
    } else if (noop) {
      (*reports)[i] = CheckReport{r.name, Outcome::kHolds, Tier::kUnaffected};
    } else if (Result<CheckReport> report = CheckOne(r, u, *sig, ctx);
               report.ok()) {
      (*reports)[i] = std::move(*report);
    } else {
      // Surfaced at this constraint's position in the commit phase, so
      // error reporting matches the sequential order.
      (*check_status)[i] = report.status();
      (*reports)[i].tier = Tier::kFullCheck;  // never read; keep defined
    }
    return Status::OK();
  };
  if (fan_out) return pool_->ParallelFor(constraints_.size(), check);
  for (size_t i = 0; i < constraints_.size(); ++i) {
    CCPI_RETURN_IF_ERROR(check(i));
  }
  return Status::OK();
}

Result<Outcome> ConstraintManager::EvalPlannedRa(const RaPlanTemplate& tpl,
                                                 const Update& u,
                                                 const std::string& plan_key,
                                                 const CheckContext& ctx) {
  // The Theorem 5.3 local test over a prebuilt template: trivial outcomes
  // are shape-stable, so they transfer to every bound tuple.
  if (tpl.trivially_holds) return Outcome::kHolds;
  if (tpl.trivially_violated) return Outcome::kViolated;
  RaExprPtr bound = tpl.Bind(u.tuple);
  ctr_plan_delta_->Add(1);
#ifndef NDEBUG
  // Locality guarantee of Theorem 5.3: a bound test reads only the
  // updated local relation.
  {
    std::set<std::string> scans;
    bound->CollectScanPreds(&scans);
    for (const std::string& pred : scans) CCPI_CHECK(pred == u.pred);
  }
#endif
  // Bound-result memo, valid while the relation's content-version stamp
  // matches (equal version => equal contents, so the skipped evaluation
  // would have produced this outcome and charged exactly these reads).
  // Version stamps name *content*, not a database handle, so the memo is
  // shared across episodes: a speculative check over a snapshot whose
  // relation carries the same version as an earlier episode's hits — and
  // a hit recorded from a snapshot replays identically on the live path.
  const Relation& local = ctx.db->Get(u.pred, u.tuple.size());
  std::string result_key = plan_key;
  result_key += '\x1f';
  result_key += TupleToString(u.tuple);
  result_key += '\x1f';
  result_key += std::to_string(local.version());
  if (std::optional<PlanCache::BoundResult> memo =
          plans_.FindResult(result_key)) {
    ctr_plan_hits_->Add(1);
    for (const auto& [pred, count] : memo->reads) {
      CCPI_RETURN_IF_ERROR(ctx.observer->OnRead(pred, count));
    }
    return memo->outcome;
  }
  RecordingObserver recorder(ctx.observer);
  CCPI_ASSIGN_OR_RETURN(bool nonempty,
                        RaNonempty(*bound, *ctx.db, &recorder, &metrics_));
  Outcome outcome = nonempty ? Outcome::kHolds : Outcome::kUnknown;
  // A lane that lost a concurrent store race counts the hit it would have
  // had serially (see CountPlanStore).
  if (!plans_.StoreResult(
          result_key,
          PlanCache::BoundResult{outcome, std::move(recorder.reads)})) {
    ctr_plan_hits_->Add(1);
  }
  return outcome;
}

void ConstraintManager::CountPlanStore(bool won,
                                       const obs::Stopwatch& compile_sw) {
  if (won) {
    ctr_plan_compiles_->Add(1);
    compile_sw.RecordTo(hist_plan_compile_);
  } else {
    ctr_plan_hits_->Add(1);
  }
}

bool ConstraintManager::SitesWouldAllow(
    const std::set<size_t>& gsites) const {
  for (size_t s : gsites) {
    if (!breakers_[s]->WouldAllow()) return false;
  }
  return true;
}

void ConstraintManager::ClaimSites(const std::set<size_t>& gsites) {
  for (size_t s : gsites) {
    bool admitted = breakers_[s]->AllowRequest();
    // The caller gated on SitesWouldAllow with no breaker traffic in
    // between, so the claim cannot be refused.
    CCPI_DCHECK(admitted);
    (void)admitted;
  }
}

bool ConstraintManager::AllBreakersClosed() const {
  for (const std::unique_ptr<CircuitBreaker>& b : breakers_) {
    if (b->state() != CircuitState::kClosed) return false;
  }
  return true;
}

std::set<std::string> ConstraintManager::PrefetchPreds(
    const std::vector<size_t>& worklist) const {
  // A site whose breaker is not closed fast-fails its episodes without
  // reading, so prefetching for it would pay trips the uncached path never
  // pays.
  std::set<std::string> preds;
  for (size_t idx : worklist) {
    for (const std::string& pred : constraints_[idx].remote_edb) {
      if (breakers_[site_.SiteOf(pred)]->state() == CircuitState::kClosed) {
        preds.insert(pred);
      }
    }
  }
  return preds;
}

bool ConstraintManager::AnySiteReachable() const {
  for (const std::unique_ptr<CircuitBreaker>& b : breakers_) {
    if (b->WouldAllow()) return true;
  }
  return false;
}

Result<bool> ConstraintManager::EvaluateRemote(const Program& program,
                                               const Database& db,
                                               const std::set<size_t>& gsites,
                                               size_t* retries_out,
                                               const BudgetScope* scope,
                                               const std::string& plan_key) {
  obs::Span span("manager.evaluate_remote", "manager");
  if (scope != nullptr) {
    // Admission: a check whose envelope is already spent performs no
    // attempt at all — no retry episode, no breaker traffic, no span
    // timing. The caller sheds it.
    Status admit = scope->Check();
    if (!admit.ok()) {
      if (retries_out != nullptr) *retries_out = 0;
      ctr_budget_exhausted_->Add(1);
      for (size_t s : gsites) breakers_[s]->CancelProbe();
      return admit;
    }
  }
  // Per-site blame needs to know which sites actually failed during this
  // episode. The snapshot/delta read is race-free because the retriable
  // path below only exists under fault injection, which forces tier 3
  // sequential.
  std::vector<size_t> failures_before;
  failures_before.reserve(gsites.size());
  for (size_t s : gsites) {
    failures_before.push_back(site_.site_stats(s).remote_failures);
  }
  obs::Stopwatch sw;
  bool violated = false;
  RetryOutcome episode =
      RunWithRetry(config_.resilience.retry, &retry_rng_, [&]() -> Status {
        EvalOptions options;
        options.observer = &site_;
        options.metrics = &metrics_;
        options.budget = scope;
        // The program's evaluation-independent analysis (safety,
        // stratification, predicate partition) runs once per constraint
        // instead of once per attempt. Only successful compiles are
        // cached: a failing program surfaces the identical status on
        // every attempt.
        std::shared_ptr<const CompiledProgram> plan =
            plans_.FindProgram(plan_key);
        if (plan == nullptr) {
          obs::Stopwatch compile_sw;
          CCPI_ASSIGN_OR_RETURN(CompiledProgram built,
                                CompileProgram(program));
          auto ours = std::make_shared<const CompiledProgram>(std::move(built));
          plan = plans_.StoreProgram(plan_key, ours);
          CountPlanStore(plan == ours, compile_sw);
        } else {
          ctr_plan_hits_->Add(1);
        }
        CCPI_ASSIGN_OR_RETURN(violated, IsViolated(*plan, db, options));
        return Status::OK();
      });
  sw.RecordTo(hist_remote_eval_);
  ctr_remote_attempts_->Add(episode.attempts);
  if (episode.attempts > 0) {
    ctr_remote_retries_->Add(episode.attempts - 1);
  }
  if (span.active()) {
    span.Attr("attempts", static_cast<int64_t>(episode.attempts));
  }
  if (retries_out != nullptr) {
    *retries_out = episode.attempts > 0 ? episode.attempts - 1 : 0;
  }
  if (!episode.status.ok()) {
    if (IsRetriable(episode.status.code())) {
      ctr_remote_failures_->Add(1);
      // Blame exactly the sites whose trips failed during this episode (a
      // retriable status only comes from a failed, counted trip); a gated
      // site that happened not to fail releases its probe claim without a
      // verdict.
      size_t i = 0;
      for (size_t s : gsites) {
        bool failed =
            site_.site_stats(s).remote_failures > failures_before[i++];
        if (failed) {
          breakers_[s]->RecordFailure();
        } else {
          breakers_[s]->CancelProbe();
        }
      }
    } else if (episode.status.code() == StatusCode::kResourceExhausted) {
      // The budget, not the site, stopped the episode: never retried
      // (retrying would spend the same exhausted envelope) and never
      // blamed on the breaker (the site did nothing wrong).
      ctr_budget_exhausted_->Add(1);
      for (size_t s : gsites) breakers_[s]->CancelProbe();
    } else {
      for (size_t s : gsites) breakers_[s]->CancelProbe();
    }
    if (span.active()) span.Attr("gave_up", episode.status.message());
    return episode.status;
  }
  // Success feeds every gated site unconditionally — not only the sites
  // whose cached reads happened to pay a trip this time. Delta-gating
  // would read racy per-site counters under the tier-3 fan-out and make
  // breaker state depend on thread count.
  for (size_t s : gsites) breakers_[s]->RecordSuccess();
  return violated;
}

bool ConstraintManager::UpdateRefused(
    const std::vector<CheckReport>& reports) const {
  for (const CheckReport& r : reports) {
    if (r.outcome == Outcome::kViolated) return true;
    if (r.queue_overflow) return true;
    if (r.outcome == Outcome::kDeferred &&
        config_.resilience.on_unreachable == DeferredPolicy::kReject) {
      return true;
    }
  }
  return false;
}

Result<std::vector<CheckReport>> ConstraintManager::ApplyUpdate(
    const Update& u) {
  // The synchronous and asynchronous entry points share one serial order:
  // everything admitted earlier commits first.
  DrainInflightInternal();
  return RunEpisode(u, nullptr);
}

Result<std::vector<CheckReport>> ConstraintManager::RunEpisode(
    const Update& u, Episode* spec) {
  obs::Span span("manager.apply_update", "manager");
  if (span.active()) {
    span.Attr("pred", u.pred);
    span.Attr("kind", u.kind == Update::Kind::kInsert ? "insert" : "delete");
  }
  obs::Stopwatch sw;
  Result<std::vector<CheckReport>> reports = ApplyUpdateImpl(u, spec);
  sw.RecordTo(hist_apply_);
  gauge_deferred_len_->Set(static_cast<int64_t>(deferred_.size()));
  return reports;
}

Result<std::vector<CheckReport>> ConstraintManager::ApplyUpdateImpl(
    const Update& u, Episode* spec) {
  // The episode's execution envelope, armed from configuration alone: an
  // unbudgeted manager never reads the clock here — episode_scope stays
  // inert and every checkpoint downstream is one branch on a null scope.
  BudgetScope episode_scope;
  if (budget_armed_) {
    episode_scope =
        BudgetScope::Start(config_.budget.per_episode, config_.budget.cancel);
  }
  const BudgetScope* episode = budget_armed_ ? &episode_scope : nullptr;

  for (std::unique_ptr<CircuitBreaker>& b : breakers_) b->Tick();
  // Opportunistically drain the deferred queue first: once a remote site
  // answers again, earlier optimistic applies are re-verified before new
  // work builds on them. Any reachable site is reason enough to try — the
  // drain itself skips entries whose own sites are still dark.
  if (config_.resilience.auto_recheck && !deferred_.empty() &&
      AnySiteReachable()) {
    Result<std::vector<DeferredResolution>> drained =
        RecheckDeferredImpl(episode);
    if (!drained.ok()) return drained.status();
  }

  // The episode's serial position. A pipelined episode was numbered at
  // admission (admission order == commit order == the serial order), so
  // its conflict re-run must not draw a fresh number.
  uint64_t sequence = spec != nullptr ? spec->sequence : update_sequence_++;

  const bool noop = EffectPresent(u, site_.db());

  // Commit-map validation, after the prelude above: the breaker ticks and
  // the auto-recheck drain are part of THIS episode's commit turn, so a
  // drain that just mutated the database or the queue correctly
  // invalidates this episode's own speculation. A valid speculation's
  // phase 1 is reused wholesale (reports + replayed read charges); a
  // conflicted one is re-run inline on the live database — and because
  // commits are serialized, that single re-run cannot be invalidated
  // again. An unspeculated (serial-fallback) admission just runs cold.
  bool use_spec = false;
  if (spec != nullptr && spec->speculated) {
    use_spec = SpecStillValid(*spec);
    if (use_spec) {
      conflict_streak_ = 0;
      ctr_pipe_committed_->Add(1);
    } else {
      ctr_pipe_conflicts_->Add(1);
      ctr_pipe_retries_->Add(1);
      if (++conflict_streak_ >= config_.pipeline.max_conflict_streak) {
        // Sustained conflicts: stop speculating for a window of
        // admissions, then probe again.
        serial_fallback_remaining_ = config_.pipeline.depth;
        conflict_streak_ = 0;
      }
    }
  } else if (spec != nullptr) {
    ctr_pipe_unspeculated_->Add(1);
  }

  std::vector<CheckReport> reports;
  std::vector<Status> check_status;
  if (use_spec) {
    CCPI_DCHECK(noop == spec->noop);
    reports = std::move(spec->reports);
    check_status = std::move(spec->check_status);
    // Replay the buffered phase-1 charges in recorded order, so
    // AccessStats advance exactly as the serial phase 1 would have
    // advanced them here.
    for (const auto& [pred, count] : spec->buffered_reads) {
      CCPI_RETURN_IF_ERROR(site_.OnRead(pred, count));
    }
  } else {
    // ---- Phase 1 (read-only, parallel) on the live database.
    bool parallel_checks = pool_->thread_count() > 1 && !noop &&
                           constraints_.size() > 1;
    if (parallel_checks || Relation::ColumnarEnabled()) {
      // Build every column index up front so checker threads mostly take
      // the shared (reader) path through Relation::Probe. With the
      // columnar path on, freezing also builds the segments the scan/join
      // kernels dispatch on — sequential runs want that too (freezing is
      // stats-invisible: it charges no accesses and draws no faults).
      site_.db().FreezeIndexes();
    }
    CCPI_RETURN_IF_ERROR(CheckAllLocally(
        u, noop, CheckContext{&site_.db(), &site_, &deferred_},
        /*fan_out=*/true, &reports, &check_status));
  }

  // ---- Phase 2 (serialized commit): counters and the tier-3 worklist,
  // in constraint order.
  std::vector<size_t> need_full;
  for (size_t i = 0; i < constraints_.size(); ++i) {
    CCPI_RETURN_IF_ERROR(check_status[i]);
    if (reports[i].tier == Tier::kFullCheck) {
      need_full.push_back(i);
    } else {
      ctr_resolved_[TierIndex(reports[i].tier)]->Add(1);
    }
  }

  bool violated = false;
  for (const CheckReport& r : reports) {
    violated = violated || r.outcome == Outcome::kViolated;
  }
  bool any_deferred = false;
  bool overflow_refused = false;

  if (!need_full.empty() && !violated) {
    // Tentatively apply, evaluate the undecided constraints on the new
    // state (remote reads charged), roll back on violation. A constraint
    // whose evaluation cannot reach the remote site resolves as kDeferred
    // instead of blocking or failing the whole update.
    CCPI_RETURN_IF_ERROR(u.ApplyTo(&site_.db()));
    LogCommitWrite(u.pred);
    // Admission accounting is cache-invariant by construction: a plan-
    // cache hit changes how a tier's verdict was computed, never the
    // verdict, so `need_full` — and with it every Split below, the
    // prefetch union, and the t3_admitted == resolved_by[kFullCheck] +
    // deferred + shed_checks invariant — is identical cache on or off
    // (regression-tested in plan_cache_test).
    ctr_t3_admitted_->Add(need_full.size());

    // Route the episode's remote trips — prefetch included — through the
    // budget for the duration of the tier-3 block, so a passed deadline
    // refuses trips before paying them. Each site gets an equal child
    // scope so one hot site cannot starve the trips of the others; at one
    // site Split(1) keeps every cap, the deadline and the cancel token of
    // the episode scope, whose trip counter is still 0 here.
    std::vector<BudgetScope> site_scopes;
    if (budget_armed_) {
      site_scopes.resize(site_.sites());
      for (size_t s = 0; s < site_scopes.size(); ++s) {
        site_scopes[s] = episode_scope.Split(site_.sites(), {});
        site_.set_site_budget(s, &site_scopes[s]);
      }
    }
    struct SiteBudgetRestore {
      SiteDatabase* site;
      bool armed;
      ~SiteBudgetRestore() {
        if (armed) site->set_budget(nullptr);
      }
    } restore_site_budget{&site_, budget_armed_};

    // Prefetch: fetch each distinct remote relation the worklist needs at
    // most once, coalesced into one round trip per site and the sites'
    // batches issued concurrently, before any evaluation, so the
    // per-constraint evaluations (parallel or not) read them as cache hits
    // instead of each paying its own trip. Runs at every thread count —
    // the cache's hit and trip counts must not depend on the fan-out
    // width — but never under fault injection (each logical read must
    // consume its own draw of the failure schedule in evaluation order).
    // A valid speculation already slept the trips it staged; the prefetch
    // bills them as usual and skips only the sleep of each site whose
    // batch the staging covers.
    if (site_.remote_cache_enabled() && !site_.any_fault_injector()) {
      site_.PrefetchRemote(PrefetchPreds(need_full), pool_.get(),
                           use_spec ? &spec->staged : nullptr);
    }

    // Tier 3 may fan out only when remote verdicts cannot depend on
    // arrival order: the fault injector consumes one RNG draw per remote
    // trip in global order, and an open/half-open breaker admits episodes
    // by arrival — either would make interleaved evaluations
    // seed-irreproducible. With neither in play, each evaluation is a pure
    // function of (program, frozen database) and the fan-out commits
    // verdicts in constraint order below. An episode-wide remote-trip cap
    // is arrival-order dependent for the same reason the injector is (the
    // shared counter bills trips in global order), so it too forces the
    // sequential path.
    bool parallel_t3 = pool_->thread_count() > 1 && need_full.size() > 1 &&
                       !site_.any_fault_injector() && AllBreakersClosed() &&
                       config_.budget.per_episode.max_remote_trips == 0;

    // Budget split: every undecided constraint gets an *identical* child
    // scope — 1/N of each episode cap, the episode's absolute deadline and
    // cancellation token, tightened by the per-check envelope. The split
    // depends only on configuration and the worklist size, never on
    // sibling progress, so verdicts cannot depend on the fan-out width.
    std::vector<BudgetScope> check_scopes(budget_armed_ ? need_full.size()
                                                        : 0);
    for (BudgetScope& scope : check_scopes) {
      scope = episode_scope.Split(need_full.size(), config_.budget.per_check);
    }
    auto scope_for = [&](size_t k) -> const BudgetScope* {
      return budget_armed_ ? &check_scopes[k] : nullptr;
    };

    std::vector<Status> eval_status(need_full.size());
    std::vector<char> eval_bad(need_full.size(), 0);
    std::vector<size_t> eval_retries(need_full.size(), 0);
    // Latency-aware shed — the refuse-before-pay rule extended from spent
    // budgets to projected latency: when a member site's observed-latency
    // EWMA already says one round trip cannot finish inside the check's
    // remaining deadline, the check is shed to kDeferred *before* paying
    // the trip (no draw consumed, no trip billed), instead of paying the
    // trip and shedding at the next checkpoint anyway.
    std::vector<char> lat_shed(need_full.size(), 0);
    auto latency_projects_over = [&](size_t k) -> bool {
      if (!latency_aware_) return false;
      const BudgetScope* scope = scope_for(k);
      if (scope == nullptr || !scope->has_deadline()) return false;
      uint64_t worst_us = 0;
      for (size_t s : constraints_[need_full[k]].remote_sites) {
        worst_us = std::max(worst_us, site_.site_latency_ewma_us(s));
      }
      if (worst_us == 0) return false;  // no observation yet: try the trip
      return worst_us / 1000 >= scope->remaining_ms();
    };
    // One tier-3 evaluation into slot k. `claim` takes the breaker claims
    // first (the sequential path, which has just gated on
    // SitesWouldAllow).
    auto evaluate = [&](size_t k, bool claim) {
      const Registered& reg = constraints_[need_full[k]];
      if (latency_projects_over(k)) {
        lat_shed[k] = 1;
        eval_status[k] = Status::ResourceExhausted(
            "projected trip latency exceeds remaining deadline");
        return;
      }
      if (claim) ClaimSites(reg.remote_sites);
      Result<bool> bad =
          EvaluateRemote(reg.program, site_.db(), reg.remote_sites,
                         &eval_retries[k], scope_for(k), reg.name);
      if (!bad.ok()) {
        eval_status[k] = bad.status();
      } else {
        eval_bad[k] = *bad ? 1 : 0;
      }
    };
    if (parallel_t3 || Relation::ColumnarEnabled()) {
      // The tentative apply dirtied u.pred; re-freeze so tier 3 reads
      // built indexes (and, columnar on, fresh segments).
      site_.db().FreezeIndexes();
    }
    if (parallel_t3) {
      CCPI_RETURN_IF_ERROR(
          pool_->ParallelFor(need_full.size(), [&](size_t k) -> Status {
            evaluate(k, /*claim=*/false);
            return Status::OK();
          }));
    }
    for (size_t k = 0; k < need_full.size(); ++k) {
      size_t idx = need_full[k];
      CheckReport& report = reports[idx];
      const Registered& reg = constraints_[idx];
      if (!parallel_t3) {
        if (!SitesWouldAllow(reg.remote_sites)) {
          // Circuit open: a site this check needs is known-dead; fail
          // fast. Checks whose sites are all healthy still run — tier-3
          // degradation is partial, per fault domain.
          report.outcome = Outcome::kDeferred;
          report.reason = StatusCode::kUnavailable;
          ctr_deferred_->Add(1);
          ctr_fast_fails_->Add(1);
          any_deferred = true;
          continue;
        }
        evaluate(k, /*claim=*/true);
      }
      report.retries = eval_retries[k];
      if (!eval_status[k].ok()) {
        if (eval_status[k].code() == StatusCode::kResourceExhausted) {
          // Shed: the envelope was spent before a verdict. The optimistic
          // apply stands and the check joins the deferred queue like an
          // unreachable-site deferral, but is counted separately — the
          // site is fine, the budget is not.
          report.outcome = Outcome::kDeferred;
          report.reason = StatusCode::kResourceExhausted;
          ctr_shed_->Add(1);
          if (lat_shed[k] != 0) ctr_latency_shed_->Add(1);
          any_deferred = true;
          continue;
        }
        if (!IsRetriable(eval_status[k].code())) return eval_status[k];
        // Unreachable after retries: degrade, don't error out.
        report.outcome = Outcome::kDeferred;
        report.reason = eval_status[k].code();
        ctr_deferred_->Add(1);
        any_deferred = true;
        continue;
      }
      report.outcome =
          eval_bad[k] != 0 ? Outcome::kViolated : Outcome::kHolds;
      ctr_resolved_[TierIndex(Tier::kFullCheck)]->Add(1);
      violated = violated || eval_bad[k] != 0;
    }
    if (violated) {
      // Roll back: a definite violation wins over any deferral.
      CCPI_RETURN_IF_ERROR(InverseOf(u).ApplyTo(&site_.db()));
      LogCommitWrite(u.pred);
    } else if (any_deferred) {
      if (config_.resilience.on_unreachable ==
          DeferredPolicy::kOptimisticApply) {
        // Keep the optimistic apply; queue each undecided constraint for
        // re-verification once the remote site answers — unless the queue
        // cap says the backlog of unverified work is already at its bound.
        size_t fresh = 0;
        for (const CheckReport& r : reports) {
          fresh += r.outcome == Outcome::kDeferred ? 1 : 0;
        }
        size_t cap = config_.budget.deferred_queue_cap;
        bool over = cap != 0 && deferred_.size() + fresh > cap;
        if (over && config_.budget.overflow == OverflowPolicy::kBlockRecheck &&
            AnySiteReachable()) {
          // Block: one synchronous drain pass to make room, then re-check
          // occupancy; falls back to refusal below if it freed nothing.
          Result<std::vector<DeferredResolution>> drained =
              RecheckDeferredImpl(episode);
          if (!drained.ok()) return drained.status();
          over = deferred_.size() + fresh > cap;
        }
        if (over && config_.budget.overflow != OverflowPolicy::kShedOldest) {
          // The queue bounds the optimistic, still-unverified state this
          // site carries; refuse to exceed it (kRejectUpdate, or a
          // kBlockRecheck drain that could not make room).
          CCPI_RETURN_IF_ERROR(InverseOf(u).ApplyTo(&site_.db()));
          LogCommitWrite(u.pred);
          ctr_budget_exhausted_->Add(1);
          for (CheckReport& r : reports) {
            if (r.outcome == Outcome::kDeferred) r.queue_overflow = true;
          }
          overflow_refused = true;
        } else {
          for (const CheckReport& r : reports) {
            if (r.outcome == Outcome::kDeferred) {
              deferred_.push_back(DeferredCheck{u, r.constraint, sequence});
            }
          }
          // Shed-oldest: admit the fresh entries and drop from the front.
          // A dropped entry's optimistic apply stays standing, permanently
          // unverified — availability bought with bounded, oldest-first
          // verification debt.
          while (cap != 0 && deferred_.size() > cap) {
            deferred_.pop_front();
            ctr_deferred_dropped_->Add(1);
          }
          ++deferred_epoch_;
        }
      } else {
        // Conservative policy: refuse updates we cannot fully verify.
        CCPI_RETURN_IF_ERROR(InverseOf(u).ApplyTo(&site_.db()));
        LogCommitWrite(u.pred);
      }
    }
  } else if (!violated && !noop) {
    CCPI_RETURN_IF_ERROR(u.ApplyTo(&site_.db()));
    LogCommitWrite(u.pred);
  }

  bool kept =
      !noop && !violated && !overflow_refused &&
      !(any_deferred &&
        config_.resilience.on_unreachable == DeferredPolicy::kReject);
  if (kept) {
    // An applied update supersedes any queued re-check of its exact
    // inverse: that check's effect no longer exists, so there is nothing
    // left to verify or roll back (and tier 2 never trusted it).
    for (auto it = deferred_.begin(); it != deferred_.end();) {
      bool moot = it->sequence != sequence && it->update.pred == u.pred &&
                  it->update.tuple == u.tuple && it->update.kind != u.kind;
      if (moot) {
        it = deferred_.erase(it);
        ++deferred_epoch_;
      } else {
        ++it;
      }
    }
  }

  if (violated) ctr_violations_->Add(1);
  if (episode_scope.has_deadline()) {
    hist_budget_remaining_->Observe(episode_scope.remaining_ms());
  }
  DetectRecoveries();
  return reports;
}

void ConstraintManager::DetectRecoveries() {
  if (site_.sites() <= 1) return;
  for (size_t s = 0; s < breakers_.size(); ++s) {
    if (breakers_[s]->state() != CircuitState::kClosed) {
      site_was_dark_[s] = true;
      continue;
    }
    if (!site_was_dark_[s]) continue;
    // Outage→closed edge: the site is answering again. Deferred entries
    // naming it drain through the normal auto-recheck rotation; what must
    // happen here is cache reconciliation — entries poisoned by failed
    // reads during the outage are refetched so the first post-recovery
    // checks do not pay surprise misses (or trust nothing).
    site_was_dark_[s] = false;
    obs::Span span("manager.site_recovery", "manager");
    if (span.active()) span.Attr("site", static_cast<int64_t>(s));
    ctr_sites_recovered_->Add(1);
    ctr_site_recovered_[s]->Add(1);
    std::set<std::string> preds;
    for (const Registered& r : constraints_) {
      for (const std::string& pred : r.remote_edb) {
        if (site_.SiteOf(pred) == s) preds.insert(pred);
      }
    }
    size_t revalidated = site_.RecoverSiteCache(s, preds);
    if (revalidated > 0) ctr_cache_revalidated_->Add(revalidated);
    if (span.active()) {
      span.Attr("revalidated", static_cast<int64_t>(revalidated));
    }
  }
}

Result<std::vector<DeferredResolution>> ConstraintManager::RecheckDeferred() {
  // The queue is order-sensitive shared state; retire in-flight episodes
  // before draining it.
  DrainInflightInternal();
  Result<std::vector<DeferredResolution>> resolved = RecheckDeferredImpl(nullptr);
  // An explicit drain is also a recovery observation point: the caller is
  // typically polling after an outage, often with no further updates
  // flowing through ApplyUpdate.
  if (resolved.ok()) DetectRecoveries();
  return resolved;
}

Result<std::vector<DeferredResolution>>
ConstraintManager::RecheckDeferredImpl(const BudgetScope* episode) {
  std::vector<DeferredResolution> resolved;
  if (deferred_.empty()) return resolved;
  obs::Span span("manager.recheck_deferred", "manager");
  if (span.active()) {
    span.Attr("queued", static_cast<int64_t>(deferred_.size()));
  }

  // Re-verify each deferred update against the state it was checked in:
  // a scratch copy of the database with every still-pending optimistic
  // effect removed, then replayed in sequence order. Checking against the
  // raw current state instead would blame the oldest queued update for a
  // violation actually introduced by a younger one.
  Database scratch = site_.db();
  for (const DeferredCheck& entry : deferred_) {
    if (EffectPresent(entry.update, scratch)) {
      CCPI_RETURN_IF_ERROR(InverseOf(entry.update).ApplyTo(&scratch));
    }
  }

  // The evaluations below read `scratch`, not the live database, so cache
  // decisions must key off scratch's relation versions: a scratch relation
  // whose pending effects were just removed carries a fresh version and
  // correctly misses, while untouched relations still share the live
  // version and hit. Restored on every exit path.
  site_.set_cache_db(&scratch);
  struct CacheDbRestore {
    SiteDatabase* site;
    ~CacheDbRestore() { site->set_cache_db(nullptr); }
  } restore_cache_db{&site_};

  // Rotation drain: an entry whose site is still down — or whose re-check
  // budget was spent — is requeued at the back instead of pinning the
  // head, so one dead site never blocks entries for other, reachable
  // sites queued behind it. Each pass visits at most the entries present
  // when it started; draining stops once a full pass resolves nothing.
  //
  // The drain below reorders or resolves queue entries either way, so any
  // in-flight episode's speculation (which captured the queue at its
  // admission) is invalidated wholesale.
  if (!deferred_.empty() && AnySiteReachable()) ++deferred_epoch_;
  bool progress = true;
  while (progress && !deferred_.empty() && AnySiteReachable()) {
    progress = false;
    size_t pass = deferred_.size();
    for (size_t i = 0; i < pass && !deferred_.empty(); ++i) {
      if (!AnySiteReachable()) break;
      DeferredCheck entry = deferred_.front();
      const Registered* reg = nullptr;
      for (const Registered& r : constraints_) {
        if (r.name == entry.constraint) reg = &r;
      }
      if (reg == nullptr) {  // constraint no longer registered
        deferred_.pop_front();
        progress = true;
        continue;
      }
      // Replay this entry's update into the scratch pre-state before its
      // verdict is attempted — a skipped entry keeps its effect replayed,
      // so younger entries are still judged against the state their check
      // originally saw. (A no-op for a second constraint of the same
      // update, or for an update a late rollback already rejected;
      // EffectPresent keeps the replay idempotent across passes.)
      if (!EffectPresent(entry.update, scratch)) {
        CCPI_RETURN_IF_ERROR(entry.update.ApplyTo(&scratch));
      }
      // Each re-check runs under its own envelope: the per-check budget,
      // tightened by the enclosing episode's scope when the drain happens
      // inside a budgeted ApplyUpdate. Routed through the site too, so
      // the re-check's remote trips honor the trip cap and deadline.
      BudgetScope recheck_scope;
      if (episode != nullptr) {
        recheck_scope = episode->Split(1, config_.budget.per_check);
      } else if (budget_armed_) {
        recheck_scope =
            BudgetScope::Start(config_.budget.per_check, config_.budget.cancel);
      }
      // A named site still dark: requeue without evaluating (and without
      // touching `progress`, so a queue of only-dark entries terminates
      // the pass). With one site this is unreachable — AnySiteReachable()
      // above is the same predicate.
      if (!SitesWouldAllow(reg->remote_sites)) {
        deferred_.pop_front();
        deferred_.push_back(std::move(entry));
        continue;
      }
      ClaimSites(reg->remote_sites);
      const BudgetScope* scope =
          recheck_scope.active() ? &recheck_scope : nullptr;
      std::vector<const BudgetScope*> prev_budgets(site_.sites());
      if (scope != nullptr) {
        for (size_t s = 0; s < site_.sites(); ++s) {
          prev_budgets[s] = site_.site_budget(s);
        }
        site_.set_budget(scope);
      }
      size_t recheck_retries = 0;
      Result<bool> bad = EvaluateRemote(reg->program, scratch,
                                        reg->remote_sites, &recheck_retries,
                                        scope, reg->name);
      if (scope != nullptr) {
        for (size_t s = 0; s < site_.sites(); ++s) {
          site_.set_site_budget(s, prev_budgets[s]);
        }
      }
      if (!bad.ok()) {
        StatusCode code = bad.status().code();
        if (IsRetriable(code) || code == StatusCode::kResourceExhausted) {
          // Skip and requeue; the next entry may be reachable.
          deferred_.pop_front();
          deferred_.push_back(std::move(entry));
          continue;
        }
        return bad.status();
      }
      DeferredResolution res;
      res.check = entry;
      res.retries = recheck_retries;
      deferred_.pop_front();
      progress = true;
      if (*bad) {
        // Late-detected violation: compensate by undoing the optimistic
        // apply — in the replay state and, unless a later update already
        // removed its effect, in the real database.
        res.outcome = Outcome::kViolated;
        ctr_deferred_violations_->Add(1);
        ctr_violations_->Add(1);
        CCPI_RETURN_IF_ERROR(InverseOf(res.check.update).ApplyTo(&scratch));
        if (EffectPresent(res.check.update, site_.db())) {
          CCPI_RETURN_IF_ERROR(
              InverseOf(res.check.update).ApplyTo(&site_.db()));
          LogCommitWrite(res.check.update.pred);
          res.rolled_back = true;
        }
      } else {
        res.outcome = Outcome::kHolds;
        ctr_deferred_recovered_->Add(1);
      }
      resolved.push_back(std::move(res));
    }
  }
  gauge_deferred_len_->Set(static_cast<int64_t>(deferred_.size()));
  return resolved;
}

Result<ConstraintManager::TransactionResult> ConstraintManager::ApplyTransaction(
    const std::vector<Update>& updates) {
  // Transactions are serial by definition; retire in-flight episodes so
  // first_sequence below really is the first sequence this call draws.
  DrainInflightInternal();
  TransactionResult result;
  uint64_t first_sequence = update_sequence_;
  // Remember which updates actually change state, for exact rollback.
  std::vector<Update> applied;
  for (const Update& u : updates) {
    bool noop = EffectPresent(u, site_.db());
    CCPI_ASSIGN_OR_RETURN(std::vector<CheckReport> reports, ApplyUpdate(u));
    bool refused = UpdateRefused(reports);
    result.reports.push_back(std::move(reports));
    if (refused) {
      // ApplyUpdate already refused this update; undo the earlier ones in
      // reverse order and drop any re-check entries this transaction
      // enqueued (their updates no longer exist).
      for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
        CCPI_RETURN_IF_ERROR(InverseOf(*it).ApplyTo(&site_.db()));
        LogCommitWrite(it->pred);
      }
      for (auto it = deferred_.begin(); it != deferred_.end();) {
        if (it->sequence >= first_sequence) {
          it = deferred_.erase(it);
          ++deferred_epoch_;
        } else {
          ++it;
        }
      }
      result.committed = false;
      return result;
    }
    if (!noop) applied.push_back(u);
  }
  result.committed = true;
  return result;
}

// ---------------------------------------------------------------------------
// Episode scheduler: ApplyUpdateAsync admissions, speculative phase 1, and
// the serialized commit map. All scheduler state is owned by the admitting
// thread; speculation tasks touch only their own Episode (plus internally
// thread-safe shared components) and publish through the done/cv handshake.

void ConstraintManager::ApplyUpdateAsync(const Update& u) {
  // Budget-armed managers never pipeline: wall-clock deadlines are
  // admission-order sensitive, so speculation could change which checks a
  // deadline sheds.
  const size_t depth = budget_armed_ ? 1 : config_.pipeline.depth;
  if (depth <= 1) {
    // Degenerate pipeline: exactly ApplyUpdate, result parked for Drain.
    pending_results_.push_back(RunEpisode(u, nullptr));
    return;
  }
  // Full pipeline: retire the oldest episode through the commit map to
  // make room before admitting.
  while (inflight_.size() >= depth) CommitHeadToPending();

  auto e = std::make_unique<Episode>();
  e->update = u;
  // Numbered at admission: admission order == commit order == the serial
  // order, so sequences match depth-1 execution exactly.
  e->sequence = update_sequence_++;
  e->deferred_epoch = deferred_epoch_;
  e->write_mark = commit_writes_.size();
  ctr_pipe_admitted_->Add(1);
  if (serial_fallback_remaining_ > 0) {
    // Serial fallback window after sustained conflicts: admit without
    // speculating; the commit turn runs the episode cold.
    --serial_fallback_remaining_;
    e->speculated = false;
    e->done = true;
  } else {
    e->speculated = true;
    // The MVCC admission snapshot: a copy-on-write Database copy —
    // O(#relations) shared_ptr bumps, no tuple copying.
    e->snapshot = site_.db();
    e->deferred_snapshot = deferred_;
  }
  Episode* raw = e.get();
  inflight_.push_back(std::move(e));
  gauge_pipe_in_flight_->Set(static_cast<int64_t>(inflight_.size()));
  if (raw->speculated) SpeculateEpisode(raw);
}

std::vector<Result<std::vector<CheckReport>>> ConstraintManager::Drain() {
  DrainInflightInternal();
  std::vector<Result<std::vector<CheckReport>>> out;
  out.swap(pending_results_);
  return out;
}

void ConstraintManager::SpeculateEpisode(Episode* e) {
  pool_->Submit([this, e]() {
    try {
      SpeculatePhase1(e);
    } catch (...) {
      // Never expected (the checking code reports through Status); a
      // stray exception just downgrades the episode to a cold run.
      e->speculated = false;
    }
    // Notify under the lock: once `done` is visible the committer may
    // retire and destroy the episode, cv included, so the notify must
    // finish before the committer can reacquire the mutex.
    std::lock_guard<std::mutex> lock(e->mu);
    e->done = true;
    e->cv.notify_all();
  });
}

void ConstraintManager::SpeculatePhase1(Episode* e) {
  const Update& u = e->update;
  BufferingObserver buffer;
  const CheckContext ctx{&e->snapshot, &buffer, &e->deferred_snapshot};
  e->noop = EffectPresent(u, e->snapshot);

  // Phase 1 against the snapshot, sequentially on this worker: the
  // parallelism of the pipeline is across episodes, not within one.
  bool all_ok = CheckAllLocally(u, e->noop, ctx, /*fan_out=*/false,
                                &e->reports, &e->check_status)
                    .ok();
  bool violated = false;
  for (size_t i = 0; i < constraints_.size(); ++i) {
    all_ok = all_ok && e->check_status[i].ok();
    violated = violated || e->reports[i].outcome == Outcome::kViolated;
  }

  // The validation read set. Tier 1 is db-free and tier 2 reads only the
  // updated local relation, so in practice this is {u.pred}; recording
  // the buffered reads keeps it correct by construction either way.
  e->read_preds.insert(u.pred);
  for (const auto& [pred, count] : buffer.reads) e->read_preds.insert(pred);
  e->buffered_reads = std::move(buffer.reads);

  // Staged remote prefetch: pay the tier-3 worklist's simulated round
  // trips NOW, on this worker, where they overlap other episodes' stages —
  // the latency-hiding that makes the pipeline beat depth 1 in wall-clock.
  // Only where the serial path would itself prefetch (cache on, no
  // injector, the relation's site breaker closed) and never under budgets
  // (budget-armed managers do not pipeline at all). The updated relation
  // itself is skipped: the commit-time tentative apply re-stamps its
  // version, so a staged trip for it could never cover the commit batch.
  if (all_ok && !violated && !e->noop && site_.remote_cache_enabled() &&
      !site_.any_fault_injector()) {
    std::vector<size_t> need_full;
    for (size_t i = 0; i < constraints_.size(); ++i) {
      if (!constraints_[i].subsumed && e->check_status[i].ok() &&
          e->reports[i].tier == Tier::kFullCheck) {
        need_full.push_back(i);
      }
    }
    std::set<std::string> preds = PrefetchPreds(need_full);
    preds.erase(u.pred);
    e->staged = site_.StageRemoteTrips(preds, e->snapshot);
  }
}

void ConstraintManager::CommitHeadToPending() {
  if (inflight_.empty()) return;
  Episode* e = inflight_.front().get();
  {
    // Wait for the speculation to publish (immediate for unspeculated
    // admissions). The wait is the pipeline's only synchronization point.
    obs::Stopwatch sw;
    std::unique_lock<std::mutex> lock(e->mu);
    e->cv.wait(lock, [e]() { return e->done; });
    sw.RecordTo(hist_pipe_commit_wait_);
  }
  pending_results_.push_back(RunEpisode(e->update, e));
  inflight_.pop_front();
  // The write log only exists to validate in-flight speculation; with
  // nothing in flight it restarts empty (and write marks restart at 0).
  if (inflight_.empty()) commit_writes_.clear();
  gauge_pipe_in_flight_->Set(static_cast<int64_t>(inflight_.size()));
}

void ConstraintManager::DrainInflightInternal() {
  while (!inflight_.empty()) CommitHeadToPending();
}

void ConstraintManager::AbandonInflight() {
  // Destructor path: wait for speculation tasks (they touch this
  // manager's members) but commit nothing — uncommitted episodes are
  // discarded, never applied.
  for (std::unique_ptr<Episode>& ep : inflight_) {
    std::unique_lock<std::mutex> lock(ep->mu);
    ep->cv.wait(lock, [&ep]() { return ep->done; });
  }
  inflight_.clear();
  commit_writes_.clear();
}

bool ConstraintManager::SpecStillValid(const Episode& e) const {
  // The queue changed shape since admission: tier 2's verified-data
  // adjustment and the moot-erase pass saw a queue that no longer exists.
  if (e.deferred_epoch != deferred_epoch_) return false;
  // Read-write conflict: an intervening commit wrote a relation this
  // episode's phase 1 read.
  for (size_t i = e.write_mark; i < commit_writes_.size(); ++i) {
    if (e.read_preds.count(commit_writes_[i]) > 0) return false;
  }
  return true;
}

void ConstraintManager::LogCommitWrite(const std::string& pred) {
  if (!inflight_.empty()) commit_writes_.push_back(pred);
}

}  // namespace ccpi
