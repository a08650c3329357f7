#ifndef CCPI_MANAGER_CONSTRAINT_MANAGER_H_
#define CCPI_MANAGER_CONSTRAINT_MANAGER_H_

#include <array>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "distsim/site_db.h"
#include "obs/metrics.h"
#include "plan/plan_cache.h"
#include "plan/update_signature.h"
#include "updates/update.h"
#include "util/budget.h"
#include "util/circuit_breaker.h"
#include "util/outcome.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ccpi {

/// Which level of the paper's information hierarchy settled a constraint
/// for one update.
enum class Tier {
  kSubsumed,      // level 0: dropped at registration, never checked
  kUnaffected,    // level 1 prefilter: constraint does not mention the pred
  kIndependence,  // level 1: constraints + update (Section 4)
  kLocalTest,     // level 2: constraints + update + local data (Sections 5-6)
  kFullCheck,     // level 3: full evaluation, remote data included
};

const char* TierToString(Tier tier);

/// Every tier, in ladder order.
inline constexpr Tier kAllTiers[] = {Tier::kSubsumed, Tier::kUnaffected,
                                     Tier::kIndependence, Tier::kLocalTest,
                                     Tier::kFullCheck};

/// What the manager does with an update whose tier-3 check could not reach
/// the remote site.
enum class DeferredPolicy {
  /// Apply the update now and enqueue the undecided checks for automatic
  /// re-verification once the remote site answers again; a late violation
  /// is compensated by rolling the update back. Sound because tiers 0-2
  /// are *complete* where they apply: anything that reaches tier 3 was
  /// already not refutable from local information alone.
  kOptimisticApply,
  /// Refuse the update (database unchanged). Conservative: availability of
  /// writes degrades with the remote link, but the database never holds
  /// unverified data.
  kReject,
};

/// Knobs of the fault-tolerant remote-access path (tier 3).
struct ResilienceConfig {
  RetryPolicy retry;
  CircuitBreakerConfig breaker;
  DeferredPolicy on_unreachable = DeferredPolicy::kOptimisticApply;
  /// Seed of the jitter stream of the retry policy.
  uint64_t retry_seed = 0x5eed;
  /// Drain the deferred-recheck queue automatically at the start of each
  /// ApplyUpdate once the circuit allows remote traffic again.
  bool auto_recheck = true;
};

/// The remote-read snapshot cache (see docs/remote_cache.md). On by
/// default: the cache is semantically invisible — reports, verdicts, and
/// the deferred queue are identical with it off — and only the access
/// accounting (fewer trips, cached_tuples instead of remote_tuples)
/// changes. `ccpi_check --remote-cache=off` and benchmarks use the switch
/// to measure the uncached baseline.
struct RemoteCacheConfig {
  bool enabled = true;
  /// Hedged prefetch reads (`ccpi_check --hedge-after=N`): when a
  /// per-site prefetch trip's drawn latency exceeds `hedge_after` times that
  /// site's observed latency EWMA, the simulator issues one deterministic
  /// backup attempt and takes the faster of the two, billing exactly one
  /// extra remote trip per issued hedge (see docs/distsim.md "Hedged
  /// reads"). 0 (the default) disables hedging: no extra trips, and the
  /// `manager.hedge.*` counters stay 0. Hedging engages at any site count,
  /// but only on sites with a non-fixed latency model.
  uint64_t hedge_after = 0;
};

/// The pipelined episode scheduler (see docs/concurrency.md). With depth
/// D > 1, ApplyUpdateAsync admits up to D update episodes at once: each
/// admission takes an immutable MVCC snapshot of the database (a cheap
/// copy-on-write Database copy) and speculates the episode's read-only
/// phases — the tier-0/1 signature checks, the tier-2 local tests, and
/// the remote prefetch — on the thread pool against that snapshot, while
/// commits retire strictly in admission order through a serialized commit
/// map. A commit first validates its speculation against the writes of
/// intervening commits (read-set vs write-log) and re-runs the episode's
/// phase 1 inline on the live database when conflicted; because commits
/// are serialized, that single retry can never be invalidated again.
/// Sustained conflicts trip a serial fallback: admission stops speculating
/// for a window of episodes, then probes again. Reports, ManagerStats,
/// the deferred queue, breaker admissions, and fault-schedule draws are
/// byte-identical to depth-1 execution per seed at any depth and thread
/// count — everything order-sensitive (tier 3, breakers, injector draws,
/// budgets, the deferred queue) stays in the serialized commit phase.
struct PipelineConfig {
  /// Maximum episodes in flight; 1 (the default) disables pipelining and
  /// is byte-for-byte the pre-pipeline manager. Budget-armed managers
  /// always run at depth 1: wall-clock deadlines are admission-order
  /// sensitive, so speculation is never attempted under budgets.
  size_t depth = 1;
  /// Consecutive conflicted commits that trip the serial fallback
  /// (admission stops speculating for `depth` episodes, then probes
  /// speculation again).
  size_t max_conflict_streak = 4;
};

/// What to do when a new deferred re-check would push the queue past
/// BudgetConfig::deferred_queue_cap.
enum class OverflowPolicy {
  /// Refuse the whole update (the tentative apply is rolled back), exactly
  /// as DeferredPolicy::kReject would: no unverified work is admitted once
  /// the backlog is full. The refused update's deferred reports carry
  /// CheckReport::queue_overflow.
  kRejectUpdate,
  /// Drop the oldest queued entries to make room. The dropped entries'
  /// optimistic applies stay standing *unverified* — availability is
  /// preserved at the price of bounded, oldest-first verification debt
  /// (counted in manager.deferred.dropped / ManagerStats::deferred_dropped).
  kShedOldest,
  /// Try one synchronous RecheckDeferred pass to make room; if the queue is
  /// still full afterwards (site still down, or the drain's own budget
  /// spent), fall back to refusing the update like kRejectUpdate.
  kBlockRecheck,
};

/// Resource governance of the checking pipeline (see docs/budgets.md).
/// Default-constructed, everything is off and the manager behaves exactly
/// as before budgets existed — the hot path pays one branch on a null
/// scope, no clock reads, no allocations.
struct BudgetConfig {
  /// Envelope over one whole ApplyUpdate episode: the deadline is measured
  /// from the call's entry, the caps are split evenly across the tier-3
  /// worklist before the fan-out (each of N checks gets max(cap/N, 1), a
  /// deterministic function of the worklist — never of sibling progress —
  /// so reports stay byte-identical at any thread count). A nonzero
  /// max_remote_trips forces the tier-3 fan-out sequential: the trip
  /// counter is shared, so which lane's trip hits the cap would otherwise
  /// depend on arrival order.
  ExecutionBudget per_episode;
  /// Envelope over each single tier-3 evaluation (and each deferred
  /// re-check), folded into the per-episode slice; tightest limit wins.
  ExecutionBudget per_check;
  /// Optional cooperative cancellation honored at every budget checkpoint.
  /// Not owned; must outlive the manager's episodes.
  const CancellationToken* cancel = nullptr;
  /// Bound on the deferred re-check queue (0 = unbounded, the pre-budget
  /// behavior).
  size_t deferred_queue_cap = 0;
  /// Applied when an enqueue would exceed deferred_queue_cap.
  OverflowPolicy overflow = OverflowPolicy::kRejectUpdate;

  bool armed() const {
    return per_episode.armed() || per_check.armed() || cancel != nullptr;
  }
};

/// Everything a ConstraintManager is built with besides its local
/// predicates and cost model. Default-constructed, it is the plain
/// sequential checker: one lane, both caches on, no budgets, one remote
/// site, no pipelining. Build one with designated initializers; the
/// `= {}` defaults let them skip any field without a GCC
/// -Wmissing-field-initializers warning.
struct ManagerConfig {
  ResilienceConfig resilience = {};
  /// Total checker lanes of ApplyUpdate's per-constraint fan-out, counting
  /// the calling thread; 0 and 1 both mean sequential (no worker threads).
  /// Each check is a pure function of (constraint, update, frozen
  /// database), so reports are identical at any count: tier 3 fans out
  /// only with no fault injector attached and every breaker plainly
  /// closed, the two cases where remote verdicts would depend on arrival
  /// order (see docs/concurrency.md).
  size_t threads = 1;
  RemoteCacheConfig remote_cache = {};
  /// The compiled local-test plan cache (see docs/plan_cache.md). Like the
  /// remote cache it is semantically invisible: reports, ManagerStats and
  /// the deferred queue are byte-identical on or off at any thread count;
  /// it only removes repeated per-update analysis work by keying it on the
  /// update's pattern. Off builds a never-store PlanCache: the tiers run
  /// the same code and compile everything on every check.
  bool plan_cache = true;
  BudgetConfig budget = {};
  TopologyConfig topology = {};
  PipelineConfig pipeline = {};
};

/// Aggregate statistics across updates. This is a *snapshot view*: the
/// manager's source of truth is its obs::MetricsRegistry (see metrics()),
/// and stats() materializes one of these from the registry's counters on
/// each call.
struct ManagerStats {
  std::map<Tier, size_t> resolved_by;
  size_t violations = 0;
  /// Tier-3 evaluation attempts actually issued (including retries).
  size_t remote_attempts = 0;
  /// Attempts beyond the first of their episode.
  size_t remote_retries = 0;
  /// Episodes that exhausted the retry policy without an answer.
  size_t remote_failures = 0;
  /// Checks resolved as kDeferred because the remote site was unreachable.
  size_t deferred = 0;
  /// Deferred checks skipped without a remote attempt (circuit open).
  size_t breaker_fast_fails = 0;
  /// Deferred checks later re-verified as holding.
  size_t deferred_recovered = 0;
  /// Deferred checks later found violated (the optimistic apply was
  /// compensated by rollback). Counted in `violations` too.
  size_t deferred_violations = 0;
  /// Tier-3 checks admitted to the resolution loop. Accounting invariant
  /// (absent hard errors): t3_admitted == resolved_by[kFullCheck] +
  /// deferred + shed_checks.
  size_t t3_admitted = 0;
  /// Tier-3 checks shed with kResourceExhausted (execution budget spent) —
  /// disjoint from `deferred`, which counts unreachable-site deferrals.
  size_t shed_checks = 0;
  /// Budget-exhaustion events observed anywhere in the pipeline (fan-out
  /// sheds, exhausted deferred re-checks, queue-overflow refusals).
  size_t budget_exhausted = 0;
  /// Queue entries dropped by OverflowPolicy::kShedOldest.
  size_t deferred_dropped = 0;
  /// Catch-up recoveries observed: a site's breaker re-closing after an
  /// outage (multi-site topologies only; a 1-site manager never counts
  /// these).
  size_t sites_recovered = 0;
  /// Cache entries revalidated by recovery reconciliation passes.
  size_t cache_revalidated = 0;
  /// Hedged batched reads issued / won / wasted (hedging on only; each
  /// issued hedge billed one extra remote trip, and issued == won +
  /// wasted always holds).
  size_t hedges_issued = 0;
  size_t hedges_won = 0;
  size_t hedges_wasted = 0;
  /// Tier-3 checks shed because a member site's latency EWMA said the
  /// trip could not finish inside the episode's remaining deadline — the
  /// refuse-before-pay rule extended to latency: the trip is never paid.
  /// A subset of shed_checks (the t3 accounting invariant is unchanged).
  size_t latency_shed = 0;
  AccessStats access;
};

/// The per-constraint verdict for one update.
struct CheckReport {
  std::string constraint;
  Outcome outcome = Outcome::kUnknown;
  Tier tier = Tier::kFullCheck;
  /// Remote attempts beyond the first consumed by this check (tier 3).
  size_t retries = 0;
  /// Why a kDeferred outcome was deferred: kUnavailable/kDeadlineExceeded
  /// when the remote site was unreachable, kResourceExhausted when the
  /// execution budget shed the check. kOk for any other outcome.
  StatusCode reason = StatusCode::kOk;
  /// Set on the deferred reports of an update that was refused because the
  /// deferred queue was full (OverflowPolicy::kRejectUpdate, or
  /// kBlockRecheck whose drain could not make room).
  bool queue_overflow = false;
};

/// One enqueued re-verification: `constraint` must be re-checked because
/// the remote site was unreachable when `update` was (optimistically)
/// applied.
struct DeferredCheck {
  Update update;
  std::string constraint;
  /// Position in the update stream, for reports.
  uint64_t sequence = 0;
};

/// How one deferred check was eventually resolved.
struct DeferredResolution {
  DeferredCheck check;
  Outcome outcome = Outcome::kUnknown;  // kHolds or kViolated
  /// Whether the late-detected violation was compensated by rolling the
  /// update back (false when a later update already removed its effect).
  bool rolled_back = false;
  /// Remote attempts beyond the first consumed by the resolving
  /// re-evaluation — the recheck counterpart of CheckReport::retries, so
  /// every counted retry surfaces in exactly one per-episode record.
  size_t retries = 0;
};

/// Integrity-constraint manager implementing the paper's tiered checking
/// discipline (Section 2, "Limits on Available Information"):
///
///   T0 at registration: constraints subsumed by the rest are dropped
///      (Theorem 3.1) — they can never be the first to break.
///   T1 per update: query-independence using only the constraint and the
///      update (Section 4). Free of any data access.
///   T2 per update: the complete local test using local data only
///      (Theorem 5.2; the Fig 6.1 interval programs and the Theorem 5.3 RA
///      tests are used through the same entry point when they apply).
///      Charged at local-access prices.
///   T3 fallback: full evaluation of the rewritten state, touching remote
///      relations at remote prices. The only tier that can answer
///      "violated" for constraints over remote data.
///
/// Updates are checked BEFORE being applied; a violated update is rejected
/// (the database is left unchanged) and reported.
///
/// Tier 3 is the only tier that depends on the remote site, and the remote
/// site may be down (attach a FaultInjector to site() to simulate that).
/// The manager degrades gracefully: T3 evaluations run under a retry
/// policy with exponential backoff, a circuit breaker fails fast while the
/// site is known-dead, and checks that remain unanswerable resolve as
/// Outcome::kDeferred — the update is optimistically applied (or rejected,
/// per DeferredPolicy) and enqueued for automatic re-verification when the
/// circuit closes, with rollback compensation if the late check finds a
/// violation.
class ConstraintManager {
 public:
  // Defined in the .cc: the body (and unwind paths) needs the complete
  // Episode type behind inflight_.
  ConstraintManager(std::set<std::string> local_preds, CostModel cost_model,
                    ManagerConfig config = {});

  /// Drains any in-flight pipelined episodes (uncommitted speculation is
  /// discarded, never applied) before tearing down the thread pool.
  ~ConstraintManager();

  /// Registers a constraint. If the already-registered constraints subsume
  /// it, it is recorded as redundant (never checked) and `subsumed` is set
  /// in the returned flag. A name that is already registered is an
  /// InvalidArgument error.
  ///
  /// Drain-first precondition: must not be called with episodes in flight
  /// (registration changes the active set every speculation quantifies
  /// over). The manager drains the pipeline itself on entry, so callers
  /// mixing ApplyUpdateAsync with AddConstraint observe the registration
  /// strictly after every admitted episode.
  Result<bool> AddConstraint(const std::string& name, Program constraint);

  SiteDatabase& site() { return site_; }
  const SiteDatabase& site() const { return site_; }

  /// Checks all active constraints against `u`, applies it if no
  /// violation was found, and reports the verdict per constraint. A report
  /// with outcome kDeferred means the remote site could not be reached;
  /// whether the update was applied is governed by the DeferredPolicy.
  ///
  /// Drains any in-flight pipelined episodes first, so the synchronous and
  /// asynchronous entry points interleave safely (the serial order is
  /// admission order either way).
  Result<std::vector<CheckReport>> ApplyUpdate(const Update& u);

  /// Admits `u` into the episode pipeline. With PipelineConfig::depth 1
  /// (or a budget-armed manager) this is ApplyUpdate with the result
  /// parked for Drain(). With depth D > 1, up to D episodes are in flight
  /// at once: admission snapshots the database and speculates the
  /// episode's read-only phases on the thread pool, and when the pipeline
  /// is full the oldest episode is retired through the serialized commit
  /// map (validating its speculation against intervening writes) to make
  /// room. Results are produced in admission order and collected by
  /// Drain(). See PipelineConfig for the equivalence guarantee.
  void ApplyUpdateAsync(const Update& u);

  /// Retires every in-flight episode in admission order and returns the
  /// accumulated per-update results (one entry per ApplyUpdateAsync call
  /// since the last Drain, in admission order). Idempotent; an empty
  /// pipeline yields an empty vector.
  std::vector<Result<std::vector<CheckReport>>> Drain();

  /// Zeroes every counter behind stats() (histograms/gauges and the
  /// site's cumulative AccessStats cost are untouched). Drains the
  /// pipeline first: resetting mid-episode would split one episode's
  /// counts across the boundary.
  void ResetStats();

  /// The outcome of an atomic multi-update transaction.
  struct TransactionResult {
    /// Per-update reports, in order, up to and including the first
    /// rejected update (later updates are not checked).
    std::vector<std::vector<CheckReport>> reports;
    bool committed = false;
  };

  /// Applies a sequence of updates atomically: each is checked in order
  /// against the constraints; if any would cause a violation (or is
  /// refused by DeferredPolicy::kReject during an outage), every
  /// previously applied update of the sequence is rolled back and the
  /// database is left exactly as before the call. Drains any in-flight
  /// pipelined episodes first (transactions are serial by definition).
  Result<TransactionResult> ApplyTransaction(const std::vector<Update>& updates);

  /// Attempts to re-verify every queued deferred check by full evaluation
  /// against the current database. An entry whose remote reads still fail
  /// (or whose re-check budget is exhausted) is skipped and re-queued at
  /// the back, so one dead site never pins entries for other, reachable
  /// sites behind it; draining makes bounded passes over the queue until a
  /// pass resolves nothing. Returns the entries decided by this call; late
  /// violations are compensated by rolling the offending update back.
  /// Drains any in-flight pipelined episodes first (the queue is
  /// order-sensitive shared state).
  Result<std::vector<DeferredResolution>> RecheckDeferred();

  /// Pending re-verifications, oldest first.
  const std::deque<DeferredCheck>& deferred_queue() const {
    return deferred_;
  }

  /// Site 0's breaker — the whole remote side of a 1-site topology, which
  /// keeps the pre-topology call sites working unchanged.
  const CircuitBreaker& breaker() const { return *breakers_[0]; }
  /// Per-site breakers of an N-site topology.
  const CircuitBreaker& site_breaker(size_t site) const {
    return *breakers_[site];
  }
  /// Number of remote sites (>= 1).
  size_t sites() const { return site_.sites(); }

  /// Episodes currently admitted but not yet retired.
  size_t in_flight() const { return inflight_.size(); }
  /// Checker lanes actually available (>= 1; the caller is one).
  size_t check_threads() const { return pool_->thread_count(); }

  /// Snapshot of the aggregate statistics, materialized from the metrics
  /// registry (plus the site's AccessStats). `resolved_by` carries only
  /// tiers that resolved at least one check.
  ManagerStats stats() const;

  /// The manager's own metrics registry — every counter behind stats(),
  /// plus the latency histograms and the distsim/eval/ra counters of the
  /// components this manager drives. See docs/observability.md for the
  /// catalog.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Advances the failure-detector clocks (every site's) without applying
  /// an update (they normally tick once per ApplyUpdate). Lets an idle
  /// caller wait out an open circuit's cooldown before draining the
  /// deferred queue.
  void TickBreaker(uint64_t steps = 1) {
    for (auto& b : breakers_) b->Tick(steps);
  }

 private:
  struct Registered {
    std::string name;
    Program program;
    bool subsumed = false;
    /// The remote base relations a tier-3 evaluation of this constraint
    /// may read, computed once at registration — the episode prefetch
    /// unions these over the tier-3 worklist.
    std::set<std::string> remote_edb;
    /// The sites those relations live at. In a 1-site topology this is
    /// always {0} — even for a constraint with no remote relations — so
    /// the breaker gating below that set drives is literally the
    /// pre-topology single-breaker behavior. With N sites it is the true
    /// placement footprint, and a constraint touching no dark site checks
    /// normally while the rest of the topology burns (partial
    /// degradation).
    std::set<size_t> remote_sites;
  };

  /// Returns (compiling and storing in plans_ on first use) the tier-2
  /// artifacts of `r` for insertions into `local_pred`; null when tier 2
  /// is inapplicable to this constraint.
  std::shared_ptr<const PlanCache::Tier2Artifacts> PrepareTier2(
      const Registered& r, const std::string& local_pred);

  /// Resolves the metric handles (and plugs the registry into site_).
  /// Called once from the constructor; handles are stable thereafter.
  void InitObservability();

  static size_t TierIndex(Tier tier) { return static_cast<size_t>(tier); }

  /// One pipelined update episode: the admission snapshot, the buffered
  /// speculation results, and the retire handshake. Defined in the .cc.
  struct Episode;

  /// Where a check reads from and who observes the reads: the live
  /// database + the site observer + the live deferred queue on the serial
  /// path, or an episode's admission snapshot + a buffering observer + the
  /// queue as-of-admission on the speculative path. Defined in the .cc.
  struct CheckContext;

  /// CheckOne wraps CheckOneImpl with a span and the per-tier latency
  /// histogram; ApplyUpdate likewise wraps ApplyUpdateImpl. `sig` is the
  /// episode's update signature — the per-pattern plan-cache key
  /// component (with the cache off every lookup misses and the key only
  /// names what would have been stored). `ctx` routes every tier-1/2 read
  /// (see CheckContext).
  Result<CheckReport> CheckOne(const Registered& r, const Update& u,
                               const UpdateSignature& sig,
                               const CheckContext& ctx);
  Result<CheckReport> CheckOneImpl(const Registered& r, const Update& u,
                                   const UpdateSignature& sig,
                                   const CheckContext& ctx);
  /// Phase 1 of an episode: settles every constraint as far as local
  /// information allows, filling one report (and one status) slot per
  /// constraint. A no-op update resolves every active constraint as
  /// unaffected. `fan_out` spreads the checks over the thread pool (the
  /// live path); a speculation already runs on a pool worker and checks
  /// sequentially.
  Status CheckAllLocally(const Update& u, bool noop, const CheckContext& ctx,
                         bool fan_out, std::vector<CheckReport>* reports,
                         std::vector<Status>* check_status);
  /// `spec` is the episode whose speculation to reuse (commit path), or
  /// null for a fully serial run. When non-null and the speculation is
  /// still valid against intervening commits, phase 1 replays the buffered
  /// reads and reports instead of re-running; when invalidated, phase 1
  /// re-runs inline on the live database (counted as a conflict retry).
  Result<std::vector<CheckReport>> ApplyUpdateImpl(const Update& u,
                                                   Episode* spec);
  /// RecheckDeferred body; `episode` (may be null) is the enclosing
  /// ApplyUpdate's budget scope, folded into each re-check's envelope.
  Result<std::vector<DeferredResolution>> RecheckDeferredImpl(
      const BudgetScope* episode);

  /// Runs one tier-3 evaluation of `program` over `db` under the retry
  /// policy and the breakers of `gsites` — the sites the constraint may
  /// touch, whose probe slots the caller has already claimed via
  /// AllowRequest (no-op claims while closed). Exactly one of
  /// RecordSuccess / RecordFailure / CancelProbe is issued per site on
  /// every exit path. OK Result carries the violation verdict; a
  /// kUnavailable/kDeadlineExceeded Result means the episode gave up (the
  /// caller defers); kResourceExhausted means the budget `scope` (null =
  /// unbudgeted) was spent — never retried, never counted against any
  /// breaker (the sites did nothing wrong). `retries_out` receives the
  /// extra attempts consumed.
  /// `plan_key` names the plan-cache slot holding the program's
  /// CompiledProgram — the constraint name suffices, since a constraint's
  /// program never changes after registration. A failing compile is never
  /// stored, so it surfaces the same status on every attempt.
  Result<bool> EvaluateRemote(const Program& program, const Database& db,
                              const std::set<size_t>& gsites,
                              size_t* retries_out, const BudgetScope* scope,
                              const std::string& plan_key);

  /// Tier-2 evaluation through a cached RA plan template: binds the
  /// update's tuple into the template and evaluates (or replays a memoized
  /// same-version result), with the observable behavior of a fresh
  /// Theorem 5.3 compile — see docs/plan_cache.md. Reads through `ctx`; the
  /// version-keyed memo is shared across episodes (relation versions name
  /// content, so a snapshot hit is exactly a live hit).
  Result<Outcome> EvalPlannedRa(const RaPlanTemplate& tpl, const Update& u,
                                const std::string& plan_key,
                                const CheckContext& ctx);

  /// --- Episode scheduler (PipelineConfig; all private state below is
  /// --- touched only by the admitting thread except Episode internals).

  /// The ApplyUpdate wrapper body (span, latency histogram, queue gauge)
  /// around ApplyUpdateImpl — shared by the synchronous path and the
  /// commit map so a committed pipelined episode emits the identical
  /// per-episode instrumentation.
  Result<std::vector<CheckReport>> RunEpisode(const Update& u, Episode* spec);
  /// Launches the episode's speculative phase 1 on the thread pool.
  void SpeculateEpisode(Episode* e);
  /// The speculation body: phase 1 against the admission snapshot with
  /// buffered reads, plus the staged remote prefetch. Runs on a pool
  /// worker (or inline on sequential pools).
  void SpeculatePhase1(Episode* e);
  /// Retires inflight_.front() through the commit map: waits for its
  /// speculation, validates it, runs ApplyUpdateImpl (reusing or
  /// discarding the speculation), and appends the result to
  /// pending_results_.
  void CommitHeadToPending();
  /// Retires every in-flight episode in admission order.
  void DrainInflightInternal();
  /// Waits for in-flight speculations and discards them uncommitted
  /// (destructor path only).
  void AbandonInflight();
  /// Whether `e`'s speculation survives the writes committed since its
  /// admission (read-set vs commit_writes_[mark..], deferred-queue epoch).
  bool SpecStillValid(const Episode& e) const;
  /// Records `pred` as written by a committed episode; no-op while the
  /// pipeline is empty (the log exists only to validate speculation).
  void LogCommitWrite(const std::string& pred);

  /// Counts one plan-cache store of a compiled entry: a compile (timed by
  /// `compile_sw`) when `won`, i.e. the caller's entry was inserted, else
  /// a hit — a lane that lost a concurrent store race adopts the winner's
  /// entry, as it would have found it serially, so plan.compiles and
  /// plan.hits do not depend on how pipelined speculations interleave.
  void CountPlanStore(bool won, const obs::Stopwatch& compile_sw);

  /// Whether every breaker in `gsites` would currently admit a request
  /// (pure gate: claims nothing, transitions nothing).
  bool SitesWouldAllow(const std::set<size_t>& gsites) const;
  /// Claims every breaker in `gsites` (sequential paths only: the caller
  /// has just seen SitesWouldAllow succeed).
  void ClaimSites(const std::set<size_t>& gsites);
  bool AllBreakersClosed() const;
  /// The remote relations the constraints in `worklist` read, minus those
  /// of sites whose breaker is not closed: the set a prefetch (or its
  /// speculative staging) fetches.
  std::set<std::string> PrefetchPreds(
      const std::vector<size_t>& worklist) const;
  /// Whether any site's breaker would currently admit a request.
  bool AnySiteReachable() const;
  /// End-of-episode catch-up hook (multi-site only): detects sites whose
  /// breaker re-closed after being observed dark, reconciles their cache
  /// entries poisoned during the outage, and emits recovery metrics. The
  /// queued deferred entries naming the site drain through the normal
  /// auto-recheck on the next update.
  void DetectRecoveries();

  /// Whether reports mean the update was refused (violated, or deferred
  /// under DeferredPolicy::kReject).
  bool UpdateRefused(const std::vector<CheckReport>& reports) const;

  /// The configuration this manager was built with. Declared before
  /// site_, which is built from its topology.
  const ManagerConfig config_;
  SiteDatabase site_;
  /// config_.budget.armed(), precomputed: the unbudgeted hot path pays
  /// exactly one branch on this flag.
  bool budget_armed_ = false;
  /// One breaker per remote site (heap-allocated: a breaker owns a mutex
  /// and is not movable). breakers_[0] doubles as the legacy single
  /// breaker.
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  /// Recovery bookkeeping: whether site s was observed non-closed at a
  /// detection point since it last recovered (see DetectRecoveries).
  std::vector<bool> site_was_dark_;
  // Only drawn from inside EvaluateRemote on a retriable failure, which
  // requires a fault injector; the parallel tier-3 path (taken only with
  // no injector attached) therefore never touches it concurrently.
  Rng retry_rng_;
  std::vector<Registered> constraints_;
  /// The compiled-plan cache (see docs/plan_cache.md); never-store while
  /// ManagerConfig::plan_cache is false. Wholesale invalidated on
  /// AddConstraint: registration changes the active set that tier-1
  /// decisions quantify over and the signature constant pool.
  PlanCache plans_;
  /// The distinguished-constant pool of the active constraint set, sorted
  /// and deduped — input to ShapeSignature. Rebuilt on AddConstraint.
  std::vector<Value> plan_constants_;
  /// True iff every active program is comparison-free (SignatureSafe).
  /// Order comparisons can distinguish same-shape tuples, so the tier-1
  /// decision memo is disabled unless this holds; the RA template and
  /// tier-3 caches need no such gate (they cache structure, not verdicts
  /// quantified over tuples of a shape).
  bool plan_sig_safe_ = true;
  std::deque<DeferredCheck> deferred_;
  uint64_t update_sequence_ = 0;

  /// Admitted, not yet retired, in admission order (== commit order).
  std::deque<std::unique_ptr<Episode>> inflight_;
  /// Results of retired episodes since the last Drain, admission order.
  std::vector<Result<std::vector<CheckReport>>> pending_results_;
  /// Predicates written by committed episodes while the pipeline was
  /// non-empty; an episode validates against the suffix from its
  /// admission mark. Cleared whenever the pipeline empties.
  std::vector<std::string> commit_writes_;
  /// Bumped on every structural mutation of deferred_; an episode whose
  /// admission epoch is stale speculated against a queue that no longer
  /// exists and must re-run.
  uint64_t deferred_epoch_ = 0;
  /// Consecutive conflicted commits; >= max_conflict_streak trips the
  /// serial fallback below. Reset by any clean commit.
  size_t conflict_streak_ = 0;
  /// Episodes left to admit without speculation before probing again.
  size_t serial_fallback_remaining_ = 0;

  std::unique_ptr<ThreadPool> pool_;

  /// Source of truth for all aggregate statistics. Per-manager, so
  /// concurrent managers (tests, benchmarks) never share counts. site_
  /// holds handles into this registry but only dereferences them on reads,
  /// never in its destructor, so destruction order is harmless.
  obs::MetricsRegistry metrics_;
  // Handles resolved once in InitObservability; hot paths pay only the
  // atomic increment. Indexed by TierIndex where per-tier.
  std::array<obs::Counter*, 5> ctr_resolved_{};
  std::array<obs::Histogram*, 5> hist_check_{};
  obs::Counter* ctr_violations_ = nullptr;
  obs::Counter* ctr_remote_attempts_ = nullptr;
  obs::Counter* ctr_remote_retries_ = nullptr;
  obs::Counter* ctr_remote_failures_ = nullptr;
  obs::Counter* ctr_deferred_ = nullptr;
  obs::Counter* ctr_fast_fails_ = nullptr;
  obs::Counter* ctr_deferred_recovered_ = nullptr;
  obs::Counter* ctr_deferred_violations_ = nullptr;
  obs::Counter* ctr_t3_admitted_ = nullptr;
  obs::Counter* ctr_shed_ = nullptr;
  obs::Counter* ctr_budget_exhausted_ = nullptr;
  obs::Counter* ctr_deferred_dropped_ = nullptr;
  obs::Counter* ctr_sites_recovered_ = nullptr;
  obs::Counter* ctr_cache_revalidated_ = nullptr;
  /// Per-site recovery counters ("manager.recovery.site<k>").
  std::vector<obs::Counter*> ctr_site_recovered_;
  /// Hedged-read counters ("manager.hedge.*"), handed to the SiteDatabase
  /// which does the counting.
  obs::Counter* ctr_hedge_issued_ = nullptr;
  obs::Counter* ctr_hedge_won_ = nullptr;
  obs::Counter* ctr_hedge_wasted_ = nullptr;
  /// Latency-aware shed counter ("manager.latency_shed").
  obs::Counter* ctr_latency_shed_ = nullptr;
  /// True iff any site's effective cost model draws latency (non-fixed):
  /// the gate on the EWMA-projection shed.
  bool latency_aware_ = false;
  /// Plan-cache instrumentation. Deliberately NOT part of stats():
  /// ManagerStats must stay byte-identical cache on/off.
  obs::Counter* ctr_plan_compiles_ = nullptr;
  obs::Counter* ctr_plan_hits_ = nullptr;
  obs::Counter* ctr_plan_delta_ = nullptr;
  obs::Histogram* hist_plan_compile_ = nullptr;
  obs::Histogram* hist_budget_remaining_ = nullptr;
  obs::Histogram* hist_apply_ = nullptr;
  obs::Histogram* hist_remote_eval_ = nullptr;
  obs::Gauge* gauge_deferred_len_ = nullptr;
  /// Pipeline instrumentation; every increment sits on a pipelined path,
  /// so at depth 1 these stay 0. NOT part of stats().
  obs::Counter* ctr_pipe_admitted_ = nullptr;
  obs::Counter* ctr_pipe_committed_ = nullptr;
  obs::Counter* ctr_pipe_conflicts_ = nullptr;
  obs::Counter* ctr_pipe_retries_ = nullptr;
  obs::Counter* ctr_pipe_unspeculated_ = nullptr;
  obs::Gauge* gauge_pipe_in_flight_ = nullptr;
  obs::Histogram* hist_pipe_commit_wait_ = nullptr;
};

}  // namespace ccpi

#endif  // CCPI_MANAGER_CONSTRAINT_MANAGER_H_
