#ifndef CCPI_DISTSIM_SITE_DB_H_
#define CCPI_DISTSIM_SITE_DB_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "distsim/cost_model.h"
#include "distsim/fault_injector.h"
#include "distsim/remote_accessor.h"
#include "distsim/remote_cache.h"
#include "distsim/topology.h"
#include "eval/engine.h"
#include "relational/database.h"
#include "util/check.h"

namespace ccpi {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace obs

class ThreadPool;

/// Access statistics of one evaluation (or one update-checking episode)
/// over a partitioned database.
struct AccessStats {
  size_t local_tuples = 0;
  size_t remote_tuples = 0;
  size_t remote_trips = 0;
  /// Remote trips that failed (injected fault). A failed trip still pays
  /// the round-trip latency — it is included in remote_trips — but no
  /// tuples came back, so it contributes nothing to remote_tuples.
  size_t remote_failures = 0;
  /// Remote reads served from the snapshot cache: no round trip was paid
  /// and the tuples are billed at cached_tuple_cost, not remote_tuple_cost.
  size_t cache_hits = 0;
  size_t cached_tuples = 0;

  double Cost(const CostModel& model) const {
    return static_cast<double>(local_tuples) * model.local_tuple_cost +
           static_cast<double>(remote_tuples) * model.remote_tuple_cost +
           static_cast<double>(remote_trips) * model.remote_round_trip_cost +
           static_cast<double>(cached_tuples) * model.cached_tuple_cost;
  }

  AccessStats& operator+=(const AccessStats& other) {
    local_tuples += other.local_tuples;
    remote_tuples += other.remote_tuples;
    remote_trips += other.remote_trips;
    remote_failures += other.remote_failures;
    cache_hits += other.cache_hits;
    cached_tuples += other.cached_tuples;
    return *this;
  }
};

/// Hedged-read accounting (see docs/distsim.md "Hedged reads"). The
/// identity `issued == won + wasted` always holds, and every issued hedge
/// billed exactly one extra remote trip to its site — which is how the
/// trip-accounting identities keep balancing with hedging on.
struct HedgeStats {
  uint64_t issued = 0;
  uint64_t won = 0;
  uint64_t wasted = 0;
};

/// A database split into "local" and "remote" predicates, in the sense of
/// Section 5: the site applying updates holds the local relations; every
/// read of a remote relation is charged. The class is an AccessObserver —
/// plug it into EvalOptions (or EvalRa) and it attributes each read to the
/// right side of the partition — and a RemoteAccessor: when a
/// FaultInjector is attached, remote reads can *fail*, surfacing as
/// kUnavailable / kDeadlineExceeded through whatever evaluation is in
/// flight. Local reads never fail.
///
/// The remote side is a Topology of N independent sites (default one, the
/// original split): each remote predicate lives at exactly one site
/// (placement map or hash), and each site owns its own fault injector,
/// snapshot cache, cost model, and budget-scope hook, so one site's outage
/// or spent budget never touches reads bound for another. The aggregate
/// counters keep their pre-topology meaning — per-site counters are summed
/// into them at the same program points — so a 1-site topology is
/// byte-identical to the old behavior.
///
/// With the remote-read cache enabled (EnableRemoteCache), a read of a
/// remote relation whose content version matches the last successful
/// physical fetch is served as a cache hit — no round trip, tuples billed
/// at cached_tuple_cost — while misses fall through to the physical path
/// and refresh that site's cache. See docs/remote_cache.md for the keying,
/// invalidation, and fault-interaction rules, and docs/distsim.md for the
/// topology semantics.
///
/// Thread-safety: the read path (OnRead / ReadRemote) only bumps atomic
/// counters and takes shared-mode cache lookups, and may run from many
/// checker threads at once, provided the underlying Database is not
/// mutated concurrently (the manager freezes it for the duration of a
/// fan-out). Cache fills take the cache's exclusive lock and are safe
/// concurrently, but the manager avoids racing fills by prefetching the
/// episode's remote relations before the parallel fan-out. Configuration
/// calls (set_fault_injector, set_metrics, EnableRemoteCache,
/// set_cache_db, ResetStats, db() mutation) must be externally serialized
/// against reads.
class SiteDatabase : public AccessObserver, public RemoteAccessor {
 public:
  explicit SiteDatabase(std::set<std::string> local_preds,
                        TopologyConfig topology = {})
      : local_preds_(std::move(local_preds)), topology_(std::move(topology)) {
    site_states_.reserve(topology_.sites());
    for (size_t s = 0; s < topology_.sites(); ++s) {
      site_states_.push_back(std::make_unique<SiteState>());
    }
  }

  bool IsLocal(const std::string& pred) const {
    return local_preds_.count(pred) > 0;
  }
  const std::set<std::string>& local_preds() const { return local_preds_; }

  const Topology& topology() const { return topology_; }
  size_t sites() const { return topology_.sites(); }
  /// The site owning a remote `pred` (callers check IsLocal first).
  size_t SiteOf(const std::string& pred) const {
    return topology_.SiteOf(pred);
  }

  Database& db() { return db_; }
  const Database& db() const { return db_; }

  /// Attaches (or detaches, with nullptr) the fault source for remote
  /// reads of site 0 — the whole remote side of a 1-site topology, which
  /// keeps the pre-topology call sites working unchanged. Not owned; must
  /// outlive the site.
  void set_fault_injector(FaultInjector* injector) {
    site_states_[0]->injector = injector;
  }
  FaultInjector* fault_injector() const { return site_states_[0]->injector; }

  /// Per-site fault domains: each remote site may carry its own injector
  /// (its own seed, rates, and outage windows).
  void set_site_fault_injector(size_t site, FaultInjector* injector) {
    CCPI_CHECK(site < site_states_.size());
    site_states_[site]->injector = injector;
  }
  FaultInjector* site_fault_injector(size_t site) const {
    CCPI_CHECK(site < site_states_.size());
    return site_states_[site]->injector;
  }
  /// Whether any site has an injector attached — the gate the manager uses
  /// to keep tier-3 sequential (draw alignment is per-site, but verdict
  /// order is global).
  bool any_fault_injector() const {
    for (const auto& st : site_states_) {
      if (st->injector != nullptr) return true;
    }
    return false;
  }

  /// Attaches (or detaches, with nullptr) an execution-budget scope to
  /// *every* site (configuration call: serialize against reads; not owned,
  /// must outlive the reads it governs — the manager scopes it to one
  /// episode). Remote reads then become deadline-aware: a read is refused
  /// with kResourceExhausted *before* paying the round trip once the
  /// deadline has passed, the token is cancelled, or the scope's
  /// remote-trip cap is spent. Cache hits pay no trip and are never
  /// charged against the trip cap (the cache genuinely stretches the
  /// budget; see docs/budgets.md). Local reads are always free and never
  /// refused.
  void set_budget(const BudgetScope* scope) {
    for (auto& st : site_states_) st->budget = scope;
  }
  const BudgetScope* budget() const { return site_states_[0]->budget; }

  /// Per-site budget scopes: with N sites the manager splits the episode's
  /// trip cap into per-site slices so one chatty site cannot starve the
  /// others (see docs/budgets.md).
  void set_site_budget(size_t site, const BudgetScope* scope) {
    CCPI_CHECK(site < site_states_.size());
    site_states_[site]->budget = scope;
  }
  const BudgetScope* site_budget(size_t site) const {
    CCPI_CHECK(site < site_states_.size());
    return site_states_[site]->budget;
  }

  /// Per-site access pricing (default: every site shares CostModel{}).
  void set_site_cost_model(size_t site, const CostModel& model) {
    CCPI_CHECK(site < site_states_.size());
    site_states_[site]->costs = model;
  }
  const CostModel& site_cost_model(size_t site) const {
    CCPI_CHECK(site < site_states_.size());
    return site_states_[site]->costs;
  }

  /// Arms hedged batched reads: when a batched per-site prefetch's drawn
  /// latency exceeds `after` times that site's observed EWMA, one backup
  /// attempt is issued (billing one extra trip) and the faster of the two
  /// wins the wall clock. 0 (the default) disables hedging entirely —
  /// no extra trips, no counts, byte-identical accounting. The counter
  /// handles (may be null) receive the manager's `manager.hedge.*`
  /// series. Configuration call: serialize against reads.
  void set_hedge(uint64_t after, obs::Counter* issued, obs::Counter* won,
                 obs::Counter* wasted) {
    hedge_after_ = after;
    ctr_hedge_issued_ = issued;
    ctr_hedge_won_ = won;
    ctr_hedge_wasted_ = wasted;
  }
  uint64_t hedge_after() const { return hedge_after_; }

  /// Snapshot of the hedged-read counters since the last ResetStats.
  HedgeStats hedge_stats() const {
    HedgeStats h;
    h.issued = hedges_issued_.load(std::memory_order_relaxed);
    h.won = hedges_won_.load(std::memory_order_relaxed);
    h.wasted = hedges_wasted_.load(std::memory_order_relaxed);
    return h;
  }

  /// Exponentially weighted moving average (alpha 1/4) of the site's
  /// observed per-trip latency, in microseconds. 0 until the site's first
  /// non-fixed-model trip — kFixed sites never feed the EWMA, which is
  /// part of the default-config byte-identity guarantee (the latency
  /// machinery is pure dead weight unless a distribution is configured).
  uint64_t site_latency_ewma_us(size_t site) const {
    CCPI_CHECK(site < site_states_.size());
    return site_states_[site]->latency_ewma_q8.load(
               std::memory_order_relaxed) >>
           8;
  }

  /// Attaches a metrics registry and registers every `distsim.*` name in
  /// it, `distsim.site<k>.*` for every site k included (see
  /// docs/observability.md). Every read then also bumps those counters in
  /// addition to the per-site AccessStats. Not owned; must outlive the
  /// site.
  void set_metrics(obs::MetricsRegistry* registry);

  /// AccessObserver: attributes `count` enumerated tuples of `pred`.
  /// Each remote read event also counts one round trip; a remote read may
  /// fail when a fault injector is attached.
  Status OnRead(const std::string& pred, size_t count) override;

  /// RemoteAccessor: one remote episode of `count` tuples of `pred`.
  bool IsRemote(const std::string& pred) const override {
    return !IsLocal(pred);
  }
  Status ReadRemote(const std::string& pred, size_t count) override;

  /// Turns the remote-read snapshot cache on or off for every site
  /// (configuration call: serialize against reads). Off by default so a
  /// bare SiteDatabase behaves exactly as before; the ConstraintManager
  /// enables it per its RemoteCacheConfig. Turning the cache off also
  /// drops every site's entries.
  void EnableRemoteCache(bool on);
  bool remote_cache_enabled() const { return cache_enabled_; }
  RemoteReadCache& remote_cache() { return site_states_[0]->cache; }
  RemoteReadCache& site_remote_cache(size_t site) {
    CCPI_CHECK(site < site_states_.size());
    return site_states_[site]->cache;
  }

  /// Overrides (or with nullptr restores to this site's own db) the
  /// database whose relation versions key cache decisions. The manager
  /// points this at its scratch database while replaying deferred checks,
  /// so a cached fill of the *live* relation is never served for a scratch
  /// relation whose contents differ. Configuration call: the caller must
  /// not have evaluations in flight.
  void set_cache_db(const Database* db) { cache_db_ = db; }

  /// Round trips a pipelined episode's speculation already slept (see
  /// StageRemoteTrips): every relation the staged per-site trips carried,
  /// with its content version in the episode's snapshot. A relation's
  /// presence implies its owning site's trip was slept.
  struct StagedTrips {
    std::map<std::string, uint64_t> versions;
  };

  /// Prefetch: groups the cold or stale relations of `preds` by owning
  /// site (local and already-valid ones are skipped silently) and pays ONE
  /// coalesced round trip per site that has any, so a following fan-out
  /// reads them as cache hits. Tuples are billed per relation, the trip
  /// is charged against the site's budget scope, and a hedge may race a
  /// slow trip (set_hedge). The per-site batches run concurrently on
  /// `pool` (sequentially when pool is null or single-threaded). No-op
  /// when the cache is off or any fault injector is attached — under
  /// injection each logical read must consume its own draw of the failure
  /// schedule in evaluation order, which a batched pass would reorder.
  ///
  /// `slept` (may be null) names trips a speculation already slept. A
  /// site whose whole batch was staged at the relations' live versions is
  /// billed exactly as without `slept` — latency and hedge draws consumed
  /// here, in commit order — and only the sleep is skipped.
  void PrefetchRemote(const std::set<std::string>& preds, ThreadPool* pool,
                      const StagedTrips* slept = nullptr);

  /// Speculatively pays the prefetch trips of remote `preds` as seen in
  /// `snapshot`: one trip per site owning a relation that is not current
  /// in the cache at its snapshot version, the sites' trips overlapping
  /// (one sleep of the slowest). Records each such relation's version.
  /// No counter, cache, budget, or injector interaction — safe to call
  /// from a speculation thread concurrently with commits. The caller gates
  /// on cache_enabled && !any_fault_injector (same as prefetch).
  StagedTrips StageRemoteTrips(const std::set<std::string>& preds,
                               const Database& snapshot) const;

  /// Catch-up reconciliation for a site returning from outage: re-fetches
  /// every relation of `site` among `preds` whose cache entry went stale
  /// or was poisoned while the site was dark (cold, never-fetched
  /// relations are left to demand fetching). Reads route through the
  /// normal ReadRemote path, so trips are billed, draws consumed, and a
  /// still-faulting fetch simply leaves the entry poisoned. Returns how
  /// many entries were revalidated. No-op with the cache off.
  size_t RecoverSiteCache(size_t site, const std::set<std::string>& preds);

  /// Snapshot of the statistics accumulated since the last Reset
  /// (by value: counters may be advancing on other threads).
  AccessStats stats() const {
    AccessStats s;
    s.local_tuples = local_tuples_.load(std::memory_order_relaxed);
    s.remote_tuples = remote_tuples_.load(std::memory_order_relaxed);
    s.remote_trips = remote_trips_.load(std::memory_order_relaxed);
    s.remote_failures = remote_failures_.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    s.cached_tuples = cached_tuples_.load(std::memory_order_relaxed);
    return s;
  }

  /// Per-site slice of the remote counters (local_tuples is always 0:
  /// local reads belong to the checking site, not a remote one).
  AccessStats site_stats(size_t site) const {
    CCPI_CHECK(site < site_states_.size());
    const SiteState& st = *site_states_[site];
    AccessStats s;
    s.remote_tuples = st.remote_tuples.load(std::memory_order_relaxed);
    s.remote_trips = st.remote_trips.load(std::memory_order_relaxed);
    s.remote_failures = st.remote_failures.load(std::memory_order_relaxed);
    s.cache_hits = st.cache_hits.load(std::memory_order_relaxed);
    s.cached_tuples = st.cached_tuples.load(std::memory_order_relaxed);
    return s;
  }

  /// Zeroes the access counters. Exclusivity contract: the caller must
  /// guarantee no read (OnRead / ReadRemote) is in flight — the fields are
  /// zeroed one by one, so a reset concurrent with a draining fan-out
  /// would yield a torn snapshot (some of the episode's reads surviving
  /// the reset, others not). The manager only resets between episodes;
  /// debug builds enforce the contract by tracking in-flight reads and
  /// aborting if a reset races one.
  void ResetStats() {
    CCPI_DCHECK(active_reads_.load(std::memory_order_acquire) == 0);
    local_tuples_.store(0, std::memory_order_relaxed);
    remote_tuples_.store(0, std::memory_order_relaxed);
    remote_trips_.store(0, std::memory_order_relaxed);
    remote_failures_.store(0, std::memory_order_relaxed);
    cache_hits_.store(0, std::memory_order_relaxed);
    cached_tuples_.store(0, std::memory_order_relaxed);
    hedges_issued_.store(0, std::memory_order_relaxed);
    hedges_won_.store(0, std::memory_order_relaxed);
    hedges_wasted_.store(0, std::memory_order_relaxed);
    // Latency draw counters and EWMAs survive a stats reset on purpose:
    // they are simulation state (the position in the deterministic
    // latency schedule), not observability.
    for (auto& st : site_states_) {
      st->remote_tuples.store(0, std::memory_order_relaxed);
      st->remote_trips.store(0, std::memory_order_relaxed);
      st->remote_failures.store(0, std::memory_order_relaxed);
      st->cache_hits.store(0, std::memory_order_relaxed);
      st->cached_tuples.store(0, std::memory_order_relaxed);
    }
  }

 private:
  /// Everything one remote site owns. Heap-allocated (the atomics and the
  /// cache's mutex are not movable) and stable for the SiteDatabase's
  /// lifetime.
  struct SiteState {
    std::atomic<size_t> remote_tuples{0};
    std::atomic<size_t> remote_trips{0};
    std::atomic<size_t> remote_failures{0};
    std::atomic<size_t> cache_hits{0};
    std::atomic<size_t> cached_tuples{0};
    FaultInjector* injector = nullptr;
    const BudgetScope* budget = nullptr;
    RemoteReadCache cache;
    CostModel costs;
    // Index of the site's next latency draw. Counter-keyed (each draw
    // seeds a fresh splitmix64 from (latency_seed, site, index)) so the
    // drawn multiset per site is deterministic per seed regardless of
    // which thread pays which trip. kFixed consumes none.
    std::atomic<uint64_t> latency_draws{0};
    // EWMA of observed trip latency, fixed-point microseconds << 8.
    // 0 = no observation yet (real latencies are >= 1us, so 0 is free
    // as the sentinel).
    std::atomic<uint64_t> latency_ewma_q8{0};
    // Per-site obs handles, resolved in set_metrics.
    obs::Counter* ctr_trips = nullptr;
    obs::Counter* ctr_failures = nullptr;
    obs::Counter* ctr_cache_hits = nullptr;
    obs::Histogram* hist_latency = nullptr;
  };

  /// The database whose relation versions (and sizes, for prefetch) drive
  /// cache decisions: the override when set, this site's own db otherwise.
  const Database& cache_source() const {
    return cache_db_ != nullptr ? *cache_db_ : db_;
  }

  /// One physical round trip to `site`: span, trip/tuple/failure billing,
  /// fault injection, fill-latency timing. The pre-cache ReadRemote body.
  Status FetchRemote(size_t site, const std::string& pred, size_t count);

  /// The site's simulated per-trip latency, in microseconds. kFixed:
  /// CostModel::trip_latency_us (0 by default), consuming no randomness.
  /// Non-fixed models: one DrawTripLatencyUs.
  uint64_t TripLatencyUs(size_t site) const;

  /// One deterministic latency draw for `site` (non-fixed models only):
  /// advances the site's draw counter, samples the configured
  /// distribution, and observes the sample into the EWMA and the
  /// `distsim.site<k>.latency_us` histogram. Returns microseconds.
  uint64_t DrawTripLatencyUs(size_t site) const;

  /// The draws of one prefetch trip, not yet slept.
  struct TripDraw {
    uint64_t sleep_us = 0;
    /// Extra physical trips the caller must bill: 1 iff a hedge was issued.
    size_t extra_trips = 0;
  };

  /// The prefetch trip with hedging armed: reads the EWMA first, draws
  /// the primary latency, and — when the primary overshoots hedge_after_
  /// x EWMA — draws a deterministic single backup (launched at the
  /// threshold instant) whose trip lasts min(primary, threshold + backup)
  /// instead of the full primary; bumps the hedge counters. Falls back to
  /// the plain TripLatencyUs when hedging cannot apply (hedging off, fixed
  /// model, or no EWMA yet).
  TripDraw DrawHedgedTrip(size_t site) const;

  std::set<std::string> local_preds_;
  Topology topology_;
  Database db_;
  std::atomic<size_t> local_tuples_{0};
  std::atomic<size_t> remote_tuples_{0};
  std::atomic<size_t> remote_trips_{0};
  std::atomic<size_t> remote_failures_{0};
  std::atomic<size_t> cache_hits_{0};
  std::atomic<size_t> cached_tuples_{0};
  // Debug-only occupancy count of OnRead/ReadRemote, backing the
  // ResetStats exclusivity assertion. Increments are compiled out in
  // NDEBUG builds, so the release hot path is untouched.
  std::atomic<int> active_reads_{0};
  std::vector<std::unique_ptr<SiteState>> site_states_;
  bool cache_enabled_ = false;
  const Database* cache_db_ = nullptr;
  // Hedged-read knob and accounting (set_hedge / hedge_stats). 0 = off.
  uint64_t hedge_after_ = 0;
  mutable std::atomic<uint64_t> hedges_issued_{0};
  mutable std::atomic<uint64_t> hedges_won_{0};
  mutable std::atomic<uint64_t> hedges_wasted_{0};
  obs::Counter* ctr_hedge_issued_ = nullptr;
  obs::Counter* ctr_hedge_won_ = nullptr;
  obs::Counter* ctr_hedge_wasted_ = nullptr;
  // Counter handles resolved once in set_metrics (registry handles are
  // stable for the registry's lifetime), so the read path never does a
  // name lookup.
  obs::Counter* ctr_local_tuples_ = nullptr;
  obs::Counter* ctr_remote_tuples_ = nullptr;
  obs::Counter* ctr_remote_trips_ = nullptr;
  obs::Counter* ctr_remote_failures_ = nullptr;
  obs::Counter* ctr_cache_hits_ = nullptr;
  obs::Counter* ctr_cache_misses_ = nullptr;
  obs::Counter* ctr_cache_invalidations_ = nullptr;
  obs::Histogram* hist_fill_latency_ = nullptr;
};

}  // namespace ccpi

#endif  // CCPI_DISTSIM_SITE_DB_H_
