#include "distsim/site_db.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ccpi {

namespace {

void SleepUs(uint64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Bucket edges of the per-site latency histograms, in microseconds
/// (1us..100ms in 1-2-5 steps); the default registry ladder is scaled for
/// nanoseconds and would crush every realistic trip into one bucket.
std::vector<uint64_t> LatencyBoundsUs() {
  return {1,    2,    5,    10,    20,    50,    100,   200,
          500,  1000, 2000, 5000,  10000, 20000, 50000, 100000};
}

/// Debug-only occupancy tracking of the read path (see ResetStats).
class ActiveReadGuard {
 public:
  explicit ActiveReadGuard(std::atomic<int>* count) : count_(count) {
#ifndef NDEBUG
    count_->fetch_add(1, std::memory_order_acq_rel);
#endif
  }
  ~ActiveReadGuard() {
#ifndef NDEBUG
    count_->fetch_sub(1, std::memory_order_acq_rel);
#endif
  }
  ActiveReadGuard(const ActiveReadGuard&) = delete;
  ActiveReadGuard& operator=(const ActiveReadGuard&) = delete;

 private:
  [[maybe_unused]] std::atomic<int>* count_;
};

}  // namespace

void SiteDatabase::set_metrics(obs::MetricsRegistry* registry) {
  ctr_local_tuples_ = registry->GetCounter("distsim.local_tuples");
  ctr_remote_tuples_ = registry->GetCounter("distsim.remote_tuples");
  ctr_remote_trips_ = registry->GetCounter("distsim.remote_trips");
  ctr_remote_failures_ = registry->GetCounter("distsim.remote_failures");
  ctr_cache_hits_ = registry->GetCounter("distsim.cache_hits");
  ctr_cache_misses_ = registry->GetCounter("distsim.cache_misses");
  ctr_cache_invalidations_ =
      registry->GetCounter("distsim.cache_invalidations");
  hist_fill_latency_ =
      registry->GetHistogram("distsim.cache_fill_latency_ns");
  for (size_t s = 0; s < site_states_.size(); ++s) {
    std::string prefix = "distsim.site" + std::to_string(s);
    SiteState& st = *site_states_[s];
    st.ctr_trips = registry->GetCounter(prefix + ".remote_trips");
    st.ctr_failures = registry->GetCounter(prefix + ".remote_failures");
    st.ctr_cache_hits = registry->GetCounter(prefix + ".cache_hits");
    // Observed only by sites that draw latency (a non-fixed model).
    st.hist_latency =
        registry->GetHistogram(prefix + ".latency_us", LatencyBoundsUs());
  }
}

void SiteDatabase::EnableRemoteCache(bool on) {
  cache_enabled_ = on;
  if (!on) {
    for (auto& st : site_states_) st->cache.Clear();
  }
}

Status SiteDatabase::OnRead(const std::string& pred, size_t count) {
  if (IsLocal(pred)) {
    ActiveReadGuard guard(&active_reads_);
    local_tuples_.fetch_add(count, std::memory_order_relaxed);
    if (ctr_local_tuples_ != nullptr) ctr_local_tuples_->Add(count);
    return Status::OK();
  }
  return ReadRemote(pred, count);
}

Status SiteDatabase::ReadRemote(const std::string& pred, size_t count) {
  ActiveReadGuard guard(&active_reads_);
  const size_t site = topology_.SiteOf(pred);
  SiteState& st = *site_states_[site];
  if (st.budget != nullptr) {
    // Deadline/cancellation gate before any trip accounting or injector
    // draw, so budgeted cache-on and cache-off runs refuse at the same
    // point. The trip cap itself is charged in FetchRemote, where the
    // physical trip would be paid.
    CCPI_RETURN_IF_ERROR(st.budget->Check());
  }
  if (!cache_enabled_) return FetchRemote(site, pred, count);

  const uint64_t version = cache_source().Get(pred, 0).version();
  switch (st.cache.Find(pred, version)) {
    case RemoteReadCache::Lookup::kHit: {
      if (st.injector != nullptr) {
        // Every logical remote read consumes exactly one draw of the
        // site's seeded failure schedule, hit or not — otherwise the cache
        // would shift which later reads fail and the run would diverge
        // from the cache-off run. A fault on a cached read is billed as a
        // failed physical trip and poisons the entry, exactly like a
        // failed fill.
        Status fault = st.injector->InjectOnRead(pred);
        if (!fault.ok()) {
          remote_trips_.fetch_add(1, std::memory_order_relaxed);
          st.remote_trips.fetch_add(1, std::memory_order_relaxed);
          if (ctr_remote_trips_ != nullptr) ctr_remote_trips_->Add(1);
          if (st.ctr_trips != nullptr) st.ctr_trips->Add(1);
          remote_failures_.fetch_add(1, std::memory_order_relaxed);
          st.remote_failures.fetch_add(1, std::memory_order_relaxed);
          if (ctr_remote_failures_ != nullptr) ctr_remote_failures_->Add(1);
          if (st.ctr_failures != nullptr) st.ctr_failures->Add(1);
          st.cache.NoteFailure(pred);
          return fault;
        }
      }
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      cached_tuples_.fetch_add(count, std::memory_order_relaxed);
      st.cache_hits.fetch_add(1, std::memory_order_relaxed);
      st.cached_tuples.fetch_add(count, std::memory_order_relaxed);
      if (ctr_cache_hits_ != nullptr) ctr_cache_hits_->Add(1);
      if (st.ctr_cache_hits != nullptr) st.ctr_cache_hits->Add(1);
      return Status::OK();
    }
    case RemoteReadCache::Lookup::kMissStale:
      if (ctr_cache_invalidations_ != nullptr) {
        ctr_cache_invalidations_->Add(1);
      }
      [[fallthrough]];
    case RemoteReadCache::Lookup::kMissCold: {
      if (ctr_cache_misses_ != nullptr) ctr_cache_misses_->Add(1);
      Status fetched = FetchRemote(site, pred, count);
      if (fetched.ok()) {
        st.cache.NoteFill(pred, version);
      } else {
        st.cache.NoteFailure(pred);
      }
      return fetched;
    }
  }
  return Status::OK();  // unreachable: the switch above is exhaustive
}

uint64_t SiteDatabase::TripLatencyUs(size_t site) const {
  const CostModel& cm = site_states_[site]->costs;
  // The historical path: constant cost, no randomness consumed.
  if (cm.latency_model == LatencyModel::kFixed) return cm.trip_latency_us;
  return DrawTripLatencyUs(site);
}

uint64_t SiteDatabase::DrawTripLatencyUs(size_t site) const {
  SiteState& st = *site_states_[site];
  const CostModel& cm = st.costs;
  CCPI_DCHECK(cm.latency_model != LatencyModel::kFixed);
  // Counter-keyed draw: each trip seeds its own splitmix64 from
  // (seed, site, draw index), so the multiset of latencies a site sees is
  // a pure function of the seed — whichever thread happens to pay which
  // trip. The site stride is the golden-ratio constant the fault
  // injectors already use for per-site seed derivation.
  const uint64_t index =
      st.latency_draws.fetch_add(1, std::memory_order_relaxed);
  Rng rng(cm.latency_seed + static_cast<uint64_t>(site) *
                                0x9e3779b97f4a7c15ull +
          index * 0xbf58476d1ce4e5b9ull);
  uint64_t us = cm.latency_lo_us;
  switch (cm.latency_model) {
    case LatencyModel::kFixed:
      us = cm.trip_latency_us;  // unreachable: gated above
      break;
    case LatencyModel::kUniform:
      us = cm.latency_lo_us +
           rng.Below(cm.latency_hi_us - cm.latency_lo_us + 1);
      break;
    case LatencyModel::kTwoPoint: {
      const uint64_t slow_per_million =
          static_cast<uint64_t>(cm.latency_slow_share * 1e6);
      us = rng.Below(1000000) < slow_per_million ? cm.latency_hi_us
                                                 : cm.latency_lo_us;
      break;
    }
  }
  // EWMA update, alpha 1/4, fixed-point us << 8. The first observation
  // seeds the average directly (0 is the no-observation sentinel; real
  // latencies are >= 1us so it cannot occur naturally).
  const uint64_t sample_q8 = us << 8;
  uint64_t cur = st.latency_ewma_q8.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = cur == 0 ? sample_q8 : cur - (cur >> 2) + (sample_q8 >> 2);
  } while (!st.latency_ewma_q8.compare_exchange_weak(
      cur, next, std::memory_order_relaxed));
  if (st.hist_latency != nullptr) st.hist_latency->Observe(us);
  return us;
}

SiteDatabase::TripDraw SiteDatabase::DrawHedgedTrip(size_t site) const {
  const SiteState& st = *site_states_[site];
  if (hedge_after_ == 0 || st.costs.latency_model == LatencyModel::kFixed) {
    // Hedging off, or a deterministic site (a backup could never beat the
    // primary): the plain trip, zero extra billing.
    return TripDraw{TripLatencyUs(site), 0};
  }
  // Read the EWMA *before* drawing, so the threshold reflects past trips
  // only; the primary draw itself then feeds the average as usual.
  const uint64_t ewma = site_latency_ewma_us(site);
  const uint64_t primary = DrawTripLatencyUs(site);
  if (ewma == 0 || primary <= hedge_after_ * ewma) {
    return TripDraw{primary, 0};
  }
  // The primary overshot: launch the deterministic single backup at the
  // threshold instant and take whichever attempt lands first. The backup
  // is a real physical trip whatever happens — the caller bills exactly
  // one extra trip per issued hedge, won or wasted.
  const uint64_t threshold = hedge_after_ * ewma;
  const uint64_t backup = DrawTripLatencyUs(site);
  const uint64_t hedged = threshold + backup;
  hedges_issued_.fetch_add(1, std::memory_order_relaxed);
  if (ctr_hedge_issued_ != nullptr) ctr_hedge_issued_->Add(1);
  if (hedged < primary) {
    hedges_won_.fetch_add(1, std::memory_order_relaxed);
    if (ctr_hedge_won_ != nullptr) ctr_hedge_won_->Add(1);
    return TripDraw{hedged, 1};
  }
  hedges_wasted_.fetch_add(1, std::memory_order_relaxed);
  if (ctr_hedge_wasted_ != nullptr) ctr_hedge_wasted_->Add(1);
  return TripDraw{primary, 1};
}

Status SiteDatabase::FetchRemote(size_t site, const std::string& pred,
                                 size_t count) {
  SiteState& st = *site_states_[site];
  obs::Span span("distsim.remote_read", "distsim");
  if (span.active()) {
    span.Attr("pred", pred);
    span.Attr("site", static_cast<int64_t>(site));
    span.Attr("tuples", static_cast<int64_t>(count));
  }
  obs::Stopwatch fill_timer;
  if (st.budget != nullptr) {
    // A trip the budget cannot afford is refused, not paid: no trip is
    // billed, no injector draw is consumed.
    CCPI_RETURN_IF_ERROR(st.budget->OnRemoteTrip());
  }
  SleepUs(TripLatencyUs(site));
  // The round trip is paid whether or not it succeeds.
  remote_trips_.fetch_add(1, std::memory_order_relaxed);
  st.remote_trips.fetch_add(1, std::memory_order_relaxed);
  if (ctr_remote_trips_ != nullptr) ctr_remote_trips_->Add(1);
  if (st.ctr_trips != nullptr) st.ctr_trips->Add(1);
  if (st.injector != nullptr) {
    Status fault = st.injector->InjectOnRead(pred);
    if (!fault.ok()) {
      remote_failures_.fetch_add(1, std::memory_order_relaxed);
      st.remote_failures.fetch_add(1, std::memory_order_relaxed);
      if (ctr_remote_failures_ != nullptr) ctr_remote_failures_->Add(1);
      if (st.ctr_failures != nullptr) st.ctr_failures->Add(1);
      if (span.active()) span.Attr("fault", fault.message());
      return fault;
    }
  }
  remote_tuples_.fetch_add(count, std::memory_order_relaxed);
  st.remote_tuples.fetch_add(count, std::memory_order_relaxed);
  if (ctr_remote_tuples_ != nullptr) ctr_remote_tuples_->Add(count);
  fill_timer.RecordTo(hist_fill_latency_);
  return Status::OK();
}

void SiteDatabase::PrefetchRemote(const std::set<std::string>& preds,
                                  ThreadPool* pool, const StagedTrips* slept) {
  // Under fault injection the per-read draw alignment forbids batching;
  // the manager already skips prefetch then, this guard makes a direct
  // call harmless too.
  if (!cache_enabled_ || any_fault_injector()) return;
  // Group the cold/stale relations by owning site: each site's batch is
  // one coalesced round trip however many relations it carries. A site's
  // trip was already slept iff a speculation staged every relation of its
  // batch at the version the batch fetches now.
  std::vector<std::vector<std::string>> batches(site_states_.size());
  std::vector<char> covered(site_states_.size(), slept != nullptr);
  for (const std::string& pred : preds) {
    if (IsLocal(pred)) continue;
    const size_t site = SiteOf(pred);
    const uint64_t version = cache_source().Get(pred, 0).version();
    switch (site_states_[site]->cache.Find(pred, version)) {
      case RemoteReadCache::Lookup::kHit:
        continue;  // already current: no logical read happened, bill nothing
      case RemoteReadCache::Lookup::kMissStale:
        if (ctr_cache_invalidations_ != nullptr) {
          ctr_cache_invalidations_->Add(1);
        }
        [[fallthrough]];
      case RemoteReadCache::Lookup::kMissCold:
        if (ctr_cache_misses_ != nullptr) ctr_cache_misses_->Add(1);
        break;
    }
    batches[site].push_back(pred);
    if (covered[site]) {
      auto staged = slept->versions.find(pred);
      covered[site] =
          staged != slept->versions.end() && staged->second == version;
    }
  }
  std::vector<size_t> work;
  for (size_t s = 0; s < batches.size(); ++s) {
    if (!batches[s].empty()) work.push_back(s);
  }
  if (work.empty()) return;

  auto fetch_batch = [&](size_t k) -> Status {
    ActiveReadGuard guard(&active_reads_);
    const size_t site = work[k];
    SiteState& st = *site_states_[site];
    obs::Span span("distsim.remote_batch", "distsim");
    if (span.active()) {
      span.Attr("site", static_cast<int64_t>(site));
      span.Attr("relations", static_cast<int64_t>(batches[site].size()));
    }
    obs::Stopwatch fill_timer;
    if (st.budget != nullptr) {
      CCPI_RETURN_IF_ERROR(st.budget->Check());
      // One budgeted trip buys the whole batch; a refusal leaves the
      // site's entries unfilled and the fan-out's own reads will shed
      // against the same exhausted scope.
      CCPI_RETURN_IF_ERROR(st.budget->OnRemoteTrip());
    }
    // The batch trip is the hedging point: with hedging armed and a slow
    // draw, a single backup attempt races the primary. An issued hedge
    // bills exactly one extra physical trip (the tuples are billed once —
    // both attempts carry the same payload); the budget's trip cap was
    // charged once above, before paying, per the refuse-before-pay rule —
    // the backup is the simulator's own recovery of an already-approved
    // trip, not a second logical fetch. The draws are consumed here even
    // when a speculation already slept the trip, so the site's latency
    // stream advances in commit order either way.
    const TripDraw draw = DrawHedgedTrip(site);
    if (!covered[site]) SleepUs(draw.sleep_us);
    const size_t trips = 1 + draw.extra_trips;
    remote_trips_.fetch_add(trips, std::memory_order_relaxed);
    st.remote_trips.fetch_add(trips, std::memory_order_relaxed);
    if (ctr_remote_trips_ != nullptr) ctr_remote_trips_->Add(trips);
    if (st.ctr_trips != nullptr) st.ctr_trips->Add(trips);
    for (const std::string& pred : batches[site]) {
      const Relation& rel = cache_source().Get(pred, 0);
      remote_tuples_.fetch_add(rel.size(), std::memory_order_relaxed);
      st.remote_tuples.fetch_add(rel.size(), std::memory_order_relaxed);
      if (ctr_remote_tuples_ != nullptr) ctr_remote_tuples_->Add(rel.size());
      st.cache.NoteFill(pred, rel.version());
    }
    fill_timer.RecordTo(hist_fill_latency_);
    return Status::OK();
  };
  if (pool != nullptr && pool->thread_count() > 1 && work.size() > 1) {
    // Concurrent per-site round trips. Budget refusals surface per site;
    // the fan-out that follows re-encounters the same exhausted scopes,
    // so swallowing the status here loses nothing.
    (void)pool->ParallelFor(work.size(), fetch_batch);
  } else {
    for (size_t k = 0; k < work.size(); ++k) {
      (void)fetch_batch(k);
    }
  }
}

SiteDatabase::StagedTrips SiteDatabase::StageRemoteTrips(
    const std::set<std::string>& preds, const Database& snapshot) const {
  StagedTrips staged;
  std::vector<char> paid(site_states_.size(), 0);
  for (const std::string& pred : preds) {
    if (IsLocal(pred)) continue;
    const size_t site = SiteOf(pred);
    const uint64_t version = snapshot.Get(pred, 0).version();
    if (site_states_[site]->cache.Find(pred, version) ==
        RemoteReadCache::Lookup::kHit) {
      continue;
    }
    staged.versions.emplace(pred, version);
    paid[site] = 1;
  }
  // The round trips' wall-clock cost is paid here, on the speculation
  // thread, where it overlaps other episodes' work; everything observable
  // waits for the commit-time PrefetchRemote. The per-site trips overlap
  // each other too, so the slowest one is the wait. Under a non-fixed
  // latency model the speculation sleeps a draw-free hint (the
  // distribution's fast mode): consuming a real draw here would let
  // speculation-thread interleaving reorder the site's deterministic
  // latency stream. The real draw is consumed at commit, in commit order.
  uint64_t wait_us = 0;
  for (size_t s = 0; s < paid.size(); ++s) {
    if (!paid[s]) continue;
    const CostModel& cm = site_states_[s]->costs;
    wait_us = std::max(wait_us, cm.latency_model == LatencyModel::kFixed
                                    ? cm.trip_latency_us
                                    : cm.latency_lo_us);
  }
  SleepUs(wait_us);
  return staged;
}

size_t SiteDatabase::RecoverSiteCache(size_t site,
                                      const std::set<std::string>& preds) {
  CCPI_CHECK(site < site_states_.size());
  if (!cache_enabled_) return 0;
  SiteState& st = *site_states_[site];
  size_t revalidated = 0;
  for (const std::string& pred : preds) {
    if (IsLocal(pred) || SiteOf(pred) != site) continue;
    const Relation& rel = cache_source().Get(pred, 0);
    // Only entries the outage left behind (poisoned fills, versions that
    // moved while the site was dark) are reconciled; never-fetched
    // relations stay cold until a check actually needs them.
    if (st.cache.Find(pred, rel.version()) !=
        RemoteReadCache::Lookup::kMissStale) {
      continue;
    }
    obs::Span span("distsim.site_recover", "distsim");
    if (span.active()) {
      span.Attr("pred", pred);
      span.Attr("site", static_cast<int64_t>(site));
    }
    // The normal read path: the trip is billed, the site's schedule draw
    // is consumed, and a fetch that still faults leaves the entry
    // poisoned for the next recovery pass.
    if (ReadRemote(pred, rel.size()).ok()) ++revalidated;
  }
  return revalidated;
}

}  // namespace ccpi
