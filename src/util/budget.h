#ifndef CCPI_UTIL_BUDGET_H_
#define CCPI_UTIL_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace ccpi {

/// Cooperative cancellation flag, shared between the party that decides to
/// abandon some work and the code doing it. Thread-safe; Cancel is sticky
/// until Reset. A BudgetScope built over a token reports
/// kResourceExhausted from every checkpoint once the token is cancelled,
/// so in-flight evaluations unwind at their next budget check instead of
/// being torn down.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  void Reset() { cancelled_.store(false, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Resource envelope for one unit of checking work (a whole update episode
/// or a single tier-3 evaluation). Every field uses 0 = unlimited, so a
/// default-constructed budget imposes nothing.
struct ExecutionBudget {
  /// Wall-clock deadline (steady_clock) measured from BudgetScope::Start;
  /// clamped to the clock's last instant when it reaches past it.
  uint64_t deadline_ms = 0;
  /// Cap on fixpoint rounds across the evaluation (all strata together).
  uint64_t max_fixpoint_rounds = 0;
  /// Cap on tuples derived by the evaluation.
  uint64_t max_derived_tuples = 0;
  /// Cap on physical remote round trips (cache hits are free: the cache
  /// genuinely stretches this budget, see docs/budgets.md).
  uint64_t max_remote_trips = 0;

  bool armed() const {
    return deadline_ms != 0 || max_fixpoint_rounds != 0 ||
           max_derived_tuples != 0 || max_remote_trips != 0;
  }
};

/// An armed ExecutionBudget over a concrete start instant, checked
/// cooperatively at evaluation checkpoints. A default-constructed scope is
/// *inert*: every checkpoint is a single branch — no clock read, no
/// atomic, no allocation — which is how unbudgeted runs stay bit-identical
/// to the pre-budget code (callers pass a null scope pointer instead of an
/// inert scope wherever possible, making the fast path a null check).
///
/// Checkpoints are const and internally atomic so one scope may be shared
/// by several checker threads (the manager's per-episode scope): the trip
/// and tuple counters then accumulate in global arrival order, which is
/// why thread-count-deterministic budgeting splits caps into per-item
/// child scopes (Split) instead of sharing one counter.
class BudgetScope {
 public:
  BudgetScope() = default;  // inert: active() false, every check OK

  BudgetScope(const BudgetScope& other) { *this = other; }
  BudgetScope& operator=(const BudgetScope& other);

  /// Arms `budget` starting now. `cancel` (optional, not owned, must
  /// outlive the scope) makes every checkpoint honor the token.
  static BudgetScope Start(const ExecutionBudget& budget,
                           const CancellationToken* cancel = nullptr);

  /// Child scope for one of `ways` parallel work items: each nonzero cap
  /// of this scope is split evenly (becoming max(cap / ways, 1)), the
  /// absolute deadline and cancellation token are shared, and `extra`'s
  /// own limits are folded in (tightest wins; extra.deadline_ms counts
  /// from now). The result depends only on (this budget, ways, extra),
  /// never on sibling progress, so a parallel fan-out sheds identically
  /// at any thread count. Works on an inert parent too: the child is then
  /// armed by `extra` alone (or inert if extra is empty).
  BudgetScope Split(size_t ways, const ExecutionBudget& extra = {}) const;

  bool active() const { return active_; }
  const ExecutionBudget& budget() const { return budget_; }

  /// Checkpoint at the start of a fixpoint round: counts the round
  /// against max_fixpoint_rounds, then checks deadline + cancellation.
  Status OnFixpointRound() const;
  /// Checkpoint after a batch of `n` derived tuples.
  Status OnDerivedTuples(uint64_t n) const;
  /// Checkpoint before paying one physical remote round trip: a non-OK
  /// return means the trip must NOT be paid (deadline-aware refusal).
  Status OnRemoteTrip() const;
  /// Deadline + cancellation only (per RA node, per EDB enumeration).
  Status Check() const;

  bool has_deadline() const { return active_ && budget_.deadline_ms != 0; }
  /// Milliseconds left before the deadline (0 once expired; only
  /// meaningful when has_deadline()).
  uint64_t remaining_ms() const;
  /// Checkpoints evaluated so far (diagnostics; inert scopes count none).
  uint64_t checkpoints() const {
    return checks_.load(std::memory_order_relaxed);
  }

 private:
  Status CheckDeadline() const;
  static Status Exhausted(const char* what);

  bool active_ = false;
  ExecutionBudget budget_;
  std::chrono::steady_clock::time_point deadline_{};
  const CancellationToken* cancel_ = nullptr;
  mutable std::atomic<uint64_t> rounds_{0};
  mutable std::atomic<uint64_t> tuples_{0};
  mutable std::atomic<uint64_t> trips_{0};
  mutable std::atomic<uint64_t> checks_{0};
};

}  // namespace ccpi

#endif  // CCPI_UTIL_BUDGET_H_
