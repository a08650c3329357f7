#include "util/budget.h"

#include <algorithm>
#include <string>

namespace ccpi {
namespace {

// Tightest combination of two caps where 0 means unlimited on either side.
uint64_t MinCap(uint64_t a, uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return std::min(a, b);
}

// Even split of a cap over `ways` work items; an armed cap never splits to
// zero (that would silently turn "tiny budget" into "unlimited").
uint64_t SplitCap(uint64_t cap, size_t ways) {
  if (cap == 0 || ways <= 1) return cap;
  return std::max<uint64_t>(cap / ways, 1);
}

// now + ms, clamped to the clock's last instant: a deadline_ms near 2^63 ns
// or beyond would overflow the time_point and fire at once.
std::chrono::steady_clock::time_point DeadlineFromNow(uint64_t ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - now);
  if (ms >= static_cast<uint64_t>(headroom.count())) {
    return Clock::time_point::max();
  }
  return now + std::chrono::milliseconds(ms);
}

}  // namespace

BudgetScope& BudgetScope::operator=(const BudgetScope& other) {
  active_ = other.active_;
  budget_ = other.budget_;
  deadline_ = other.deadline_;
  cancel_ = other.cancel_;
  rounds_.store(other.rounds_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  tuples_.store(other.tuples_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  trips_.store(other.trips_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  checks_.store(other.checks_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  return *this;
}

BudgetScope BudgetScope::Start(const ExecutionBudget& budget,
                               const CancellationToken* cancel) {
  BudgetScope scope;
  scope.budget_ = budget;
  scope.cancel_ = cancel;
  scope.active_ = budget.armed() || cancel != nullptr;
  if (budget.deadline_ms != 0) {
    scope.deadline_ = DeadlineFromNow(budget.deadline_ms);
  }
  return scope;
}

BudgetScope BudgetScope::Split(size_t ways,
                               const ExecutionBudget& extra) const {
  BudgetScope child;
  child.cancel_ = cancel_;
  child.budget_.max_fixpoint_rounds =
      MinCap(SplitCap(budget_.max_fixpoint_rounds, ways),
             extra.max_fixpoint_rounds);
  child.budget_.max_derived_tuples = MinCap(
      SplitCap(budget_.max_derived_tuples, ways), extra.max_derived_tuples);
  child.budget_.max_remote_trips = MinCap(
      SplitCap(budget_.max_remote_trips, ways), extra.max_remote_trips);
  // The parent deadline is an absolute instant shared by all children; an
  // extra deadline counts from now. Keep whichever fires first.
  child.budget_.deadline_ms = MinCap(budget_.deadline_ms, extra.deadline_ms);
  if (child.budget_.deadline_ms != 0) {
    auto from_extra = std::chrono::steady_clock::time_point::max();
    if (extra.deadline_ms != 0) {
      from_extra = DeadlineFromNow(extra.deadline_ms);
    }
    auto from_parent = budget_.deadline_ms != 0
                           ? deadline_
                           : std::chrono::steady_clock::time_point::max();
    child.deadline_ = std::min(from_parent, from_extra);
  }
  child.active_ = child.budget_.armed() || child.cancel_ != nullptr;
  return child;
}

Status BudgetScope::Exhausted(const char* what) {
  return Status::ResourceExhausted(std::string("execution budget exhausted: ") +
                                   what);
}

Status BudgetScope::CheckDeadline() const {
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return Exhausted("cancelled");
  }
  if (budget_.deadline_ms != 0 &&
      std::chrono::steady_clock::now() >= deadline_) {
    return Exhausted("deadline");
  }
  return Status::OK();
}

Status BudgetScope::OnFixpointRound() const {
  if (!active_) return Status::OK();
  checks_.fetch_add(1, std::memory_order_relaxed);
  uint64_t rounds = rounds_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (budget_.max_fixpoint_rounds != 0 &&
      rounds > budget_.max_fixpoint_rounds) {
    return Exhausted("fixpoint-round cap");
  }
  return CheckDeadline();
}

Status BudgetScope::OnDerivedTuples(uint64_t n) const {
  if (!active_ || n == 0) return Status::OK();
  checks_.fetch_add(1, std::memory_order_relaxed);
  uint64_t tuples = tuples_.fetch_add(n, std::memory_order_relaxed) + n;
  if (budget_.max_derived_tuples != 0 &&
      tuples > budget_.max_derived_tuples) {
    return Exhausted("derived-tuple cap");
  }
  return CheckDeadline();
}

Status BudgetScope::OnRemoteTrip() const {
  if (!active_) return Status::OK();
  checks_.fetch_add(1, std::memory_order_relaxed);
  uint64_t trips = trips_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (budget_.max_remote_trips != 0 && trips > budget_.max_remote_trips) {
    return Exhausted("remote-trip cap");
  }
  return CheckDeadline();
}

Status BudgetScope::Check() const {
  if (!active_) return Status::OK();
  checks_.fetch_add(1, std::memory_order_relaxed);
  return CheckDeadline();
}

uint64_t BudgetScope::remaining_ms() const {
  if (!has_deadline()) return 0;
  auto now = std::chrono::steady_clock::now();
  if (now >= deadline_) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline_ - now)
          .count());
}

}  // namespace ccpi
