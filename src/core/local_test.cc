#include "core/local_test.h"

#include "containment/cqc.h"
#include "containment/witness.h"
#include "util/check.h"

namespace ccpi {

Result<LocalTestResult> CompleteLocalTestOnInsert(
    const Cqc& c, const Tuple& t, const Relation& local_relation,
    const std::vector<Cqc>& assumed) {
  if (t.size() != c.local_arity()) {
    return Status::InvalidArgument("inserted tuple arity mismatch");
  }
  if (local_relation.arity() != c.local_arity()) {
    return Status::InvalidArgument("local relation arity mismatch");
  }
  for (const Cqc& other : assumed) {
    if (other.local_pred != c.local_pred ||
        other.local_arity() != c.local_arity()) {
      return Status::InvalidArgument(
          "assumed constraints must share the local predicate");
    }
  }

  CQ red_t = Reduce(c, t);
  LocalTestResult result;

  // A constraint with no remote subgoals is decided outright by the local
  // information — the paper's "third outcome".
  if (c.remotes.empty()) {
    bool fires = true;
    for (const Comparison& cmp : red_t.comparisons) {
      // All variables were local, so the comparisons are ground.
      CCPI_CHECK(cmp.lhs.is_const() && cmp.rhs.is_const());
      if (!EvalCmp(cmp.lhs.constant(), cmp.op, cmp.rhs.constant())) {
        fires = false;
        break;
      }
    }
    result.outcome = fires ? Outcome::kViolated : Outcome::kHolds;
    return result;
  }

  UCQ covering;
  covering.reserve(local_relation.size() * (1 + assumed.size()));
  // On a frozen relation the containment walk runs over the columnar
  // snapshot: holding the segment pins an immutable image of the rows (in
  // insertion order, so the covering UCQ is disjunct-for-disjunct the same
  // as the row walk), decoupling the walk from any later mutation of the
  // live relation — a relation clones a segment someone holds before it
  // updates it.
  std::shared_ptr<const ColumnarSegment> seg =
      local_relation.columnar_segment();
  if (seg != nullptr) {
    for (size_t i = 0; i < seg->size(); ++i) {
      Tuple s = seg->GatherRow(i);
      covering.push_back(Reduce(c, s));
      for (const Cqc& other : assumed) {
        covering.push_back(Reduce(other, s));
      }
    }
  } else {
    for (const Tuple& s : local_relation.rows()) {
      covering.push_back(Reduce(c, s));
      for (const Cqc& other : assumed) {
        covering.push_back(Reduce(other, s));
      }
    }
  }
  result.reductions = covering.size();

  CCPI_ASSIGN_OR_RETURN(std::optional<arith::Conjunction> refutation,
                        CqcRefutation(red_t, covering));
  if (!refutation.has_value()) {
    result.outcome = Outcome::kHolds;
    return result;
  }
  result.outcome = Outcome::kUnknown;
  result.witness_remote = BuildCanonicalDatabase(red_t, *refutation);
  return result;
}

Result<LocalTestResult> CompleteLocalTestOnDelete(
    const Cqc& c, const Tuple& t, const Relation& local_relation) {
  if (t.size() != c.local_arity()) {
    return Status::InvalidArgument("deleted tuple arity mismatch");
  }
  if (local_relation.arity() != c.local_arity()) {
    return Status::InvalidArgument("local relation arity mismatch");
  }
  // CQCs are monotone (no negation): shrinking L shrinks the violations.
  LocalTestResult result;
  result.outcome = Outcome::kHolds;
  return result;
}

}  // namespace ccpi
