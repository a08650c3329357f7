#include "reference.h"

#include <set>
#include <string>

#include "datalog/parser.h"
#include "eval/engine.h"

namespace perfbench {

ccpi::Result<NaiveReference> NaiveReference::Make(const Plan& plan) {
  NaiveReference ref;
  for (const ConstraintText& c : plan.constraints) {
    CCPI_ASSIGN_OR_RETURN(ccpi::Program program, ccpi::ParseProgram(c.text));
    ref.constraints_.push_back(std::move(program));
  }
  for (const Fact& f : plan.facts) {
    CCPI_RETURN_IF_ERROR(ref.db_.Insert(f.pred, f.tuple));
  }
  return ref;
}

ccpi::Result<bool> NaiveReference::Accepts(const ccpi::Update& u) {
  const bool present = db_.Contains(u.pred, u.tuple);
  const bool changes =
      u.kind == ccpi::Update::Kind::kInsert ? !present : present;
  CCPI_RETURN_IF_ERROR(u.ApplyTo(&db_));
  for (const ccpi::Program& c : constraints_) {
    CCPI_ASSIGN_OR_RETURN(bool violated, ccpi::IsViolated(c, db_));
    if (!violated) continue;
    if (changes) {
      CCPI_RETURN_IF_ERROR(u.kind == ccpi::Update::Kind::kInsert
                               ? db_.Erase(u.pred, u.tuple)
                               : db_.Insert(u.pred, u.tuple));
    }
    return false;
  }
  return true;
}

bool SameContents(const ccpi::Database& a, const ccpi::Database& b) {
  std::set<std::string> preds;
  for (const std::string& p : a.PredicateNames()) preds.insert(p);
  for (const std::string& p : b.PredicateNames()) preds.insert(p);
  for (const std::string& p : preds) {
    const ccpi::Relation& ra = a.Get(p, 0);
    const ccpi::Relation& rb = b.Get(p, 0);
    if (ra.size() != rb.size()) return false;
    for (const ccpi::Tuple& t : ra.rows()) {
      if (!rb.Contains(t)) return false;
    }
  }
  return true;
}

}  // namespace perfbench
