#include "layers.h"

#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "core/cqc_form.h"
#include "core/icq_compiler.h"
#include "core/local_test.h"
#include "core/ra_local_test.h"
#include "datalog/parser.h"
#include "datalog/unfold.h"
#include "eval/engine.h"
#include "updates/independence.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

bool Mentions(const ccpi::Program& p, const std::string& pred) {
  for (const ccpi::Rule& r : p.rules) {
    for (const ccpi::Literal& l : r.body) {
      if (!l.is_comparison() && l.atom.pred == pred) return true;
    }
  }
  return false;
}

}  // namespace

/// Tier-2 inputs of one (constraint, local predicate): the single-CQ form,
/// its Fig 6.1 interval compilation and its Theorem 5.2 normal form.
struct LayerReplay::Tier2 {
  ccpi::Rule rule;
  bool arithmetic_free = false;
  std::optional<ccpi::IcqCompilation> icq;
  std::optional<ccpi::Cqc> cqc;
};

ccpi::Result<LayerReplay> LayerReplay::Make(const Plan& plan,
                                            const std::vector<bool>& subsumed) {
  LayerReplay r;
  r.plan_ = &plan;
  r.subsumed_ = subsumed;
  for (const ConstraintText& c : plan.constraints) {
    CCPI_ASSIGN_OR_RETURN(ccpi::Program p, ccpi::ParseProgram(c.text));
    CCPI_ASSIGN_OR_RETURN(ccpi::CompiledProgram cp, ccpi::CompileProgram(p));
    r.programs_.push_back(std::move(p));
    r.compiled_.push_back(std::move(cp));
  }
  const size_t n = r.programs_.size();
  r.assumed_.resize(n);
  for (size_t c = 0; c < n; ++c) {
    for (size_t o = 0; o < n; ++o) {
      if (o != c && !subsumed[o]) r.assumed_[c].push_back(r.programs_[o]);
    }
  }
  for (const Fact& f : plan.facts) {
    CCPI_RETURN_IF_ERROR(r.db_.Insert(f.pred, f.tuple));
  }
  r.samples_.update_us.assign(plan.stream.size(), 0.0);
  return r;
}

/// Null when tier 2 cannot apply to constraint `c` and inserts into `pred`.
const LayerReplay::Tier2* LayerReplay::FindTier2(size_t c,
                                                 const std::string& pred) {
  auto key = std::make_pair(c, pred);
  auto it = tier2_.find(key);
  if (it != tier2_.end()) return it->second.get();
  std::shared_ptr<Tier2> t2;
  ccpi::Result<ccpi::UCQ> ucq = ccpi::UnfoldToUCQ(programs_[c]);
  if (ucq.ok() && ucq->size() == 1 && !(*ucq)[0].HasNegation()) {
    t2 = std::make_shared<Tier2>();
    t2->rule = (*ucq)[0].ToRule();
    t2->arithmetic_free = !(*ucq)[0].HasArithmetic();
    ccpi::Result<ccpi::IcqCompilation> icq = ccpi::CompileIcq(t2->rule, pred);
    if (icq.ok()) t2->icq = std::move(*icq);
    ccpi::Result<ccpi::Cqc> cqc = ccpi::MakeCqc(t2->rule, pred);
    if (cqc.ok()) t2->cqc = std::move(*cqc);
    if (!t2->arithmetic_free && !t2->icq.has_value() && !t2->cqc.has_value()) {
      t2 = nullptr;
    }
  }
  return tier2_.emplace(key, std::move(t2)).first->second.get();
}

ccpi::Status LayerReplay::Step(size_t i, bool kept) {
  const ccpi::Update& u = plan_->stream[i];
  const bool insert = u.kind == ccpi::Update::Kind::kInsert;
  if (insert == db_.Contains(u.pred, u.tuple)) {
    return ccpi::Status::OK();  // a no-op: the manager checks nothing
  }
  // Runs one layer call in a span that adds a sample to `samples` and
  // counts toward this update's replayed time.
  auto timed = [&](std::vector<double>* samples, auto&& call) {
    samples->push_back(0);
    {
      Span span(&samples->back());
      call();
    }
    samples_.update_us[i] += samples->back();
  };
  auto freeze = [&] {
    timed(&samples_.freeze_us, [&] { db_.FreezeIndexes(); });
  };

  freeze();
  std::vector<size_t> undecided;
  bool violated = false;
  for (size_t c = 0; c < programs_.size(); ++c) {
    if (subsumed_[c] || !Mentions(programs_[c], u.pred)) continue;
    ccpi::Result<ccpi::ContainmentDecision> t1 =
        ccpi::Status::Internal("not run");
    timed(&samples_.t1_us, [&] {
      t1 = ccpi::HoldsAfterUpdate(programs_[c], u, assumed_[c]);
    });
    if (t1.ok() && t1->outcome == ccpi::Outcome::kHolds) continue;

    const Tier2* t2 = nullptr;
    if (insert && plan_->local_preds.count(u.pred) > 0) {
      t2 = FindTier2(c, u.pred);
    }
    if (t2 != nullptr) {
      const ccpi::Relation& local = db_.Get(u.pred, u.tuple.size());
      ccpi::Result<ccpi::Outcome> outcome = ccpi::Outcome::kUnknown;
      // The manager's order: the interval test, then Theorem 5.3, then
      // Theorem 5.2. The interval test reduces against all of L.
      if (t2->icq.has_value()) {
        timed(&samples_.t2_us, [&] {
          outcome = ccpi::IcqDirectTestOnInsert(*t2->icq, local, u.tuple);
        });
        samples_.t2_reductions += local.size();
      } else if (t2->arithmetic_free) {
        timed(&samples_.t2_us, [&] {
          outcome = ccpi::RaLocalTestOnInsert(t2->rule, u.pred, u.tuple, db_);
        });
      } else {
        ccpi::Result<ccpi::LocalTestResult> r =
            ccpi::Status::Internal("not run");
        timed(&samples_.t2_us, [&] {
          r = ccpi::CompleteLocalTestOnInsert(*t2->cqc, u.tuple, local);
        });
        if (r.ok()) {
          outcome = r->outcome;
          samples_.t2_reductions += r->reductions;
        } else {
          outcome = r.status();
        }
      }
      if (outcome.ok() && *outcome == ccpi::Outcome::kHolds) continue;
      if (outcome.ok() && *outcome == ccpi::Outcome::kViolated) {
        violated = true;
        continue;
      }
    }
    undecided.push_back(c);
  }

  if (undecided.empty() || violated) {
    return kept ? u.ApplyTo(&db_) : ccpi::Status::OK();
  }
  // Tier 3 evaluates the tentatively updated state.
  CCPI_RETURN_IF_ERROR(u.ApplyTo(&db_));
  freeze();
  for (size_t c : undecided) {
    ccpi::Result<bool> bad = false;
    timed(&samples_.t3_us, [&] { bad = ccpi::IsViolated(compiled_[c], db_); });
    CCPI_RETURN_IF_ERROR(bad.status());
  }
  if (kept) return ccpi::Status::OK();
  return (insert ? ccpi::Update::Delete(u.pred, u.tuple)
                 : ccpi::Update::Insert(u.pred, u.tuple))
      .ApplyTo(&db_);
}

}  // namespace perfbench
