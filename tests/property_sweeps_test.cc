// Parameterized property sweeps: each suite re-runs a randomized invariant
// check across seeds (and, where it matters, across a family of constraint
// shapes). These are the repo's substitute for the full proofs deferred to
// Gupta [1994]: every algorithm is cross-validated against an independent
// implementation or a brute-force oracle.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "containment/cqc.h"
#include "containment/exact.h"
#include "containment/klug.h"
#include "core/cqc_form.h"
#include "core/icq_compiler.h"
#include "core/local_test.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "updates/rewrite.h"
#include "util/rng.h"

namespace ccpi {
namespace {

Rule MustRule(const std::string& text) {
  auto r = ParseRule(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

// --- Sweep 1: Theorem 5.1 == Klug == exact oracle --------------------------

class Theorem51Agreement : public ::testing::TestWithParam<uint64_t> {};

CQ RandomNormalFormCqc(Rng* rng, int atoms, int comps) {
  CQ q;
  q.head.pred = kPanic;
  int vars = 0;
  for (int i = 0; i < atoms; ++i) {
    q.positives.push_back(
        Atom{"r", {Term::Var("V" + std::to_string(vars++)),
                   Term::Var("V" + std::to_string(vars++))}});
  }
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq, CmpOp::kNe,
                       CmpOp::kGt, CmpOp::kGe};
  for (int i = 0; i < comps; ++i) {
    Term lhs = Term::Var("V" + std::to_string(rng->Below(
                                   static_cast<uint64_t>(vars))));
    Term rhs = rng->Chance(1, 3)
                   ? Term::Const(Value(rng->Range(0, 3) * 10))
                   : Term::Var("V" + std::to_string(rng->Below(
                                         static_cast<uint64_t>(vars))));
    q.comparisons.push_back(Comparison{lhs, ops[rng->Below(6)], rhs});
  }
  return q;
}

TEST_P(Theorem51Agreement, MatchesKlugAndOracle) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    CQ c1 = RandomNormalFormCqc(&rng, 2, 3);
    UCQ u2 = {RandomNormalFormCqc(&rng, 1, 2),
              RandomNormalFormCqc(&rng, 1, 2)};
    auto t51 = CqcContainedInUnion(c1, u2);
    ASSERT_TRUE(t51.ok()) << t51.status().ToString();
    auto klug = KlugContainedInUnion(c1, u2);
    ASSERT_TRUE(klug.ok());
    EXPECT_EQ(*t51, *klug) << "C1: " << c1.ToString();
    auto oracle = ExactUcqContained({c1}, u2);
    if (oracle.ok()) {
      EXPECT_EQ(*t51, *oracle) << "C1: " << c1.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem51Agreement,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// --- Sweep 2: local-test soundness + completeness across CQC shapes --------

// Parameters hold the rule text as std::string, not const char*: gtest prints
// a char pointer with its address, which would put an ASLR-dependent address
// into every discovered test name.
using LocalTestParam = std::tuple<std::string, uint64_t>;

class LocalTestSweep : public ::testing::TestWithParam<LocalTestParam> {};

TEST_P(LocalTestSweep, SoundAndComplete) {
  auto [text, seed] = GetParam();
  Rng rng(seed);
  auto cqc = MakeCqc(MustRule(text), "l");
  ASSERT_TRUE(cqc.ok()) << cqc.status().ToString();
  Program constraint;
  constraint.rules.push_back(cqc->ToCQ().ToRule());
  size_t arity = cqc->local_arity();

  for (int trial = 0; trial < 25; ++trial) {
    Relation local(arity);
    size_t n = rng.Below(4);
    for (size_t i = 0; i < n; ++i) {
      Tuple s;
      for (size_t a = 0; a < arity; ++a) s.push_back(V(rng.Range(0, 8)));
      local.Insert(s);
    }
    Tuple t;
    for (size_t a = 0; a < arity; ++a) t.push_back(V(rng.Range(0, 8)));

    auto result = CompleteLocalTestOnInsert(*cqc, t, local);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->outcome == Outcome::kUnknown) {
      // Completeness: the witness remote state breaks the constraint after
      // the insert and not before.
      if (!result->witness_remote.has_value()) continue;  // dense-only model
      Database db = *result->witness_remote;
      for (const Tuple& s : local.rows()) {
        ASSERT_TRUE(db.Insert("l", s).ok());
      }
      auto before = IsViolated(constraint, db);
      ASSERT_TRUE(before.ok());
      EXPECT_FALSE(*before) << "witness violates the before-state\n"
                            << db.ToString();
      ASSERT_TRUE(db.Insert("l", t).ok());
      auto after = IsViolated(constraint, db);
      ASSERT_TRUE(after.ok());
      EXPECT_TRUE(*after) << "witness fails to violate after " +
                                 TupleToString(t);
    } else if (result->outcome == Outcome::kHolds) {
      // Soundness on an exhaustive small remote grid.
      for (int64_t z1 = -1; z1 <= 9; ++z1) {
        Database db;
        ASSERT_TRUE(db.Insert("r", {V(z1)}).ok());
        ASSERT_TRUE(db.Insert("r2", {V(z1), V(z1 + 1)}).ok());
        for (const Tuple& s : local.rows()) {
          ASSERT_TRUE(db.Insert("l", s).ok());
        }
        auto before = IsViolated(constraint, db);
        ASSERT_TRUE(before.ok());
        if (*before) continue;  // inconsistent before-state: not a witness
        Database after_db = db;
        ASSERT_TRUE(after_db.Insert("l", t).ok());
        auto after = IsViolated(constraint, after_db);
        ASSERT_TRUE(after.ok());
        EXPECT_FALSE(*after) << "holds-verdict broken at z=" << z1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConstraintFamilies, LocalTestSweep,
    ::testing::Combine(
        ::testing::Values(
            // Forbidden intervals (Example 5.3).
            "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y",
            // Open bounds and a local filter.
            "panic :- l(X,Y) & r(Z) & X < Z & Z < Y & X < Y",
            // One-sided ray.
            "panic :- l(X,Y) & r(Z) & Y <= Z",
            // Disequality puncture.
            "panic :- l(X,Y) & r(Z) & Z <> X",
            // Two remote subgoals sharing the remote variable by equality.
            "panic :- l(X,Y) & r(Z) & r2(W,W2) & X <= Z & Z <= Y & W = Z",
            // Remote variable compared against two local endpoints plus a
            // second free remote attribute.
            "panic :- l(X,Y) & r2(Z,U) & X <= Z & Z <= Y"),
        ::testing::Values(101u, 202u)));

// --- Sweep 3: the three Fig 6.1 implementations agree -----------------------

using IcqParam = std::tuple<std::string, uint64_t>;
class IcqAgreement : public ::testing::TestWithParam<IcqParam> {};

TEST_P(IcqAgreement, DatalogDirectTheorem52) {
  auto [text, seed] = GetParam();
  Rng rng(seed);
  Rule rule = MustRule(text);
  auto comp = CompileIcq(rule, "l");
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  auto cqc = MakeCqc(rule, "l");
  ASSERT_TRUE(cqc.ok());
  size_t arity = comp->local_arity;

  for (int trial = 0; trial < 20; ++trial) {
    Database db;
    Relation local(arity);
    size_t n = rng.Below(4);
    for (size_t i = 0; i < n; ++i) {
      Tuple s;
      for (size_t a = 0; a < arity; ++a) s.push_back(V(rng.Range(0, 6)));
      local.Insert(s);
      ASSERT_TRUE(db.Insert("l", s).ok());
    }
    Tuple t;
    for (size_t a = 0; a < arity; ++a) t.push_back(V(rng.Range(0, 6)));

    auto datalog = IcqLocalTestOnInsert(*comp, db, t);
    auto direct = IcqDirectTestOnInsert(*comp, local, t);
    auto thm52 = CompleteLocalTestOnInsert(*cqc, t, local);
    ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(thm52.ok());
    EXPECT_EQ(*datalog, *direct)
        << text << "\nt=" << TupleToString(t) << "\n" << local.ToString("l");
    EXPECT_EQ(*direct, thm52->outcome)
        << text << "\nt=" << TupleToString(t) << "\n" << local.ToString("l");
  }
}

INSTANTIATE_TEST_SUITE_P(
    IcqFamilies, IcqAgreement,
    ::testing::Combine(
        ::testing::Values(
            "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y",
            "panic :- l(X,Y) & r(Z) & X < Z & Z < Y",
            "panic :- l(X,Y) & r(Z) & X <= Z",
            "panic :- l(X,Y) & r(Z) & Z <> X & X <= Z & Z <= Y",
            "panic :- l(K,X) & r(K,Z) & X <= Z",
            "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y & X < Y"),
        ::testing::Values(7u, 77u)));

// --- Sweep 4: rewrite semantics across update kinds and encodings ----------

class RewriteSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriteSemantics, BeforeEqualsAfter) {
  Rng rng(GetParam());
  auto constraint = ParseProgram(
      "panic :- p(X,Y) & q(Y,Z) & not s(X,Z) & X < Z\n"
      "panic :- q(X,X)\n");
  ASSERT_TRUE(constraint.ok());
  for (int trial = 0; trial < 15; ++trial) {
    Database db;
    for (int i = 0; i < 6; ++i) {
      const char* preds[] = {"p", "q", "s"};
      ASSERT_TRUE(db.Insert(preds[rng.Below(3)],
                            {V(rng.Range(0, 3)), V(rng.Range(0, 3))})
                      .ok());
    }
    Tuple t = {V(rng.Range(0, 3)), V(rng.Range(0, 3))};
    const char* preds[] = {"p", "q", "s"};
    std::string pred = preds[rng.Below(3)];
    Update u = rng.Chance(1, 2) ? Update::Insert(pred, t)
                                : Update::Delete(pred, t);
    auto rewritten = RewriteAfterUpdate(*constraint, u);
    ASSERT_TRUE(rewritten.ok());
    Database after = db;
    ASSERT_TRUE(u.ApplyTo(&after).ok());
    auto lhs = IsViolated(*rewritten, db);
    auto rhs = IsViolated(*constraint, after);
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    EXPECT_EQ(*lhs, *rhs) << u.ToString() << "\n" << db.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteSemantics,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Sweep 5: evaluation ablations agree ------------------------------------

class EvalAblation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvalAblation, NaiveIndexlessSeminaiveAgree) {
  Rng rng(GetParam());
  auto program = ParseProgram(
      "panic :- reach(X,Y) & not e(X,Y) & X < Y\n"
      "reach(X,Y) :- e(X,Y)\n"
      "reach(X,Y) :- reach(X,Z) & e(Z,Y)\n");
  ASSERT_TRUE(program.ok());
  for (int trial = 0; trial < 10; ++trial) {
    Database db;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          db.Insert("e", {V(rng.Range(0, 5)), V(rng.Range(0, 5))}).ok());
    }
    EvalOptions seminaive;
    EvalOptions naive;
    naive.use_seminaive = false;
    EvalOptions noindex;
    noindex.use_index = false;
    auto a = IsViolated(*program, db, seminaive);
    auto b = IsViolated(*program, db, naive);
    auto c = IsViolated(*program, db, noindex);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(*a, *c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalAblation,
                         ::testing::Values(10u, 20u, 30u, 40u));

}  // namespace
}  // namespace ccpi
