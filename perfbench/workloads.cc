#include "workloads.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/rng.h"

namespace perfbench {

using ccpi::Rng;
using ccpi::Tuple;
using ccpi::TupleHash;
using ccpi::Update;
using ccpi::V;

namespace {

/// The tuples of one relation as the generator expects them after every
/// update so far: O(1) insert, membership, and uniform random removal.
class TuplePool {
 public:
  bool Contains(const Tuple& t) const { return index_.count(t) > 0; }
  size_t size() const { return rows_.size(); }

  bool Add(const Tuple& t) {
    if (Contains(t)) return false;
    index_.emplace(t, rows_.size());
    rows_.push_back(t);
    return true;
  }

  /// Removes and returns a uniformly drawn tuple. The pool must not be empty.
  Tuple TakeRandom(Rng* rng) {
    size_t i = rng->Below(rows_.size());
    Tuple out = rows_[i];
    index_.erase(out);
    if (i + 1 != rows_.size()) {
      rows_[i] = std::move(rows_.back());
      index_[rows_[i]] = i;
    }
    rows_.pop_back();
    return out;
  }

 private:
  std::vector<Tuple> rows_;
  std::unordered_map<Tuple, size_t, TupleHash> index_;
};

// Both streams repeat one block of update kinds in a fixed order; the seed
// draws every value in them. An update that follows a change to the
// database (an accepted insert or delete, or a tier-3 check's tentative
// apply) pays the re-freeze of the local indexes, one that follows a
// locally rejected insert does not, so the order of kinds sets each
// update's cost. A fixed order gives every seed the same cost profile, and
// places the median and the tail percentile inside clusters of like
// updates rather than on the gaps between them, where they would jump from
// seed to seed.

std::string Sym(const char* prefix, int64_t i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

// ---- local-tiers ----------------------------------------------------------
//
// Interval constraints (ICQ, Thm 6.1) over two local relations of
// kLocalRows tuples each and two small static remote relations. Every key
// owns a base interval [0, kBaseHi] that no remote value falls into, and
// every safe insert is a sub-interval of it, so the complete local test
// settles it from local data. Deletes hold the working set steady.

constexpr int64_t kKeys = 250;
constexpr size_t kLocalRows = 5000;  // per local relation
constexpr int64_t kBaseHi = 400;
constexpr size_t kLocalTiersUpdates = 320;

enum class LocalKind { kSafeInsert, kDelete, kRisky, kMalformed };

Plan LocalTiers(uint64_t seed) {
  Plan plan;
  plan.local_preds = {"reserved", "calibration"};
  plan.constraints = {
      {"no-reserved-order",
       "panic :- reserved(P,Lo,Hi) & order(P,Q) & Lo <= Q & Q <= Hi"},
      {"no-reading-in-window",
       "panic :- calibration(S,Lo,Hi) & reading(S,V) & Lo <= V & V <= Hi"},
      // Purely local: a reservation must be a non-empty range.
      {"sane-range", "panic :- reserved(P,Lo,Hi) & Hi < Lo"},
      // Order comparison that tier 1 settles for every non-negative window.
      {"window-floor", "panic :- calibration(S,Lo,Hi) & Lo < 0"},
      // Strictly inside implies inside: subsumed by no-reserved-order.
      {"strict-reserved-order",
       "panic :- reserved(P,Lo,Hi) & order(P,Q) & Lo < Q & Q < Hi"},
  };

  Rng rng(seed ^ 0x10ca17135ULL);
  // Remote values of each key, all above the base interval.
  std::vector<std::vector<int64_t>> order_q(kKeys), reading_v(kKeys);
  for (int64_t k = 0; k < kKeys; ++k) {
    order_q[k] = {rng.Range(kBaseHi + 100, 700), rng.Range(750, 999)};
    reading_v[k] = {rng.Range(kBaseHi + 100, 700), rng.Range(750, 999)};
    for (int64_t q : order_q[k]) {
      plan.facts.push_back({"order", {V(Sym("p", k)), V(q)}});
    }
    for (int64_t v : reading_v[k]) {
      plan.facts.push_back({"reading", {V(Sym("s", k)), V(v)}});
    }
  }

  // The base intervals are never deleted; everything else is churn.
  const std::vector<std::string> rels = {"reserved", "calibration"};
  const char* key_prefix[] = {"p", "s"};
  std::vector<TuplePool> churn(2);
  // A proper sub-interval of a base interval that the relation lacks; the
  // caller's pool now holds it.
  auto fresh_sub_interval = [&](size_t r) {
    while (true) {
      int64_t lo = rng.Range(0, kBaseHi - 1);
      int64_t hi = std::min<int64_t>(kBaseHi, lo + rng.Range(0, 60));
      Tuple t{V(Sym(key_prefix[r], rng.Range(0, kKeys - 1))), V(lo), V(hi)};
      if (!(lo == 0 && hi == kBaseHi) && churn[r].Add(t)) return t;
    }
  };
  for (size_t r = 0; r < 2; ++r) {
    for (int64_t k = 0; k < kKeys; ++k) {
      plan.facts.push_back(
          {rels[r], {V(Sym(key_prefix[r], k)), V(0), V(kBaseHi)}});
    }
    while (churn[r].size() + kKeys < kLocalRows) {
      plan.facts.push_back({rels[r], fresh_sub_interval(r)});
    }
  }

  // Per block of 20: 7 insert/delete pairs, one insert that overlaps a
  // remote value (tier 3 rejects it), and five calibration windows with a
  // negative lower edge, which the purely local window-floor constraint
  // rejects at tier 2 after the interval test ran. In this order the 7
  // deletes (settled without reading data) are the cheapest 35%; the first
  // insert and the last four windows skip the re-freeze (the next 25%,
  // which holds the median); the other inserts and the first window pay it
  // (35%); the risky insert is the top 5%, which holds the tail percentile
  // (p96.875 of 320 updates).
  std::vector<LocalKind> kinds;
  for (int i = 0; i < 7; ++i) {
    kinds.push_back(LocalKind::kSafeInsert);
    kinds.push_back(LocalKind::kDelete);
  }
  kinds.push_back(LocalKind::kRisky);
  for (int i = 0; i < 5; ++i) kinds.push_back(LocalKind::kMalformed);
  size_t blocks = 0;
  while (plan.stream.size() < kLocalTiersUpdates) {
    for (LocalKind kind : kinds) {
      size_t r = rng.Below(2);
      switch (kind) {
        case LocalKind::kSafeInsert:
          plan.stream.push_back(Update::Insert(rels[r], fresh_sub_interval(r)));
          break;
        case LocalKind::kDelete:
          plan.stream.push_back(
              Update::Delete(rels[r], churn[r].TakeRandom(&rng)));
          break;
        case LocalKind::kRisky: {
          // Alternate relations, so every seed reads both remote relations.
          r = blocks % 2;
          int64_t k = rng.Range(0, kKeys - 1);
          const auto& values = r == 0 ? order_q[k] : reading_v[k];
          int64_t q = values[rng.Below(values.size())];
          plan.stream.push_back(Update::Insert(
              rels[r], {V(Sym(key_prefix[r], k)), V(q - rng.Range(0, 30)),
                        V(q + rng.Range(0, 30))}));
          break;
        }
        case LocalKind::kMalformed:
          plan.stream.push_back(Update::Insert(
              "calibration",
              {V(Sym("s", rng.Range(0, kKeys - 1))), V(-rng.Range(1, 50)),
               V(rng.Range(100, kBaseHi))}));
          break;
      }
    }
    ++blocks;
  }
  return plan;
}

// ---- local-joins ----------------------------------------------------------
//
// Equality-join constraints (arithmetic-free, so tier 2 runs the Theorem 5.3
// RA local test through the plan cache) over two local relations of
// kJoinRows tuples each and three small static remote relations. Every
// employee, department and skill has a base row that is never deleted, so
// an insert that reuses existing values is settled by a selection over the
// local relation. Deletes hold the working set steady.

constexpr int64_t kEmployees = 2000;
constexpr int64_t kDepts = 300;
constexpr int64_t kSkills = 200;
constexpr size_t kJoinRows = 5000;  // per local relation
constexpr int64_t kRemoteRows = 100;  // per remote relation
constexpr size_t kLocalJoinsUpdates = 160;

enum class JoinKind { kSafeInsert, kDelete, kRisky, kSelfAssigned };

Plan LocalJoins(uint64_t seed) {
  Plan plan;
  plan.local_preds = {"emp", "skill"};
  plan.constraints = {
      // Two remote variables each, so the interval compilation does not
      // apply and tier 2 is the RA test: "some row already has this D".
      {"open-dept", "panic :- emp(E,D) & closed(D,Y,R)"},
      {"cleared-emp", "panic :- emp(E,D) & blocked(E,S,T)"},
      {"valid-skill", "panic :- skill(E,S) & revoked(S,A,B)"},
      // Purely local: nobody works in the department numbered like them.
      {"no-self-dept", "panic :- emp(E,E)"},
      // A special case of open-dept: subsumed by it.
      {"open-dept-budget", "panic :- emp(E,D) & closed(D,Y,budget)"},
  };

  Rng rng(seed ^ 0x10c4170145ULL);
  // Remote values lie outside the local ones: closed departments from
  // 1000, blocked employees from 5000, revoked skills from 500.
  const char* reasons[] = {"budget", "merger", "audit"};
  for (int64_t i = 0; i < kRemoteRows; ++i) {
    plan.facts.push_back({"closed",
                          {V(1000 + i), V(rng.Range(1990, 2024)),
                           V(reasons[rng.Below(3)])}});
    plan.facts.push_back(
        {"blocked", {V(5000 + i), V(rng.Range(0, 9)), V(rng.Range(0, 9))}});
    plan.facts.push_back(
        {"revoked", {V(500 + i), V(rng.Range(0, 99)), V(rng.Range(0, 99))}});
  }

  const std::vector<std::string> rels = {"emp", "skill"};
  const int64_t second_domain[] = {kDepts, kSkills};
  std::vector<TuplePool> churn(2);
  // A row over existing values that the relation lacks and that no
  // constraint forbids; the caller's pool now holds it.
  auto fresh_row = [&](size_t r) {
    while (true) {
      int64_t e = rng.Range(0, kEmployees - 1);
      int64_t x = rng.Range(0, second_domain[r] - 1);
      Tuple t{V(e), V(x)};
      if (r == 0 && (e == x || x == (e + 1) % kDepts)) continue;
      if (r == 1 && x == e % kSkills) continue;
      if (churn[r].Add(t)) return t;
    }
  };
  for (int64_t e = 0; e < kEmployees; ++e) {
    plan.facts.push_back({"emp", {V(e), V((e + 1) % kDepts)}});
    plan.facts.push_back({"skill", {V(e), V(e % kSkills)}});
  }
  for (size_t r = 0; r < 2; ++r) {
    while (churn[r].size() + kEmployees < kJoinRows) {
      plan.facts.push_back({rels[r], fresh_row(r)});
    }
  }

  // Per block of 20: 4 self-assignments, which the purely local
  // no-self-dept constraint rejects at tier 2, then 7 insert/delete pairs
  // and 2 inserts that name a closed department, a blocked employee or a
  // revoked skill (tier 3 rejects them), each after a delete. In this
  // order the last three self-assignments and the first insert skip the
  // re-freeze (the cheapest 20%); the other 14 updates pay it (the next
  // 70%, which holds the median); the risky inserts are the top 10%,
  // which holds the tail percentile.
  std::vector<JoinKind> kinds(4, JoinKind::kSelfAssigned);
  for (int i = 0; i < 7; ++i) {
    kinds.push_back(JoinKind::kSafeInsert);
    kinds.push_back(JoinKind::kDelete);
    if (i == 1 || i == 5) kinds.push_back(JoinKind::kRisky);
  }
  size_t risky = 0;
  while (plan.stream.size() < kLocalJoinsUpdates) {
    for (JoinKind kind : kinds) {
      size_t r = rng.Below(2);
      switch (kind) {
        case JoinKind::kSafeInsert:
          plan.stream.push_back(Update::Insert(rels[r], fresh_row(r)));
          break;
        case JoinKind::kDelete:
          plan.stream.push_back(
              Update::Delete(rels[r], churn[r].TakeRandom(&rng)));
          break;
        case JoinKind::kRisky: {
          // Cycle through the three remote relations, so every seed reads
          // each of them.
          const int64_t e = rng.Range(0, kEmployees - 1);
          const int64_t i = rng.Range(0, kRemoteRows - 1);
          switch (risky++ % 3) {
            case 0:
              plan.stream.push_back(
                  Update::Insert("emp", {V(e), V(1000 + i)}));
              break;
            case 1:
              plan.stream.push_back(Update::Insert(
                  "emp", {V(5000 + i), V(rng.Range(0, kDepts - 1))}));
              break;
            default:
              plan.stream.push_back(
                  Update::Insert("skill", {V(e), V(500 + i)}));
              break;
          }
          break;
        }
        case JoinKind::kSelfAssigned: {
          const int64_t d = rng.Range(0, kDepts - 1);
          plan.stream.push_back(Update::Insert("emp", {V(d), V(d)}));
          break;
        }
      }
    }
  }
  return plan;
}

}  // namespace

ccpi::Result<Plan> MakePlan(const std::string& workload, uint64_t seed) {
  Plan plan;
  if (workload == "local-tiers") {
    plan = LocalTiers(seed);
  } else if (workload == "local-joins") {
    plan = LocalJoins(seed);
  } else {
    return ccpi::Status::InvalidArgument("unknown workload: " + workload);
  }
  plan.workload = workload;
  plan.seed = seed;
  return plan;
}

uint64_t PlanHash(const Plan& plan) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= '\n';
    h *= 0x100000001b3ULL;
  };
  for (const Fact& f : plan.facts) mix(f.pred + ccpi::TupleToString(f.tuple));
  for (const Update& u : plan.stream) mix(u.ToString());
  return h;
}

std::unique_ptr<ccpi::ConstraintManager> NewManager(const Plan& plan) {
  return std::make_unique<ccpi::ConstraintManager>(plan.local_preds,
                                                   ccpi::CostModel{});
}

size_t LocalTuples(const Plan& plan, const ccpi::Database& db) {
  size_t n = 0;
  for (const std::string& pred : plan.local_preds) {
    if (db.Has(pred)) n += db.Get(pred, 0).size();
  }
  return n;
}

}  // namespace perfbench
