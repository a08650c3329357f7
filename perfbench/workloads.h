#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// Seeded workload generator of the end-to-end checking benchmark. A Plan is
// everything one run feeds the program: the local predicates, the
// constraint texts, the initial facts and the update stream. It is a pure
// function of (workload, seed); the manager only ever sees what the Plan
// holds. Both workloads run the manager's defaults: one thread, pipeline
// depth 1, one remote site with a trip latency of 0.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "manager/constraint_manager.h"
#include "relational/tuple.h"
#include "updates/update.h"
#include "util/status.h"

namespace perfbench {

struct ConstraintText {
  std::string name;
  std::string text;  // program in the paper's syntax (goal `panic`)
};

struct Fact {
  std::string pred;
  ccpi::Tuple tuple;
};

struct Plan {
  std::string workload;
  uint64_t seed = 0;

  std::set<std::string> local_preds;
  std::vector<ConstraintText> constraints;
  std::vector<Fact> facts;
  std::vector<ccpi::Update> stream;
};

/// Generates the plan of `workload` from `seed`.
ccpi::Result<Plan> MakePlan(const std::string& workload, uint64_t seed);

/// FNV-1a over the facts and the update stream, in order: equal plans
/// hash equally, and any change to an input shows.
uint64_t PlanHash(const Plan& plan);

/// A manager for the plan's local predicates, with no constraint or fact
/// yet.
std::unique_ptr<ccpi::ConstraintManager> NewManager(const Plan& plan);

/// Sum of the sizes of the plan's local relations in `db`.
size_t LocalTuples(const Plan& plan, const ccpi::Database& db);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
