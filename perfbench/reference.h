#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// The naive reference checker the benchmark holds every verdict against:
// apply the update to a private copy of the database, evaluate every
// constraint anew, and undo the update if any constraint is
// violated. No tiers, no caches, no sites.

#include <vector>

#include "datalog/ast.h"
#include "relational/database.h"
#include "updates/update.h"
#include "util/status.h"
#include "workloads.h"

namespace perfbench {

class NaiveReference {
 public:
  static ccpi::Result<NaiveReference> Make(const Plan& plan);

  /// Applies `u` and keeps it iff no constraint is violated afterwards.
  /// Returns whether the update was kept.
  ccpi::Result<bool> Accepts(const ccpi::Update& u);

  const ccpi::Database& db() const { return db_; }

 private:
  ccpi::Database db_;
  std::vector<ccpi::Program> constraints_;
};

/// Whether the two databases hold the same tuples in every relation.
bool SameContents(const ccpi::Database& a, const ccpi::Database& b);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
