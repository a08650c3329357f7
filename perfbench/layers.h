#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Timing for the benchmark: the span that times each benchmark call, and
// the traced run's replay that times each layer's public entry point once
// per update.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "eval/engine.h"
#include "relational/database.h"
#include "util/status.h"
#include "workloads.h"

namespace perfbench {

uint64_t NowNs();

/// The benchmark's one timer: on destruction, adds the microseconds since
/// construction to `*total_us`. Every benchmark call whose time a metric
/// reads runs inside a Span.
class Span {
 public:
  explicit Span(double* total_us) : total_us_(total_us), start_ns_(NowNs()) {}
  ~Span() { *total_us_ += static_cast<double>(NowNs() - start_ns_) / 1e3; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* total_us_;
  uint64_t start_ns_;
};

/// What the layer replay measured. Times are microseconds.
struct LayerSamples {
  std::vector<double> freeze_us;  // one per Database::FreezeIndexes
  std::vector<double> t1_us;      // one per HoldsAfterUpdate
  std::vector<double> t2_us;      // one per complete local test
  std::vector<double> t3_us;      // one per IsViolated
  /// Per stream position: the summed time of the layer calls replayed for
  /// that update.
  std::vector<double> update_us;
  size_t t2_reductions = 0;
};

/// Replays updates through the layers' public entry points, on a private
/// copy of the workload database, following the cascade the manager runs
/// cold (no plan cache): freeze, tier 1 per affected constraint, tier 2 for
/// local inserts where it applies, and tier 3 on the tentatively updated
/// state for whatever is left. Each update is replayed right after the
/// manager returned its verdict, so both see the machine in the same state.
class LayerReplay {
 public:
  /// `subsumed[c]` marks the constraints registration dropped.
  static ccpi::Result<LayerReplay> Make(const Plan& plan,
                                        const std::vector<bool>& subsumed);

  /// Replays stream position `i`; `kept` says whether the manager left the
  /// update applied, so the replay database follows the manager's.
  ccpi::Status Step(size_t i, bool kept);

  const LayerSamples& samples() const { return samples_; }

 private:
  struct Tier2;
  const Tier2* FindTier2(size_t c, const std::string& pred);

  const Plan* plan_ = nullptr;
  std::vector<bool> subsumed_;
  std::vector<ccpi::Program> programs_;
  std::vector<ccpi::CompiledProgram> compiled_;
  /// Per constraint: every other active constraint, which tier 1 assumes
  /// held before the update.
  std::vector<std::vector<ccpi::Program>> assumed_;
  std::map<std::pair<size_t, std::string>, std::shared_ptr<const Tier2>>
      tier2_;
  ccpi::Database db_;
  LayerSamples samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
