#ifndef CCPI_RELATIONAL_RELATION_H_
#define CCPI_RELATIONAL_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relational/columnar.h"
#include "relational/tuple.h"
#include "util/status.h"

namespace ccpi {

/// A set of tuples of a fixed arity, with optional per-column hash indexes.
///
/// The store keeps insertion order (benchmarks iterate deterministically) and
/// a hash set for O(1) duplicate elimination and membership. Column indexes
/// are built lazily on first probe (or all at once by FreezeIndexes) and
/// from then on kept current by Insert and Erase, so a single-tuple update
/// costs a posting append or removal, not a rebuild; only a copy or Clear()
/// starts over. The evaluation engine uses them for index-nested-loop joins.
///
/// Thread safety: a relation that is not being mutated may be read —
/// rows(), Contains(), Probe(), FreezeIndexes() — from any number of
/// threads concurrently; the lazy index build behind Probe is guarded by an
/// internal shared mutex, so `const` genuinely means "safe to share".
/// Mutation (Insert/Erase/Clear) must still be externally serialized
/// against every reader, which is the natural discipline of the checking
/// pipeline: the database is frozen during a check phase and updated only
/// between phases.
class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity) {}

  // Copying is a row-store copy; the column indexes are a cache and are
  // deliberately not copied (they rebuild lazily on the copy), which also
  // lets a reader copy a relation another thread is concurrently probing.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  size_t arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Content-version stamp. Every content-changing mutation (an Insert that
  /// added a row, an Erase that removed one, a Clear of a non-empty
  /// relation) restamps the relation from one process-wide monotone
  /// counter, so two relations with equal versions have equal contents —
  /// even across copies, scratch databases, and rollbacks. Version 0 means
  /// "never mutated" (empty). Copies and moves carry the version.
  uint64_t version() const { return version_; }

  /// Adds a tuple; returns true if it was not already present.
  /// Aborts if the arity does not match (programming error).
  bool Insert(Tuple t);

  /// Removes a tuple; returns true if it was present.
  bool Erase(const Tuple& t);

  bool Contains(const Tuple& t) const;

  /// Stable snapshot of the rows in insertion order (erased rows removed).
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Row indexes whose column `col` equals `v`, ascending. Builds the
  /// column index on first use (thread-safe). `col` must be < arity(). The
  /// returned reference stays valid until the next mutation.
  const std::vector<size_t>& Probe(size_t col, const Value& v) const;

  /// Eagerly builds the index of every column not built yet, so a
  /// subsequent parallel read phase probes without ever taking the
  /// exclusive build path. When the columnar path is enabled this also
  /// builds the columnar segment if there is none, and publishes it, so
  /// freezing is the single "now read-optimized" transition. On a relation
  /// frozen before, both are already current and the freeze is O(arity).
  void FreezeIndexes() const;

  /// The columnar image published by the last FreezeIndexes(), or null if
  /// the relation has not been frozen (or was mutated since, or the
  /// columnar path is disabled). A mutation keeps the segment current but
  /// un-publishes it until the next freeze, so only frozen relations hand
  /// out a segment. A handed-out segment is immutable; holders may keep
  /// scanning it after the relation mutates (the relation clones a held
  /// segment before updating it: snapshot semantics, same as a copied
  /// Probe posting).
  std::shared_ptr<const ColumnarSegment> columnar_segment() const;

  /// Process-wide switch for the columnar read path (default on). Off, a
  /// freeze builds only the hash indexes and columnar_segment() returns
  /// null everywhere, forcing every consumer down the row-at-a-time path —
  /// the lever the row-vs-columnar equivalence tests and the --columnar
  /// flag pull.
  static void SetColumnarEnabled(bool enabled);
  static bool ColumnarEnabled();

  /// Removes all tuples.
  void Clear();

  std::string ToString(const std::string& name) const;

  /// Observability counters for regression tests (process-wide, racy-read
  /// tolerant). DebugCopyCount counts Relation copy-constructions and
  /// copy-assignments; DebugIndexBuildCount counts per-column hash-index
  /// builds; DebugVersionCounter exposes the content-version counter so a
  /// test can assert an operation produced zero version churn;
  /// DebugSegmentBuildCount counts columnar-segment builds, the non-vacuity
  /// witness that a columnar-on run really exercised the columnar kernels.
  static uint64_t DebugCopyCount();
  static uint64_t DebugIndexBuildCount();
  static uint64_t DebugVersionCounter();
  static uint64_t DebugSegmentBuildCount();

 private:
  using ColumnIndex =
      std::unordered_map<Value, std::vector<size_t>, ValueHash>;

  void InvalidateIndexes();
  /// Builds (if absent) and returns the index of `col`. Caller must hold
  /// index_mu_ exclusively.
  const ColumnIndex& BuildIndexLocked(size_t col) const;
  /// Position of `t` in rows_ (which must hold it): through a built
  /// index's posting when there is one, else a linear search.
  size_t PositionOf(const Tuple& t) const;
  /// The segment, ready to be updated: cloned first if a reader holds it,
  /// un-published either way. Null when there is none. Caller must hold
  /// index_mu_ exclusively.
  ColumnarSegment* SegmentForUpdate();

  size_t arity_;
  uint64_t version_ = 0;
  std::vector<Tuple> rows_;
  std::unordered_set<Tuple, TupleHash> set_;
  // indexes_[col] maps value -> ascending row positions in rows_. Guarded
  // by index_mu_ (the posting vectors change only under mutation, which is
  // externally serialized against every reader).
  mutable std::shared_mutex index_mu_;
  mutable std::unordered_map<size_t, ColumnIndex> indexes_;
  // Built by the first FreezeIndexes when the columnar path is on, then
  // kept current by Insert/Erase and dropped only by Clear or a copy.
  // Readers see it only while
  // segment_published_ (set by FreezeIndexes, cleared by every mutation).
  // Guarded by index_mu_.
  mutable std::shared_ptr<ColumnarSegment> segment_;
  mutable bool segment_published_ = false;
  static const std::vector<size_t> kEmptyPosting;
};

}  // namespace ccpi

#endif  // CCPI_RELATIONAL_RELATION_H_
