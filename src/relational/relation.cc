#include "relational/relation.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "util/check.h"

namespace ccpi {

namespace {
// Source of content-version stamps. Process-wide (not per-relation) so a
// version value identifies one specific content state across all relations
// and all databases, including scratch copies: equal versions imply equal
// contents, which is exactly what a version-keyed cache needs.
std::atomic<uint64_t> g_next_version{1};

uint64_t NextVersion() {
  return g_next_version.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<bool> g_columnar_enabled{true};
std::atomic<uint64_t> g_copy_count{0};
std::atomic<uint64_t> g_index_build_count{0};
std::atomic<uint64_t> g_segment_build_count{0};
}  // namespace

const std::vector<size_t> Relation::kEmptyPosting;

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      version_(other.version_),
      rows_(other.rows_),
      set_(other.set_) {
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  version_ = other.version_;
  rows_ = other.rows_;
  set_ = other.set_;
  InvalidateIndexes();
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      version_(other.version_),
      rows_(std::move(other.rows_)),
      set_(std::move(other.set_)),
      indexes_(std::move(other.indexes_)),
      segment_(std::move(other.segment_)),
      segment_published_(other.segment_published_) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  arity_ = other.arity_;
  version_ = other.version_;
  rows_ = std::move(other.rows_);
  set_ = std::move(other.set_);
  indexes_ = std::move(other.indexes_);
  segment_ = std::move(other.segment_);
  segment_published_ = other.segment_published_;
  return *this;
}

bool Relation::Insert(Tuple t) {
  CCPI_CHECK(t.size() == arity_);
  auto [it, inserted] = set_.insert(t);
  (void)it;
  if (!inserted) return false;
  rows_.push_back(std::move(t));
  version_ = NextVersion();
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  const Tuple& row = rows_.back();
  for (auto& [col, index] : indexes_) {
    index[row[col]].push_back(rows_.size() - 1);
  }
  if (ColumnarSegment* seg = SegmentForUpdate()) seg->AppendRow(rows_);
  return true;
}

bool Relation::Erase(const Tuple& t) {
  if (set_.erase(t) == 0) return false;
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  size_t pos = PositionOf(t);
  rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(pos));
  version_ = NextVersion();
  // Keep every posting ascending and equal to a fresh build: drop `pos`
  // from the erased row's postings, then renumber the rows after it.
  for (auto& [col, index] : indexes_) {
    auto posting = index.find(t[col]);
    CCPI_CHECK(posting != index.end());
    std::vector<size_t>& hits = posting->second;
    hits.erase(std::lower_bound(hits.begin(), hits.end(), pos));
    if (hits.empty()) index.erase(posting);
    if (pos == rows_.size()) continue;  // the last row: nothing after it
    for (auto& [value, positions] : index) {
      for (auto p = std::upper_bound(positions.begin(), positions.end(), pos);
           p != positions.end(); ++p) {
        --*p;
      }
    }
  }
  if (ColumnarSegment* seg = SegmentForUpdate()) seg->EraseRow(pos);
  return true;
}

size_t Relation::PositionOf(const Tuple& t) const {
  if (indexes_.empty()) {
    auto it = std::find(rows_.begin(), rows_.end(), t);
    CCPI_CHECK(it != rows_.end());
    return static_cast<size_t>(it - rows_.begin());
  }
  // The index with the most distinct values has the shortest postings.
  auto best = indexes_.begin();
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (it->second.size() > best->second.size()) best = it;
  }
  const std::vector<size_t>& posting = best->second.at(t[best->first]);
  auto p = std::find_if(posting.begin(), posting.end(),
                        [&](size_t i) { return rows_[i] == t; });
  CCPI_CHECK(p != posting.end());
  return *p;
}

ColumnarSegment* Relation::SegmentForUpdate() {
  segment_published_ = false;
  if (segment_ != nullptr && segment_.use_count() > 1) {
    // A reader still holds this image: it keeps the old one.
    segment_ = std::make_shared<ColumnarSegment>(*segment_);
  }
  return segment_.get();
}

bool Relation::Contains(const Tuple& t) const { return set_.count(t) > 0; }

const Relation::ColumnIndex& Relation::BuildIndexLocked(size_t col) const {
  auto [it, built] = indexes_.try_emplace(col);
  if (built) {
    for (size_t i = 0; i < rows_.size(); ++i) {
      it->second[rows_[i][col]].push_back(i);
    }
    g_index_build_count.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;
}

const std::vector<size_t>& Relation::Probe(size_t col, const Value& v) const {
  CCPI_CHECK(col < arity_);
  // Fast path: the index already exists; a shared lock suffices because a
  // built index is immutable until the next mutation.
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    auto it = indexes_.find(col);
    if (it != indexes_.end()) {
      auto posting = it->second.find(v);
      return posting == it->second.end() ? kEmptyPosting : posting->second;
    }
  }
  // Slow path: build under the exclusive lock (another thread may have won
  // the race; try_emplace makes that harmless).
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  const ColumnIndex& index = BuildIndexLocked(col);
  auto posting = index.find(v);
  return posting == index.end() ? kEmptyPosting : posting->second;
}

void Relation::FreezeIndexes() const {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (size_t col = 0; col < arity_; ++col) BuildIndexLocked(col);
  if (!ColumnarEnabled()) return;
  if (segment_ == nullptr) {
    segment_ = ColumnarSegment::Build(rows_, arity_);
    g_segment_build_count.fetch_add(1, std::memory_order_relaxed);
  }
  segment_published_ = true;
}

std::shared_ptr<const ColumnarSegment> Relation::columnar_segment() const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  if (!segment_published_) return nullptr;
  return segment_;
}

void Relation::SetColumnarEnabled(bool enabled) {
  g_columnar_enabled.store(enabled, std::memory_order_relaxed);
}

bool Relation::ColumnarEnabled() {
  return g_columnar_enabled.load(std::memory_order_relaxed);
}

uint64_t Relation::DebugCopyCount() {
  return g_copy_count.load(std::memory_order_relaxed);
}

uint64_t Relation::DebugIndexBuildCount() {
  return g_index_build_count.load(std::memory_order_relaxed);
}

uint64_t Relation::DebugVersionCounter() {
  return g_next_version.load(std::memory_order_relaxed);
}

uint64_t Relation::DebugSegmentBuildCount() {
  return g_segment_build_count.load(std::memory_order_relaxed);
}

void Relation::Clear() {
  if (!rows_.empty()) version_ = NextVersion();
  rows_.clear();
  set_.clear();
  InvalidateIndexes();
}

void Relation::InvalidateIndexes() {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  indexes_.clear();
  segment_.reset();
  segment_published_ = false;
}

std::string Relation::ToString(const std::string& name) const {
  std::string out;
  for (const Tuple& t : rows_) {
    out += name;
    out += TupleToString(t);
    out += "\n";
  }
  return out;
}

}  // namespace ccpi
