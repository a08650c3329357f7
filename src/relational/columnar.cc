#include "relational/columnar.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace ccpi {

namespace {

/// Sentinel for "this code has no counterpart on the other side". A valid
/// code is always < 2^32 - 1 (a dictionary cannot outgrow the row count,
/// which Build caps below 2^32).
constexpr uint32_t kNoCode = 0xFFFFFFFFu;

bool ValueCmpHolds(const Value& a, ScanOp op, const Value& b) {
  switch (op) {
    case ScanOp::kLt:
      return a < b;
    case ScanOp::kLe:
      return a <= b;
    case ScanOp::kGt:
      return a > b;
    case ScanOp::kGe:
      return a >= b;
    case ScanOp::kEq:
      return a == b;
    case ScanOp::kNe:
      return a != b;
  }
  return false;
}

/// A comparison against one dictionary column, compiled to pure code
/// arithmetic. Because the dictionary is sorted, every ScanOp reduces to a
/// code bound or a code equality.
struct CodePred {
  enum class Kind { kAll, kNone, kLtBound, kGeBound, kEqCode, kNeCode };
  Kind kind = Kind::kNone;
  uint32_t operand = 0;
};

}  // namespace

std::shared_ptr<ColumnarSegment> ColumnarSegment::Build(
    const std::vector<Tuple>& rows, size_t arity) {
  CCPI_CHECK(rows.size() < 0xFFFFFFFFull);
  auto seg = std::shared_ptr<ColumnarSegment>(new ColumnarSegment());
  seg->size_ = rows.size();
  seg->columns_.reserve(arity);
  for (size_t col = 0; col < arity; ++col) {
    seg->columns_.push_back(BuildColumn(rows, col));
  }
  return seg;
}

ColumnarSegment::Column ColumnarSegment::BuildColumn(
    const std::vector<Tuple>& rows, size_t col) {
  Column c;
  bool all_int = true;
  for (const Tuple& t : rows) {
    if (!t[col].is_int()) {
      all_int = false;
      break;
    }
  }
  if (all_int) {
    c.kind = ColumnKind::kInt64;
    c.ints.reserve(rows.size());
    for (const Tuple& t : rows) c.ints.push_back(t[col].AsInt());
    return c;
  }
  c.kind = ColumnKind::kDict;
  std::unordered_set<Value, ValueHash> distinct;
  for (const Tuple& t : rows) distinct.insert(t[col]);
  c.dict.assign(distinct.begin(), distinct.end());
  std::sort(c.dict.begin(), c.dict.end());
  c.encode.reserve(c.dict.size());
  for (uint32_t code = 0; code < c.dict.size(); ++code) {
    c.encode.emplace(c.dict[code], code);
  }
  c.codes.reserve(rows.size());
  for (const Tuple& t : rows) c.codes.push_back(c.encode.at(t[col]));
  return c;
}

void ColumnarSegment::AppendRow(const std::vector<Tuple>& rows) {
  CCPI_CHECK(rows.size() == size_ + 1 && rows.size() < 0xFFFFFFFFull);
  const Tuple& t = rows.back();
  for (size_t col = 0; col < columns_.size(); ++col) {
    Column& c = columns_[col];
    const Value& v = t[col];
    if (c.kind == ColumnKind::kInt64) {
      if (v.is_int()) {
        c.ints.push_back(v.AsInt());
      } else {
        c = BuildColumn(rows, col);
      }
      continue;
    }
    auto hit = c.encode.find(v);
    if (hit != c.encode.end()) {
      c.codes.push_back(hit->second);
      continue;
    }
    // A new value takes its sorted place so code order stays value order.
    uint32_t code = static_cast<uint32_t>(
        std::lower_bound(c.dict.begin(), c.dict.end(), v) - c.dict.begin());
    for (uint32_t& x : c.codes) x += x >= code ? 1 : 0;
    c.dict.insert(c.dict.begin() + code, v);
    for (uint32_t k = code + 1; k < c.dict.size(); ++k) {
      c.encode[c.dict[k]] = k;
    }
    c.encode.emplace(v, code);
    c.codes.push_back(code);
  }
  ++size_;
}

void ColumnarSegment::EraseRow(size_t row) {
  CCPI_CHECK(row < size_);
  for (Column& c : columns_) {
    if (c.kind == ColumnKind::kInt64) {
      c.ints.erase(c.ints.begin() + static_cast<ptrdiff_t>(row));
      continue;
    }
    uint32_t code = c.codes[row];
    c.codes.erase(c.codes.begin() + static_cast<ptrdiff_t>(row));
    if (std::find(c.codes.begin(), c.codes.end(), code) != c.codes.end()) {
      continue;
    }
    // The value is gone from the column: drop it from the dictionary.
    c.encode.erase(c.dict[code]);
    c.dict.erase(c.dict.begin() + code);
    for (uint32_t& x : c.codes) x -= x > code ? 1 : 0;
    for (uint32_t k = code; k < c.dict.size(); ++k) c.encode[c.dict[k]] = k;
    // Ints sort below symbols: no symbol left iff the largest value is an
    // int (or nothing is left), and a fresh Build types that column int.
    if (c.dict.empty() || c.dict.back().is_int()) {
      Column ints;
      ints.ints.reserve(c.codes.size());
      for (uint32_t x : c.codes) ints.ints.push_back(c.dict[x].AsInt());
      c = std::move(ints);
    }
  }
  --size_;
}

Value ColumnarSegment::ValueAt(size_t row, size_t col) const {
  const Column& c = columns_[col];
  if (c.kind == ColumnKind::kInt64) return Value(c.ints[row]);
  return c.dict[c.codes[row]];
}

Tuple ColumnarSegment::GatherRow(size_t row) const {
  Tuple t;
  t.reserve(columns_.size());
  for (size_t col = 0; col < columns_.size(); ++col) {
    t.push_back(ValueAt(row, col));
  }
  return t;
}

void ColumnarSegment::Gather(const PositionList& positions,
                             std::vector<Tuple>* out) const {
  out->reserve(out->size() + positions.size());
  for (uint32_t p : positions) out->push_back(GatherRow(p));
}

template <typename Keep>
void ColumnarSegment::ScanWhere(size_t n, Keep keep, PositionList* out) const {
  // Estimate selectivity on a prefix sample, then pick the fill strategy:
  // sparse scans take one branchy append pass (the branch predicts false,
  // and a counting pre-pass would double the work), dense scans take a
  // branchless selection store over a full-width buffer — always write the
  // candidate position, bump the write cursor only on a match, so there is
  // no per-row branch to mispredict. Either way the emitted positions are
  // ascending, identical to the row loop this replaces.
  size_t sample = n < 2048 ? n : 2048;
  size_t hits = 0;
  for (uint32_t i = 0; i < sample; ++i) hits += keep(i) ? 1 : 0;
  if (hits * 4 < sample) {
    for (uint32_t i = 0; i < n; ++i) {
      if (keep(i)) out->push_back(i);
    }
    return;
  }
  out->resize(n);
  uint32_t* dst = out->data();
  size_t w = 0;
  for (uint32_t i = 0; i < n; ++i) {
    dst[w] = i;
    w += keep(i) ? 1 : 0;
  }
  out->resize(w);
}

template <typename Keep>
void ColumnarSegment::FilterWhere(Keep keep, PositionList* positions) {
  uint32_t* dst = positions->data();
  size_t w = 0;
  for (uint32_t p : *positions) {
    dst[w] = p;
    w += keep(p) ? 1 : 0;
  }
  positions->resize(w);
}

namespace {

/// Compiles `col <op> v` over a dictionary column into a CodePred. The
/// dictionary is sorted by the total Value order, so range bounds come from
/// a binary search and a missing equality value means "no row" / "every
/// row" outright.
CodePred CompileDictPred(const std::vector<Value>& dict,
                         const std::unordered_map<Value, uint32_t, ValueHash>&
                             encode,
                         ScanOp op, const Value& v) {
  CodePred p;
  if (op == ScanOp::kEq || op == ScanOp::kNe) {
    auto hit = encode.find(v);
    if (hit == encode.end()) {
      p.kind = op == ScanOp::kEq ? CodePred::Kind::kNone
                                 : CodePred::Kind::kAll;
    } else {
      p.kind = op == ScanOp::kEq ? CodePred::Kind::kEqCode
                                 : CodePred::Kind::kNeCode;
      p.operand = hit->second;
    }
    return p;
  }
  uint32_t lb = static_cast<uint32_t>(
      std::lower_bound(dict.begin(), dict.end(), v) - dict.begin());
  uint32_t ub = static_cast<uint32_t>(
      std::upper_bound(dict.begin(), dict.end(), v) - dict.begin());
  switch (op) {
    case ScanOp::kLt:
      p.kind = CodePred::Kind::kLtBound;
      p.operand = lb;
      break;
    case ScanOp::kLe:
      p.kind = CodePred::Kind::kLtBound;
      p.operand = ub;
      break;
    case ScanOp::kGt:
      p.kind = CodePred::Kind::kGeBound;
      p.operand = ub;
      break;
    case ScanOp::kGe:
      p.kind = CodePred::Kind::kGeBound;
      p.operand = lb;
      break;
    default:
      break;
  }
  return p;
}

/// For an int column compared against a symbol: every int sorts below
/// every symbol, so the comparison is constant across the column.
bool IntVsSymbolHolds(ScanOp op) {
  return op == ScanOp::kLt || op == ScanOp::kLe || op == ScanOp::kNe;
}

}  // namespace

void ColumnarSegment::ScanEq(size_t col, const Value& v,
                             PositionList* out) const {
  ScanCmp(col, ScanOp::kEq, v, out);
}

void ColumnarSegment::ScanCmp(size_t col, ScanOp op, const Value& v,
                              PositionList* out) const {
  out->clear();
  const Column& c = columns_[col];
  if (c.kind == ColumnKind::kInt64) {
    if (!v.is_int()) {
      if (IntVsSymbolHolds(op)) {
        out->reserve(size_);
        for (uint32_t i = 0; i < size_; ++i) out->push_back(i);
      }
      return;
    }
    const int64_t* ints = c.ints.data();
    int64_t x = v.AsInt();
    switch (op) {
      case ScanOp::kLt:
        ScanWhere(size_, [=](uint32_t i) { return ints[i] < x; }, out);
        break;
      case ScanOp::kLe:
        ScanWhere(size_, [=](uint32_t i) { return ints[i] <= x; }, out);
        break;
      case ScanOp::kGt:
        ScanWhere(size_, [=](uint32_t i) { return ints[i] > x; }, out);
        break;
      case ScanOp::kGe:
        ScanWhere(size_, [=](uint32_t i) { return ints[i] >= x; }, out);
        break;
      case ScanOp::kEq:
        ScanWhere(size_, [=](uint32_t i) { return ints[i] == x; }, out);
        break;
      case ScanOp::kNe:
        ScanWhere(size_, [=](uint32_t i) { return ints[i] != x; }, out);
        break;
    }
    return;
  }
  CodePred p = CompileDictPred(c.dict, c.encode, op, v);
  const uint32_t* codes = c.codes.data();
  uint32_t b = p.operand;
  switch (p.kind) {
    case CodePred::Kind::kNone:
      break;
    case CodePred::Kind::kAll:
      out->reserve(size_);
      for (uint32_t i = 0; i < size_; ++i) out->push_back(i);
      break;
    case CodePred::Kind::kLtBound:
      ScanWhere(size_, [=](uint32_t i) { return codes[i] < b; }, out);
      break;
    case CodePred::Kind::kGeBound:
      ScanWhere(size_, [=](uint32_t i) { return codes[i] >= b; }, out);
      break;
    case CodePred::Kind::kEqCode:
      ScanWhere(size_, [=](uint32_t i) { return codes[i] == b; }, out);
      break;
    case CodePred::Kind::kNeCode:
      ScanWhere(size_, [=](uint32_t i) { return codes[i] != b; }, out);
      break;
  }
}

void ColumnarSegment::FilterCmp(size_t col, ScanOp op, const Value& v,
                                PositionList* positions) const {
  const Column& c = columns_[col];
  if (c.kind == ColumnKind::kInt64) {
    if (!v.is_int()) {
      if (!IntVsSymbolHolds(op)) positions->clear();
      return;
    }
    const int64_t* ints = c.ints.data();
    int64_t x = v.AsInt();
    switch (op) {
      case ScanOp::kLt:
        FilterWhere([=](uint32_t i) { return ints[i] < x; }, positions);
        break;
      case ScanOp::kLe:
        FilterWhere([=](uint32_t i) { return ints[i] <= x; }, positions);
        break;
      case ScanOp::kGt:
        FilterWhere([=](uint32_t i) { return ints[i] > x; }, positions);
        break;
      case ScanOp::kGe:
        FilterWhere([=](uint32_t i) { return ints[i] >= x; }, positions);
        break;
      case ScanOp::kEq:
        FilterWhere([=](uint32_t i) { return ints[i] == x; }, positions);
        break;
      case ScanOp::kNe:
        FilterWhere([=](uint32_t i) { return ints[i] != x; }, positions);
        break;
    }
    return;
  }
  CodePred p = CompileDictPred(c.dict, c.encode, op, v);
  const uint32_t* codes = c.codes.data();
  uint32_t b = p.operand;
  switch (p.kind) {
    case CodePred::Kind::kNone:
      positions->clear();
      break;
    case CodePred::Kind::kAll:
      break;
    case CodePred::Kind::kLtBound:
      FilterWhere([=](uint32_t i) { return codes[i] < b; }, positions);
      break;
    case CodePred::Kind::kGeBound:
      FilterWhere([=](uint32_t i) { return codes[i] >= b; }, positions);
      break;
    case CodePred::Kind::kEqCode:
      FilterWhere([=](uint32_t i) { return codes[i] == b; }, positions);
      break;
    case CodePred::Kind::kNeCode:
      FilterWhere([=](uint32_t i) { return codes[i] != b; }, positions);
      break;
  }
}

void ColumnarSegment::ScanColCmp(size_t a, ScanOp op, size_t b,
                                 PositionList* out) const {
  out->clear();
  const Column& ca = columns_[a];
  const Column& cb = columns_[b];
  if (ca.kind == ColumnKind::kInt64 && cb.kind == ColumnKind::kInt64) {
    const int64_t* xs = ca.ints.data();
    const int64_t* ys = cb.ints.data();
    switch (op) {
      case ScanOp::kLt:
        ScanWhere(size_, [=](uint32_t i) { return xs[i] < ys[i]; }, out);
        break;
      case ScanOp::kLe:
        ScanWhere(size_, [=](uint32_t i) { return xs[i] <= ys[i]; }, out);
        break;
      case ScanOp::kGt:
        ScanWhere(size_, [=](uint32_t i) { return xs[i] > ys[i]; }, out);
        break;
      case ScanOp::kGe:
        ScanWhere(size_, [=](uint32_t i) { return xs[i] >= ys[i]; }, out);
        break;
      case ScanOp::kEq:
        ScanWhere(size_, [=](uint32_t i) { return xs[i] == ys[i]; }, out);
        break;
      case ScanOp::kNe:
        ScanWhere(size_, [=](uint32_t i) { return xs[i] != ys[i]; }, out);
        break;
    }
    return;
  }
  if (ca.kind == ColumnKind::kDict && cb.kind == ColumnKind::kDict &&
      (op == ScanOp::kEq || op == ScanOp::kNe)) {
    // Translate a's codes into b's code space once, then the row loop is
    // pure integer equality. kNoCode never equals a valid code.
    std::vector<uint32_t> trans(ca.dict.size(), kNoCode);
    for (uint32_t code = 0; code < ca.dict.size(); ++code) {
      auto hit = cb.encode.find(ca.dict[code]);
      if (hit != cb.encode.end()) trans[code] = hit->second;
    }
    const uint32_t* acodes = ca.codes.data();
    const uint32_t* bcodes = cb.codes.data();
    const uint32_t* tr = trans.data();
    if (op == ScanOp::kEq) {
      ScanWhere(size_, [=](uint32_t i) { return tr[acodes[i]] == bcodes[i]; },
                out);
    } else {
      ScanWhere(size_, [=](uint32_t i) { return tr[acodes[i]] != bcodes[i]; },
                out);
    }
    return;
  }
  // Mixed kinds or ordered dict comparisons: per-row Value compare (rare
  // in practice; still avoids materializing tuples).
  ScanWhere(size_,
            [&](uint32_t i) { return ValueCmpHolds(ValueAt(i, a), op,
                                                   ValueAt(i, b)); },
            out);
}

void ColumnarSegment::FilterColCmp(size_t a, ScanOp op, size_t b,
                                   PositionList* positions) const {
  const Column& ca = columns_[a];
  const Column& cb = columns_[b];
  if (ca.kind == ColumnKind::kInt64 && cb.kind == ColumnKind::kInt64) {
    const int64_t* xs = ca.ints.data();
    const int64_t* ys = cb.ints.data();
    switch (op) {
      case ScanOp::kLt:
        FilterWhere([=](uint32_t i) { return xs[i] < ys[i]; }, positions);
        break;
      case ScanOp::kLe:
        FilterWhere([=](uint32_t i) { return xs[i] <= ys[i]; }, positions);
        break;
      case ScanOp::kGt:
        FilterWhere([=](uint32_t i) { return xs[i] > ys[i]; }, positions);
        break;
      case ScanOp::kGe:
        FilterWhere([=](uint32_t i) { return xs[i] >= ys[i]; }, positions);
        break;
      case ScanOp::kEq:
        FilterWhere([=](uint32_t i) { return xs[i] == ys[i]; }, positions);
        break;
      case ScanOp::kNe:
        FilterWhere([=](uint32_t i) { return xs[i] != ys[i]; }, positions);
        break;
    }
    return;
  }
  FilterWhere([&](uint32_t i) {
    return ValueCmpHolds(ValueAt(i, a), op, ValueAt(i, b));
  }, positions);
}

ColumnarJoinTable::ColumnarJoinTable(const ColumnarSegment& build, size_t col)
    : build_(&build), col_(col) {
  const ColumnarSegment::Column& c = build.columns_[col];
  if (c.kind == ColumnarSegment::ColumnKind::kDict) {
    // The dictionary code IS the key id: postings fill with zero hashing.
    // A counting pass sizes every posting exactly so the fill pass never
    // reallocates.
    std::vector<uint32_t> counts(c.dict.size(), 0);
    for (uint32_t code : c.codes) ++counts[code];
    postings_.resize(c.dict.size());
    for (size_t k = 0; k < counts.size(); ++k) postings_[k].reserve(counts[k]);
    for (uint32_t i = 0; i < c.codes.size(); ++i) {
      postings_[c.codes[i]].push_back(i);
    }
    return;
  }
  int_ids_.reserve(c.ints.size());
  for (uint32_t i = 0; i < c.ints.size(); ++i) {
    auto [it, inserted] =
        int_ids_.try_emplace(c.ints[i], static_cast<int32_t>(postings_.size()));
    if (inserted) postings_.emplace_back();
    postings_[static_cast<size_t>(it->second)].push_back(i);
  }
}

int32_t ColumnarJoinTable::IdOf(const Value& v) const {
  const ColumnarSegment::Column& c = build_->columns_[col_];
  if (c.kind == ColumnarSegment::ColumnKind::kDict) {
    auto hit = c.encode.find(v);
    return hit == c.encode.end() ? -1 : static_cast<int32_t>(hit->second);
  }
  if (!v.is_int()) return -1;
  auto hit = int_ids_.find(v.AsInt());
  return hit == int_ids_.end() ? -1 : hit->second;
}

void ColumnarJoinTable::TranslateProbeColumn(const ColumnarSegment& probe,
                                             size_t col,
                                             std::vector<int32_t>* ids) const {
  const ColumnarSegment::Column& p = probe.columns_[col];
  ids->resize(probe.size());
  if (p.kind == ColumnarSegment::ColumnKind::kDict) {
    // One IdOf per distinct probe value, then a pure array translation.
    std::vector<int32_t> trans(p.dict.size());
    for (uint32_t code = 0; code < p.dict.size(); ++code) {
      trans[code] = IdOf(p.dict[code]);
    }
    for (size_t i = 0; i < p.codes.size(); ++i) {
      (*ids)[i] = trans[p.codes[i]];
    }
    return;
  }
  const ColumnarSegment::Column& b = build_->columns_[col_];
  if (b.kind == ColumnarSegment::ColumnKind::kInt64) {
    for (size_t i = 0; i < p.ints.size(); ++i) {
      auto hit = int_ids_.find(p.ints[i]);
      (*ids)[i] = hit == int_ids_.end() ? -1 : hit->second;
    }
    return;
  }
  // Int probe column against a dictionary build column: pre-extract the
  // build dictionary's integer entries so the row loop never builds a
  // Value.
  std::unordered_map<int64_t, int32_t> int_codes;
  for (uint32_t code = 0; code < b.dict.size(); ++code) {
    if (b.dict[code].is_int()) {
      int_codes.emplace(b.dict[code].AsInt(), static_cast<int32_t>(code));
    }
  }
  for (size_t i = 0; i < p.ints.size(); ++i) {
    auto hit = int_codes.find(p.ints[i]);
    (*ids)[i] = hit == int_codes.end() ? -1 : hit->second;
  }
}

}  // namespace ccpi
