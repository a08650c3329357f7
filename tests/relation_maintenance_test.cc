// Incremental maintenance of a frozen Relation (src/relational/relation.h):
// once frozen, Insert and Erase keep the per-column hash indexes and the
// columnar segment current instead of dropping them. These tests hold the
// maintained structures to a freshly frozen copy after every step of a
// seeded Insert/Erase stream, pin that a warm single-tuple update followed
// by a freeze builds nothing, and check the reader-facing contracts: a held
// segment never changes, and the columnar switch still gates publishing.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "relational/columnar.h"
#include "relational/relation.h"
#include "util/rng.h"

namespace ccpi {
namespace {

/// Restores the process-wide columnar switch on scope exit.
struct ColumnarToggle {
  explicit ColumnarToggle(bool enabled)
      : previous(Relation::ColumnarEnabled()) {
    Relation::SetColumnarEnabled(enabled);
  }
  ~ColumnarToggle() { Relation::SetColumnarEnabled(previous); }
  bool previous;
};

constexpr ScanOp kAllOps[] = {ScanOp::kLt, ScanOp::kLe, ScanOp::kGt,
                              ScanOp::kGe, ScanOp::kEq, ScanOp::kNe};

/// Constants every comparison below is made against: present and absent
/// ints and symbols on both sides of the stream's domains.
std::vector<Value> ProbeValues() {
  std::vector<Value> vs;
  for (int64_t i = -1; i <= 9; ++i) vs.push_back(V(i));
  for (const char* s : {"a", "c", "e", "g", "k", "m", "zz"}) {
    vs.push_back(V(s));
  }
  return vs;
}

std::vector<Tuple> Rows(const ColumnarSegment& seg) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < seg.size(); ++i) rows.push_back(seg.GatherRow(i));
  return rows;
}

/// Asserts that `rel` (frozen, maintained) answers every probe and kernel
/// exactly as a fresh copy frozen from scratch does.
void ExpectMatchesFreshFreeze(const Relation& rel, const std::string& where) {
  SCOPED_TRACE(where);
  Relation fresh = rel;  // a copy carries no index or segment
  fresh.FreezeIndexes();
  std::vector<Value> probes = ProbeValues();

  for (size_t col = 0; col < rel.arity(); ++col) {
    for (const Value& v : probes) {
      EXPECT_EQ(rel.Probe(col, v), fresh.Probe(col, v))
          << "Probe col " << col << " value " << v.ToString();
    }
  }

  std::shared_ptr<const ColumnarSegment> seg = rel.columnar_segment();
  std::shared_ptr<const ColumnarSegment> ref = fresh.columnar_segment();
  ASSERT_NE(seg, nullptr);
  ASSERT_NE(ref, nullptr);
  ASSERT_EQ(seg->size(), ref->size());
  ASSERT_EQ(seg->arity(), ref->arity());
  EXPECT_EQ(Rows(*seg), rel.rows());
  EXPECT_EQ(Rows(*seg), Rows(*ref));
  for (size_t col = 0; col < seg->arity(); ++col) {
    EXPECT_EQ(seg->column_kind(col), ref->column_kind(col)) << "col " << col;
    for (ScanOp op : kAllOps) {
      for (const Value& v : probes) {
        PositionList got;
        PositionList want;
        seg->ScanCmp(col, op, v, &got);
        ref->ScanCmp(col, op, v, &want);
        EXPECT_EQ(got, want) << "ScanCmp col " << col << " op "
                             << static_cast<int>(op) << " " << v.ToString();
      }
    }
    for (size_t other = 0; other < seg->arity(); ++other) {
      for (ScanOp op : kAllOps) {
        PositionList got;
        PositionList want;
        seg->ScanColCmp(col, op, other, &got);
        ref->ScanColCmp(col, op, other, &want);
        EXPECT_EQ(got, want) << "ScanColCmp " << col << " op "
                             << static_cast<int>(op) << " " << other;
      }
      // Join the maintained segment with itself and the fresh one with
      // itself: same key ids, same postings in build-row order.
      ColumnarJoinTable got_table(*seg, col);
      ColumnarJoinTable want_table(*ref, col);
      std::vector<int32_t> got_ids;
      std::vector<int32_t> want_ids;
      got_table.TranslateProbeColumn(*seg, other, &got_ids);
      want_table.TranslateProbeColumn(*ref, other, &want_ids);
      ASSERT_EQ(got_ids, want_ids) << "join ids " << col << " x " << other;
      for (int32_t id : got_ids) {
        if (id < 0) continue;
        EXPECT_EQ(got_table.Posting(id), want_table.Posting(id));
      }
    }
  }
}

TEST(RelationMaintenanceTest, RandomStreamMatchesFreshFreezeEveryStep) {
  ColumnarToggle toggle(true);
  // Column 0: ints only. Column 1: symbols only, from a domain larger than
  // the seed rows', so inserts bring new dictionary values (sorted into
  // the middle) and erasures retire values. Column 2: ints only, except
  // that steps 60-199 sometimes insert a symbol — the int column re-types
  // to a dictionary column — and from step 300 erasures pick rows holding
  // a symbol there first, until the column reverts to ints.
  const std::vector<std::string> symbols = {"b", "d", "f", "h", "j", "l"};
  Rng rng(20261020);
  auto draw = [&](int step) {
    Tuple t = {V(rng.Range(0, 7)),
               V(symbols[static_cast<size_t>(rng.Below(symbols.size()))]),
               V(rng.Range(0, 5))};
    if (step >= 60 && step < 200 && rng.Chance(1, 4)) {
      t[2] = V(symbols[static_cast<size_t>(rng.Below(2))]);
    }
    return t;
  };

  Relation rel(3);
  rel.Insert({V(1), V("d"), V(0)});
  rel.Insert({V(2), V("h"), V(1)});
  rel.FreezeIndexes();
  ExpectMatchesFreshFreeze(rel, "seed");

  bool saw_retype = false;
  bool saw_revert = false;
  bool saw_new_dict_value = false;
  for (int step = 0; step < 400; ++step) {
    std::shared_ptr<const ColumnarSegment> before = rel.columnar_segment();
    ASSERT_NE(before, nullptr);
    std::set<Value> col1;  // column 1's values so far this step
    for (const Tuple& t : rel.rows()) col1.insert(t[1]);
    ColumnarSegment::ColumnKind kind2 = before->column_kind(2);
    before.reset();  // no reader: the update runs in place

    // One to three mutations between freezes.
    int mutations = 1 + static_cast<int>(rng.Below(3));
    for (int m = 0; m < mutations; ++m) {
      if (!rel.empty() && rng.Chance(2, 5)) {
        // Erase an existing row, anywhere in insertion order.
        Tuple victim = rel.rows()[rng.Below(rel.size())];
        for (const Tuple& t : rel.rows()) {
          if (step >= 300 && t[2].is_symbol()) {
            victim = t;
            break;
          }
        }
        ASSERT_TRUE(rel.Erase(victim));
      } else {
        Tuple t = draw(step);
        bool fresh_value = col1.count(t[1]) == 0;
        if (!rel.Insert(t)) {
          continue;  // a duplicate changes nothing
        }
        saw_new_dict_value =
            saw_new_dict_value || (fresh_value && !col1.empty());
        col1.insert(t[1]);
      }
      EXPECT_EQ(rel.columnar_segment(), nullptr)
          << "a mutation un-publishes the segment";
    }
    rel.FreezeIndexes();
    std::shared_ptr<const ColumnarSegment> after = rel.columnar_segment();
    ASSERT_NE(after, nullptr);
    if (kind2 == ColumnarSegment::ColumnKind::kInt64 &&
        after->column_kind(2) == ColumnarSegment::ColumnKind::kDict) {
      saw_retype = true;
    }
    if (kind2 == ColumnarSegment::ColumnKind::kDict &&
        after->column_kind(2) == ColumnarSegment::ColumnKind::kInt64) {
      saw_revert = true;
    }
    ExpectMatchesFreshFreeze(rel, "step " + std::to_string(step));
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(saw_retype) << "no int column received a symbol";
  EXPECT_TRUE(saw_revert) << "no dictionary column lost its last symbol";
  EXPECT_TRUE(saw_new_dict_value) << "no new dictionary value was inserted";

  // Erase everything: the maintained segment ends equal to an empty build.
  std::vector<Tuple> all = rel.rows();
  for (const Tuple& t : all) ASSERT_TRUE(rel.Erase(t));
  rel.FreezeIndexes();
  ExpectMatchesFreshFreeze(rel, "emptied");
}

TEST(RelationMaintenanceTest, WarmSingleTupleUpdateBuildsNothing) {
  ColumnarToggle toggle(true);
  Relation rel(2);
  for (int64_t i = 0; i < 64; ++i) {
    rel.Insert({V(i), V(i % 5 == 0 ? "x" : "y")});
  }
  rel.FreezeIndexes();  // the first freeze builds
  uint64_t index_builds = Relation::DebugIndexBuildCount();
  uint64_t segment_builds = Relation::DebugSegmentBuildCount();

  ASSERT_TRUE(rel.Insert({V(100), V("w")}));  // a new dictionary value too
  rel.FreezeIndexes();
  ASSERT_TRUE(rel.Erase({V(100), V("w")}));
  rel.FreezeIndexes();
  ASSERT_TRUE(rel.Erase({V(7), V("y")}));  // a middle row
  rel.FreezeIndexes();
  ASSERT_TRUE(rel.Insert({V(7), V("y")}));
  rel.FreezeIndexes();

  EXPECT_EQ(Relation::DebugIndexBuildCount(), index_builds);
  EXPECT_EQ(Relation::DebugSegmentBuildCount(), segment_builds);
  ASSERT_NE(rel.columnar_segment(), nullptr);
  ExpectMatchesFreshFreeze(rel, "after warm updates");

  // Clear starts over: the next freeze builds again.
  index_builds = Relation::DebugIndexBuildCount();
  segment_builds = Relation::DebugSegmentBuildCount();
  rel.Clear();
  rel.FreezeIndexes();
  EXPECT_EQ(Relation::DebugIndexBuildCount(), index_builds + 2);
  EXPECT_EQ(Relation::DebugSegmentBuildCount(), segment_builds + 1);
}

TEST(RelationMaintenanceTest, HeldSegmentIsUnchangedByLaterMutations) {
  ColumnarToggle toggle(true);
  Relation rel(2);
  rel.Insert({V(1), V("b")});
  rel.Insert({V(2), V("d")});
  rel.Insert({V(3), V("f")});
  rel.FreezeIndexes();
  std::shared_ptr<const ColumnarSegment> held = rel.columnar_segment();
  ASSERT_NE(held, nullptr);
  const std::vector<Tuple> snapshot = Rows(*held);
  PositionList lt_d;
  held->ScanCmp(1, ScanOp::kLt, V("d"), &lt_d);

  rel.Insert({V(4), V("a")});  // a new smallest dictionary value
  rel.Erase({V(2), V("d")});   // a middle row, retiring "d"
  rel.Insert({V(5), V("z")});  // a new largest value
  rel.FreezeIndexes();

  EXPECT_EQ(Rows(*held), snapshot);
  PositionList again;
  held->ScanCmp(1, ScanOp::kLt, V("d"), &again);
  EXPECT_EQ(again, lt_d);
  std::shared_ptr<const ColumnarSegment> now = rel.columnar_segment();
  ASSERT_NE(now, nullptr);
  EXPECT_NE(now, held) << "the relation updated a clone, not the held image";
  EXPECT_EQ(Rows(*now), rel.rows());
  ExpectMatchesFreshFreeze(rel, "after mutating under a holder");
}

TEST(RelationMaintenanceTest, ColumnarSwitchOffPublishesNoSegment) {
  Relation rel(2);
  rel.Insert({V(1), V("b")});
  {
    ColumnarToggle off(false);
    rel.FreezeIndexes();
    EXPECT_EQ(rel.columnar_segment(), nullptr);
    rel.Insert({V(2), V("c")});
    rel.FreezeIndexes();
    EXPECT_EQ(rel.columnar_segment(), nullptr);
  }
  // Built while on, then the switch goes off: a mutation un-publishes and
  // a freeze with the switch off does not re-publish.
  ColumnarToggle on(true);
  rel.FreezeIndexes();
  ASSERT_NE(rel.columnar_segment(), nullptr);
  {
    ColumnarToggle off(false);
    rel.Erase({V(1), V("b")});
    rel.FreezeIndexes();
    EXPECT_EQ(rel.columnar_segment(), nullptr);
  }
  rel.FreezeIndexes();
  ASSERT_NE(rel.columnar_segment(), nullptr);
  ExpectMatchesFreshFreeze(rel, "switched back on");
}

}  // namespace
}  // namespace ccpi
