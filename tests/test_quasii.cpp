// QUASII index tests: structural invariants of the slice hierarchy,
// correctness against Scan, and the paper's headline behaviour — less work
// than Scan and per-query cost that converges as the index refines itself
// (Section 6.2).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/crack_array.h"
#include "common/dataset.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "quasii/quasii_index.h"
#include "scan/scan_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box3;
using quasii::CrackArray;
using quasii::Dataset3;
using quasii::ObjectId;
using quasii::QuasiiIndex;
using quasii::Rng;
using quasii::Scalar;
using quasii::ScanIndex;
using quasii::Timer;

/// Walks one level's slice list of one extent class and recurses into
/// children, verifying: sibling ranges tile the parent range in order, value
/// intervals are ordered and contain their entries' keys, and any slice that
/// has been descended into (has children) obeys its class's level threshold
/// for a box that reaches every row (the coarsest any descent refines to)
/// unless frozen.
template <int D>
void CheckSliceList(const QuasiiIndex<D>& index,
                    const typename QuasiiIndex<D>::ExtentClass& cls,
                    const std::vector<typename QuasiiIndex<D>::Slice>& slices,
                    int level, std::size_t begin, std::size_t end) {
  const auto limits = index.LeafThresholds(cls, quasii::Box<D>::Infinite());
  std::size_t pos = begin;
  Scalar prev_hi = -std::numeric_limits<Scalar>::infinity();
  for (const auto& s : slices) {
    CHECK_EQ(s.level, level);
    CHECK_EQ(s.begin, pos);
    pos = s.end;
    CHECK_LT(s.lo, s.hi);
    CHECK_GE(s.lo, prev_hi);
    prev_hi = s.hi;
    for (std::size_t k = s.begin; k < s.end; ++k) {
      const Scalar key = index.array().key(level, k);
      CHECK_GE(key, s.lo);
      CHECK_LT(key, s.hi);
    }
    if (!s.children.empty()) {
      CHECK_LT(level, D - 1);
      CHECK(s.frozen || s.size() <= limits[static_cast<std::size_t>(level)]);
      CheckSliceList(index, cls, s.children, level + 1, s.begin, s.end);
    }
  }
  CHECK_EQ(pos, end);
}

template <int D>
void CheckInvariants(const QuasiiIndex<D>& index, std::size_t n) {
  const CrackArray<D>& array = index.array();
  CHECK_EQ(array.size(), n);
  // Without inserts, the classes own consecutive row ranges in class order,
  // each tiled by its own value-ordered root slice list.
  std::size_t pos = 0;
  for (std::size_t c = 0; c < index.class_count(); ++c) {
    const auto& cls = index.extent_class(c);
    const std::size_t end = cls.root.empty() ? pos : cls.root.back().end;
    CheckSliceList(index, cls, cls.root, 0, pos, end);
    pos = end;
  }
  CHECK_EQ(pos, n);
  // Cracking permutes rows but never loses or duplicates them, and the key
  // columns stay consistent with the co-moved boxes.
  std::vector<bool> seen(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const ObjectId id = array.id(i);
    CHECK_LT(id, n);
    CHECK(!seen[id]);
    seen[id] = true;
    for (int d = 0; d < D; ++d) {
      CHECK_EQ(array.key(d, i), CrackArray<D>::CenterKey(array.box(i), d));
    }
  }
}

void TestThresholdProgression() {
  quasii::datagen::UniformDatasetParams p;
  p.count = 100000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(p);
  QuasiiIndex<3> index(data);
  Box3 q;
  for (int d = 0; d < 3; ++d) {
    q.lo[d] = 100;
    q.hi[d] = 200;
  }
  std::vector<ObjectId> result;
  RangeQueryInto(index, q, &result);
  // Geometric progression per extent class: leaf threshold tau, each level
  // above rho times larger, D refinements from the class's live count down
  // to tau. The paper's data has two classes; the small-object one holds
  // 99% of the rows and so gets a strict progression.
  CHECK_EQ(index.class_count(), 2u);
  for (std::size_t c = 0; c < index.class_count(); ++c) {
    const auto t = QuasiiIndex<3>::ThresholdsFor(index.extent_class(c).live,
                                                 1024);
    CHECK_EQ(t[2], 1024u);
    CHECK_GE(t[1], t[2]);
    CHECK_GE(t[0], t[1]);
  }
  const auto& small = index.extent_class(0);
  const auto paper = QuasiiIndex<3>::ThresholdsFor(small.live, 1024);
  CHECK_GT(paper[1], paper[2]);
  CHECK_GT(paper[0], paper[1]);
  CHECK_LT(paper[0], small.live);

  // Box queries size the leaf to the rows they reach. The whole data
  // reaches every row, so it keeps the paper's thresholds. The 100-wide
  // query box (1% of the data bounds per dimension) and a point reach less
  // than one small object, so they get the finest leaf, with every level
  // above at most the paper's. A box of 15% per dimension reaches
  // 0.15^3 · 99k ≈ 330 rows, so its leaf is the next power of two, 512.
  Box3 all = Box3::Empty();
  for (const Box3& b : data) all.ExpandToInclude(b);
  CHECK(index.LeafThresholds(small, all) == paper);
  for (const Box3& tiny : {q, Box3(q.lo, q.lo)}) {
    const auto t = index.LeafThresholds(small, tiny);
    CHECK_EQ(t[2], QuasiiIndex<3>::kMinLeafRows);
    CHECK_GT(t[0], t[1]);
    for (std::size_t d = 0; d < 3; ++d) CHECK_LE(t[d], paper[d]);
  }
  Box3 mid = all;
  for (int d = 0; d < 3; ++d) {
    mid.hi[d] = all.lo[d] + 0.15f * (all.hi[d] - all.lo[d]) -
                2 * small.half_extent[d];
  }
  CHECK_EQ(index.LeafThresholds(small, mid)[2], 512u);
}

void TestInvariantsAfterQueries() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 30000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  QuasiiIndex<3>::Params params;
  params.leaf_threshold = 256;
  QuasiiIndex<3> index(data, params);
  ScanIndex<3> scan(data);

  quasii::datagen::UniformQueryParams qp;
  qp.count = 50;
  qp.selectivity = 1e-3;
  qp.seed = 77;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);

  std::vector<ObjectId> got, want;
  for (const Box3& q : queries) {
    got.clear();
    want.clear();
    RangeQueryInto(index, q, &got);
    RangeQueryInto(scan, q, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    CHECK(got == want);
    CheckInvariants(index, data.size());
  }
}

void TestScanStatsBaseline() {
  // ScanIndex's objects_tested is exactly n per query — the closed form the
  // workload test below compares against.
  Rng rng(3);
  Box3 universe;
  for (int d = 0; d < 3; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 100;
  }
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(1234, universe, 3.0f, &rng);
  ScanIndex<3> scan(data);
  std::vector<ObjectId> result;
  Box3 q;
  for (int d = 0; d < 3; ++d) {
    q.lo[d] = 1;
    q.hi[d] = 2;
  }
  for (int i = 0; i < 7; ++i) RangeQueryInto(scan, q, &result);
  CHECK_EQ(scan.stats().objects_tested, 1234u * 7u);
}

/// The acceptance workload: 1000 uniform queries over the uniform dataset.
/// QUASII must (a) test far fewer objects than Scan would, and (b) converge:
/// the first (index-building) query is much more expensive than the steady
/// state, in both reorganization work and wall-clock latency.
void TestWorkloadBeatsScanAndConverges() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 100000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  QuasiiIndex<3> index(data);

  quasii::datagen::UniformQueryParams qp;
  qp.count = 1000;
  qp.selectivity = 1e-3;
  qp.seed = 4;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);

  std::vector<double> latency_s;
  std::vector<std::uint64_t> cracks_per_query;
  std::vector<ObjectId> result;
  std::uint64_t results_total = 0;
  for (const Box3& q : queries) {
    result.clear();
    const std::uint64_t cracks_before = index.stats().cracks;
    Timer t;
    RangeQueryInto(index, q, &result);
    latency_s.push_back(t.Seconds());
    cracks_per_query.push_back(index.stats().cracks - cracks_before);
    results_total += result.size();
  }
  CHECK_GT(results_total, 0u);

  // (a) Strictly less intersection work than Scan's n-per-query.
  const std::uint64_t scan_tested =
      static_cast<std::uint64_t>(data.size()) * queries.size();
  CHECK_LT(index.stats().objects_tested, scan_tested);

  // (b) Convergence. Reorganization: the last 100 queries together crack
  // less than the very first query alone.
  const std::uint64_t first_cracks = cracks_per_query.front();
  const std::uint64_t tail_cracks =
      std::accumulate(cracks_per_query.end() - 100, cracks_per_query.end(),
                      std::uint64_t{0});
  CHECK_GT(first_cracks, 0u);
  CHECK_LT(tail_cracks, first_cracks);

  // Latency: the first query (copies + cracks the whole array) must be well
  // above the steady-state mean of the last 100 queries.
  const double tail_mean =
      std::accumulate(latency_s.end() - 100, latency_s.end(), 0.0) / 100.0;
  CHECK_GT(latency_s.front(), 3.0 * tail_mean);

  CheckInvariants(index, data.size());
}

void TestStatsAccounting() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 20000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  QuasiiIndex<3> index(data);

  quasii::datagen::UniformQueryParams qp;
  qp.count = 20;
  qp.seed = 8;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);
  std::vector<ObjectId> result;
  for (const Box3& q : queries) RangeQueryInto(index, q, &result);

  // A refining workload must register all four counter families.
  CHECK_GT(index.stats().cracks, 0u);
  CHECK_GT(index.stats().objects_moved, 0u);
  CHECK_GT(index.stats().partitions_visited, 0u);
  CHECK_GT(index.stats().objects_tested, 0u);

  // Repeating one query on the now-refined region adds no cracks.
  const std::uint64_t cracks = index.stats().cracks;
  result.clear();
  RangeQueryInto(index, queries.front(), &result);
  CHECK_EQ(index.stats().cracks, cracks);
}

}  // namespace

int main() {
  RUN_TEST(TestThresholdProgression);
  RUN_TEST(TestInvariantsAfterQueries);
  RUN_TEST(TestScanStatsBaseline);
  RUN_TEST(TestWorkloadBeatsScanAndConverges);
  RUN_TEST(TestStatsAccounting);
  return 0;
}
