// Join and conjunctive-plan suite: every roster implementation — the Scan
// nested loop, the R-Tree synchronized traversal, QUASII's crack-driven
// lockstep descent, and the generic index-nested-loop fallback the rest
// inherit — must produce the exact canonical pair list of a brute-force
// oracle, on uniform, clustered, and degenerate data, in 2D and 3D.
// Conjunctive plans must equal the intersection of their terms' single-
// predicate results; QUASII joins must converge both sides, beat Scan's
// candidate count, and walk only slices their refinement rounded alike;
// concurrent A⋈B / B⋈A joins must neither deadlock nor diverge.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "grid/grid_index.h"
#include "mosaic/mosaic_index.h"
#include "quasii/quasii_index.h"
#include "rtree/rtree_index.h"
#include "scan/scan_index.h"
#include "sfc/sfcracker_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box2;
using quasii::Box3;
using quasii::ConjunctiveTerm;
using quasii::Dataset2;
using quasii::Dataset3;
using quasii::GridAssignment;
using quasii::GridIndex;
using quasii::IdPair;
using quasii::JoinQuery;
using quasii::MosaicIndex;
using quasii::ObjectId;
using quasii::QuasiiIndex;
using quasii::RangePredicate;
using quasii::RangeQuery;
using quasii::Rng;
using quasii::RTreeIndex;
using quasii::ScanIndex;
using quasii::SfcrackerIndex;
using quasii::SpatialIndex;
using quasii::TaskScheduler;
using quasii::VectorPairSink;
using quasii::VectorSink;

template <int D>
using IndexFactory = std::function<std::unique_ptr<SpatialIndex<D>>(
    const quasii::Dataset<D>&, const quasii::Box<D>&)>;

/// Every join code path in one list: Scan (the nested-loop oracle), R-Tree
/// (synchronized node-pair traversal), QUASII (crack-driven lockstep
/// descent), and SFCracker / Grid / Mosaic (the generic index-nested-loop
/// default — no override of their own).
template <int D>
std::vector<std::pair<std::string, IndexFactory<D>>> JoinRoster() {
  std::vector<std::pair<std::string, IndexFactory<D>>> roster;
  roster.emplace_back("Scan", [](const quasii::Dataset<D>& d,
                                 const quasii::Box<D>&) {
    return std::make_unique<ScanIndex<D>>(d);
  });
  roster.emplace_back("SFCracker", [](const quasii::Dataset<D>& d,
                                      const quasii::Box<D>& u) {
    return std::make_unique<SfcrackerIndex<D>>(d, u);
  });
  roster.emplace_back("Grid", [](const quasii::Dataset<D>& d,
                                 const quasii::Box<D>& u) {
    typename GridIndex<D>::Params p;
    p.partitions_per_dim = 10;
    p.assignment = GridAssignment::kQueryExtension;
    return std::make_unique<GridIndex<D>>(d, u, p);
  });
  roster.emplace_back("Mosaic", [](const quasii::Dataset<D>& d,
                                   const quasii::Box<D>& u) {
    typename MosaicIndex<D>::Params p;
    p.leaf_capacity = 256;
    return std::make_unique<MosaicIndex<D>>(d, u, p);
  });
  roster.emplace_back("R-Tree", [](const quasii::Dataset<D>& d,
                                   const quasii::Box<D>&) {
    return std::make_unique<RTreeIndex<D>>(d);
  });
  roster.emplace_back("QUASII", [](const quasii::Dataset<D>& d,
                                   const quasii::Box<D>&) {
    typename QuasiiIndex<D>::Params p;
    p.leaf_threshold = 256;
    return std::make_unique<QuasiiIndex<D>>(d, p);
  });
  return roster;
}

/// Brute-force A⋈B oracle over the raw datasets (ids are positions — the
/// same assignment the indexes use). Output is canonical by construction:
/// lexicographically ascending, no duplicates.
template <int D>
std::vector<IdPair> OraclePairs(const quasii::Dataset<D>& a,
                                const quasii::Dataset<D>& b) {
  std::vector<IdPair> out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (a[i].Intersects(b[j])) {
        out.emplace_back(static_cast<ObjectId>(i), static_cast<ObjectId>(j));
      }
    }
  }
  return out;
}

/// Brute-force self-join oracle: each unordered pair once, no diagonal.
template <int D>
std::vector<IdPair> OracleSelfPairs(const quasii::Dataset<D>& a) {
  std::vector<IdPair> out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      if (a[i].Intersects(a[j])) {
        out.emplace_back(static_cast<ObjectId>(i), static_cast<ObjectId>(j));
      }
    }
  }
  return out;
}

template <int D>
std::vector<IdPair> RunJoin(SpatialIndex<D>& left, SpatialIndex<D>& right) {
  std::vector<IdPair> pairs;
  VectorPairSink sink(&pairs);
  left.Execute(JoinQuery<D>(right), sink);
  return pairs;
}

/// Checks the canonical-order guarantee directly: strictly increasing
/// lexicographic sequence (which implies uniqueness), and for self-joins
/// additionally `left < right` (no diagonal, each unordered pair once).
void CheckCanonical(const std::vector<IdPair>& pairs, bool self_join,
                    const char* label) {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (self_join) CHECK_LT(pairs[i].first, pairs[i].second);
    if (i > 0 && !(pairs[i - 1] < pairs[i])) {
      std::fprintf(stderr, "[%s] pair %zu out of order\n", label, i);
      CHECK(pairs[i - 1] < pairs[i]);
    }
  }
}

template <int D>
void CheckJoinMatrix(const quasii::Dataset<D>& a, const quasii::Dataset<D>& b,
                     const quasii::Box<D>& universe, const char* label) {
  const std::vector<IdPair> expected = OraclePairs<D>(a, b);
  const auto roster = JoinRoster<D>();
  for (const auto& [name_a, make_a] : roster) {
    for (const auto& [name_b, make_b] : roster) {
      auto left = make_a(a, universe);
      auto right = make_b(b, universe);
      left->Build();
      right->Build();
      // Twice: the first join cracks the adaptive sides, the second runs
      // over the converged structure (possibly shared-locked) — both must
      // produce the identical canonical list.
      for (int round = 0; round < 2; ++round) {
        const std::vector<IdPair> got = RunJoin<D>(*left, *right);
        CheckCanonical(got, /*self_join=*/false, label);
        if (got != expected) {
          std::fprintf(stderr,
                       "[%s] %s ⋈ %s round %d: %zu pairs, want %zu\n", label,
                       name_a.c_str(), name_b.c_str(), round, got.size(),
                       expected.size());
          CHECK(got == expected);
        }
      }
    }
  }
}

template <int D>
void CheckSelfJoins(const quasii::Dataset<D>& a,
                    const quasii::Box<D>& universe, const char* label) {
  const std::vector<IdPair> expected = OracleSelfPairs<D>(a);
  for (const auto& [name, make] : JoinRoster<D>()) {
    auto index = make(a, universe);
    index->Build();
    for (int round = 0; round < 2; ++round) {
      const std::vector<IdPair> got = RunJoin<D>(*index, *index);
      CheckCanonical(got, /*self_join=*/true, label);
      if (got != expected) {
        std::fprintf(stderr, "[%s] %s self-join round %d: %zu pairs, want "
                             "%zu\n",
                     label, name.c_str(), round, got.size(), expected.size());
        CHECK(got == expected);
      }
    }
  }
}

template <int D>
quasii::Box<D> MakeCube(float lo, float hi) {
  quasii::Box<D> b;
  for (int d = 0; d < D; ++d) {
    b.lo[d] = lo;
    b.hi[d] = hi;
  }
  return b;
}

void TestIndexJoinMatrix3d() {
  quasii::datagen::UniformDatasetParams pa;
  pa.count = 1200;
  pa.seed = 7;
  const Dataset3 a = quasii::datagen::MakeUniformDataset(pa);
  const Box3 universe = quasii::datagen::UniformUniverse(pa);
  Rng rng(11);
  const Dataset3 b =
      quasii::datagen::MakeRandomBoxes<3>(900, universe, 30.0f, &rng);
  CheckJoinMatrix<3>(a, b, universe, "uniform3d");
}

void TestIndexJoinMatrix2d() {
  Rng rng(13);
  const Box2 universe = MakeCube<2>(-500, 500);
  const Dataset2 a =
      quasii::datagen::MakeRandomBoxes<2>(1000, universe, 25.0f, &rng);
  const Dataset2 b =
      quasii::datagen::MakeRandomBoxes<2>(800, universe, 40.0f, &rng);
  CheckJoinMatrix<2>(a, b, universe, "random2d");
}

void TestClusteredJoin3d() {
  // Clustered left side against a uniform right side: dense pair hotspots
  // exercise the synchronized traversals' pruning far from the clusters.
  quasii::datagen::UniformDatasetParams pu;
  pu.count = 1000;
  pu.seed = 19;
  const Dataset3 b = quasii::datagen::MakeUniformDataset(pu);
  const Box3 universe = quasii::datagen::UniformUniverse(pu);
  Rng rng(23);
  Dataset3 a;
  for (int c = 0; c < 5; ++c) {
    quasii::Point<3> centre;
    for (int d = 0; d < 3; ++d) {
      centre[d] = static_cast<float>(rng.Uniform(universe.lo[d] + 100,
                                                 universe.hi[d] - 100));
    }
    for (int i = 0; i < 200; ++i) {
      Box3 box;
      for (int d = 0; d < 3; ++d) {
        const float lo = centre[d] + static_cast<float>(rng.Uniform(-50, 50));
        box.lo[d] = lo;
        box.hi[d] = lo + static_cast<float>(rng.Uniform(0, 10));
      }
      a.push_back(box);
    }
  }
  CheckJoinMatrix<3>(a, b, universe, "clustered3d");
}

void TestSelfJoinSemantics() {
  // Duplicate-heavy data: 60 identical boxes form a 60-choose-2 clique;
  // every implementation must report each unordered pair exactly once and
  // never the diagonal, in identical canonical order.
  quasii::datagen::UniformDatasetParams p;
  p.count = 700;
  p.seed = 29;
  Dataset3 a = quasii::datagen::MakeUniformDataset(p);
  const Box3 universe = quasii::datagen::UniformUniverse(p);
  const Box3 dup = MakeCube<3>(100, 130);
  for (int i = 0; i < 60; ++i) a.push_back(dup);
  CheckSelfJoins<3>(a, universe, "self3d");

  Rng rng(31);
  const Box2 universe2 = MakeCube<2>(0, 1000);
  Dataset2 a2 =
      quasii::datagen::MakeRandomBoxes<2>(800, universe2, 35.0f, &rng);
  for (int i = 0; i < 40; ++i) a2.push_back(MakeCube<2>(400, 420));
  CheckSelfJoins<2>(a2, universe2, "self2d");
}

void TestZeroExtentAndDegenerateJoins() {
  const Box3 universe = MakeCube<3>(0, 100);

  // Zero-extent boxes on both sides: coincident points must join (closed
  // boxes intersect at a shared point), as must a point sitting exactly on
  // another box's corner — and the same data self-joins correctly.
  Dataset3 a;
  a.push_back(MakeCube<3>(10, 10));  // point P
  a.push_back(MakeCube<3>(10, 10));  // duplicate of P
  a.push_back(MakeCube<3>(20, 30));  // volume whose corner is (20,20,20)
  a.push_back(MakeCube<3>(50, 50));  // isolated point
  Dataset3 b;
  b.push_back(MakeCube<3>(10, 10));  // P again: meets both copies
  b.push_back(MakeCube<3>(20, 20));  // point on the volume's corner
  b.push_back(MakeCube<3>(5, 10));   // volume whose corner is P
  b.push_back(MakeCube<3>(70, 70));  // matches nothing
  CheckJoinMatrix<3>(a, b, universe, "zero-extent");
  CheckSelfJoins<3>(a, universe, "zero-extent-self");

  // Empty datasets on either side (or both) produce no pairs and no crash.
  const Dataset3 empty;
  for (const auto& [name, make] : JoinRoster<3>()) {
    auto ia = make(a, universe);
    auto ib = make(empty, universe);
    ia->Build();
    ib->Build();
    CHECK(RunJoin<3>(*ia, *ib).empty());
    CHECK(RunJoin<3>(*ib, *ia).empty());
    CHECK(RunJoin<3>(*ib, *ib).empty());
  }
}

void TestStreamJoin() {
  quasii::datagen::UniformDatasetParams p;
  p.count = 2000;
  p.seed = 37;
  const Dataset3 a = quasii::datagen::MakeUniformDataset(p);
  const Box3 universe = quasii::datagen::UniformUniverse(p);

  quasii::datagen::UniformQueryParams qp;
  qp.count = 30;
  qp.selectivity = 1e-2;
  qp.seed = 41;
  std::vector<Box3> stream = quasii::datagen::MakeUniformQueries(universe, qp);
  stream.push_back(MakeCube<3>(600, 400));  // inverted: matches nothing
  stream.push_back(Box3(a[0].Center(), a[0].Center()));  // zero-extent hit

  // Oracle: (object id, stream position) for every non-empty stream box.
  std::vector<IdPair> expected;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < stream.size(); ++j) {
      if (!stream[j].IsEmpty() && a[i].Intersects(stream[j])) {
        expected.emplace_back(static_cast<ObjectId>(i),
                              static_cast<ObjectId>(j));
      }
    }
  }
  CHECK_GT(expected.size(), 0u);

  const std::vector<Box3> empty_stream;
  for (const auto& [name, make] : JoinRoster<3>()) {
    auto index = make(a, universe);
    index->Build();
    for (int round = 0; round < 2; ++round) {
      std::vector<IdPair> got;
      VectorPairSink sink(&got);
      index->Execute(JoinQuery<3>(stream), sink);
      CheckCanonical(got, /*self_join=*/false, "stream");
      if (got != expected) {
        std::fprintf(stderr, "[stream] %s round %d: %zu pairs, want %zu\n",
                     name.c_str(), round, got.size(), expected.size());
        CHECK(got == expected);
      }
    }
    std::vector<IdPair> none;
    VectorPairSink none_sink(&none);
    index->Execute(JoinQuery<3>(empty_stream), none_sink);
    CHECK(none.empty());
  }
}

void TestConjunctivePlansMatchIntersectedTerms() {
  quasii::datagen::UniformDatasetParams p;
  p.count = 4000;
  p.seed = 43;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(p);
  const Box3 universe = quasii::datagen::UniformUniverse(p);
  ScanIndex<3> scan(data);

  Rng rng(47);
  const auto random_box = [&](double frac) {
    Box3 b;
    for (int d = 0; d < 3; ++d) {
      const float extent = universe.Extent(d);
      const float len = static_cast<float>(frac) * extent;
      const float lo = universe.lo[d] +
                       static_cast<float>(rng.Uniform(0, 1)) * (extent - len);
      b.lo[d] = lo;
      b.hi[d] = lo + len;
    }
    return b;
  };

  auto roster = JoinRoster<3>();
  std::vector<std::unique_ptr<SpatialIndex<3>>> indexes;
  for (const auto& [name, make] : roster) {
    indexes.push_back(make(data, universe));
    indexes.back()->Build();
  }

  std::uint64_t nonempty = 0;
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<ConjunctiveTerm<3>> terms;
    const int nterms = 1 + trial % 3;
    for (int t = 0; t < nterms; ++t) {
      ConjunctiveTerm<3> term;
      term.box = random_box(0.35 + 0.2 * t);
      // Every third trial mixes a containment predicate into the plan.
      if (trial % 3 == 2 && t == 1) {
        term.predicate = RangePredicate::kContainedBy;
      }
      terms.push_back(term);
    }

    // Reference: intersect the terms' individual single-predicate results.
    std::vector<ObjectId> want;
    for (int t = 0; t < nterms; ++t) {
      std::vector<ObjectId> ids;
      VectorSink sink(&ids);
      scan.Execute(RangeQuery<3>(terms[static_cast<std::size_t>(t)].box,
                                 terms[static_cast<std::size_t>(t)].predicate),
                   sink);
      std::sort(ids.begin(), ids.end());
      if (t == 0) {
        want = ids;
      } else {
        std::vector<ObjectId> merged;
        std::set_intersection(want.begin(), want.end(), ids.begin(), ids.end(),
                              std::back_inserter(merged));
        want = std::move(merged);
      }
    }
    nonempty += want.empty() ? 0 : 1;

    const quasii::Query3 q = quasii::ConjunctiveQuery<3>(terms);
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      std::vector<ObjectId> got;
      VectorSink sink(&got);
      indexes[i]->Execute(q, sink);
      std::sort(got.begin(), got.end());
      if (got != want) {
        std::fprintf(stderr, "[conjunction] %s trial %d: %zu ids, want %zu\n",
                     roster[i].first.c_str(), trial, got.size(), want.size());
        CHECK(got == want);
      }
    }
  }
  CHECK_GT(nonempty, 0u);  // the trials actually exercised non-empty plans
}

void TestConjunctionWithDisjointTermsStillSound() {
  // An object can straddle two disjoint term boxes — intersecting the term
  // boxes up front would wrongly prune it. The wide slab below intersects
  // both distant terms; the small boxes match only one each.
  const Box3 universe = MakeCube<3>(0, 1000);
  Dataset3 data;
  Box3 slab = MakeCube<3>(0, 1000);  // spans everything
  data.push_back(slab);
  data.push_back(MakeCube<3>(100, 120));  // inside term 1 only
  data.push_back(MakeCube<3>(800, 820));  // inside term 2 only
  std::vector<ConjunctiveTerm<3>> terms(2);
  terms[0].box = MakeCube<3>(90, 130);
  terms[1].box = MakeCube<3>(790, 830);
  CHECK(!terms[0].box.Intersects(terms[1].box));

  const quasii::Query3 q = quasii::ConjunctiveQuery<3>(terms);
  for (const auto& [name, make] : JoinRoster<3>()) {
    auto index = make(data, universe);
    index->Build();
    std::vector<ObjectId> got;
    VectorSink sink(&got);
    index->Execute(q, sink);
    CHECK_EQ(got.size(), 1u);
    CHECK_EQ(got[0], 0u);
  }
}

void TestQuasiiJoinConvergenceInvariants() {
  quasii::datagen::UniformDatasetParams pa;
  pa.count = 4096;
  pa.seed = 53;
  const Dataset3 a = quasii::datagen::MakeUniformDataset(pa);
  const Box3 universe = quasii::datagen::UniformUniverse(pa);
  Rng rng(59);
  const Dataset3 b =
      quasii::datagen::MakeRandomBoxes<3>(3000, universe, 25.0f, &rng);

  // Self-join: the join's own crack traffic must fully converge the index —
  // the first join cracks, and a repeated join moves no row.
  {
    QuasiiIndex<3> q(a);
    q.Build();
    const std::vector<IdPair> first = RunJoin<3>(q, q);
    CHECK(first == OracleSelfPairs<3>(a));
    CHECK_GT(q.stats().cracks, 0u);
    const std::uint64_t cracks_after_first = q.stats().cracks;
    const std::uint64_t moved_after_first = q.stats().objects_moved;
    const std::vector<IdPair> second = RunJoin<3>(q, q);
    CHECK(second == first);
    CHECK_EQ(q.stats().cracks, cracks_after_first);
    CHECK_EQ(q.stats().objects_moved, moved_after_first);

    // A join refines to the finest leaf any box query refines to, so a
    // join-converged index is converged for every box query too: stream
    // joins (whose probes run as box queries) match the oracle, and they,
    // points, small and large ranges and counts all crack nothing.
    quasii::datagen::UniformQueryParams qp;
    qp.count = 20;
    qp.seed = 61;
    for (const double sel : {1e-6, 1e-3, 1e-1}) {
      qp.selectivity = sel;
      const std::vector<Box3> boxes =
          quasii::datagen::MakeUniformQueries(universe, qp);
      std::vector<IdPair> pairs;
      VectorPairSink pair_sink(&pairs);
      q.Execute(JoinQuery<3>(boxes), pair_sink);
      CHECK(pairs == OraclePairs<3>(a, boxes));
      for (const Box3& box : boxes) {
        for (const quasii::Query3& read :
             {RangeQuery<3>(box), quasii::CountQuery<3>(box),
              quasii::PointQuery<3>(box.Center())}) {
          CHECK(q.ConvergedFor(read));
          quasii::CountSink sink;
          q.Execute(read, sink);
        }
      }
    }
    CHECK_EQ(q.stats().cracks, cracks_after_first);
    CHECK_EQ(q.stats().objects_moved, moved_after_first);
  }

  // Two-index join: both hierarchies converge from join traffic alone — a
  // repeated join cracks neither side.
  {
    QuasiiIndex<3> qa(a);
    QuasiiIndex<3> qb(b);
    qa.Build();
    qb.Build();
    const std::vector<IdPair> expected = OraclePairs<3>(a, b);
    const std::vector<IdPair> first = RunJoin<3>(qa, qb);
    CHECK(first == expected);
    const std::uint64_t cracks_a = qa.stats().cracks;
    const std::uint64_t cracks_b = qb.stats().cracks;
    CHECK_GT(cracks_a, 0u);
    CHECK_GT(cracks_b, 0u);
    const std::vector<IdPair> second = RunJoin<3>(qa, qb);
    CHECK(second == expected);
    CHECK_EQ(qa.stats().cracks, cracks_a);
    CHECK_EQ(qb.stats().cracks, cracks_b);
    // The transposed join reuses the converged structures too.
    std::vector<IdPair> transposed = RunJoin<3>(qb, qa);
    for (IdPair& pr : transposed) std::swap(pr.first, pr.second);
    std::sort(transposed.begin(), transposed.end());
    CHECK(transposed == expected);
    CHECK_EQ(qa.stats().cracks, cracks_a);
    CHECK_EQ(qb.stats().cracks, cracks_b);
  }

  // The headline claim: identical pair output at strictly fewer candidate
  // tests than the Scan nested loop.
  {
    ScanIndex<3> scan(a);
    scan.Build();
    scan.ResetStats();
    const std::vector<IdPair> scan_pairs = RunJoin<3>(scan, scan);
    QuasiiIndex<3> q(a);
    q.Build();
    q.ResetStats();
    const std::vector<IdPair> quasii_pairs = RunJoin<3>(q, q);
    CHECK(quasii_pairs == scan_pairs);
    CHECK_GT(scan.stats().objects_tested, 0u);
    CHECK_LT(q.stats().objects_tested, scan.stats().objects_tested);
  }
}

/// The join's refine step and both of its walks share one reach per
/// partner slice (`[lo - h, hi + h)`, its upper end rounded outward). Here
/// two unshared expressions would disagree: a box query leaves B a leaf
/// slice ending at x = 1 + 2^-23 (`nextafter(1)`), A's objects are 6 wide
/// (summed half extent h = 3), and x + 3 rounds down to 4. Refining A at
/// `x + 3` would leave A's rows at y = 5 in an oversized leaf `[4, +inf)`
/// that a walk testing `x > 4 - 3` still visits; the join's exclusive run
/// would then abort (`AbortDeclinedRead`). With the shared reach that leaf
/// lies beyond `nextafter(4)` and is never walked. Pairs match Scan's, and
/// a rerun cracks nothing.
void TestJoinWalkRoundsLikeRefinement() {
  QuasiiIndex<2>::Params p;
  p.leaf_threshold = 4;
  Dataset2 b;  // points at x = 0, y in [0.55, 1]
  for (const float y : {0.55f, 0.6f, 0.65f, 0.7f, 0.8f, 0.9f, 0.95f, 1.0f}) {
    b.push_back(Box2({0, y}, {0, y}));
  }
  Dataset2 a;  // 6 x 6 boxes centred at y = 2 (they meet B) and y = 5
  for (int i = 0; i < 16; ++i) a.push_back(Box2({-3, -1}, {3, 5}));
  for (int i = 0; i < 16; ++i) a.push_back(Box2({-3, 2}, {3, 8}));
  QuasiiIndex<2> qa(a, p);
  QuasiiIndex<2> qb(b, p);
  quasii::CountSink count;
  qb.Execute(quasii::CountQuery<2>(Box2({-1, 0.5f}, {1, 1})), count);
  CHECK_EQ(count.count(), b.size());
  const std::vector<IdPair> expected = OraclePairs<2>(a, b);
  CHECK_EQ(expected.size(), 16u * b.size());
  CHECK(RunJoin<2>(qa, qb) == expected);
  const quasii::QueryStats converged = qa.stats();
  CHECK(RunJoin<2>(qa, qb) == expected);
  CHECK_EQ(qa.stats().cracks, converged.cracks);
  CHECK_EQ(qa.stats().objects_moved, converged.objects_moved);
  ScanIndex<2> sa(a);
  ScanIndex<2> sb(b);
  CHECK(RunJoin<2>(sa, sb) == expected);
}

void TestConcurrentJoins() {
  quasii::datagen::UniformDatasetParams pa;
  pa.count = 2000;
  pa.seed = 61;
  const Dataset3 a = quasii::datagen::MakeUniformDataset(pa);
  const Box3 universe = quasii::datagen::UniformUniverse(pa);
  Rng rng(67);
  const Dataset3 b =
      quasii::datagen::MakeRandomBoxes<3>(1500, universe, 30.0f, &rng);

  std::vector<IdPair> expected_ab = OraclePairs<3>(a, b);
  std::vector<IdPair> expected_ba = OraclePairs<3>(b, a);

  QuasiiIndex<3> qa(a);
  QuasiiIndex<3> qb(b);
  qa.Build();
  qb.Build();

  // Four lanes, half joining A⋈B and half B⋈A concurrently: the global
  // address-order lock acquisition must neither deadlock nor let a shared
  // join observe a half-cracked partner. A fifth lane interleaves range
  // queries (their cracks contend with the joins' exclusive phases). Four
  // workers plus the helping caller run the five lanes at once.
  constexpr int kRounds = 6;
  std::atomic<std::uint64_t> failures{0};
  TaskScheduler scheduler(4);
  TaskScheduler::Group group(&scheduler);
  for (int w = 0; w < 4; ++w) {
    const bool forward = (w % 2 == 0);
    group.Run([&, forward] {
      for (int r = 0; r < kRounds; ++r) {
        const std::vector<IdPair> got = forward ? RunJoin<3>(qa, qb)
                                                : RunJoin<3>(qb, qa);
        const std::vector<IdPair>& want = forward ? expected_ab : expected_ba;
        if (got != want) failures.fetch_add(1);
      }
    });
  }
  group.Run([&] {
    Rng qrng(71);
    std::vector<ObjectId> ids;
    VectorSink sink(&ids);
    for (int r = 0; r < 40; ++r) {
      Box3 probe;
      for (int d = 0; d < 3; ++d) {
        const float lo = universe.lo[d] +
                         static_cast<float>(qrng.Uniform(0, 1)) *
                             universe.Extent(d) * 0.8f;
        probe.lo[d] = lo;
        probe.hi[d] = lo + universe.Extent(d) * 0.1f;
      }
      ids.clear();
      qa.Execute(RangeQuery<3>(probe), sink);
      ids.clear();
      qb.Execute(RangeQuery<3>(probe), sink);
    }
  });
  group.Wait();
  CHECK_EQ(failures.load(), 0u);
}

}  // namespace

int main() {
  RUN_TEST(TestIndexJoinMatrix3d);
  RUN_TEST(TestIndexJoinMatrix2d);
  RUN_TEST(TestClusteredJoin3d);
  RUN_TEST(TestSelfJoinSemantics);
  RUN_TEST(TestZeroExtentAndDegenerateJoins);
  RUN_TEST(TestStreamJoin);
  RUN_TEST(TestConjunctivePlansMatchIntersectedTerms);
  RUN_TEST(TestConjunctionWithDisjointTermsStillSound);
  RUN_TEST(TestQuasiiJoinConvergenceInvariants);
  RUN_TEST(TestJoinWalkRoundsLikeRefinement);
  RUN_TEST(TestConcurrentJoins);
  return 0;
}
