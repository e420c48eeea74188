// Dynamic-data equivalence suite: interleaved insert/erase/query sequences
// over every roster index, checked op-by-op against a brute-force mutable
// oracle — including erase-of-never-inserted, reinsert-same-id, and the
// mutation acceptance pattern itself. Plus the QUASII maintenance
// invariants: pending tails drain to zero after a query, tombstones never
// surface in results, compaction reclaims dead rows, and the per-level
// thresholds track the live population.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/dataset.h"
#include "common/object_store.h"
#include "common/query.h"
#include "common/request.h"
#include "common/rng.h"
#include "common/spatial_index.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "grid/grid_index.h"
#include "mosaic/mosaic_index.h"
#include "quasii/quasii_index.h"
#include "rtree/rtree_index.h"
#include "scan/scan_index.h"
#include "sfc/sfc_index.h"
#include "sfc/sfcracker_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box;
using quasii::Box3;
using quasii::CountQuery;
using quasii::CountSink;
using quasii::Dataset;
using quasii::KNearestQuery;
using quasii::PointQuery;
using quasii::RangeQuery;
using quasii::Dataset3;
using quasii::GridAssignment;
using quasii::GridIndex;
using quasii::MatchesPredicate;
using quasii::MosaicIndex;
using quasii::ObjectId;
using quasii::ObjectStore;
using quasii::Point;
using quasii::QuasiiIndex;
using quasii::Query;
using quasii::RangePredicate;
using quasii::Rng;
using quasii::RTreeIndex;
using quasii::Scalar;
using quasii::ScanIndex;
using quasii::SfcIndex;
using quasii::SfcQueryStrategy;
using quasii::SfcrackerIndex;
using quasii::SpatialIndex;
using quasii::TopKSink;
using quasii::VectorSink;

/// Whether `Index` can be built from a temporary dataset (and `Rest`).
/// Every index, and the store behind it, keeps a view of the caller's
/// dataset until the first mutation, so none of them may.
template <typename Index, typename... Rest>
constexpr bool kFromTemporary =
    std::is_constructible_v<Index, Dataset3&&, Rest...>;
static_assert(std::is_constructible_v<ScanIndex<3>, const Dataset3&>);
static_assert(!kFromTemporary<ScanIndex<3>>);
static_assert(!kFromTemporary<QuasiiIndex<3>>);
static_assert(!kFromTemporary<QuasiiIndex<3>, QuasiiIndex<3>::Params>);
static_assert(!kFromTemporary<RTreeIndex<3>>);
static_assert(!kFromTemporary<GridIndex<3>, Box3, GridIndex<3>::Params>);
static_assert(!kFromTemporary<SfcIndex<3>, Box3>);
static_assert(!kFromTemporary<SfcrackerIndex<3>, Box3>);
static_assert(!kFromTemporary<MosaicIndex<3>, Box3>);
static_assert(!kFromTemporary<ObjectStore<3>>);

/// Brute-force mutable reference: a sorted id → box map with the store's
/// exact mutation semantics.
template <int D>
class Oracle {
 public:
  explicit Oracle(const Dataset<D>& data) {
    for (ObjectId i = 0; i < data.size(); ++i) objects_[i] = data[i];
  }

  bool Insert(ObjectId id, const Box<D>& box) {
    if (box.IsEmpty()) return false;
    return objects_.emplace(id, box).second;
  }
  bool Erase(ObjectId id) { return objects_.erase(id) > 0; }
  std::size_t size() const { return objects_.size(); }

  std::vector<ObjectId> Range(const Box<D>& q, RangePredicate pred) const {
    std::vector<ObjectId> out;
    if (q.IsEmpty()) return out;
    for (const auto& [id, box] : objects_) {
      if (MatchesPredicate(box, q, pred)) out.push_back(id);
    }
    return out;
  }

  std::uint64_t Count(const Box<D>& q, RangePredicate pred) const {
    return Range(q, pred).size();
  }

  std::vector<ObjectId> KNearest(const Point<D>& pt, std::size_t k) const {
    TopKSink topk(k);
    for (const auto& [id, box] : objects_) {
      topk.Offer(id, box.MinDistSquaredTo(pt));
    }
    std::vector<ObjectId> out;
    for (const auto& nb : topk.TakeSorted()) out.push_back(nb.id);
    return out;
  }

 private:
  std::map<ObjectId, Box<D>> objects_;
};

/// Every roster index class, in its equivalence-suite configuration (small
/// thresholds so structures actually refine at test sizes).
template <int D>
std::vector<std::unique_ptr<SpatialIndex<D>>> MakeRoster(
    const Dataset<D>& data, const Box<D>& universe) {
  std::vector<std::unique_ptr<SpatialIndex<D>>> v;
  v.push_back(std::make_unique<ScanIndex<D>>(data));
  v.push_back(std::make_unique<SfcIndex<D>>(data, universe));
  {
    typename SfcIndex<D>::Params p;
    p.strategy = SfcQueryStrategy::kBigMinScan;
    v.push_back(std::make_unique<SfcIndex<D>>(data, universe, p));
  }
  v.push_back(std::make_unique<SfcrackerIndex<D>>(data, universe));
  {
    typename GridIndex<D>::Params p;
    p.partitions_per_dim = 20;
    p.assignment = GridAssignment::kQueryExtension;
    v.push_back(std::make_unique<GridIndex<D>>(data, universe, p));
  }
  {
    typename GridIndex<D>::Params p;
    p.partitions_per_dim = 20;
    p.assignment = GridAssignment::kReplication;
    v.push_back(std::make_unique<GridIndex<D>>(data, universe, p));
  }
  {
    typename MosaicIndex<D>::Params p;
    p.leaf_capacity = 128;
    v.push_back(std::make_unique<MosaicIndex<D>>(data, universe, p));
  }
  v.push_back(std::make_unique<RTreeIndex<D>>(data));
  {
    typename QuasiiIndex<D>::Params p;
    p.leaf_threshold = 128;
    v.push_back(std::make_unique<QuasiiIndex<D>>(data, p));
  }
  return v;
}

template <int D>
Box<D> RandomBox(Rng* rng, const Box<D>& universe, double max_extent_frac) {
  Box<D> b;
  for (int d = 0; d < D; ++d) {
    const double lo = static_cast<double>(universe.lo[d]);
    const double hi = static_cast<double>(universe.hi[d]);
    const double centre = rng->Uniform(lo, hi);
    const double half = (hi - lo) * rng->Uniform(0, max_extent_frac) / 2;
    b.lo[d] = static_cast<Scalar>(centre - half);
    b.hi[d] = static_cast<Scalar>(centre + half);
  }
  return b;
}

template <int D>
Dataset<D> RandomDataset(Rng* rng, const Box<D>& universe, std::size_t n) {
  Dataset<D> data;
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.push_back(RandomBox(rng, universe, 0.03));
  }
  return data;
}

template <int D>
std::vector<ObjectId> RunRange(SpatialIndex<D>* index, const Box<D>& q,
                               RangePredicate pred) {
  std::vector<ObjectId> out;
  VectorSink sink(&out);
  index->Execute(RangeQuery<D>(q, pred), sink);
  std::sort(out.begin(), out.end());
  return out;
}

/// The core driver: a deterministic interleaved op script applied in
/// lockstep to the oracle and the whole roster, comparing acceptance of
/// every mutation and the exact result of every query.
template <int D>
void CheckInterleavedOpsAgainstOracle(std::uint64_t seed) {
  Box<D> universe;
  for (int d = 0; d < D; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 100;
  }
  Rng rng(seed);
  const Dataset<D> data = RandomDataset<D>(&rng, universe, 1500);
  Oracle<D> oracle(data);
  auto roster = MakeRoster<D>(data, universe);
  for (auto& index : roster) index->Build();

  std::vector<ObjectId> live(data.size());
  for (ObjectId i = 0; i < data.size(); ++i) live[i] = i;
  ObjectId next_id = static_cast<ObjectId>(data.size());
  std::vector<ObjectId> got;
  VectorSink got_sink(&got);
  CountSink count_sink;

  for (int step = 0; step < 500; ++step) {
    const double u = rng.Uniform(0, 1);
    if (u < 0.18) {  // insert a fresh object
      const ObjectId id = next_id++;
      const Box<D> box = RandomBox(&rng, universe, 0.05);
      CHECK(oracle.Insert(id, box));
      for (auto& index : roster) CHECK(index->Insert(id, box));
      live.push_back(id);
    } else if (u < 0.30 && !live.empty()) {  // erase a live object
      const std::size_t victim = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(live.size()) - 1));
      const ObjectId id = live[victim];
      live[victim] = live.back();
      live.pop_back();
      CHECK(oracle.Erase(id));
      for (auto& index : roster) CHECK(index->Erase(id));
    } else if (u < 0.34) {  // erase of a never-inserted id: rejected, no-op
      const ObjectId id = next_id + 1000000;
      CHECK(!oracle.Erase(id));
      for (auto& index : roster) CHECK(!index->Erase(id));
    } else if (u < 0.40 && !live.empty()) {  // reinsert an erased id
      const std::size_t victim = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(live.size()) - 1));
      const ObjectId id = live[victim];
      const Box<D> box = RandomBox(&rng, universe, 0.05);
      CHECK(oracle.Erase(id));
      for (auto& index : roster) CHECK(index->Erase(id));
      CHECK(oracle.Insert(id, box));
      for (auto& index : roster) CHECK(index->Insert(id, box));
    } else if (u < 0.70) {  // range query, rotating predicate
      const Box<D> q = RandomBox(&rng, universe, 0.3);
      const RangePredicate pred =
          step % 3 == 0 ? RangePredicate::kIntersects
                        : (step % 3 == 1 ? RangePredicate::kContains
                                         : RangePredicate::kContainedBy);
      const std::vector<ObjectId> want = oracle.Range(q, pred);
      for (auto& index : roster) {
        const std::vector<ObjectId> ids = RunRange(index.get(), q, pred);
        if (ids != want) {
          std::fprintf(stderr, "[step %d] %s range disagrees (%zu vs %zu)\n",
                       step, std::string(index->name()).c_str(), ids.size(),
                       want.size());
          CHECK(ids == want);
        }
      }
    } else if (u < 0.80) {  // point query
      const Point<D> pt = RandomBox(&rng, universe, 0).Center();
      const std::vector<ObjectId> want =
          oracle.Range(Box<D>(pt, pt), RangePredicate::kIntersects);
      for (auto& index : roster) {
        got.clear();
        index->Execute(PointQuery<D>(pt), got_sink);
        std::sort(got.begin(), got.end());
        CHECK(got == want);
      }
    } else if (u < 0.90) {  // count query
      const Box<D> q = RandomBox(&rng, universe, 0.3);
      const std::uint64_t want = oracle.Count(q, RangePredicate::kIntersects);
      for (auto& index : roster) {
        count_sink.Reset();
        index->Execute(CountQuery<D>(q), count_sink);
        CHECK_EQ(count_sink.count(), want);
      }
    } else {  // kNN query (exact order: ascending (distance, id))
      const Point<D> pt = RandomBox(&rng, universe, 0).Center();
      const std::size_t k =
          static_cast<std::size_t>(rng.UniformInt(1, 12));
      const std::vector<ObjectId> want = oracle.KNearest(pt, k);
      for (auto& index : roster) {
        got.clear();
        index->Execute(KNearestQuery<D>(pt, k), got_sink);
        CHECK(got == want);
      }
    }
  }
  // Final sanity: population agreed on throughout, and every index passes
  // its structural self-check (the same validator recovery runs).
  for (auto& index : roster) {
    CHECK_EQ(index->store().live_count(), oracle.size());
    std::string why;
    if (!index->CheckInvariants(&why)) {
      std::fprintf(stderr, "%s CheckInvariants: %s\n",
                   std::string(index->name()).c_str(), why.c_str());
      CHECK(false);
    }
  }
}

void TestInterleavedOps3D() { CheckInterleavedOpsAgainstOracle<3>(7); }
void TestInterleavedOps2D() { CheckInterleavedOpsAgainstOracle<2>(11); }

/// Mutation semantics shared by the whole roster (spot-checked through the
/// simplest index; the semantics live in the base-class store).
void TestMutationContract() {
  Dataset3 data;
  Box3 b;
  for (int d = 0; d < 3; ++d) {
    b.lo[d] = 0;
    b.hi[d] = 1;
  }
  data.push_back(b);
  ScanIndex<3> index(data);

  CHECK(!index.Insert(0, b));     // id 0 is live (initial dataset)
  CHECK(!index.Erase(1));         // never inserted
  CHECK(index.Insert(7, b));      // gap ids allowed
  CHECK(!index.Insert(7, b));     // now live
  CHECK(!index.Erase(3));         // the gap slots are not live
  CHECK(index.Erase(0));
  CHECK(!index.Erase(0));         // already erased
  CHECK(index.Insert(0, b));      // reinsert-after-erase
  CHECK_EQ(index.store().live_count(), 2u);

  Box3 empty;  // default box is empty (lo > hi)
  CHECK(!index.Insert(42, empty));
  CHECK(!index.store().alive(42));

  // The construction dataset is copy-on-write: mutations never touch it.
  CHECK_EQ(data.size(), 1u);
  CHECK(data[0] == b);
}

/// A box with a NaN or infinite coordinate is rejected by every roster
/// index — before and after the first query initializes lazy structures —
/// and leaves the live count and the content checksum untouched.
void TestNonFiniteInsertRejected() {
  Box3 universe;
  for (int d = 0; d < 3; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 100;
  }
  Rng rng(83);
  const Dataset3 data = RandomDataset<3>(&rng, universe, 400);
  constexpr Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
  constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
  const Box3 valid = RandomBox<3>(&rng, universe, 0.05);
  std::vector<Box3> bad;
  for (const Scalar v : {kNaN, kInf, -kInf}) {
    Box3 lo_bad = valid;
    lo_bad.lo[1] = v;
    bad.push_back(lo_bad);
    Box3 hi_bad = valid;
    hi_bad.hi[2] = v;
    bad.push_back(hi_bad);
  }
  bad.push_back(Box3::Infinite());
  auto roster = MakeRoster<3>(data, universe);
  for (auto& index : roster) {
    index->Build();
    for (int round = 0; round < 2; ++round) {
      const std::size_t live = index->store().live_count();
      const std::uint64_t sum = quasii::IndexContentChecksum(*index);
      for (const Box3& b : bad) {
        CHECK(!index->Insert(static_cast<ObjectId>(data.size()), b));
      }
      CHECK_EQ(index->store().live_count(), live);
      CHECK_EQ(quasii::IndexContentChecksum(*index), sum);
      CHECK(!index->store().alive(static_cast<ObjectId>(data.size())));
      // The first query initializes lazy structures (QUASII's crack array),
      // so the second round probes the post-initialization insert path.
      RunRange<3>(index.get(), valid, RangePredicate::kIntersects);
    }
    CHECK(index->Insert(static_cast<ObjectId>(data.size()), valid));
    CHECK(index->CheckInvariants());
  }
}

/// The cached live MBB (the kNN termination bound) under mutation: erasing
/// a boundary-touching object must shrink it to the remaining population,
/// and a subsequent insert must re-expand it — in 2D and 3D.
template <int D>
void CheckObjectStoreBoundsMaintenance() {
  // A tight cluster in [10, 20]^D plus one extremal outlier at [90, 95]^D.
  quasii::Dataset<D> data;
  Rng rng(71);
  for (int i = 0; i < 20; ++i) {
    Box<D> b;
    for (int d = 0; d < D; ++d) {
      const Scalar lo = static_cast<Scalar>(rng.Uniform(10, 19));
      b.lo[d] = lo;
      b.hi[d] = lo + 1;
    }
    data.push_back(b);
  }
  Box<D> outlier;
  for (int d = 0; d < D; ++d) {
    outlier.lo[d] = 90;
    outlier.hi[d] = 95;
  }
  data.push_back(outlier);
  const ObjectId outlier_id = static_cast<ObjectId>(data.size() - 1);

  quasii::ObjectStore<D> store(data);
  for (int d = 0; d < D; ++d) {
    CHECK_EQ(store.bounds().hi[d], outlier.hi[d]);
    CHECK_LE(store.bounds().lo[d], 19);
  }

  // Erasing the extremal object shrinks the bounds to the cluster.
  CHECK(store.Erase(outlier_id));
  Box<D> cluster = Box<D>::Empty();
  for (ObjectId id = 0; id < outlier_id; ++id) {
    cluster.ExpandToInclude(data[id]);
  }
  CHECK(store.bounds() == cluster);

  // An interior erase leaves them untouched.
  CHECK(store.Erase(0));
  Box<D> without_first = Box<D>::Empty();
  store.ForEachLive([&without_first](ObjectId, const Box<D>& b) {
    without_first.ExpandToInclude(b);
  });
  CHECK(store.bounds() == without_first);

  // A re-insert past the old boundary re-expands them on the spot.
  Box<D> far_box;
  for (int d = 0; d < D; ++d) {
    far_box.lo[d] = 97;
    far_box.hi[d] = 99;
  }
  CHECK(store.Insert(outlier_id, far_box));
  for (int d = 0; d < D; ++d) {
    CHECK_EQ(store.bounds().hi[d], far_box.hi[d]);
  }

  // Erasing down to one object pins the bounds to exactly its box; erasing
  // the last one empties them.
  for (ObjectId id = 1; id < outlier_id; ++id) CHECK(store.Erase(id));
  CHECK(store.bounds() == far_box);
  CHECK(store.Erase(outlier_id));
  CHECK_EQ(store.live_count(), 0u);
  CHECK(store.bounds().IsEmpty());
}

void TestObjectStoreBoundsMaintenance() {
  CheckObjectStoreBoundsMaintenance<2>();
  CheckObjectStoreBoundsMaintenance<3>();
}

QuasiiIndex<3>::Params SmallQuasiiParams() {
  QuasiiIndex<3>::Params p;
  p.leaf_threshold = 64;
  return p;
}

Box3 UnitCube(Scalar lo, Scalar hi) {
  Box3 b;
  for (int d = 0; d < 3; ++d) {
    b.lo[d] = lo;
    b.hi[d] = hi;
  }
  return b;
}

/// Pending tails drain to zero at the next query, and the drained objects
/// are immediately visible.
void TestQuasiiPendingDrains() {
  Box3 universe = UnitCube(0, 100);
  Rng rng(3);
  const Dataset3 data = RandomDataset<3>(&rng, universe, 800);
  QuasiiIndex<3> index(data, SmallQuasiiParams());

  std::vector<ObjectId> got;
  RangeQueryInto(index, UnitCube(10, 20), &got);
  CHECK(index.initialized());
  CHECK_EQ(index.array().pending_count(), 0u);

  for (int i = 0; i < 200; ++i) {
    CHECK(index.Insert(static_cast<ObjectId>(1000 + i),
                       RandomBox<3>(&rng, universe, 0.05)));
  }
  CHECK_EQ(index.array().pending_count(), 200u);

  got.clear();
  RangeQueryInto(index, universe, &got);
  CHECK_EQ(index.array().pending_count(), 0u);
  CHECK_EQ(got.size(), 1000u);
}

/// Tombstones never surface in results; small tombstone counts are swept
/// aside by refinement, large ones trigger a full compaction.
void TestQuasiiTombstonesAndCompaction() {
  Box3 universe = UnitCube(0, 100);
  Rng rng(4);
  const Dataset3 data = RandomDataset<3>(&rng, universe, 600);
  QuasiiIndex<3> index(data, SmallQuasiiParams());

  std::vector<ObjectId> got;
  RangeQueryInto(index, UnitCube(0, 50), &got);

  // Below the compaction floor: rows stay tombstoned but never surface.
  for (ObjectId id = 0; id < 40; ++id) CHECK(index.Erase(id));
  CHECK_EQ(index.array().tombstones(), 40u);
  got.clear();
  RangeQueryInto(index, universe, &got);
  CHECK_EQ(got.size(), 560u);
  for (const ObjectId id : got) CHECK_GE(id, 40u);
  CHECK_EQ(index.array().tombstones(), 40u);

  // Past a quarter dead, the next query rebuilds from the live set.
  for (ObjectId id = 40; id < 200; ++id) CHECK(index.Erase(id));
  got.clear();
  RangeQueryInto(index, universe, &got);
  CHECK_EQ(index.array().tombstones(), 0u);
  CHECK_EQ(index.array().size(), 400u);
  CHECK_EQ(got.size(), 400u);
}

/// Reinsert-same-id must not resurrect the stale row: the id appears
/// exactly once, at its new location.
void TestQuasiiReinsertNoDuplicates() {
  Box3 universe = UnitCube(0, 100);
  Rng rng(5);
  const Dataset3 data = RandomDataset<3>(&rng, universe, 500);
  QuasiiIndex<3> index(data, SmallQuasiiParams());

  std::vector<ObjectId> got;
  RangeQueryInto(index, universe, &got);

  const ObjectId id = 123;
  CHECK(index.Erase(id));
  CHECK(index.Insert(id, UnitCube(90, 91)));
  got.clear();
  RangeQueryInto(index, universe, &got);
  CHECK_EQ(std::count(got.begin(), got.end(), id), 1);
  got.clear();
  RangeQueryInto(index, UnitCube(89, 92), &got);
  CHECK_EQ(std::count(got.begin(), got.end(), id), 1);
}

/// The per-level thresholds of every extent class re-derive from the
/// class's live count as it grows and shrinks (each class's geometric
/// progression follows its population).
void TestQuasiiThresholdMaintenance() {
  Box3 universe = UnitCube(0, 100);
  Rng rng(6);
  const Dataset3 data = RandomDataset<3>(&rng, universe, 1000);
  QuasiiIndex<3> index(data, SmallQuasiiParams());

  std::vector<ObjectId> got;
  RangeQueryInto(index, UnitCube(10, 20), &got);
  const auto level0 = [&index] {
    std::vector<std::size_t> t;
    for (std::size_t c = 0; c < index.class_count(); ++c) {
      t.push_back(index.LeafThresholds(index.extent_class(c),
                                       Box3::Infinite())[0]);
    }
    return t;
  };
  const std::vector<std::size_t> before = level0();
  std::size_t biggest = 0;
  for (std::size_t c = 0; c < index.class_count(); ++c) {
    CHECK_EQ(index.LeafThresholds(index.extent_class(c), Box3::Infinite())[2],
             64u);
    if (index.extent_class(c).live > index.extent_class(biggest).live) {
      biggest = c;
    }
  }
  CHECK_GT(before[biggest], 64u);

  for (int i = 0; i < 7000; ++i) {
    CHECK(index.Insert(static_cast<ObjectId>(2000 + i),
                       RandomBox<3>(&rng, universe, 0.05)));
  }
  const std::vector<std::size_t> grown = level0();
  for (std::size_t c = 0; c < grown.size(); ++c) {
    CHECK_GE(grown[c], before[c]);
  }
  CHECK(grown != before);

  for (int i = 0; i < 7000; ++i) {
    CHECK(index.Erase(static_cast<ObjectId>(2000 + i)));
  }
  CHECK(level0() == before);
}

void CheckQuasiiInvariants(const QuasiiIndex<3>& index, const char* where) {
  std::string why;
  if (!index.CheckInvariants(&why)) {
    std::fprintf(stderr, "%s: CheckInvariants: %s\n", where, why.c_str());
    CHECK(false);
  }
}

/// Erases that start only after a long cracking session: the id → row map
/// is built over rows hundreds of cracks have permuted, then maintained
/// through inserts, erases and further cracks, each checked against Scan.
void TestQuasiiErasesAfterCrackingSession() {
  Box3 universe = UnitCube(0, 100);
  Rng rng(8);
  const Dataset3 data = RandomDataset<3>(&rng, universe, 6000);
  QuasiiIndex<3> index(data, SmallQuasiiParams());
  ScanIndex<3> scan(data);

  const auto check_range = [&](const Box3& q) {
    const std::vector<ObjectId> want =
        RunRange<3>(&scan, q, RangePredicate::kIntersects);
    CHECK(RunRange<3>(&index, q, RangePredicate::kIntersects) == want);
  };
  for (int i = 0; i < 300; ++i) {
    check_range(RandomBox<3>(&rng, universe, 0.2));
    CheckQuasiiInvariants(index, "cracking session");
  }
  CHECK(!index.array().has_row_map());

  std::vector<ObjectId> live(data.size());
  for (ObjectId i = 0; i < data.size(); ++i) live[i] = i;
  std::vector<ObjectId> erased;
  ObjectId next_id = static_cast<ObjectId>(data.size());
  for (int step = 0; step < 400; ++step) {
    const double u = rng.Uniform(0, 1);
    if (u < 0.3 && !live.empty()) {
      const std::size_t victim = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(live.size()) - 1));
      const ObjectId id = live[victim];
      live[victim] = live.back();
      live.pop_back();
      CHECK(scan.Erase(id));
      CHECK(index.Erase(id));
      CHECK(!index.Erase(id));
      erased.push_back(id);
    } else if (u < 0.5) {
      // Half the inserts reuse an erased id (a fresh row beside its
      // corpse), half take a new one.
      ObjectId id = next_id;
      if (step % 2 == 0 && !erased.empty()) {
        id = erased.back();
        erased.pop_back();
      } else {
        ++next_id;
      }
      const Box3 box = RandomBox<3>(&rng, universe, 0.05);
      CHECK(scan.Insert(id, box));
      CHECK(index.Insert(id, box));
      live.push_back(id);
    } else {
      check_range(RandomBox<3>(&rng, universe, 0.2));
    }
    CheckQuasiiInvariants(index, "interleaved ops");
  }
  CHECK(index.array().has_row_map());
  check_range(universe);
}

/// `column_memory` counts the id → row map only while it exists: a
/// read-only session never builds it, the first erase does.
void TestQuasiiColumnMemoryTracksRowMap() {
  Box3 universe = UnitCube(0, 100);
  Rng rng(9);
  const Dataset3 data = RandomDataset<3>(&rng, universe, 3000);
  QuasiiIndex<3> index(data, SmallQuasiiParams());
  const std::uint64_t row_bytes = 2 * 3 * sizeof(Scalar) + sizeof(ObjectId) + 1;

  std::vector<ObjectId> got;
  for (int i = 0; i < 50; ++i) {
    got.clear();
    RangeQueryInto(index, RandomBox<3>(&rng, universe, 0.2), &got);
  }
  CHECK(!index.array().has_row_map());
  CHECK_EQ(index.column_memory().resident_bytes, data.size() * row_bytes);

  CHECK(index.Erase(17));
  CHECK(index.array().has_row_map());
  CHECK_EQ(index.column_memory().resident_bytes,
           data.size() * row_bytes + data.size() * sizeof(std::size_t));
}

/// The promoted root slices of `index` (those at or past its oldest
/// promoted group start) and the rows its promoted groups hold.
struct PromotedShape {
  std::size_t slices = 0;
  std::size_t rows = 0;
};

PromotedShape Promoted(const QuasiiIndex<3>& index) {
  PromotedShape shape;
  const std::vector<std::size_t>& stack = index.fold_stack();
  if (stack.empty()) return shape;
  shape.rows = index.array().pending_begin() - stack.front();
  for (std::size_t c = 0; c < index.class_count(); ++c) {
    for (const auto& s : index.extent_class(c).root) {
      if (s.begin >= stack.front()) ++shape.slices;
    }
  }
  return shape;
}

/// Promoted insert tails fold with the logarithmic method: over thousands
/// of insert-then-read cycles on the paper's two-size data (K = 2), with
/// the inserts mixing both classes and erases tombstoning rows inside
/// promoted groups, the promoted root slices never exceed
/// K * (floor(log2 P) + 1) for P promoted rows, answers match Scan, and
/// the invariants (fold stack included) hold. A structure restore and a
/// compaction each clear the fold stack (the restore keeps the restored
/// slices), and the bound holds again for the tails promoted after them.
void TestQuasiiInsertFoldsStayLogarithmic() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = std::size_t{1} << 14;
  dp.universe_size = 2000;
  dp.seed = 21;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  QuasiiIndex<3>::Params params;
  params.leaf_threshold = 512;
  QuasiiIndex<3> index(data, params);
  ScanIndex<3> scan(data);
  Rng rng(22);
  const auto sized_box = [&rng](double side_lo, double side_hi) {
    Box3 b;
    for (int d = 0; d < 3; ++d) {
      const double side = rng.Uniform(side_lo, side_hi);
      const double centre = rng.Uniform(0, 2000);
      b.lo[d] = static_cast<Scalar>(centre - side / 2);
      b.hi[d] = static_cast<Scalar>(centre + side / 2);
    }
    return b;
  };
  std::vector<ObjectId> live(data.size());
  for (ObjectId i = 0; i < data.size(); ++i) live[i] = i;
  ObjectId next_id = static_cast<ObjectId>(data.size());
  std::size_t inserted_from = live.size();  // live[i >= this] were inserted

  const auto compare_with_scan = [&] {
    const Box3 q = sized_box(100, 400);
    CHECK(RunRange<3>(&index, q, RangePredicate::kIntersects) ==
          RunRange<3>(&scan, q, RangePredicate::kIntersects));
    CountSink got;
    CountSink want;
    index.Execute(CountQuery<3>(q), got);
    scan.Execute(CountQuery<3>(q), want);
    CHECK_EQ(got.count(), want.count());
    const Point<3> pt = q.Center();
    std::vector<ObjectId> got_ids;
    std::vector<ObjectId> want_ids;
    VectorSink got_sink(&got_ids);
    VectorSink want_sink(&want_ids);
    index.Execute(PointQuery<3>(pt), got_sink);
    scan.Execute(PointQuery<3>(pt), want_sink);
    std::sort(got_ids.begin(), got_ids.end());
    std::sort(want_ids.begin(), want_ids.end());
    CHECK(got_ids == want_ids);
    CheckQuasiiInvariants(index, "insert folds");
  };
  const auto run_cycles = [&](int cycles) {
    for (int cycle = 0; cycle < cycles; ++cycle) {
      // One large (class 1) object per seven small (class 0) ones: every
      // fold regroups interleaved classes; a group of 1024 rows or more
      // has a small piece above the leaf threshold, so refinement sweeps
      // its tombstones into parked-dead slices that a later fold drops;
      // and no group's large piece ever exceeds a level threshold, so each
      // group keeps one root slice per class.
      const Box3 box = cycle % 8 != 7 ? sized_box(1, 10) : sized_box(100, 600);
      const ObjectId id = next_id++;
      CHECK(index.Insert(id, box));
      CHECK(scan.Insert(id, box));
      live.push_back(id);
      if (cycle % 3 == 2) {
        // Mostly erase promoted rows, so folds meet tombstones (and the
        // parked-dead slices refinement sweeps them into).
        const bool promoted_victim = cycle % 4 != 0;
        const std::int64_t lo =
            promoted_victim ? static_cast<std::int64_t>(inserted_from) : 0;
        const std::size_t victim = static_cast<std::size_t>(rng.UniformInt(
            lo, static_cast<std::int64_t>(live.size()) - 1));
        CHECK(index.Erase(live[victim]));
        CHECK(scan.Erase(live[victim]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        if (victim < inserted_from) --inserted_from;
      }
      std::vector<ObjectId> got;
      RangeQueryInto(index, sized_box(50, 300), &got);
      const PromotedShape shape = Promoted(index);
      CHECK_GT(shape.rows, 0u);
      // At most floor(log2 P) + 1 groups, each one root slice per class.
      const auto groups = static_cast<std::size_t>(std::bit_width(shape.rows));
      CHECK_LE(shape.slices, index.class_count() * groups);
      if (cycle % 100 == 99) compare_with_scan();
    }
  };

  compare_with_scan();
  CHECK_EQ(index.class_count(), 2u);
  run_cycles(4000);
  CHECK_EQ(index.array().pending_begin(), index.array().size());
  CHECK_GT(index.array().tombstones(), 0u);

  std::string blob;
  quasii::ByteWriter w(&blob);
  CHECK(index.SerializeStructure(w));
  CHECK(index.DeserializeStructure(blob));
  CHECK(index.fold_stack().empty());
  CheckQuasiiInvariants(index, "restored");
  std::string again;
  quasii::ByteWriter w2(&again);
  CHECK(index.SerializeStructure(w2));
  CHECK(again == blob);
  const std::size_t restored_roots =
      index.extent_class(0).root.size() + index.extent_class(1).root.size();

  run_cycles(1000);
  compare_with_scan();
  // The restored slices are never folded: every restored root slice lies
  // before the first group promoted after the restore.
  const std::size_t first_new = index.fold_stack().front();
  std::size_t before_restore = 0;
  for (std::size_t c = 0; c < index.class_count(); ++c) {
    for (const auto& s : index.extent_class(c).root) {
      if (s.begin < first_new) ++before_restore;
    }
  }
  CHECK_GE(before_restore, restored_roots);

  // A compaction rebuilds every row as initial data: the fold stack starts
  // over, and the bound holds again for the tails promoted after it.
  while (index.array().tombstones() * 4 < index.array().size()) {
    const ObjectId victim = live.back();
    live.pop_back();
    CHECK(index.Erase(victim));
    CHECK(scan.Erase(victim));
  }
  inserted_from = std::min(inserted_from, live.size());
  compare_with_scan();
  CHECK_EQ(index.array().tombstones(), 0u);
  CHECK(index.fold_stack().empty());
  run_cycles(300);
  compare_with_scan();
}

}  // namespace

int main() {
  RUN_TEST(TestInterleavedOps3D);
  RUN_TEST(TestInterleavedOps2D);
  RUN_TEST(TestMutationContract);
  RUN_TEST(TestNonFiniteInsertRejected);
  RUN_TEST(TestObjectStoreBoundsMaintenance);
  RUN_TEST(TestQuasiiPendingDrains);
  RUN_TEST(TestQuasiiTombstonesAndCompaction);
  RUN_TEST(TestQuasiiReinsertNoDuplicates);
  RUN_TEST(TestQuasiiThresholdMaintenance);
  RUN_TEST(TestQuasiiErasesAfterCrackingSession);
  RUN_TEST(TestQuasiiColumnMemoryTracksRowMap);
  RUN_TEST(TestQuasiiInsertFoldsStayLogarithmic);
  return 0;
}
