// Extent-class routing tests for QUASII: the class derivation on the
// datasets it must split (and the ones it must not), a differential run of
// every query type, join, mutation, compaction and snapshot recovery against
// the Scan oracle with `CheckInvariants` after every operation, pinned
// counters and an id-column hash for a fixed session on a single-class
// index, the query-aware leaf size against Scan and its own convergence
// replay, and the counters of cracking queries and joins against their
// crack-free reruns (a declined shared-lock attempt must leave no counts
// behind) in QUASII, SFCracker and Mosaic, with pinned counters and an
// answer hash for a fixed mixed stream on the latter two.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "mosaic/mosaic_index.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "quasii/quasii_index.h"
#include "scan/scan_index.h"
#include "sfc/sfcracker_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box3;
using quasii::ConjunctiveQuery;
using quasii::ConjunctiveTerm;
using quasii::CountQuery;
using quasii::CountSink;
using quasii::Dataset3;
using quasii::IdPair;
using quasii::JoinQuery;
using quasii::KNearestQuery;
using quasii::MosaicIndex;
using quasii::ObjectId;
using quasii::Point;
using quasii::PointQuery;
using quasii::QuasiiIndex;
using quasii::RangePredicate;
using quasii::RangeQuery;
using quasii::Rng;
using quasii::Scalar;
using quasii::ScanIndex;
using quasii::SfcrackerIndex;
using quasii::SpatialIndex;
using quasii::VectorPairSink;
using quasii::VectorSink;

constexpr Scalar kSpan = 2000;  // positions lie in [0, kSpan)^3

QuasiiIndex<3>::Params LeafParams(std::size_t leaf_threshold) {
  QuasiiIndex<3>::Params p;
  p.leaf_threshold = leaf_threshold;
  return p;
}

QuasiiIndex<3>::Params SmallParams() { return LeafParams(64); }

/// A box centred uniformly in the position span with every side drawn from
/// `[side_lo, side_hi]`.
Box3 SizedBox(Rng* rng, double side_lo, double side_hi) {
  Box3 b;
  for (int d = 0; d < 3; ++d) {
    const double side = rng->Uniform(side_lo, side_hi);
    const double centre = rng->Uniform(0, kSpan);
    b.lo[d] = static_cast<Scalar>(centre - side / 2);
    b.hi[d] = static_cast<Scalar>(centre + side / 2);
  }
  return b;
}

/// The paper's synthetic data (1% large objects), at test size.
Dataset3 PaperData(std::size_t n) {
  quasii::datagen::UniformDatasetParams p;
  p.count = n;
  p.seed = 7;
  return quasii::datagen::MakeUniformDataset(p);
}

/// The paper's generator with no large objects: every side is 1–10.
Dataset3 HomogeneousData(std::size_t n) {
  quasii::datagen::UniformDatasetParams p;
  p.count = n;
  p.large_fraction = 0;
  p.seed = 8;
  return quasii::datagen::MakeUniformDataset(p);
}

/// Three size modes (sides 1–10, 100–200 and 2000–4000). Indexed with a
/// leaf threshold of 1 (`kThreeModeLeaf`), the leaf cells are fine enough
/// that the middle mode's extent matters next to them, so each mode gets
/// its own class.
constexpr std::size_t kThreeModeLeaf = 1;

Dataset3 ThreeModeData() {
  Rng rng(9);
  Dataset3 data;
  for (int i = 0; i < 3000; ++i) data.push_back(SizedBox(&rng, 1, 10));
  for (int i = 0; i < 3000; ++i) data.push_back(SizedBox(&rng, 100, 200));
  for (int i = 0; i < 20; ++i) data.push_back(SizedBox(&rng, 2000, 4000));
  return data;
}

/// Zero-extent points only.
Dataset3 PointData(std::size_t n) {
  Rng rng(10);
  Dataset3 data;
  for (std::size_t i = 0; i < n; ++i) data.push_back(SizedBox(&rng, 0, 0));
  return data;
}

Box3 DataBounds(const Dataset3& data) {
  Box3 u = Box3::Empty();
  for (const Box3& b : data) u.ExpandToInclude(b);
  return u;
}

/// A query box centred inside `u` with sides up to `frac` of its extent.
Box3 QueryBox(Rng* rng, const Box3& u, double frac) {
  Box3 q;
  for (int d = 0; d < 3; ++d) {
    const double span = static_cast<double>(u.hi[d]) - u.lo[d];
    const double centre = rng->Uniform(u.lo[d], u.hi[d]);
    const double half = span * rng->Uniform(0, frac) / 2;
    q.lo[d] = static_cast<Scalar>(centre - half);
    q.hi[d] = static_cast<Scalar>(centre + half);
  }
  return q;
}

void CheckInvariantsOrDie(const SpatialIndex<3>& index) {
  std::string why;
  if (!index.CheckInvariants(&why)) {
    std::fprintf(stderr, "CheckInvariants: %s\n", why.c_str());
    CHECK(false);
  }
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename QueryT>
std::vector<ObjectId> Ids(SpatialIndex<3>& index, const QueryT& query) {
  std::vector<ObjectId> out;
  VectorSink sink(&out);
  index.Execute(query, sink);
  return out;
}

std::vector<IdPair> Pairs(SpatialIndex<3>& left, SpatialIndex<3>& right) {
  std::vector<IdPair> out;
  VectorPairSink sink(&out);
  left.Execute(JoinQuery<3>(right), sink);
  return out;
}

std::string ArtifactPath(const std::string& name) {
  static const std::string dir = [] {
    char tmpl[] = "/tmp/quasii_extent_classes_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    CHECK(made != nullptr);
    return std::string(made);
  }();
  return dir + "/" + name;
}

/// One QUASII under test and its Scan oracle, mutated in lockstep.
struct Subject {
  std::unique_ptr<QuasiiIndex<3>> quasii;
  ScanIndex<3> scan;
  QuasiiIndex<3>::Params params;

  Subject(const Dataset3& d, const QuasiiIndex<3>::Params& params)
      : quasii(std::make_unique<QuasiiIndex<3>>(d, params)),
        scan(d),
        params(params) {}

  void Insert(ObjectId id, const Box3& b) {
    CHECK(quasii->Insert(id, b));
    CHECK(scan.Insert(id, b));
    CheckInvariantsOrDie(*quasii);
  }
  void Erase(ObjectId id) {
    CHECK(quasii->Erase(id));
    CHECK(scan.Erase(id));
    CheckInvariantsOrDie(*quasii);
  }
};

/// Every id-producing query type on one box, checked against the oracle.
void CheckQueries(Subject* p, Rng* rng, const Box3& u) {
  QuasiiIndex<3>& q = *p->quasii;
  const Box3 box = QueryBox(rng, u, 0.3);
  for (const RangePredicate pred :
       {RangePredicate::kIntersects, RangePredicate::kContains,
        RangePredicate::kContainedBy}) {
    CHECK(Sorted(Ids(q, RangeQuery<3>(box, pred))) ==
          Sorted(Ids(p->scan, RangeQuery<3>(box, pred))));
    CheckInvariantsOrDie(q);
    CountSink got;
    CountSink want;
    q.Execute(CountQuery<3>(box, pred), got);
    p->scan.Execute(CountQuery<3>(box, pred), want);
    CHECK_EQ(got.count(), want.count());
    CheckInvariantsOrDie(q);
  }
  const Point<3> pt = box.Center();
  CHECK(Sorted(Ids(q, PointQuery<3>(pt))) ==
        Sorted(Ids(p->scan, PointQuery<3>(pt))));
  CheckInvariantsOrDie(q);
  CHECK(Ids(q, KNearestQuery<3>(pt, 12)) ==
        Ids(p->scan, KNearestQuery<3>(pt, 12)));
  CheckInvariantsOrDie(q);
  const std::vector<ConjunctiveTerm<3>> terms = {
      {box, RangePredicate::kIntersects},
      {QueryBox(rng, u, 0.5), RangePredicate::kContainedBy}};
  CHECK(Sorted(Ids(q, ConjunctiveQuery<3>(terms))) ==
        Sorted(Ids(p->scan, ConjunctiveQuery<3>(terms))));
  CheckInvariantsOrDie(q);
}

/// Self-join, a join against a one-class QUASII, and a join against Scan —
/// each against the matching Scan join.
void CheckJoins(Subject* p) {
  QuasiiIndex<3>& q = *p->quasii;
  CHECK(Pairs(q, q) == Pairs(p->scan, p->scan));
  CheckInvariantsOrDie(q);

  const Dataset3 other_data = HomogeneousData(3000);
  QuasiiIndex<3> one_class(other_data, SmallParams());
  ScanIndex<3> other_scan(other_data);
  CHECK(Pairs(q, one_class) == Pairs(p->scan, other_scan));
  CHECK_EQ(one_class.class_count(), 1u);
  CheckInvariantsOrDie(q);
  CheckInvariantsOrDie(one_class);

  CHECK(Pairs(q, other_scan) == Pairs(p->scan, other_scan));
  CheckInvariantsOrDie(q);
}

/// The differential sequence: queries and joins, inserts that fit the
/// smallest class and inserts larger than every class, a snapshot and
/// recovery in the middle, then erases past the compaction point (which
/// derives the classes afresh) — every step checked against Scan.
void RunDifferential(const Dataset3& data, std::size_t want_classes,
                     std::uint64_t seed,
                     const QuasiiIndex<3>::Params& params = SmallParams()) {
  Subject p(data, params);
  const Box3 u = DataBounds(data);
  Rng rng(seed);
  CheckQueries(&p, &rng, u);
  CHECK_EQ(p.quasii->class_count(), want_classes);
  for (int i = 0; i < 5; ++i) CheckQueries(&p, &rng, u);
  CheckJoins(&p);

  // Inserts into the smallest class, then inserts larger than any class
  // admits (they widen the last class).
  ObjectId next = static_cast<ObjectId>(data.size());
  const std::size_t last = want_classes - 1;
  const std::size_t small_before = p.quasii->extent_class(0).live;
  const std::size_t last_before = p.quasii->extent_class(last).live;
  const double small_side =
      std::min<double>(p.quasii->extent_class(0).bound, 8);
  const double huge = 2.0 * (u.hi[0] - u.lo[0]) + 16;
  for (int i = 0; i < 60; ++i) {
    Box3 b = SizedBox(&rng, small_side / 2, small_side);
    if (i % 3 == 0) b = SizedBox(&rng, huge, huge * 1.5);
    p.Insert(next++, b);
    if (i % 10 == 9) CheckQueries(&p, &rng, u);
  }
  if (last > 0) {
    CHECK_EQ(p.quasii->extent_class(0).live, small_before + 40);
    CHECK_EQ(p.quasii->extent_class(last).live, last_before + 20);
  }
  // The huge inserts widened the last class past any half extent the
  // original data (inside `u`) can have.
  CHECK_GT(p.quasii->extent_class(last).half_extent[0], huge / 4);

  // Snapshot and recover mid-sequence; the recovered index carries on.
  const std::string snap = ArtifactPath("differential.snapshot");
  CHECK_EQ(quasii::persist::WriteSnapshot<3>(*p.quasii, snap),
           quasii::persist::PersistError::kNone);
  const std::size_t classes_before = p.quasii->class_count();
  auto recovered = std::make_unique<QuasiiIndex<3>>(data, params);
  const auto rec = quasii::persist::RecoverIndex<3>(recovered.get(), snap, "");
  CHECK(rec.ok());
  CHECK(rec.structure_restored);
  CHECK_EQ(recovered->class_count(), classes_before);
  p.quasii = std::move(recovered);
  std::remove(snap.c_str());
  CheckInvariantsOrDie(*p.quasii);
  for (int i = 0; i < 3; ++i) CheckQueries(&p, &rng, u);

  // Erase a third of the live set: the next query compacts, which derives
  // the classes again from the survivors.
  std::vector<ObjectId> live;
  for (ObjectId id = 0; id < next; ++id) {
    if (p.scan.store().alive(id)) live.push_back(id);
  }
  for (std::size_t i = 0; i < live.size(); i += 3) p.Erase(live[i]);
  CheckQueries(&p, &rng, u);
  CHECK_EQ(p.quasii->array().tombstones(), 0u);
  for (int i = 0; i < 3; ++i) CheckQueries(&p, &rng, u);
  CheckJoins(&p);
}

void TestPaperDataTwoClasses() { RunDifferential(PaperData(3000), 2, 11); }

void TestHomogeneousDataOneClass() {
  RunDifferential(HomogeneousData(3000), 1, 12);
}

void TestThreeModeDataThreeClasses() {
  RunDifferential(ThreeModeData(), 3, 13, LeafParams(kThreeModeLeaf));
}

void TestPointDataOneClass() { RunDifferential(PointData(3000), 1, 14); }

/// Tasks the intra-query scheduler has run so far, on workers, by helping
/// waiters or inline.
std::uint64_t TasksRun() {
  const quasii::TaskScheduler::Stats st = quasii::IntraQueryScheduler().stats();
  return st.executed + st.helped + st.inlined;
}

/// The class routing with 4 intra-query threads: the differential run,
/// whose 3000 rows reach no fork cutoff, then one cold query on 2^17 rows
/// of the paper's data, whose crack partitions and median splits are large
/// enough to fork. Every answer and join must match Scan, and the cold
/// query must run scheduler tasks when the scheduler has workers (the
/// force-serial leg caps the thread count at 1).
void TestPaperDataTwoClassesParallel() {
  quasii::SetIntraQueryThreads(4);
  RunDifferential(PaperData(3000), 2, 15);

  const Dataset3 data = PaperData(1 << 17);
  QuasiiIndex<3> index(data);
  ScanIndex<3> scan(data);
  Rng rng(16);
  const Box3 box = QueryBox(&rng, DataBounds(data), 0.1);
  const std::uint64_t tasks_before = TasksRun();
  CHECK(Sorted(Ids(index, RangeQuery<3>(box))) ==
        Sorted(Ids(scan, RangeQuery<3>(box))));
  if (quasii::IntraQueryScheduler().parallel()) {
    CHECK_GT(TasksRun(), tasks_before);
  }
  CHECK_GT(index.stats().cracks, 0u);
  CHECK_EQ(index.class_count(), 2u);
  CheckInvariantsOrDie(index);
  quasii::SetIntraQueryThreads(1);
}

/// The class derivation: the paper's data splits once, at a largest side
/// of 2^4 (the 99% of objects with sides 1–10 against the 1% with sides up
/// to 1000), and each class's half extents are its own members' maxima.
void TestPaperClassesSplitAtSixteen() {
  const Dataset3 data = PaperData(1 << 16);
  QuasiiIndex<3> index(data);
  std::vector<ObjectId> got;
  RangeQueryInto(index, DataBounds(data), &got);
  CHECK_EQ(got.size(), data.size());
  CHECK_EQ(index.class_count(), 2u);
  CHECK_EQ(index.extent_class(0).bound, Scalar{16});
  CHECK_EQ(index.extent_class(1).bound,
           std::numeric_limits<Scalar>::infinity());
  Point<3> half[2] = {};
  std::size_t count[2] = {0, 0};
  for (const Box3& b : data) {
    Scalar side = 0;
    for (int d = 0; d < 3; ++d) side = std::max(side, b.Extent(d));
    const int c = side <= 16 ? 0 : 1;
    ++count[c];
    for (int d = 0; d < 3; ++d) {
      half[c][d] = std::max(half[c][d], b.Extent(d) / 2);
    }
  }
  for (int c = 0; c < 2; ++c) {
    const auto& cls = index.extent_class(static_cast<std::size_t>(c));
    CHECK_EQ(cls.live, count[c]);
    for (int d = 0; d < 3; ++d) CHECK_EQ(cls.half_extent[d], half[c][d]);
  }
  CHECK_LE(index.extent_class(0).half_extent[0], Scalar{5});
}

/// FNV-1a over the id column: a fingerprint of the physical row order.
std::uint64_t IdColumnHash(const QuasiiIndex<3>& index) {
  std::uint64_t h = 1469598103934665603ull;
  for (const ObjectId id : index.array().ids()) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (id >> (8 * byte)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// A trajectory pin for one class: on data of one size (the paper's
/// generator without large objects) K = 1, and a fixed 1000-query session
/// cracks, moves and tests exactly the pinned amounts and leaves the rows
/// in the pinned order. Each 1e-3 query reaches about 66 of the 2^16 rows,
/// so `LeafThresholds` refines the slices it touches to 256-row leaves.
/// The pins were recorded under that rule; they catch any change to the
/// single-class trajectory, and say nothing about indexes from before it.
void TestOneClassTrajectoryPin() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 1 << 16;
  dp.large_fraction = 0;
  dp.seed = 3;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 1000;
  qp.selectivity = 1e-3;
  qp.seed = 5;
  const auto queries = quasii::datagen::MakeUniformQueries(
      quasii::datagen::UniformUniverse(dp), qp);
  QuasiiIndex<3> index(data);
  std::vector<ObjectId> got;
  for (const Box3& q : queries) {
    got.clear();
    RangeQueryInto(index, q, &got);
  }
  CHECK_EQ(index.class_count(), 1u);
  const auto stats = index.stats();
  CHECK_EQ(stats.cracks, 639u);
  CHECK_EQ(stats.objects_moved, 916766u);
  CHECK_EQ(stats.objects_tested, 808400u);
  CHECK_EQ(IdColumnHash(index), 14099128955389591331ull);
}

/// Walks the slices of one class that a descent with extended box `ext`
/// touches, as `Visit` routes it, and checks that each touched leaf holds
/// at most `leaf_limit` rows or is frozen, and that every touched slice
/// above the leaf level has children.
void CheckTouchedLeaves(const std::vector<QuasiiIndex<3>::Slice>& slices,
                        const Box3& ext, std::size_t leaf_limit) {
  for (const auto& s : slices) {
    const int d = s.level;
    if (s.size() == 0 || s.lo >= ext.hi[d] || s.hi <= ext.lo[d]) continue;
    if (d == 2) {
      CHECK(s.frozen || s.size() <= leaf_limit);
    } else {
      CHECK(!s.children.empty());
      CheckTouchedLeaves(s.children, ext, leaf_limit);
    }
  }
}

/// Sorted ids, or for a count query its count alone.
std::vector<ObjectId> Answer(SpatialIndex<3>& index, const quasii::Query3& q) {
  if (q.type() == quasii::QueryType::kCount) {
    CountSink sink;
    index.Execute(q, sink);
    return {static_cast<ObjectId>(sink.count())};
  }
  std::vector<ObjectId> ids = Ids(index, q);
  if (q.type() != quasii::QueryType::kKNearest) ids = Sorted(std::move(ids));
  return ids;
}

/// The query-aware leaf size (`LeafThresholds`) on the paper's data at 2^16
/// rows (K = 2): a session of points, counts, conjunctions, ranges and a
/// few kNN queries, with selectivities from 1e-6 to 1e-2 around four hot
/// spots so queries of different sizes land on each other's slices. Every
/// answer matches Scan; a query `ConvergedFor` approves cracks nothing;
/// after each non-kNN query the query is converged, a rerun cracks nothing,
/// and every leaf it touches holds at most the leaf limit sized to it (or
/// is frozen). Replaying the session cracks nothing — a finer query
/// refines below the slices a coarser one descended, never discarding
/// them — and neither does a replay after a structure round trip.
void TestLeafSizeFollowsQuery() {
  const Dataset3 data = PaperData(1 << 16);
  QuasiiIndex<3> index(data);
  ScanIndex<3> scan(data);
  const Box3 u = DataBounds(data);
  Rng rng(23);
  std::vector<Point<3>> hot(4);
  for (Point<3>& h : hot) {
    for (int d = 0; d < 3; ++d) {
      h[d] = static_cast<Scalar>(rng.Uniform(u.lo[d], u.hi[d]));
    }
  }
  const auto box_near = [&](double selectivity) {
    const Point<3>& h = hot[static_cast<std::size_t>(rng.UniformInt(0, 3))];
    Box3 b;
    for (int d = 0; d < 3; ++d) {
      const double span = static_cast<double>(u.hi[d]) - u.lo[d];
      const double centre = rng.Gaussian(h[d], 0.02 * span);
      const double half = span * std::cbrt(selectivity) / 2;
      b.lo[d] = static_cast<Scalar>(centre - half);
      b.hi[d] = static_cast<Scalar>(centre + half);
    }
    return b;
  };
  std::vector<quasii::Query3> session;
  for (int i = 0; i < 400; ++i) {
    const Box3 box = box_near(std::pow(10.0, rng.Uniform(-6, -2)));
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
        session.push_back(PointQuery<3>(box.Center()));
        break;
      case 2:
      case 3:
        session.push_back(CountQuery<3>(box));
        break;
      case 4:
      case 5: {
        const std::vector<ConjunctiveTerm<3>> terms = {
            {box, RangePredicate::kIntersects},
            {box_near(1e-2), RangePredicate::kContainedBy}};
        session.push_back(ConjunctiveQuery<3>(terms));
        break;
      }
      case 6:
        session.push_back(KNearestQuery<3>(box.Center(), 8));
        break;
      default:
        session.push_back(RangeQuery<3>(box));
        break;
    }
  }

  const std::size_t tau = QuasiiIndex<3>::Params{}.leaf_threshold;
  bool finest = false;
  bool coarsest = false;
  for (const quasii::Query3& q : session) {
    const bool approved = index.ConvergedFor(q);
    const auto before = index.stats();
    CHECK(Answer(index, q) == Answer(scan, q));
    if (approved) {
      CHECK_EQ(index.stats().cracks, before.cracks);
      CHECK_EQ(index.stats().objects_moved, before.objects_moved);
    }
    if (q.type() == quasii::QueryType::kKNearest) continue;
    CHECK(index.ConvergedFor(q));
    const auto after = index.stats();
    CHECK(Answer(index, q) == Answer(scan, q));
    CHECK_EQ(index.stats().cracks, after.cracks);
    CHECK_EQ(index.stats().objects_moved, after.objects_moved);
    const Box3 box = quasii::DescentBox(q);
    for (std::size_t c = 0; c < index.class_count(); ++c) {
      const auto& cls = index.extent_class(c);
      const auto t = index.LeafThresholds(cls, box);
      finest = finest || t[2] == QuasiiIndex<3>::kMinLeafRows;
      coarsest = coarsest || t[2] == tau;
      Box3 ext;
      for (int d = 0; d < 3; ++d) {
        ext.lo[d] = box.lo[d] - cls.half_extent[d];
        ext.hi[d] = std::nextafter(box.hi[d] + cls.half_extent[d],
                                   std::numeric_limits<Scalar>::infinity());
      }
      CheckTouchedLeaves(cls.root, ext, t[2]);
    }
  }
  CHECK_EQ(index.class_count(), 2u);
  CHECK(finest && coarsest);
  CheckInvariantsOrDie(index);
  const auto converged = index.stats();
  for (const quasii::Query3& q : session) {
    CHECK(Answer(index, q) == Answer(scan, q));
  }
  CHECK_EQ(index.stats().cracks, converged.cracks);
  CHECK_EQ(index.stats().objects_moved, converged.objects_moved);

  std::string blob;
  quasii::ByteWriter w(&blob);
  CHECK(index.SerializeStructure(w));
  QuasiiIndex<3> restored(data);
  CHECK(restored.DeserializeStructure(blob));
  CheckInvariantsOrDie(restored);
  for (const quasii::Query3& q : session) {
    CHECK(Answer(restored, q) == Answer(scan, q));
  }
  CHECK_EQ(restored.stats().cracks, 0u);
  CHECK_EQ(restored.stats().objects_moved, 0u);
}

/// The counters a declined shared-lock attempt could leak: a cracking run
/// and its crack-free rerun must report the same.
void CheckSameReadCounters(const quasii::QueryStats& first,
                           const quasii::QueryStats& rerun) {
  CHECK_EQ(rerun.cracks, 0u);
  CHECK_EQ(first.partitions_visited, rerun.partitions_visited);
  CHECK_EQ(first.objects_tested, rerun.objects_tested);
  CHECK_EQ(first.bytes_scanned, rerun.bytes_scanned);
  CHECK_EQ(first.intervals, rerun.intervals);
}

/// Runs the clustered range, count and point queries `boxes` on `index`
/// and returns how many cracked. Every query that cracks ran under the
/// exclusive lock once its shared attempt had declined; its rerun right
/// after cracks nothing and runs shared. Both must report the same
/// `partitions_visited`, `objects_tested`, `bytes_scanned` and `intervals`,
/// so counts the declined attempt leaked would show up as a surplus on the
/// cracking run.
std::size_t CheckCrackingRunsMatchReruns(SpatialIndex<3>& index,
                                         const std::vector<Box3>& boxes) {
  const auto run = [&index](const quasii::Query3& q) {
    const quasii::QueryStats before = index.stats();
    Answer(index, q);
    return index.stats() - before;
  };
  std::size_t cracking = 0;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const quasii::Query3 q = i % 3 == 0   ? RangeQuery<3>(boxes[i])
                             : i % 3 == 1 ? CountQuery<3>(boxes[i])
                                          : PointQuery<3>(boxes[i].Center());
    const quasii::QueryStats first = run(q);
    if (first.cracks == 0) continue;
    ++cracking;
    CheckSameReadCounters(first, run(q));
  }
  return cracking;
}

/// Runs `join` on `index` twice: the first run must crack (its shared
/// attempt declined and it ran exclusive), and both must emit `want` and
/// report the same read counters (`CheckSameReadCounters`).
void CheckJoinRunMatchesRerun(SpatialIndex<3>& index,
                              const quasii::Query3& join,
                              const std::vector<IdPair>& want) {
  quasii::QueryStats delta[2];
  for (quasii::QueryStats& d : delta) {
    const quasii::QueryStats before = index.stats();
    std::vector<IdPair> pairs;
    VectorPairSink sink(&pairs);
    index.Execute(join, sink);
    CHECK(pairs == want);
    d = index.stats() - before;
  }
  CHECK_GT(delta[0].cracks, 0u);
  CheckSameReadCounters(delta[0], delta[1]);
}

/// Declined joins leave no counts behind either. Box queries warm part of
/// each adaptive index; then a stream join whose early probes are those
/// warmed boxes and whose last probe is cold runs on QUASII, SFCracker and
/// Mosaic, and a QUASII⋈QUASII join runs on the warmed QUASII. Each shared
/// attempt declines (the stream join after its warm probes have counted
/// and emitted), so each first run goes exclusive and cracks; its read
/// counters must equal those of its crack-free rerun, and its pairs
/// Scan's.
void TestDeclinedJoinsLeakNoCounts() {
  const Dataset3 data = PaperData(1 << 14);
  const Box3 u = DataBounds(data);
  quasii::datagen::ClusteredQueryParams cp;
  cp.queries_per_cluster = 8;
  cp.seed = 37;
  std::vector<Box3> stream =
      quasii::datagen::MakeClusteredQueries(u, data, cp);
  const std::size_t warm = stream.size();
  Box3 cold;  // a 1e-2-volume box at the far corner of the data
  for (int d = 0; d < 3; ++d) {
    cold.lo[d] = u.hi[d] - 0.22f * (u.hi[d] - u.lo[d]);
    cold.hi[d] = u.hi[d];
  }
  stream.push_back(cold);
  const quasii::Query3 stream_join = JoinQuery<3>(stream);
  ScanIndex<3> scan(data);
  std::vector<IdPair> want;
  VectorPairSink want_sink(&want);
  scan.Execute(stream_join, want_sink);

  QuasiiIndex<3> index(data);
  SfcrackerIndex<3> cracker(data, u);
  MosaicIndex<3>::Params mp;
  mp.leaf_capacity = 64;
  MosaicIndex<3> mosaic(data, u, mp);
  const std::vector<SpatialIndex<3>*> adaptive = {&index, &cracker, &mosaic};
  for (SpatialIndex<3>* a : adaptive) {
    for (std::size_t i = 0; i < warm; ++i) Answer(*a, RangeQuery<3>(stream[i]));
  }
  for (std::size_t i = 0; i < warm; ++i) {
    CHECK(index.ConvergedFor(RangeQuery<3>(stream[i])));
  }
  CHECK(!index.ConvergedFor(RangeQuery<3>(cold)));
  for (SpatialIndex<3>* a : adaptive) {
    CheckJoinRunMatchesRerun(*a, stream_join, want);
  }

  const Dataset3 other_data = HomogeneousData(1 << 12);
  QuasiiIndex<3> other(other_data);
  ScanIndex<3> other_scan(other_data);
  std::vector<IdPair> join_want;
  VectorPairSink join_sink(&join_want);
  scan.Execute(JoinQuery<3>(other_scan), join_sink);
  CHECK_GT(join_want.size(), 0u);
  CheckJoinRunMatchesRerun(index, JoinQuery<3>(other), join_want);
}

/// A declined shared-lock attempt leaves no counts behind, in each adaptive
/// index: a cold session of clustered queries on the paper's data, where
/// QUASII has two extent classes, SFCracker cracks its code array and
/// Mosaic splits its leaves (`CheckCrackingRunsMatchReruns`).
void TestDeclinedReadsLeakNoCounts() {
  const Dataset3 data = PaperData(1 << 16);
  quasii::datagen::ClusteredQueryParams cp;
  cp.queries_per_cluster = 80;
  cp.seed = 29;
  const std::vector<Box3> boxes =
      quasii::datagen::MakeClusteredQueries(DataBounds(data), data, cp);
  QuasiiIndex<3> index(data);
  CHECK_GT(CheckCrackingRunsMatchReruns(index, boxes), 40u);
  CHECK_EQ(index.class_count(), 2u);
  SfcrackerIndex<3> cracker(data, DataBounds(data));
  CHECK_GT(CheckCrackingRunsMatchReruns(cracker, boxes), 40u);
  MosaicIndex<3>::Params mp;
  mp.leaf_capacity = 64;
  MosaicIndex<3> mosaic(data, DataBounds(data), mp);
  CHECK_GT(CheckCrackingRunsMatchReruns(mosaic, boxes), 10u);
}

void Fnv1a(std::uint64_t* h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    *h ^= (v >> (8 * byte)) & 0xFFu;
    *h *= 1099511628211ull;
  }
}

/// Runs a fixed 540-op stream on `index` over the paper's data `data`:
/// ranges with each of the three predicates, points, counts, conjunctions,
/// kNN, inserts and erases (of random ids, so some are refused). Returns an
/// FNV-1a hash of every answer in emission order: the ids of each id query,
/// each count, and each mutation's acceptance.
std::uint64_t RunTrajectory(SpatialIndex<3>& index, const Dataset3& data) {
  const Box3 u = DataBounds(data);
  Rng rng(31);
  std::uint64_t h = 1469598103934665603ull;
  ObjectId next = static_cast<ObjectId>(data.size());
  constexpr RangePredicate kPredicates[] = {RangePredicate::kIntersects,
                                            RangePredicate::kContains,
                                            RangePredicate::kContainedBy};
  for (int i = 0; i < 540; ++i) {
    const Box3 box = QueryBox(&rng, u, 0.1);
    std::vector<ObjectId> ids;
    switch (i % 9) {
      case 0:
      case 1:
      case 2:
        ids = Ids(index, RangeQuery<3>(box, kPredicates[i % 9]));
        break;
      case 3:
        ids = Ids(index, PointQuery<3>(box.Center()));
        break;
      case 4: {
        CountSink count;
        index.Execute(CountQuery<3>(box), count);
        Fnv1a(&h, count.count());
        break;
      }
      case 5: {
        const std::vector<ConjunctiveTerm<3>> terms = {
            {box, RangePredicate::kIntersects},
            {QueryBox(&rng, u, 0.3), RangePredicate::kContainedBy}};
        ids = Ids(index, ConjunctiveQuery<3>(terms));
        break;
      }
      case 6:
        ids = Ids(index, KNearestQuery<3>(box.Center(), 8));
        break;
      case 7:
        Fnv1a(&h, index.Insert(next++, SizedBox(&rng, 1, 10)));
        break;
      case 8:
        Fnv1a(&h, index.Erase(static_cast<ObjectId>(
                      rng.UniformInt(0, static_cast<std::int64_t>(next) - 1))));
        break;
    }
    for (const ObjectId id : ids) Fnv1a(&h, id);
  }
  return h;
}

/// Trajectory pins for SFCracker and Mosaic, like QUASII's
/// (`TestOneClassTrajectoryPin`): the fixed stream of `RunTrajectory` on
/// 2^14 rows of the paper's data yields exactly the pinned counters and
/// answer hash. They catch any change to either index's cracking or
/// splitting order, its counting, or its emission order.
void TestAdaptiveTrajectoryPins() {
  const Dataset3 data = PaperData(1 << 14);
  SfcrackerIndex<3> cracker(data, DataBounds(data));
  CHECK_EQ(RunTrajectory(cracker, data), 14714452171163908266ull);
  const quasii::QueryStats sc = cracker.stats();
  CHECK_EQ(sc.objects_tested, 697224u);
  CHECK_EQ(sc.partitions_visited, 124119u);
  CHECK_EQ(sc.cracks, 245281u);
  CHECK_EQ(sc.objects_moved, 25191128u);
  CHECK_EQ(sc.duplicates_removed, 0u);
  CHECK_EQ(sc.intervals, 123653u);
  CHECK_EQ(sc.bytes_scanned, 0u);

  MosaicIndex<3>::Params mp;
  mp.leaf_capacity = 64;
  MosaicIndex<3> mosaic(data, DataBounds(data), mp);
  CHECK_EQ(RunTrajectory(mosaic, data), 11448704551430587374ull);
  const quasii::QueryStats ms = mosaic.stats();
  CHECK_EQ(ms.objects_tested, 150363u);
  CHECK_EQ(ms.partitions_visited, 7268u);
  CHECK_EQ(ms.cracks, 73u);
  CHECK_EQ(ms.objects_moved, 49155u);
  CHECK_EQ(ms.duplicates_removed, 0u);
  CHECK_EQ(ms.intervals, 0u);
  CHECK_EQ(ms.bytes_scanned, 0u);
}

}  // namespace

int main() {
  RUN_TEST(TestOneClassTrajectoryPin);
  RUN_TEST(TestAdaptiveTrajectoryPins);
  RUN_TEST(TestPaperClassesSplitAtSixteen);
  RUN_TEST(TestPaperDataTwoClasses);
  RUN_TEST(TestHomogeneousDataOneClass);
  RUN_TEST(TestThreeModeDataThreeClasses);
  RUN_TEST(TestPointDataOneClass);
  RUN_TEST(TestPaperDataTwoClassesParallel);
  RUN_TEST(TestLeafSizeFollowsQuery);
  RUN_TEST(TestDeclinedReadsLeakNoCounts);
  RUN_TEST(TestDeclinedJoinsLeakNoCounts);
  return 0;
}
