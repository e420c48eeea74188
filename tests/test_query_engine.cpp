// Query-engine suite: every roster index must execute the single-index
// query types (range with three predicates, point, count, kNN) through
// `Execute(Query, Sink)` and agree with a brute-force oracle computed
// directly from the dataset; sinks must respect the engine's contracts
// (count queries never see ids, stats stay monotone and bound the emitted
// results, the TopK heap breaks ties by id); malformed descriptions must
// fail at the query factories. (Joins and conjunctive plans have their own
// suite: test_join.cpp.)

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench.h"
#include "bench/workload.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/spatial_index.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "quasii/quasii_index.h"
#include "scan/scan_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box3;
using quasii::ConjunctiveQuery;
using quasii::ConjunctiveTerm;
using quasii::CountQuery;
using quasii::CountSink;
using quasii::Dataset3;
using quasii::KNearestQuery;
using quasii::MatchesPredicate;
using quasii::Neighbor;
using quasii::ObjectId;
using quasii::Point3;
using quasii::PointQuery;
using quasii::QuasiiIndex;
using quasii::Query3;
using quasii::QueryStats;
using quasii::QueryType;
using quasii::RangePredicate;
using quasii::RangeQuery;
using quasii::Rng;
using quasii::Sink;
using quasii::SpatialIndex;
using quasii::TopKSink;
using quasii::VectorSink;
using quasii::bench::MakeIndexRoster;

// ---------------------------------------------------------------------------
// Brute-force oracles, computed directly from the dataset (independent of
// every index, including Scan).

std::vector<ObjectId> BruteRange(const Dataset3& data, const Box3& q,
                                 RangePredicate pred) {
  std::vector<ObjectId> ids;
  if (q.IsEmpty()) return ids;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (MatchesPredicate(data[i], q, pred)) ids.push_back(i);
  }
  return ids;
}

std::vector<ObjectId> BrutePoint(const Dataset3& data, const Point3& pt) {
  std::vector<ObjectId> ids;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (data[i].Contains(pt)) ids.push_back(i);
  }
  return ids;
}

/// k nearest by squared MBB distance, ties broken by smaller id — exactly
/// the engine's (distance, id) order, so the comparison below is an exact
/// sequence match even with ties.
std::vector<ObjectId> BruteKnn(const Dataset3& data, const Point3& pt,
                               std::size_t k) {
  std::vector<Neighbor> all;
  all.reserve(data.size());
  for (ObjectId i = 0; i < data.size(); ++i) {
    all.push_back(Neighbor{i, data[i].MinDistSquaredTo(pt)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance_sq != b.distance_sq) return a.distance_sq < b.distance_sq;
    return a.id < b.id;
  });
  if (all.size() > k) all.resize(k);
  std::vector<ObjectId> ids;
  for (const Neighbor& nb : all) ids.push_back(nb.id);
  return ids;
}

// ---------------------------------------------------------------------------
// Execution helpers.

std::vector<ObjectId> Collect(SpatialIndex<3>* index, const Query3& q) {
  std::vector<ObjectId> ids;
  VectorSink sink(&ids);
  index->Execute(q, sink);
  return ids;
}

std::uint64_t Count(SpatialIndex<3>* index, const Query3& q) {
  CountSink sink;
  index->Execute(q, sink);
  return sink.count();
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// A sink that must never receive an id: fails the test on `Emit`/`EmitRun`.
/// Feeding count queries through it proves the count-only execution path
/// performs zero id emissions on every index.
class NoIdSink final : public Sink {
 public:
  void Emit(ObjectId) override {
    CHECK(false && "count-only query emitted an id");
  }
  void EmitRun(const ObjectId*, std::size_t) override {
    CHECK(false && "count-only query emitted an id run");
  }
  void AddMatches(std::uint64_t n) override { count_ += n; }
  std::uint64_t count() const { return count_; }
  void Reset() { count_ = 0; }

 private:
  std::uint64_t count_ = 0;
};

Dataset3 UniformData(std::size_t n, std::uint64_t seed) {
  quasii::datagen::UniformDatasetParams p;
  p.count = n;
  p.seed = seed;
  return quasii::datagen::MakeUniformDataset(p);
}

std::vector<Box3> FootprintBoxes(const Box3& universe, int count,
                                 double selectivity, std::uint64_t seed) {
  quasii::datagen::UniformQueryParams qp;
  qp.count = count;
  qp.selectivity = selectivity;
  qp.seed = seed;
  return quasii::datagen::MakeUniformQueries(universe, qp);
}

// ---------------------------------------------------------------------------

/// All five query types (with all three range predicates) on every roster
/// index, interleaved per footprint box so incremental indexes crack while
/// switching types, validated against the brute-force oracles.
void TestAllTypesMatchBruteForceAcrossRoster() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 15000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  const auto boxes = FootprintBoxes(universe, 30, 1e-3, 101);

  auto roster = MakeIndexRoster(data, universe);
  for (auto& index : roster) index->Build();

  for (const Box3& b : boxes) {
    const Point3 centre = b.Center();
    const Box3 point_box(centre, centre);
    // Expected results, one brute-force pass each.
    const auto want_intersects =
        BruteRange(data, b, RangePredicate::kIntersects);
    const auto want_contains = BruteRange(data, b, RangePredicate::kContains);
    // A zero-extent kContains query — "all objects covering this point's
    // box" — keeps the containment predicate non-trivial even when query
    // boxes are larger than most objects.
    const auto want_contains_pt =
        BruteRange(data, point_box, RangePredicate::kContains);
    const auto want_within =
        BruteRange(data, b, RangePredicate::kContainedBy);
    const auto want_point = BrutePoint(data, centre);
    const auto want_knn = BruteKnn(data, centre, 7);

    // Point queries and zero-extent kContains agree by definition.
    CHECK(want_point == want_contains_pt);

    for (auto& index : roster) {
      const std::string name(index->name());
      CHECK(Sorted(Collect(index.get(), RangeQuery<3>(b))) ==
            want_intersects);
      CHECK(Sorted(Collect(index.get(),
                           RangeQuery<3>(b, RangePredicate::kContains))) ==
            want_contains);
      CHECK(Sorted(Collect(
                index.get(),
                RangeQuery<3>(point_box, RangePredicate::kContains))) ==
            want_contains_pt);
      CHECK(Sorted(Collect(index.get(),
                           RangeQuery<3>(b, RangePredicate::kContainedBy))) ==
            want_within);
      CHECK(Sorted(Collect(index.get(), PointQuery<3>(centre))) ==
            want_point);
      CHECK_EQ(Count(index.get(), CountQuery<3>(b)),
               static_cast<std::uint64_t>(want_intersects.size()));
      CHECK_EQ(Count(index.get(),
                     CountQuery<3>(b, RangePredicate::kContainedBy)),
               static_cast<std::uint64_t>(want_within.size()));
      // kNN: exact (distance, id)-ordered sequence, not just the same set.
      const auto got_knn = Collect(index.get(), KNearestQuery<3>(centre, 7));
      if (got_knn != want_knn) {
        std::fprintf(stderr, "%s kNN disagrees with brute force\n",
                     name.c_str());
        CHECK(got_knn == want_knn);
      }
    }
  }
}

/// kNN oracle checks (brute force vs every index): ties at equal distance
/// (duplicate boxes), k larger than the dataset, and query points far
/// outside the data region. (k == 0 is unrepresentable: the factory
/// rejects it — see TestFactoryValidation.)
void TestKnnOracle() {
  // A tie-heavy dataset: clusters of identical boxes plus random filler.
  Rng rng(7);
  Box3 universe;
  for (int d = 0; d < 3; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 1000;
  }
  Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(3000, universe, 8.0f, &rng);
  for (int c = 0; c < 5; ++c) {
    Box3 b;
    for (int d = 0; d < 3; ++d) {
      const auto lo = static_cast<quasii::Scalar>(100 + 150 * c);
      b.lo[d] = lo;
      b.hi[d] = lo + 10;
    }
    for (int i = 0; i < 40; ++i) data.push_back(b);  // 40-way distance ties
  }

  auto roster = MakeIndexRoster(data, universe);
  for (auto& index : roster) index->Build();

  std::vector<Point3> probes;
  for (int i = 0; i < 12; ++i) {
    Point3 pt;
    for (int d = 0; d < 3; ++d) {
      pt[d] = rng.UniformScalar(universe.lo[d], universe.hi[d]);
    }
    probes.push_back(pt);
  }
  {
    // Dead-centre of a tie cluster and far outside the universe.
    Point3 pt;
    for (int d = 0; d < 3; ++d) pt[d] = 105;
    probes.push_back(pt);
    for (int d = 0; d < 3; ++d) pt[d] = -5000;
    probes.push_back(pt);
  }

  const std::size_t n = data.size();
  const std::size_t ks[] = {1, 3, 60, n, n + 17};
  for (const Point3& pt : probes) {
    for (const std::size_t k : ks) {
      const auto want = BruteKnn(data, pt, k);
      if (k >= n) CHECK_EQ(want.size(), n);
      for (auto& index : roster) {
        const auto got = Collect(index.get(), KNearestQuery<3>(pt, k));
        if (got != want) {
          std::fprintf(stderr, "%s kNN k=%zu disagrees (got %zu, want %zu)\n",
                       std::string(index->name()).c_str(), k, got.size(),
                       want.size());
          CHECK(got == want);
        }
      }
    }
  }
}

/// Count-only workloads drive reorganization without a single id emission:
/// the NoIdSink aborts on any `Emit`/`EmitRun`, and QUASII's crack counters
/// must advance — counting queries build the index exactly like
/// materializing ones (the acceptance criterion).
void TestCountOnlyWorkloadCracksWithoutIds() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 20000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  const auto boxes = FootprintBoxes(universe, 40, 1e-3, 211);

  // Roster-wide: no count path may ever touch an id.
  auto roster = MakeIndexRoster(data, universe);
  NoIdSink no_ids;
  for (auto& index : roster) {
    index->Build();
    for (const Box3& b : boxes) {
      no_ids.Reset();
      index->Execute(CountQuery<3>(b), no_ids);
      CHECK_EQ(no_ids.count(),
               BruteRange(data, b, RangePredicate::kIntersects).size());
    }
  }

  // QUASII specifically: a count-only workload must crack (the index
  // converges even though nothing is ever materialized).
  QuasiiIndex<3>::Params params;
  params.leaf_threshold = 256;
  QuasiiIndex<3> quasii_index(data, params);
  std::uint64_t last_cracks = 0;
  bool cracked = false;
  for (const Box3& b : boxes) {
    no_ids.Reset();
    quasii_index.Execute(CountQuery<3>(b), no_ids);
    CHECK_EQ(no_ids.count(),
             BruteRange(data, b, RangePredicate::kIntersects).size());
    cracked = cracked || quasii_index.stats().cracks > last_cracks;
    last_cracks = quasii_index.stats().cracks;
  }
  CHECK(cracked);
  CHECK_GT(quasii_index.stats().cracks, 0u);
  CHECK_GT(quasii_index.stats().objects_moved, 0u);
  // And the refined index answers repeat counts without further cracking.
  no_ids.Reset();
  quasii_index.Execute(CountQuery<3>(boxes.front()), no_ids);
  CHECK_EQ(quasii_index.stats().cracks, last_cracks);
}

/// Stats invariants over a mixed workload: every counter is monotone across
/// queries, and cumulative `objects_tested` bounds the cumulative results —
/// an index can never report more matches than candidates it looked at
/// (catches double-counting when sinks replace vectors).
void TestStatsInvariantsUnderMixedWorkload() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 12000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  const auto boxes = FootprintBoxes(universe, 60, 1e-3, 307);

  quasii::bench::WorkloadSpec spec;
  spec.mix = quasii::bench::DefaultMixedWorkloadMix();
  spec.knn_k = 9;
  spec.seed = 11;
  const auto queries = quasii::bench::MakeTypedWorkload<3>(boxes, spec);
  // The deterministic interleave must cover every single-index type at this
  // size. Joins are pair-producing op-stream operations, not typed queries,
  // so their slot stays empty here.
  std::array<std::uint64_t, quasii::bench::kNumQueryTypes> seen{};
  for (const Query3& q : queries) {
    ++seen[static_cast<std::size_t>(quasii::bench::TypeIndexOf(q))];
  }
  for (int t = 0; t < quasii::bench::kNumQueryTypes; ++t) {
    if (t == quasii::bench::kTypeJoin) {
      CHECK_EQ(seen[static_cast<std::size_t>(t)], 0u);
      continue;
    }
    CHECK_GT(seen[static_cast<std::size_t>(t)], 0u);
  }

  auto roster = MakeIndexRoster(data, universe);
  for (auto& index : roster) {
    index->Build();
    index->ResetStats();
    QueryStats prev = index->stats();
    std::uint64_t results_emitted = 0;
    for (const Query3& q : queries) {
      if (q.type() == QueryType::kCount) {
        results_emitted += Count(index.get(), q);
      } else {
        results_emitted += Collect(index.get(), q).size();
      }
      const QueryStats& now = index->stats();
      CHECK_GE(now.objects_tested, prev.objects_tested);
      CHECK_GE(now.partitions_visited, prev.partitions_visited);
      CHECK_GE(now.cracks, prev.cracks);
      CHECK_GE(now.objects_moved, prev.objects_moved);
      CHECK_GE(now.duplicates_removed, prev.duplicates_removed);
      CHECK_GE(now.intervals, prev.intervals);
      prev = now;
      CHECK_GE(now.objects_tested, results_emitted);
    }
    CHECK_GT(results_emitted, 0u);
  }
}

/// TopKSink unit behaviour: bounded size, (distance, id) tie-break,
/// replacement of the worst element, k == 0, and the pruning bound.
void TestTopKSink() {
  TopKSink top(3);
  CHECK_EQ(top.k(), 3u);
  CHECK(!top.full());
  CHECK(top.bound() == std::numeric_limits<double>::infinity());

  top.Offer(10, 5.0);
  top.Offer(11, 1.0);
  top.Offer(12, 3.0);
  CHECK(top.full());
  CHECK_EQ(top.bound(), 5.0);

  // Worse than the bound: rejected. Equal distance, larger id: rejected.
  top.Offer(13, 6.0);
  CHECK_EQ(top.bound(), 5.0);
  top.Offer(99, 5.0);
  CHECK_EQ(top.bound(), 5.0);
  // Equal distance, smaller id: replaces the worst.
  top.Offer(4, 5.0);
  auto sorted = top.TakeSorted();
  CHECK_EQ(sorted.size(), 3u);
  CHECK_EQ(sorted[0].id, 11u);
  CHECK_EQ(sorted[1].id, 12u);
  CHECK_EQ(sorted[2].id, 4u);

  // Tie ordering: ids ascending within one distance.
  TopKSink ties(4);
  ties.Offer(7, 2.0);
  ties.Offer(3, 2.0);
  ties.Offer(5, 2.0);
  ties.Offer(1, 2.0);
  ties.Offer(0, 2.0);  // evicts id 7 (same distance, largest id)
  sorted = ties.TakeSorted();
  CHECK_EQ(sorted.size(), 4u);
  CHECK_EQ(sorted[0].id, 0u);
  CHECK_EQ(sorted[1].id, 1u);
  CHECK_EQ(sorted[2].id, 3u);
  CHECK_EQ(sorted[3].id, 5u);

  TopKSink none(0);
  none.Offer(1, 0.0);
  CHECK_EQ(none.TakeSorted().size(), 0u);
}

/// Malformed query descriptions fail at construction, not inside dispatch:
/// the `Try*` factories return nullopt on the same inputs the `Make*`
/// wrappers abort on, and well-formed inputs produce fully typed queries.
void TestFactoryValidation() {
  const Point3 pt{};
  CHECK(!Query3::TryKNearest(pt, 0).has_value());
  const auto knn = Query3::TryKNearest(pt, 4);
  CHECK(knn.has_value());
  CHECK(knn->type() == QueryType::kKNearest);
  CHECK_EQ(knn->k(), 4u);

  CHECK(!Query3::TryJoin(static_cast<SpatialIndex<3>*>(nullptr)).has_value());
  CHECK(!Query3::TryJoin(static_cast<const std::vector<Box3>*>(nullptr))
             .has_value());
  const Dataset3 data = UniformData(64, 5);
  quasii::ScanIndex<3> scan(data);
  const auto join = Query3::TryJoin(&scan);
  CHECK(join.has_value());
  CHECK(join->type() == QueryType::kJoin);
  CHECK(join->join_other() == &scan);
  const std::vector<Box3> stream(3);
  const auto stream_join = Query3::TryJoin(&stream);
  CHECK(stream_join.has_value());
  CHECK(stream_join->join_stream() == &stream);

  CHECK(!Query3::TryConjunction({}).has_value());
  // Default-constructed terms hold the sentinel empty box, whose infinite
  // bounds every factory refuses like any other non-finite geometry.
  std::vector<quasii::ConjunctiveTerm<3>> terms(2);
  CHECK(!Query3::TryConjunction(terms).has_value());
  for (quasii::ConjunctiveTerm<3>& t : terms) t.box = Box3(pt, pt);
  const auto conj = Query3::TryConjunction(terms);
  CHECK(conj.has_value());
  CHECK(conj->type() == QueryType::kConjunction);
  CHECK_EQ(conj->terms().size(), 2u);

  // A default-constructed query is the valid degenerate range that matches
  // nothing (op streams default-construct before being overwritten).
  Query3 q;
  CHECK(q.type() == QueryType::kRange);
  CHECK(q.box().IsEmpty());
}

/// Runs `make` in a forked child and returns what it wrote to stderr; the
/// child must die of SIGABRT.
template <typename Fn>
std::string AbortMessage(const Fn& make) {
  int fds[2];
  CHECK_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  CHECK_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDERR_FILENO);
    make();
    std::_Exit(0);  // constructed: the check is missing
  }
  ::close(fds[1]);
  std::string message;
  char buf[256];
  ssize_t got = 0;
  while ((got = ::read(fds[0], buf, sizeof(buf))) > 0) {
    message.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  int status = 0;
  CHECK_EQ(waitpid(pid, &status, 0), pid);
  CHECK(WIFSIGNALED(status));
  CHECK_EQ(WTERMSIG(status), SIGABRT);
  return message;
}

bool Names(const std::string& message, const char* cause) {
  return message.find(cause) != std::string::npos;
}

/// Every `Make*` factory aborts on an invalid description with a message
/// that names the cause: `k == 0` for kNN, no terms for a conjunction, and
/// a NaN or infinite coordinate for range, point, count, kNN and every
/// conjunction term.
void TestMakeFactoriesAbortNamesCause() {
  CHECK(Names(AbortMessage([] { KNearestQuery<3>(Point3{}, 0); }), "k >= 1"));
  CHECK(Names(AbortMessage([] { ConjunctiveQuery<3>({}); }),
              "at least one term"));
  Box3 unit;
  for (int d = 0; d < 3; ++d) {
    unit.lo[d] = 0;
    unit.hi[d] = 1;
  }
  for (const quasii::Scalar bad :
       {std::numeric_limits<quasii::Scalar>::quiet_NaN(),
        std::numeric_limits<quasii::Scalar>::infinity(),
        -std::numeric_limits<quasii::Scalar>::infinity()}) {
    Point3 pt{};
    pt[1] = bad;
    const std::string knn = AbortMessage([pt] { KNearestQuery<3>(pt, 4); });
    CHECK(Names(knn, "finite point"));
    CHECK(!Names(knn, "k >= 1"));
    CHECK(Names(AbortMessage([pt] { PointQuery<3>(pt); }),
                "point query requires a finite point"));
    Box3 bad_box = unit;
    bad_box.hi[2] = bad;
    CHECK(Names(AbortMessage([bad_box] { RangeQuery<3>(bad_box); }),
                "range query requires a finite box"));
    CHECK(Names(AbortMessage([bad_box] { CountQuery<3>(bad_box); }),
                "count query requires a finite box"));
    const std::vector<ConjunctiveTerm<3>> terms = {
        {unit, RangePredicate::kIntersects},
        {bad_box, RangePredicate::kContainedBy}};
    CHECK(Names(AbortMessage([terms] { ConjunctiveQuery<3>(terms); }),
                "conjunctive query requires finite term boxes"));
    CHECK(!Query3::TryConjunction(terms).has_value());
  }
}

}  // namespace

int main() {
  RUN_TEST(TestTopKSink);
  RUN_TEST(TestFactoryValidation);
  RUN_TEST(TestMakeFactoriesAbortNamesCause);
  RUN_TEST(TestAllTypesMatchBruteForceAcrossRoster);
  RUN_TEST(TestKnnOracle);
  RUN_TEST(TestCountOnlyWorkloadCracksWithoutIds);
  RUN_TEST(TestStatsInvariantsUnderMixedWorkload);
  return 0;
}
