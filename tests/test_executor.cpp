// Intra-query execution layer suite: the work-stealing TaskScheduler
// (nested submission without deadlock at any pool size, steal accounting,
// ParallelFor grain edge cases) and the determinism contract of morsel-
// parallel QUASII execution — a serial and a multi-threaded run of the
// same cold query stream must produce bit-identical columns and slice
// lists, identical work counters, and identical result streams, for range
// and count queries, duplicate-heavy data, and crack-driven joins alike.
// Only cracking forks: crack-free joins and converged reads run no scheduler
// task, and converged reads whose adjacent leaves merge into one scan (fully
// covered leaves next to partly covered ones, and runs longer than a grain)
// emit the same ordered ids at 1 and 4 threads, and the Scan oracle's set.
// The final stress test races parallel cracks and concurrent reads against
// roster mutations and is the CI TSan leg's fodder.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/task_scheduler.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "quasii/quasii_index.h"
#include "scan/scan_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box3;
using quasii::CountQuery;
using quasii::CountSink;
using quasii::Dataset3;
using quasii::IntraQueryThreads;
using quasii::JoinQuery;
using quasii::MorselGrain;
using quasii::ObjectId;
using quasii::ParallelFor;
using quasii::PointQuery;
using quasii::QuasiiIndex;
using quasii::Query;
using quasii::QueryStats;
using quasii::RangePredicate;
using quasii::RangeQuery;
using quasii::Scalar;
using quasii::ScanIndex;
using quasii::SetIntraQueryThreads;
using quasii::TaskScheduler;
using quasii::VectorPairSink;
using quasii::VectorSink;
using IdPair = std::pair<ObjectId, ObjectId>;

/// Restores the global intra-query thread count on scope exit so a failing
/// CHECK in one test cannot leak parallelism into the next.
struct ScopedThreads {
  explicit ScopedThreads(int n) : prev(IntraQueryThreads()) {
    SetIntraQueryThreads(n);
  }
  ~ScopedThreads() { SetIntraQueryThreads(prev); }
  int prev;
};

void TestInlineExecutionWithoutWorkers() {
  TaskScheduler s(0);
  CHECK(!s.parallel());
  std::atomic<int> ran{0};
  {
    TaskScheduler::Group g(&s);
    for (int i = 0; i < 16; ++i) {
      g.Run([&ran] { ran.fetch_add(1); });
    }
    g.Wait();
  }
  CHECK_EQ(ran.load(), 16);
  CHECK_EQ(s.stats().inlined, 16u);
  CHECK_EQ(s.stats().executed, 0u);
}

void TestNestedSubmissionNoDeadlockPoolSizeOne() {
  // One worker, three levels of nested fan-out: every Wait must help run
  // queued tasks instead of blocking, or this test hangs (ctest timeout).
  TaskScheduler s(1);
  std::atomic<int> leaves{0};
  {
    TaskScheduler::Group outer(&s);
    for (int i = 0; i < 4; ++i) {
      outer.Run([&s, &leaves] {
        TaskScheduler::Group mid(&s);
        for (int j = 0; j < 4; ++j) {
          mid.Run([&s, &leaves] {
            TaskScheduler::Group inner(&s);
            for (int k = 0; k < 4; ++k) {
              inner.Run([&leaves] { leaves.fetch_add(1); });
            }
            inner.Wait();
          });
        }
        mid.Wait();
      });
    }
    outer.Wait();
  }
  CHECK_EQ(leaves.load(), 64);
  const TaskScheduler::Stats st = s.stats();
  CHECK_EQ(st.executed + st.helped, 84u);  // 4 + 16 + 64 tasks, none lost
}

void TestWorkStealing() {
  // A task running on one worker spawns two children into that worker's
  // own deque, and each child blocks on a two-party barrier: they can only
  // both finish if some OTHER thread (the sibling worker or the helping
  // waiter) takes one — i.e. a steal happens, and is counted. The main
  // thread spins (not Wait) until the spawner has started, so a worker —
  // not the helping waiter — owns the deque the children land in.
  TaskScheduler s(2);
  std::atomic<bool> started{false};
  std::atomic<int> arrived{0};
  {
    TaskScheduler::Group outer(&s);
    outer.Run([&s, &started, &arrived] {
      started.store(true);
      TaskScheduler::Group inner(&s);
      for (int i = 0; i < 2; ++i) {
        inner.Run([&arrived] {
          arrived.fetch_add(1);
          while (arrived.load() < 2) std::this_thread::yield();
        });
      }
      inner.Wait();
    });
    while (!started.load()) std::this_thread::yield();
    outer.Wait();
  }
  CHECK_EQ(arrived.load(), 2);
  CHECK_GE(s.stats().stolen, 1u);
}

void TestParallelForGrainEdgeCases() {
  TaskScheduler s(2);
  // Empty range: zero morsels, the body never runs.
  {
    std::atomic<int> calls{0};
    ParallelFor(&s, 5, 5, 4, [&](std::size_t, std::size_t) {
      calls.fetch_add(1);
    });
    CHECK_EQ(calls.load(), 0);
  }
  // Every combination of awkward range × grain (single element, odd
  // remainder, grain 0 clamped to 1, grain wider than the range) must
  // cover each index exactly once with contiguous, tiling morsels.
  const std::size_t kCases[][3] = {
      {0, 1, 1}, {0, 7, 3}, {2, 9, 0}, {0, 3, 100}, {1, 64, 5},
  };
  for (const auto& c : kCases) {
    const std::size_t begin = c[0];
    const std::size_t end = c[1];
    const std::size_t grain = c[2];
    std::vector<std::atomic<int>> hits(end);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> morsels;
    ParallelFor(&s, begin, end, grain, [&](std::size_t b, std::size_t e) {
      CHECK_LT(b, e);
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      morsels.emplace_back(b, e);
    });
    for (std::size_t i = begin; i < end; ++i) CHECK_EQ(hits[i].load(), 1);
    std::sort(morsels.begin(), morsels.end());
    std::size_t pos = begin;
    const std::size_t g = std::max<std::size_t>(1, grain);
    for (const auto& m : morsels) {
      CHECK_EQ(m.first, pos);
      CHECK_LE(m.second - m.first, g);
      pos = m.second;
    }
    CHECK_EQ(pos, end);
  }
}

void TestEnvCapAndThreadCount() {
  // Runs both bare and under the force-serial CI leg: with no
  // QUASII_EXEC_THREADS requests pass through; with the cap set, every
  // request is clamped to it (that clamping IS the leg's test subject).
  ScopedThreads guard(1);
  CHECK_EQ(IntraQueryThreads(), 1);
  CHECK(!quasii::IntraQueryScheduler().parallel());
  const char* cap_env = std::getenv("QUASII_EXEC_THREADS");
  const int cap = cap_env != nullptr && *cap_env != '\0'
                      ? std::atoi(cap_env)
                      : 0;
  const int want = cap > 0 ? std::min(4, cap) : 4;
  CHECK_EQ(SetIntraQueryThreads(4), want);
  CHECK_EQ(quasii::IntraQueryScheduler().workers(), want - 1);
  CHECK_GE(MorselGrain(), 1u);
}

/// The index's snapshot structure blob: every crack-array column plus the
/// class table and each class's slice hierarchy in list order — the
/// physical layout and the refinement state together.
std::string StructureOf(const QuasiiIndex<3>& index) {
  std::string bytes;
  quasii::ByteWriter w(&bytes);
  CHECK(index.SerializeStructure(w));
  return bytes;
}

/// The work counters QUASII reports, which must not depend on the thread
/// count.
void CheckSameCounters(const QueryStats& a, const QueryStats& b) {
  CHECK_EQ(a.cracks, b.cracks);
  CHECK_EQ(a.objects_moved, b.objects_moved);
  CHECK_EQ(a.objects_tested, b.objects_tested);
  CHECK_EQ(a.partitions_visited, b.partitions_visited);
  CHECK_EQ(a.bytes_scanned, b.bytes_scanned);
}

/// Tasks the intra-query scheduler has run so far, on workers, by helping
/// waiters or inline.
std::uint64_t TasksRun() {
  const TaskScheduler::Stats st = quasii::IntraQueryScheduler().stats();
  return st.executed + st.helped + st.inlined;
}

/// Runs range queries, and count queries between them, cold on a fresh
/// index at the given thread count; records each range query's id stream
/// in emission order, the counts, the counters and the final structure.
struct ColdRun {
  std::vector<std::vector<ObjectId>> results;
  std::vector<std::uint64_t> counts;
  QueryStats stats;
  std::string structure;
  /// Rows of the largest frozen root slice.
  std::size_t frozen_root_rows = 0;
  /// Whether the scheduler had workers, and the tasks the run forked.
  bool parallel = false;
  std::uint64_t tasks = 0;
};

ColdRun RunCold(const Dataset3& data, const std::vector<Box3>& ranges,
                const std::vector<Box3>& counts, int threads) {
  ScopedThreads guard(threads);
  QuasiiIndex<3> index(data);
  ColdRun run;
  run.parallel = quasii::IntraQueryScheduler().parallel();
  const std::uint64_t tasks_before = TasksRun();
  for (std::size_t i = 0; i < std::max(ranges.size(), counts.size()); ++i) {
    if (i < ranges.size()) {
      std::vector<ObjectId> got;
      VectorSink sink(&got);
      index.Execute(RangeQuery<3>(ranges[i]), sink);
      run.results.push_back(std::move(got));
    }
    if (i < counts.size()) {
      CountSink sink;
      index.Execute(CountQuery<3>(counts[i]), sink);
      run.counts.push_back(sink.count());
    }
  }
  run.tasks = TasksRun() - tasks_before;
  CHECK(index.CheckInvariants());
  run.stats = index.stats();
  run.structure = StructureOf(index);
  for (std::size_t c = 0; c < index.class_count(); ++c) {
    for (const auto& s : index.extent_class(c).root) {
      if (s.frozen) {
        run.frozen_root_rows = std::max(run.frozen_root_rows, s.size());
      }
    }
  }
  return run;
}

void CheckSameColdRun(const ColdRun& serial, const ColdRun& parallel) {
  CHECK(serial.results == parallel.results);
  CHECK(serial.counts == parallel.counts);
  CheckSameCounters(serial.stats, parallel.stats);
  CHECK(serial.structure == parallel.structure);
}

void TestColdStartSerialParallelIdentical() {
  // n above the chunked-partition threshold (2^16) so the cold first query
  // exercises the parallel partition and the forked median split — and
  // still must match the serial run bit for bit: same id streams, same
  // counters, same columns and slice lists. The count queries are wider
  // and take the count-only scan path.
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 1u << 17;
  dp.seed = 9;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 30;
  qp.selectivity = 1e-3;
  qp.seed = 41;
  const auto ranges = quasii::datagen::MakeUniformQueries(universe, qp);
  qp.count = 10;
  qp.selectivity = 1e-2;
  qp.seed = 42;
  const auto counts = quasii::datagen::MakeUniformQueries(universe, qp);

  const ColdRun serial = RunCold(data, ranges, counts, 1);
  const ColdRun parallel = RunCold(data, ranges, counts, 4);
  CheckSameColdRun(serial, parallel);
  // With workers (the force-serial leg caps the thread count) the cold
  // cracks fork.
  if (parallel.parallel) CHECK_GT(parallel.tasks, 0u);
}

void TestDuplicateHeavySerialParallelIdentical() {
  // 2^16 rows, half of them one box at the centre of the universe: the
  // cold whole-universe query halves the 2^16-row root at the duplicate
  // centre, so with workers the right half, which holds the duplicate run,
  // is halved in a task and freezes there. Layout and counters must still
  // match the serial run.
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 1u << 15;
  dp.seed = 17;
  Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  Box3 dup = data[0];
  for (int d = 0; d < 3; ++d) {
    const Scalar shift =
        (universe.lo[d] + universe.hi[d]) / 2 - (dup.lo[d] + dup.hi[d]) / 2;
    dup.lo[d] += shift;
    dup.hi[d] += shift;
  }
  data.insert(data.end(), std::size_t{1} << 15, dup);
  std::vector<Box3> ranges = {universe};
  quasii::datagen::UniformQueryParams qp;
  qp.count = 20;
  qp.selectivity = 1e-3;
  qp.seed = 43;
  for (const Box3& q : quasii::datagen::MakeUniformQueries(universe, qp)) {
    ranges.push_back(q);
  }
  const std::vector<Box3> counts = {dup, universe};

  const ColdRun serial = RunCold(data, ranges, counts, 1);
  const ColdRun parallel = RunCold(data, ranges, counts, 4);
  CHECK_GE(serial.frozen_root_rows, std::size_t{1} << 15);
  CheckSameColdRun(serial, parallel);
}

/// A cold join at the given thread count: of a fresh index over `left_data`
/// against one over `right_data`, or with itself on a self-join. A second,
/// crack-free join follows and must find the same pairs without running a
/// scheduler task.
struct JoinRun {
  std::vector<IdPair> pairs;
  QueryStats left_stats;
  QueryStats right_stats;
  std::string left_structure;
  std::string right_structure;
};

JoinRun RunJoin(const Dataset3& left_data, const Dataset3& right_data,
                bool self_join, int threads) {
  ScopedThreads guard(threads);
  QuasiiIndex<3> left(left_data);
  QuasiiIndex<3> right(right_data);
  QuasiiIndex<3>& partner = self_join ? left : right;
  JoinRun run;
  VectorPairSink sink(&run.pairs);
  left.Execute(JoinQuery<3>(partner), sink);
  CHECK(left.CheckInvariants());
  CHECK(partner.CheckInvariants());
  run.left_stats = left.stats();
  run.right_stats = partner.stats();
  run.left_structure = StructureOf(left);
  run.right_structure = StructureOf(partner);

  const std::uint64_t tasks_before = TasksRun();
  std::vector<IdPair> again;
  VectorPairSink again_sink(&again);
  left.Execute(JoinQuery<3>(partner), again_sink);
  CHECK_EQ(TasksRun(), tasks_before);
  CHECK(again == run.pairs);
  CHECK_EQ(left.stats().cracks, run.left_stats.cracks);
  CHECK_EQ(partner.stats().cracks, run.right_stats.cracks);
  return run;
}

void TestParallelJoinMatchesSerial() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 20000;
  dp.seed = 5;
  const Dataset3 left_data = quasii::datagen::MakeUniformDataset(dp);
  dp.seed = 6;
  const Dataset3 right_data = quasii::datagen::MakeUniformDataset(dp);

  for (const bool self_join : {false, true}) {
    const JoinRun serial = RunJoin(left_data, right_data, self_join, 1);
    const JoinRun parallel = RunJoin(left_data, right_data, self_join, 4);
    CHECK(!serial.pairs.empty());
    CHECK(serial.pairs == parallel.pairs);  // emitter output is canonical
    CheckSameCounters(serial.left_stats, parallel.left_stats);
    CheckSameCounters(serial.right_stats, parallel.right_stats);
    CHECK(serial.left_structure == parallel.left_structure);
    CHECK(serial.right_structure == parallel.right_structure);
  }
}

/// One leaf a box query visits, in visit order: its rows and the bitmask
/// of dimensions its slice path proves covered.
struct VisitedLeaf {
  std::size_t begin = 0;
  std::size_t end = 0;
  unsigned covered = 0;
};

/// Mirrors QUASII's read descent over a converged hierarchy (slices that
/// overlap the query box widened by the class's half extents, covered
/// bits where a slice's value interval lies inside the query's) and lists
/// the leaves it visits, before any merging.
void CollectLeaves(const std::vector<QuasiiIndex<3>::Slice>& slices,
                   const Box3& q, const Box3& ext, unsigned covered,
                   std::vector<VisitedLeaf>* out) {
  for (const QuasiiIndex<3>::Slice& s : slices) {
    const int d = s.level;
    if (s.size() == 0 || s.lo >= ext.hi[d] || s.hi <= ext.lo[d]) continue;
    unsigned c = covered;
    if (q.lo[d] <= s.lo && s.hi <= q.hi[d]) c |= 1u << d;
    if (d == 2) {
      out->push_back(VisitedLeaf{s.begin, s.end, c});
    } else {
      CollectLeaves(s.children, q, ext, c, out);
    }
  }
}

std::vector<VisitedLeaf> VisitedLeaves(const QuasiiIndex<3>& index,
                                       const Box3& q) {
  std::vector<VisitedLeaf> leaves;
  for (std::size_t c = 0; c < index.class_count(); ++c) {
    const auto& cls = index.extent_class(c);
    Box3 ext;
    for (int d = 0; d < 3; ++d) {
      ext.lo[d] = q.lo[d] - cls.half_extent[d];
      ext.hi[d] = std::nextafter(q.hi[d] + cls.half_extent[d],
                                 std::numeric_limits<Scalar>::infinity());
    }
    CollectLeaves(cls.root, q, ext, 0u, &leaves);
  }
  return leaves;
}

/// The ordered id stream of one query at the current thread count, or for
/// a count query its count as the only element.
std::vector<ObjectId> Answer(quasii::SpatialIndex<3>* index,
                             const Query<3>& query) {
  std::vector<ObjectId> got;
  if (query.type() == quasii::QueryType::kCount) {
    CountSink sink;
    index->Execute(query, sink);
    got.push_back(static_cast<ObjectId>(sink.count()));
  } else {
    VectorSink sink(&got);
    index->Execute(query, sink);
  }
  return got;
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// What the runs of adjacent leaves `q` visits (the scans QUASII merges)
/// hold: the rows of the longest run, and whether some run holds a leaf
/// that lacks a covered bit of the run's first (or last) leaf and holds a
/// live row outside `q`. A merged scan that kept the first (or the last)
/// leaf's mask would emit that row.
struct LeafRuns {
  std::size_t longest = 0;
  bool first_mask_wrong = false;
  bool last_mask_wrong = false;
};

LeafRuns RunsOf(const QuasiiIndex<3>& index, const Box3& q) {
  const std::vector<VisitedLeaf> leaves = VisitedLeaves(index, q);
  LeafRuns runs;
  std::size_t e = 0;
  for (std::size_t i = 0; i < leaves.size(); i = e) {
    e = i + 1;
    while (e < leaves.size() && leaves[e - 1].end == leaves[e].begin) ++e;
    std::size_t rows = 0;
    for (std::size_t l = i; l < e; ++l) {
      const VisitedLeaf& leaf = leaves[l];
      rows += leaf.end - leaf.begin;
      bool outside = false;
      for (std::size_t r = leaf.begin; r < leaf.end; ++r) {
        outside |=
            index.array().live(r) && !index.array().box(r).Intersects(q);
      }
      runs.first_mask_wrong |=
          outside && (leaves[i].covered & ~leaf.covered) != 0;
      runs.last_mask_wrong |=
          outside && (leaves[e - 1].covered & ~leaf.covered) != 0;
    }
    runs.longest = std::max(runs.longest, rows);
  }
  return runs;
}

void TestMergedLeafScansMatchAcrossThreads() {
  // An index over 2^16 rows; after its first query every 97th row is
  // erased, so merged runs carry tombstones and refinement parks dead rows
  // between live slices. The queries: random boxes, whose runs of adjacent
  // leaves mix covered masks; a slab spanning the whole universe in y and
  // z, whose visited leaves form runs longer than a grain; and points. For
  // every range predicate, for counts and for points, the ordered ids at 1
  // and 4 threads must be identical and equal Scan's as a set, and no read
  // runs a scheduler task: converged reads scan on their calling thread.
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 1u << 16;
  dp.seed = 23;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 24;
  qp.selectivity = 2e-2;
  qp.seed = 61;
  std::vector<Box3> boxes = quasii::datagen::MakeUniformQueries(universe, qp);
  Box3 slab = universe;
  slab.lo[0] = universe.lo[0] + (universe.hi[0] - universe.lo[0]) / 4;
  slab.hi[0] = universe.lo[0] + (universe.hi[0] - universe.lo[0]) / 2;
  boxes.push_back(slab);

  std::vector<Query<3>> queries;
  for (const Box3& b : boxes) {
    for (const RangePredicate pred :
         {RangePredicate::kIntersects, RangePredicate::kContains,
          RangePredicate::kContainedBy}) {
      queries.push_back(RangeQuery<3>(b, pred));
      queries.push_back(CountQuery<3>(b, pred));
    }
  }
  for (ObjectId id = 0; id < 16; ++id) {
    queries.push_back(PointQuery<3>(data[id * 4001].Center()));
  }

  QuasiiIndex<3> index(data);
  ScanIndex<3> scan(data);
  std::vector<std::vector<ObjectId>> serial;
  {
    ScopedThreads guard(1);
    Answer(&index, queries.front());
    for (ObjectId id = 0; id < data.size(); id += 97) {
      CHECK(index.Erase(id));
      CHECK(scan.Erase(id));
    }
    for (const Query<3>& query : queries) Answer(&index, query);  // converge
    for (const Query<3>& query : queries) {
      serial.push_back(Answer(&index, query));
    }
  }
  const std::uint64_t cracks = index.stats().cracks;

  // The merge cases are really there.
  CHECK_GT(index.array().tombstones(), 0u);
  LeafRuns all;
  for (const Box3& b : boxes) {
    const LeafRuns runs = RunsOf(index, b);
    all.first_mask_wrong |= runs.first_mask_wrong;
    all.last_mask_wrong |= runs.last_mask_wrong;
  }
  CHECK(all.first_mask_wrong);
  CHECK(all.last_mask_wrong);
  CHECK_GT(RunsOf(index, slab).longest, MorselGrain());

  ScopedThreads guard(4);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t tasks_before = TasksRun();
    CHECK(Answer(&index, queries[i]) == serial[i]);
    CHECK_EQ(TasksRun(), tasks_before);
    if (queries[i].type() == quasii::QueryType::kCount) {
      CHECK(serial[i] == Answer(&scan, queries[i]));
    } else {
      CHECK(Sorted(serial[i]) == Sorted(Answer(&scan, queries[i])));
    }
  }
  CHECK_EQ(index.stats().cracks, cracks);
  CHECK(index.CheckInvariants());
}

void TestParallelScansRaceRosterMutations() {
  // TSan stress: with intra-query workers active, several reader threads
  // drive range queries (parallel cracking inside refinement, converged
  // scans under the shared lock) while a writer thread churns inserts and
  // erases through the index's locked mutation path. The lock contract must
  // keep worker reads and roster writes apart; afterwards the structure
  // must validate.
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 30000;
  dp.seed = 13;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 60;
  qp.selectivity = 2e-3;
  qp.seed = 99;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);

  ScopedThreads guard(3);
  QuasiiIndex<3> index(data);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&index, &queries, &stop, t] {
      quasii::ScopedStatsSlot slot(10 + t);
      for (int pass = 0; pass < 3; ++pass) {
        for (const Box3& q : queries) {
          std::vector<ObjectId> got;
          VectorSink sink(&got);
          index.Execute(RangeQuery<3>(q), sink);
          if (stop.load()) return;
        }
      }
    });
  }
  std::thread writer([&index, &data] {
    quasii::ScopedStatsSlot slot(12);
    // Erase and re-insert a rotating window of ids; each op takes the
    // exclusive lock and must serialize against the parallel executions.
    for (int round = 0; round < 4; ++round) {
      for (ObjectId id = 0; id < 400; ++id) {
        const ObjectId victim = id + static_cast<ObjectId>(round) * 400;
        index.Erase(victim);
        index.Insert(victim, data[victim]);
      }
    }
  });
  writer.join();
  stop.store(true);
  for (std::thread& r : readers) r.join();
  CHECK(index.CheckInvariants());
}

}  // namespace

int main() {
  RUN_TEST(TestInlineExecutionWithoutWorkers);
  RUN_TEST(TestNestedSubmissionNoDeadlockPoolSizeOne);
  RUN_TEST(TestWorkStealing);
  RUN_TEST(TestParallelForGrainEdgeCases);
  RUN_TEST(TestEnvCapAndThreadCount);
  RUN_TEST(TestColdStartSerialParallelIdentical);
  RUN_TEST(TestDuplicateHeavySerialParallelIdentical);
  RUN_TEST(TestParallelJoinMatchesSerial);
  RUN_TEST(TestMergedLeafScansMatchAcrossThreads);
  RUN_TEST(TestParallelScansRaceRosterMutations);
  return 0;
}
