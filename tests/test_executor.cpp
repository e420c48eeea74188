// Intra-query execution layer suite: the work-stealing TaskScheduler
// (nested submission without deadlock at any pool size, steal accounting,
// ParallelFor grain edge cases) and the determinism contract of morsel-
// parallel QUASII execution — a serial and a multi-threaded run of the
// same cold query stream must produce bit-identical columns, identical
// crack/objects_tested counters, and identical results, for range queries
// and crack-driven joins alike. The final stress test races parallel
// scans/cracks against roster mutations and is the CI TSan leg's fodder.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/query.h"
#include "common/task_scheduler.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "quasii/quasii_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box3;
using quasii::Dataset3;
using quasii::IntraQueryThreads;
using quasii::JoinQuery;
using quasii::MorselGrain;
using quasii::ObjectId;
using quasii::ParallelFor;
using quasii::QuasiiIndex;
using quasii::RangeQuery;
using quasii::Scalar;
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

/// Runs `queries` cold on a fresh index at the given thread count and
/// returns the per-query sorted results; exposes the index for column and
/// counter comparison.
struct ColdRun {
  std::vector<std::vector<ObjectId>> results;
  std::uint64_t cracks = 0;
  std::uint64_t objects_tested = 0;
  std::uint64_t objects_moved = 0;
  /// The lo and hi column of every dimension.
  std::vector<std::vector<Scalar>> bounds;
  std::vector<ObjectId> ids;
  std::vector<std::uint8_t> live;
};

ColdRun RunCold(const Dataset3& data, const std::vector<Box3>& queries,
                int threads) {
  ScopedThreads guard(threads);
  QuasiiIndex<3> index(data);
  ColdRun run;
  for (const Box3& q : queries) {
    std::vector<ObjectId> got;
    VectorSink sink(&got);
    index.Execute(RangeQuery<3>(q), sink);
    std::sort(got.begin(), got.end());
    run.results.push_back(std::move(got));
  }
  CHECK(index.CheckInvariants());
  run.cracks = index.stats().cracks;
  run.objects_tested = index.stats().objects_tested;
  run.objects_moved = index.stats().objects_moved;
  const auto& array = index.array();
  for (int d = 0; d < 3; ++d) {
    run.bounds.push_back(array.lo_col(d));
    run.bounds.push_back(array.hi_col(d));
  }
  run.ids = array.ids();
  for (std::size_t i = 0; i < array.size(); ++i) {
    run.live.push_back(array.live(i) ? 1 : 0);
  }
  return run;
}

void TestColdStartSerialParallelIdentical() {
  // n above the chunked-partition threshold (2^16) so the cold first query
  // exercises the parallel partition, the parallel split worklist, and the
  // deferred leaf scans — and still must match the serial run bit for bit:
  // same results, same crack/objects_tested counters, same physical column
  // order.
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 1u << 17;
  dp.seed = 9;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 30;
  qp.selectivity = 1e-3;
  qp.seed = 41;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);

  const ColdRun serial = RunCold(data, queries, 1);
  const ColdRun parallel = RunCold(data, queries, 4);

  CHECK_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    CHECK(serial.results[i] == parallel.results[i]);
  }
  CHECK_EQ(serial.cracks, parallel.cracks);
  CHECK_EQ(serial.objects_tested, parallel.objects_tested);
  CHECK_EQ(serial.objects_moved, parallel.objects_moved);
  // Bit-identical layout: the strongest form of the determinism contract.
  CHECK(serial.bounds == parallel.bounds);
  CHECK(serial.ids == parallel.ids);
  CHECK(serial.live == parallel.live);
}

void TestParallelJoinMatchesSerial() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 20000;
  dp.seed = 5;
  const Dataset3 left_data = quasii::datagen::MakeUniformDataset(dp);
  dp.seed = 6;
  const Dataset3 right_data = quasii::datagen::MakeUniformDataset(dp);

  auto run = [&](int threads) {
    ScopedThreads guard(threads);
    QuasiiIndex<3> left(left_data);
    QuasiiIndex<3> right(right_data);
    std::vector<IdPair> pairs;
    VectorPairSink sink(&pairs);
    left.Execute(JoinQuery<3>(right), sink);
    CHECK(left.CheckInvariants());
    CHECK(right.CheckInvariants());
    return std::make_pair(pairs, left.stats().cracks + right.stats().cracks);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  CHECK(serial.first == parallel.first);  // emitter output is canonical
  CHECK_EQ(serial.second, parallel.second);
}

void TestParallelScansRaceRosterMutations() {
  // TSan stress: with intra-query workers active, several reader threads
  // drive range queries (deferred parallel scans, parallel cracking inside
  // refinement) while a writer thread churns inserts and erases through
  // the index's locked mutation path. The lock contract must keep worker
  // reads and roster writes apart; afterwards the structure must validate.
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
  RUN_TEST(TestParallelJoinMatchesSerial);
  RUN_TEST(TestParallelScansRaceRosterMutations);
  return 0;
}
