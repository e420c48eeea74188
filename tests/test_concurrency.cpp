// Concurrency suite for the multi-threaded execution layer: TaskScheduler
// groups and stats slots, SplitMix Rng stream independence, the
// ObjectStore mutation epoch, per-thread stats shards, QUASII's box-query
// `ConvergedFor`, reruns that crack nothing — and the headline checks: N
// threads of mixed queries against every roster index must agree
// query-for-query with a single-threaded Scan oracle (both during
// serialized warm-up and once converged), N concurrent disjoint read/write
// streams must leave every index in the exact state a sequential replay
// produces, and QUASII reads whose shared-lock attempts decline beside a
// writer must stay correct. Built for TSan: the concurrent sections are the
// CI ThreadSanitize job's race detector fodder.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "common/dataset.h"
#include "common/object_store.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"
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
using quasii::ConjunctiveQuery;
using quasii::ConjunctiveTerm;
using quasii::CountQuery;
using quasii::CountSink;
using quasii::CurrentStatsSlot;
using quasii::Dataset;
using quasii::Dataset3;
using quasii::GridAssignment;
using quasii::GridIndex;
using quasii::KNearestQuery;
using quasii::MosaicIndex;
using quasii::ObjectId;
using quasii::ObjectStore;
using quasii::ParallelFor;
using quasii::PointQuery;
using quasii::Query;
using quasii::Query3;
using quasii::QuasiiIndex;
using quasii::RangePredicate;
using quasii::RangeQuery;
using quasii::Rng;
using quasii::RTreeIndex;
using quasii::Scalar;
using quasii::ScanIndex;
using quasii::ScopedStatsSlot;
using quasii::SfcIndex;
using quasii::SfcrackerIndex;
using quasii::SpatialIndex;
using quasii::TaskScheduler;
using quasii::VectorSink;
using quasii::bench::MakeThreadOpStreams;
using quasii::bench::Op;
using quasii::bench::Op3;
using quasii::bench::OpKind;
using quasii::bench::WorkloadSpec;

constexpr int kThreads = 4;

template <int D>
Box<D> MakeUniverse() {
  Box<D> universe;
  for (int d = 0; d < D; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 100;
  }
  return universe;
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

/// One query's answer: its ids (none for a count) and its match count.
struct Answer {
  std::vector<ObjectId> ids;
  std::uint64_t count = 0;
};

Answer RunQuery(SpatialIndex<3>* index, const Query3& q) {
  Answer r;
  if (q.type() == quasii::QueryType::kCount) {
    CountSink sink;
    index->Execute(q, sink);
    r.count = sink.count();
  } else {
    VectorSink sink(&r.ids);
    index->Execute(q, sink);
    r.count = r.ids.size();
  }
  return r;
}

/// Every roster index class, thresholds small enough that structures refine
/// at test sizes (same configuration as the dynamic-equivalence suite).
std::vector<std::unique_ptr<SpatialIndex<3>>> MakeRoster(
    const Dataset3& data, const Box3& universe) {
  std::vector<std::unique_ptr<SpatialIndex<3>>> v;
  v.push_back(std::make_unique<ScanIndex<3>>(data));
  v.push_back(std::make_unique<SfcIndex<3>>(data, universe));
  v.push_back(std::make_unique<SfcrackerIndex<3>>(data, universe));
  {
    GridIndex<3>::Params p;
    p.partitions_per_dim = 20;
    p.assignment = GridAssignment::kQueryExtension;
    v.push_back(std::make_unique<GridIndex<3>>(data, universe, p));
  }
  {
    GridIndex<3>::Params p;
    p.partitions_per_dim = 20;
    p.assignment = GridAssignment::kReplication;
    v.push_back(std::make_unique<GridIndex<3>>(data, universe, p));
  }
  {
    MosaicIndex<3>::Params p;
    p.leaf_capacity = 128;
    v.push_back(std::make_unique<MosaicIndex<3>>(data, universe, p));
  }
  v.push_back(std::make_unique<RTreeIndex<3>>(data));
  {
    QuasiiIndex<3>::Params p;
    p.leaf_threshold = 128;
    v.push_back(std::make_unique<QuasiiIndex<3>>(data, p));
  }
  return v;
}

// ---------------------------------------------------------------------------
// Rng::Split

void TestRngSplitStreamsIndependent() {
  // Parent plus four split streams: the first 10k raw engine draws of all
  // five must be pairwise disjoint (a collision among uniform 64-bit values
  // is a ~1e-12 event, so any hit means correlated seeding).
  constexpr int kDraws = 10000;
  Rng parent(42);
  std::set<std::uint64_t> seen;
  std::size_t expected = 0;
  const auto drain = [&](Rng rng) {
    for (int i = 0; i < kDraws; ++i) seen.insert(rng.engine()());
    expected += kDraws;
  };
  drain(parent);
  for (std::uint64_t t = 0; t < 4; ++t) drain(parent.Split(t));
  CHECK_EQ(seen.size(), expected);
}

void TestRngSplitIsStableAndSeedBased() {
  // Split derives from the construction seed, not the engine state: a
  // parent that has drawn produces the same child as a fresh one.
  Rng fresh(7);
  Rng drained(7);
  for (int i = 0; i < 123; ++i) drained.engine()();
  Rng a = fresh.Split(3);
  Rng b = drained.Split(3);
  for (int i = 0; i < 1000; ++i) CHECK_EQ(a.engine()(), b.engine()());
  // Distinct stream ids and distinct seeds give distinct streams.
  CHECK_NE(Rng(7).Split(0).engine()(), Rng(7).Split(1).engine()());
  CHECK_NE(Rng(7).Split(0).engine()(), Rng(8).Split(0).engine()());
}

// ---------------------------------------------------------------------------
// TaskScheduler as the inter-query executor

void TestSchedulerGroupRunsEverythingAndWaits() {
  TaskScheduler scheduler(kThreads - 1);
  CHECK_EQ(scheduler.workers(), kThreads - 1);
  std::atomic<int> counter{0};
  for (int wave = 1; wave <= 3; ++wave) {
    TaskScheduler::Group group(&scheduler);
    for (int i = 0; i < 200; ++i) {
      group.Run([&counter] { counter.fetch_add(1); });
    }
    group.Wait();
    CHECK_EQ(counter.load(), 200 * wave);
  }
}

/// The stats slot of every worker of `s`: one task per worker, each held
/// until all have started, so no worker runs two. The caller waits for the
/// start before joining the group, so it runs none of them.
std::vector<int> WorkerSlots(TaskScheduler* s) {
  const int n = s->workers();
  std::vector<int> slots(static_cast<std::size_t>(n), 0);
  std::atomic<int> started{0};
  TaskScheduler::Group group(s);
  for (int i = 0; i < n; ++i) {
    group.Run([&slots, &started, n, i] {
      slots[static_cast<std::size_t>(i)] = CurrentStatsSlot();
      started.fetch_add(1);
      while (started.load() < n) std::this_thread::yield();
    });
  }
  while (started.load() < n) std::this_thread::yield();
  group.Wait();
  return slots;
}

/// Every worker of `batch` and of the intra-query scheduler holds a
/// distinct non-zero slot.
void CheckDistinctWorkerSlots(TaskScheduler* batch) {
  std::vector<int> slots = WorkerSlots(batch);
  const std::vector<int> intra = WorkerSlots(&quasii::IntraQueryScheduler());
  slots.insert(slots.end(), intra.begin(), intra.end());
  const std::set<int> distinct(slots.begin(), slots.end());
  CHECK_EQ(distinct.size(), slots.size());
  CHECK_EQ(distinct.count(0), 0u);
}

void TestSchedulerWorkersHoldDistinctStatsSlots() {
  // A batch scheduler beside the 4-thread intra-query scheduler; the caller
  // thread stays on slot 0.
  CHECK_EQ(CurrentStatsSlot(), 0);
  const int prev = quasii::IntraQueryThreads();
  quasii::SetIntraQueryThreads(4);
  {
    TaskScheduler batch(kThreads - 1);
    CheckDistinctWorkerSlots(&batch);
  }
  // Two schedulers at the thread cap fit beside each other, and resizing
  // the intra-query scheduler returns its old slots before taking new ones
  // (taking first would need more slots than exist and abort).
  {
    TaskScheduler batch(TaskScheduler::kMaxThreads - 1);
    CHECK_EQ(batch.workers(), TaskScheduler::kMaxThreads - 1);
    quasii::SetIntraQueryThreads(TaskScheduler::kMaxThreads);
    quasii::SetIntraQueryThreads(TaskScheduler::kMaxThreads - 1);
    CheckDistinctWorkerSlots(&batch);
  }
  quasii::SetIntraQueryThreads(prev);
  ScopedStatsSlot bind(7);
  CHECK_EQ(CurrentStatsSlot(), 7);
}

// ---------------------------------------------------------------------------
// ObjectStore mutation epoch

void TestObjectStoreVersionTicksPerAcceptedMutation() {
  Rng rng(11);
  const Box3 universe = MakeUniverse<3>();
  const Dataset3 data = RandomDataset<3>(&rng, universe, 50);
  ObjectStore<3> store(data);
  CHECK_EQ(store.version(), 0u);
  CHECK(!store.Insert(10, RandomBox<3>(&rng, universe, 0.05)));  // live id
  CHECK_EQ(store.version(), 0u);  // rejected mutations don't tick
  CHECK(store.Insert(50, RandomBox<3>(&rng, universe, 0.05)));
  CHECK_EQ(store.version(), 1u);
  CHECK(store.Erase(10));
  CHECK_EQ(store.version(), 2u);
  CHECK(!store.Erase(10));
  CHECK_EQ(store.version(), 2u);
}

// ---------------------------------------------------------------------------
// Per-thread stats shards

void TestStatsMergeAcrossConcurrentThreads() {
  Rng rng(13);
  const Box3 universe = MakeUniverse<3>();
  const std::size_t n = 500;
  const Dataset3 data = RandomDataset<3>(&rng, universe, n);
  ScanIndex<3> scan(data);
  scan.Build();
  std::vector<Query3> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(RangeQuery<3>(RandomBox<3>(&rng, universe, 0.2)));
  }
  TaskScheduler scheduler(kThreads - 1);
  ParallelFor(&scheduler, 0, queries.size(), 1,
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  RunQuery(&scan, queries[i]);
                }
              });
  // Scan tests every live object per query; the counts land in per-thread
  // shards and must merge to the exact total.
  CHECK_EQ(scan.stats().objects_tested, queries.size() * n);
  scan.ResetStats();
  CHECK_EQ(scan.stats().objects_tested, 0u);
}

// ---------------------------------------------------------------------------
// Concurrent queries vs the sequential Scan oracle

std::vector<Query3> MakeMixedQueries(Rng* rng, const Box3& universe,
                                     int count) {
  std::vector<Query3> queries;
  queries.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Box3 b = RandomBox<3>(rng, universe, 0.15);
    switch (i % 6) {
      case 0:
        queries.push_back(RangeQuery<3>(b));
        break;
      case 1:
        queries.push_back(RangeQuery<3>(b, RangePredicate::kContains));
        break;
      case 2:
        queries.push_back(RangeQuery<3>(b, RangePredicate::kContainedBy));
        break;
      case 3:
        queries.push_back(PointQuery<3>(b.Center()));
        break;
      case 4:
        queries.push_back(CountQuery<3>(b));
        break;
      default:
        queries.push_back(KNearestQuery<3>(b.Center(), 8));
        break;
    }
  }
  return queries;
}

void CheckBatchAgainstOracle(const std::vector<Answer>& got,
                             const std::vector<Answer>& oracle,
                             const std::vector<Query3>& queries,
                             const std::string& name) {
  CHECK_EQ(got.size(), oracle.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].count != oracle[i].count) {
      std::fprintf(stderr, "index %s query %zu: count %llu vs oracle %llu\n",
                   name.c_str(), i,
                   static_cast<unsigned long long>(got[i].count),
                   static_cast<unsigned long long>(oracle[i].count));
      CHECK_EQ(got[i].count, oracle[i].count);
    }
    if (queries[i].type() == quasii::QueryType::kKNearest) {
      // kNN order is part of the contract ((distance, id) ascending).
      CHECK(got[i].ids == oracle[i].ids);
    } else {
      std::vector<ObjectId> a = got[i].ids;
      std::vector<ObjectId> b = oracle[i].ids;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      CHECK(a == b);
    }
  }
}

void TestConcurrentQueriesMatchScanOracle() {
  Rng rng(17);
  const Box3 universe = MakeUniverse<3>();
  const Dataset3 data = RandomDataset<3>(&rng, universe, 3000);
  const std::vector<Query3> queries = MakeMixedQueries(&rng, universe, 180);

  // Sequential oracle: a fresh Scan, one thread.
  ScanIndex<3> scan(data);
  scan.Build();
  std::vector<Answer> oracle;
  for (const Query3& q : queries) oracle.push_back(RunQuery(&scan, q));

  TaskScheduler scheduler(kThreads - 1);
  const std::size_t chunk = (queries.size() + kThreads - 1) / kThreads;
  auto roster = MakeRoster(data, universe);
  for (auto& index : roster) {
    index->Build();
    const std::string name(index->name());
    // Cold pass: adaptive indexes crack under the exclusive lock while the
    // batch runs. Warm pass: the same queries again, now largely on the
    // shared (concurrent) path. Both must agree with the oracle.
    for (const char* pass : {" (cold)", " (warm)"}) {
      std::vector<Answer> got(queries.size());
      ParallelFor(&scheduler, 0, queries.size(), chunk,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      got[i] = RunQuery(index.get(), queries[i]);
                    }
                  });
      CheckBatchAgainstOracle(got, oracle, queries, name + pass);
    }
  }
}

void TestBatchesDeterministicAcrossPoolSizes() {
  Rng rng(19);
  const Box3 universe = MakeUniverse<3>();
  const Dataset3 data = RandomDataset<3>(&rng, universe, 1200);
  const std::vector<Query3> queries = MakeMixedQueries(&rng, universe, 90);
  std::vector<std::vector<Answer>> runs;
  for (const int threads : {1, 3, kThreads}) {
    QuasiiIndex<3>::Params p;
    p.leaf_threshold = 128;
    QuasiiIndex<3> index(data, p);
    index.Build();
    TaskScheduler scheduler(threads - 1);
    std::vector<Answer>& got = runs.emplace_back(queries.size());
    ParallelFor(&scheduler, 0, queries.size(),
                (queries.size() + static_cast<std::size_t>(threads) - 1) /
                    static_cast<std::size_t>(threads),
                [&](std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) {
                    got[i] = RunQuery(&index, queries[i]);
                  }
                });
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    CHECK_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      CHECK_EQ(runs[r][i].count, runs[0][i].count);
      if (queries[i].type() == quasii::QueryType::kKNearest) {
        // kNN order is canonical ((distance, id)), so it must match bitwise.
        CHECK(runs[r][i].ids == runs[0][i].ids);
      } else {
        // Range emission order follows the physical array order, which on a
        // cold adaptive index depends on which chunk cracked first — only
        // the result *set* is schedule-invariant.
        std::vector<ObjectId> a = runs[r][i].ids;
        std::vector<ObjectId> b = runs[0][i].ids;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        CHECK(a == b);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent disjoint read/write streams

void TestConcurrentReadWriteStreamsReachSequentialState() {
  Rng rng(23);
  const Box3 universe = MakeUniverse<3>();
  const std::size_t n = 1200;
  const Dataset3 data = RandomDataset<3>(&rng, universe, n);
  std::vector<Box3> footprints;
  for (int i = 0; i < 240; ++i) {
    footprints.push_back(RandomBox<3>(&rng, universe, 0.1));
  }
  WorkloadSpec spec;
  spec.mix.range = 0.5;
  spec.mix.point = 0.1;
  spec.mix.count = 0.1;
  spec.mix.insert = 0.2;
  spec.mix.erase = 0.1;
  spec.seed = 29;
  const auto streams = MakeThreadOpStreams<3>(footprints, spec, n, kThreads);
  CHECK_EQ(streams.size(), static_cast<std::size_t>(kThreads));

  // The streams' id spaces are disjoint by construction, so every mutation
  // is accepted whatever the interleaving and the final live set is the
  // sequential replay's. Build it (and count mutations) once.
  std::map<ObjectId, Box3> live;
  for (ObjectId id = 0; id < n; ++id) live[id] = data[id];
  std::size_t mutations = 0;
  for (const auto& stream : streams) {
    for (const Op3& op : stream) {
      if (op.kind() == OpKind::kInsert) {
        CHECK(live.find(op.id()) == live.end());
        live[op.id()] = op.box();
        ++mutations;
      } else if (op.kind() == OpKind::kErase) {
        CHECK(live.find(op.id()) != live.end());
        live.erase(op.id());
        ++mutations;
      }
    }
  }
  CHECK_GT(mutations, 0u);

  auto roster = MakeRoster(data, universe);
  for (auto& index : roster) {
    index->Build();
    const std::uint64_t version_before = index->store().version();
    TaskScheduler scheduler(kThreads - 1);
    TaskScheduler::Group group(&scheduler);
    std::atomic<std::size_t> accepted{0};
    for (const auto& stream : streams) {
      group.Run([&index, &stream, &accepted] {
        std::vector<ObjectId> ids;
        VectorSink vector_sink(&ids);
        CountSink count_sink;
        std::size_t ok = 0;
        for (const Op3& op : stream) {
          switch (op.kind()) {
            case OpKind::kInsert:
              ok += index->Insert(op.id(), op.box()) ? 1 : 0;
              break;
            case OpKind::kErase:
              ok += index->Erase(op.id()) ? 1 : 0;
              break;
            case OpKind::kQuery:
              if (op.query().type() == quasii::QueryType::kCount) {
                count_sink.Reset();
                index->Execute(op.query(), count_sink);
              } else {
                ids.clear();
                index->Execute(op.query(), vector_sink);
              }
              break;
            case OpKind::kJoin: {
              // This spec emits no join ops (no join source), but the
              // switch stays exhaustive for when one does.
              quasii::CountPairSink pair_sink;
              index->Execute(quasii::JoinQuery<3>(op.join_stream()),
                             pair_sink);
              break;
            }
            default:
              break;  // admin request kinds never appear in op streams
          }
        }
        accepted.fetch_add(ok);
      });
    }
    group.Wait();
    CHECK_EQ(accepted.load(), mutations);
    CHECK_EQ(index->store().live_count(), live.size());
    CHECK_EQ(index->store().version() - version_before,
             static_cast<std::uint64_t>(mutations));

    // Final state must answer like a brute-force pass over the live map.
    Rng probe_rng(31);
    for (int i = 0; i < 20; ++i) {
      const Box3 q = RandomBox<3>(&probe_rng, universe, 0.2);
      std::vector<ObjectId> expected;
      for (const auto& [id, box] : live) {
        if (box.Intersects(q)) expected.push_back(id);
      }
      std::vector<ObjectId> got;
      VectorSink sink(&got);
      index->Execute(RangeQuery<3>(q), sink);
      std::sort(got.begin(), got.end());
      CHECK(got == expected);
    }
  }
}

// ---------------------------------------------------------------------------
// ConvergedFor

void TestQuasiiConvergedForTracksRefinementAndMutations() {
  Rng rng(37);
  const Box3 universe = MakeUniverse<3>();
  const Dataset3 data = RandomDataset<3>(&rng, universe, 400);
  QuasiiIndex<3>::Params params;
  params.leaf_threshold = 64;
  QuasiiIndex<3> index(data, params);
  index.Build();
  const Query3 q = RangeQuery<3>(RandomBox<3>(&rng, universe, 0.2));

  // Uninitialized (and later unrefined) structure: not converged.
  CHECK(!index.ConvergedFor(q));
  std::vector<ObjectId> ids;
  VectorSink sink(&ids);
  index.Execute(q, sink);
  // The query refined its own path: re-running it is now a pure read.
  CHECK(index.ConvergedFor(q));

  // A pending insert parks convergence until the next query absorbs it.
  CHECK(index.Insert(static_cast<ObjectId>(data.size()),
                     RandomBox<3>(&rng, universe, 0.05)));
  CHECK(!index.ConvergedFor(q));
  ids.clear();
  index.Execute(q, sink);
  CHECK(index.ConvergedFor(q));

  // Enough tombstones to owe a compaction: not converged until one runs.
  for (ObjectId id = 0; id < 128; ++id) CHECK(index.Erase(id));
  CHECK(!index.ConvergedFor(q));
  ids.clear();
  index.Execute(q, sink);
  CHECK_EQ(index.array().tombstones(), 0u);  // compaction reclaimed them
  CHECK(index.ConvergedFor(q));

  // kNN stays conservative on adaptive indexes.
  CHECK(!index.ConvergedFor(KNearestQuery<3>(universe.Center(), 4)));
}

/// Skewed extents: converged shared-mode reads whose answers span both of
/// QUASII's extent classes run beside a writer inserting large objects,
/// which land in the large-object class and widen its half extent. The
/// reads mix points, ranges of 1e-2 of the data volume and random ranges,
/// which QUASII refines to different leaf limits (`LeafThresholds`), so
/// converged reads with different limits run side by side. Each read must
/// return its initial answer plus only inserted objects that match it; the
/// final state must match a brute-force pass.
void TestQuasiiSkewedExtentReadsBesideLargeInserts() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 1 << 15;
  dp.universe_size = 1000;
  dp.seed = 43;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  QuasiiIndex<3> index(data);
  Box3 universe;
  for (int d = 0; d < 3; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 1000;
  }
  Rng rng(47);
  const Box3 bounds = index.store().bounds();
  std::vector<Box3> reads;
  for (int i = 0; i < 48; ++i) {
    const Box3 b = RandomBox<3>(&rng, universe, 0.3);
    if (i % 3 == 0) {
      reads.emplace_back(b.Center(), b.Center());  // a point read
    } else if (i % 3 == 1) {
      Box3 r;  // 1e-2 of the data volume around `b`'s centre
      for (int d = 0; d < 3; ++d) {
        const Scalar half = 0.1077f * (bounds.hi[d] - bounds.lo[d]);
        r.lo[d] = b.Center()[d] - half;
        r.hi[d] = b.Center()[d] + half;
      }
      reads.push_back(r);
    } else {
      reads.push_back(b);
    }
  }
  const auto read_query = [](const Box3& b) {
    return b.lo == b.hi ? PointQuery<3>(b.lo) : RangeQuery<3>(b);
  };
  const auto brute = [](const std::vector<Box3>& boxes, ObjectId first,
                        const Box3& q, std::vector<ObjectId>* out) {
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      if (boxes[i].Intersects(q)) {
        out->push_back(first + static_cast<ObjectId>(i));
      }
    }
  };
  const auto is_large = [](const Box3& b) {
    Scalar side = 0;
    for (int d = 0; d < 3; ++d) side = std::max(side, b.Extent(d));
    return side > 16;
  };
  std::vector<std::vector<ObjectId>> expected(reads.size());
  bool small_hit = false;
  bool large_hit = false;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < reads.size(); ++i) {
      std::vector<ObjectId> got;
      VectorSink sink(&got);
      index.Execute(read_query(reads[i]), sink);
      if (pass == 1) CHECK(index.ConvergedFor(read_query(reads[i])));
      std::sort(got.begin(), got.end());
      expected[i].clear();
      brute(data, 0, reads[i], &expected[i]);
      CHECK(got == expected[i]);
      for (const ObjectId id : got) {
        (is_large(data[id]) ? large_hit : small_hit) = true;
      }
    }
  }
  CHECK_EQ(index.class_count(), 2u);
  CHECK(small_hit && large_hit);
  std::vector<std::size_t> limits;
  for (const Box3& b : reads) {
    limits.push_back(index.LeafThresholds(index.extent_class(0), b)[2]);
  }
  std::sort(limits.begin(), limits.end());
  CHECK_LT(limits.front(), limits.back());

  // Large inserts: sides 200-600, the later ones larger than any object so
  // far, so the large class's half extent grows while reads run.
  const ObjectId first = static_cast<ObjectId>(data.size());
  std::vector<Box3> inserts;
  for (int i = 0; i < 120; ++i) {
    const double side = 200 + 4 * i;
    Box3 b;
    for (int d = 0; d < 3; ++d) {
      const double centre = rng.Uniform(0, 1000);
      b.lo[d] = static_cast<Scalar>(centre - side / 2);
      b.hi[d] = static_cast<Scalar>(centre + side / 2);
    }
    inserts.push_back(b);
  }
  TaskScheduler scheduler(kThreads - 1);
  TaskScheduler::Group group(&scheduler);
  std::atomic<int> bad{0};
  for (int t = 0; t + 1 < kThreads; ++t) {
    group.Run([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t k = 0; k < reads.size(); ++k) {
          const std::size_t i =
              (k + static_cast<std::size_t>(t) * 7) % reads.size();
          std::vector<ObjectId> got;
          VectorSink sink(&got);
          index.Execute(read_query(reads[i]), sink);
          std::sort(got.begin(), got.end());
          std::vector<ObjectId> extra;
          std::set_difference(got.begin(), got.end(), expected[i].begin(),
                              expected[i].end(), std::back_inserter(extra));
          if (got.size() != expected[i].size() + extra.size()) ++bad;
          for (const ObjectId id : extra) {
            if (id < first || id - first >= inserts.size() ||
                !inserts[id - first].Intersects(reads[i])) {
              ++bad;
            }
          }
        }
      }
    });
  }
  group.Run([&] {
    for (std::size_t k = 0; k < inserts.size(); ++k) {
      if (!index.Insert(first + static_cast<ObjectId>(k), inserts[k])) ++bad;
    }
  });
  group.Wait();
  CHECK_EQ(bad.load(), 0);

  std::string why;
  if (!index.CheckInvariants(&why)) {
    std::fprintf(stderr, "CheckInvariants: %s\n", why.c_str());
    CHECK(false);
  }
  for (std::size_t i = 0; i < reads.size(); ++i) {
    std::vector<ObjectId> want;
    brute(data, 0, reads[i], &want);
    brute(inserts, first, reads[i], &want);
    std::vector<ObjectId> got;
    VectorSink sink(&got);
    index.Execute(read_query(reads[i]), sink);
    std::sort(got.begin(), got.end());
    CHECK(got == want);
  }
}

/// Insert folds beside readers, at 4 intra-query threads: one thread runs
/// insert-then-read cycles over both extent classes — its first tails are
/// large enough that a fold's `GroupByClass` swaps run as parallel morsels
/// — while three readers run range and count reads. Every read returns its
/// initial answer plus only matching inserted objects; afterwards every
/// answer matches Scan.
void TestQuasiiInsertFoldsBesideReaders() {
  const int prev = quasii::IntraQueryThreads();
  quasii::SetIntraQueryThreads(4);
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 8000;
  dp.universe_size = 1000;
  dp.seed = 53;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  QuasiiIndex<3> index(data);
  ScanIndex<3> scan(data);
  Box3 universe;
  for (int d = 0; d < 3; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 1000;
  }
  Rng rng(59);
  std::vector<Box3> reads;
  for (int i = 0; i < 24; ++i) {
    reads.push_back(RandomBox<3>(&rng, universe, 0.3));
  }
  std::vector<std::vector<ObjectId>> expected(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    VectorSink sink(&expected[i]);
    index.Execute(RangeQuery<3>(reads[i]), sink);
    std::sort(expected[i].begin(), expected[i].end());
  }
  CHECK_EQ(index.class_count(), 2u);

  // Four tails of 9000 rows, then 200 tails of 3; small (sides 1-10) and
  // large (sides 100-300) objects alternate. Folding the second 9000-row
  // tail onto the first regroups 4500 misplaced rows per side, more than
  // one morsel.
  const ObjectId first = static_cast<ObjectId>(data.size());
  std::vector<std::size_t> tails(4, 9000);
  tails.resize(204, 3);
  std::vector<Box3> inserts;
  for (const std::size_t tail : tails) {
    for (std::size_t k = 0; k < tail; ++k) {
      const bool large = inserts.size() % 2 == 1;
      const double side = large ? rng.Uniform(100, 300) : rng.Uniform(1, 10);
      Box3 b;
      for (int d = 0; d < 3; ++d) {
        const double centre = rng.Uniform(0, 1000);
        b.lo[d] = static_cast<Scalar>(centre - side / 2);
        b.hi[d] = static_cast<Scalar>(centre + side / 2);
      }
      inserts.push_back(b);
    }
  }
  std::vector<Box3> writer_reads;
  for (std::size_t i = 0; i < tails.size(); ++i) {
    writer_reads.push_back(RandomBox<3>(&rng, universe, 0.2));
  }

  TaskScheduler scheduler(kThreads - 1);
  TaskScheduler::Group group(&scheduler);
  std::atomic<bool> writing{true};
  std::atomic<int> bad{0};
  for (int t = 0; t + 1 < kThreads; ++t) {
    group.Run([&, t] {
      std::size_t k = static_cast<std::size_t>(t) * 5;
      for (int rounds = 0; writing.load() || rounds < 24; ++rounds, ++k) {
        const std::size_t i = k % reads.size();
        if (t == 0) {
          CountSink cs;
          index.Execute(CountQuery<3>(reads[i]), cs);
          if (cs.count() < expected[i].size()) ++bad;
          continue;
        }
        std::vector<ObjectId> got;
        VectorSink sink(&got);
        index.Execute(RangeQuery<3>(reads[i]), sink);
        std::sort(got.begin(), got.end());
        std::vector<ObjectId> extra;
        std::set_difference(got.begin(), got.end(), expected[i].begin(),
                            expected[i].end(), std::back_inserter(extra));
        if (got.size() != expected[i].size() + extra.size()) ++bad;
        for (const ObjectId id : extra) {
          if (id < first || id - first >= inserts.size() ||
              !inserts[id - first].Intersects(reads[i])) {
            ++bad;
          }
        }
      }
    });
  }
  // The writer runs on this thread, so the readers, which spin until it
  // finishes, cannot hold the threads it would need.
  std::size_t next = 0;
  for (std::size_t c = 0; c < tails.size(); ++c) {
    for (std::size_t k = 0; k < tails[c]; ++k, ++next) {
      if (!index.Insert(first + static_cast<ObjectId>(next), inserts[next])) {
        ++bad;
      }
    }
    std::vector<ObjectId> got;
    VectorSink sink(&got);
    index.Execute(RangeQuery<3>(writer_reads[c]), sink);
  }
  writing.store(false);
  group.Wait();
  CHECK_EQ(bad.load(), 0);

  for (std::size_t k = 0; k < inserts.size(); ++k) {
    CHECK(scan.Insert(first + static_cast<ObjectId>(k), inserts[k]));
  }
  std::string why;
  if (!index.CheckInvariants(&why)) {
    std::fprintf(stderr, "CheckInvariants: %s\n", why.c_str());
    CHECK(false);
  }
  CHECK(!index.fold_stack().empty());
  for (const Box3& q : reads) {
    std::vector<ObjectId> got;
    std::vector<ObjectId> want;
    VectorSink got_sink(&got);
    VectorSink want_sink(&want);
    index.Execute(RangeQuery<3>(q), got_sink);
    scan.Execute(RangeQuery<3>(q), want_sink);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    CHECK(got == want);
    CountSink got_count;
    index.Execute(CountQuery<3>(q), got_count);
    CHECK_EQ(got_count.count(), want.size());
  }
  quasii::SetIntraQueryThreads(prev);
}

/// Declined shared attempts under load, at 4 intra-query threads: three
/// readers run range, count, point and two-term conjunction reads while a
/// writer inserts (leaving pending tails) and erases (until a compaction is
/// due), so many shared attempts decline part-way or at once and rerun
/// under the exclusive lock. Each round, every concurrent answer must lie
/// between the round-start answer without the objects erased in the round
/// and the round-start answer with the objects inserted in it; at each
/// quiescent point between rounds every answer must equal Scan's, and
/// `CheckInvariants` must hold.
void TestQuasiiDeclinedReadsBesideMutations() {
  const int prev = quasii::IntraQueryThreads();
  quasii::SetIntraQueryThreads(4);
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 8000;
  dp.universe_size = 1000;
  dp.seed = 61;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  QuasiiIndex<3> index(data);
  ScanIndex<3> scan(data);
  Box3 universe;
  for (int d = 0; d < 3; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 1000;
  }
  Rng rng(67);
  std::vector<Query3> reads;
  for (int i = 0; i < 32; ++i) {
    const Box3 b = RandomBox<3>(&rng, universe, 0.25);
    switch (i % 4) {
      case 0:
        reads.push_back(RangeQuery<3>(b));
        break;
      case 1:
        reads.push_back(CountQuery<3>(b));
        break;
      case 2:
        reads.push_back(PointQuery<3>(b.Center()));
        break;
      default:
        reads.push_back(ConjunctiveQuery<3>(std::vector<ConjunctiveTerm<3>>{
            {b, RangePredicate::kIntersects},
            {RandomBox<3>(&rng, universe, 0.6),
             RangePredicate::kContainedBy}}));
        break;
    }
  }
  const auto matches = [](const Query3& q, const Box3& b) {
    switch (q.type()) {
      case quasii::QueryType::kPoint:
        return b.Intersects(Box3(q.point(), q.point()));
      case quasii::QueryType::kConjunction:
        for (const ConjunctiveTerm<3>& t : q.terms()) {
          if (!quasii::MatchesPredicate(b, t.box, t.predicate)) return false;
        }
        return true;
      default:
        return quasii::MatchesPredicate(b, q.box(), q.predicate());
    }
  };
  // Sorted ids, or for a count query the count alone.
  const auto answer = [](SpatialIndex<3>& idx, const Query3& q) {
    std::vector<ObjectId> out;
    if (q.type() == quasii::QueryType::kCount) {
      CountSink cs;
      idx.Execute(q, cs);
      out.push_back(static_cast<ObjectId>(cs.count()));
      return out;
    }
    VectorSink sink(&out);
    idx.Execute(q, sink);
    std::sort(out.begin(), out.end());
    return out;
  };

  // Each round inserts 500 new objects and erases 900 live ones: in the
  // third round the tombstones reach a quarter of the rows, so a compaction
  // falls due, and the inserts leave pending tails between the writer's own
  // reads.
  ObjectId next = static_cast<ObjectId>(data.size());
  for (int round = 0; round < 4; ++round) {
    for (const Query3& q : reads) CHECK(answer(index, q) == answer(scan, q));
    std::vector<std::vector<ObjectId>> base(reads.size());
    for (std::size_t i = 0; i < reads.size(); ++i) {
      base[i] = answer(scan, reads[i]);
    }
    std::vector<std::pair<ObjectId, Box3>> inserts;
    for (int k = 0; k < 500; ++k) {
      inserts.emplace_back(next++, RandomBox<3>(&rng, universe, 0.02));
    }
    std::vector<ObjectId> erases;
    for (ObjectId id = 0; id < next && erases.size() < 900; ++id) {
      if (scan.store().alive(id) && rng.Uniform(0, 1) < 0.2) {
        erases.push_back(id);
      }
    }
    // Per read: the round's erased and inserted objects that match it.
    std::vector<std::vector<ObjectId>> lost(reads.size());
    std::vector<std::vector<ObjectId>> gained(reads.size());
    for (std::size_t i = 0; i < reads.size(); ++i) {
      for (const ObjectId id : erases) {
        if (matches(reads[i], scan.store().box(id))) lost[i].push_back(id);
      }
      for (const auto& [id, b] : inserts) {
        if (matches(reads[i], b)) gained[i].push_back(id);
      }
    }

    TaskScheduler scheduler(kThreads - 1);
    TaskScheduler::Group group(&scheduler);
    std::atomic<bool> writing{true};
    std::atomic<int> started{0};
    std::atomic<int> bad{0};
    for (int t = 0; t + 1 < kThreads; ++t) {
      group.Run([&, t] {
        ++started;
        std::size_t k = static_cast<std::size_t>(t) * 11;
        for (int n = 0; writing.load() || n < 32; ++n, ++k) {
          const std::size_t i = k % reads.size();
          const std::vector<ObjectId> got = answer(index, reads[i]);
          if (reads[i].type() == quasii::QueryType::kCount) {
            if (got[0] + lost[i].size() < base[i][0] ||
                got[0] > base[i][0] + gained[i].size()) {
              ++bad;
            }
            continue;
          }
          // base \ lost <= got <= base + gained
          std::vector<ObjectId> missing;
          std::set_difference(base[i].begin(), base[i].end(), got.begin(),
                              got.end(), std::back_inserter(missing));
          for (const ObjectId id : missing) {
            if (std::find(lost[i].begin(), lost[i].end(), id) ==
                lost[i].end()) {
              ++bad;
            }
          }
          std::vector<ObjectId> extra;
          std::set_difference(got.begin(), got.end(), base[i].begin(),
                              base[i].end(), std::back_inserter(extra));
          for (const ObjectId id : extra) {
            if (std::find(gained[i].begin(), gained[i].end(), id) ==
                gained[i].end()) {
              ++bad;
            }
          }
        }
      });
    }
    // The writer runs on this thread, so the readers, which spin until it
    // finishes, cannot hold the threads it would need. It starts once every
    // reader runs, yields after each mutation so reads land between them,
    // and reads after every 50 inserts, which absorbs the pending tail (or
    // compacts) under the exclusive lock.
    while (started.load() < kThreads - 1) std::this_thread::yield();
    std::size_t e = 0;
    for (std::size_t k = 0; k < inserts.size(); ++k) {
      if (!index.Insert(inserts[k].first, inserts[k].second)) ++bad;
      for (int j = 0; j < 2 && e < erases.size(); ++j, ++e) {
        if (!index.Erase(erases[e])) ++bad;
      }
      std::this_thread::yield();
      if (k % 50 == 49) answer(index, reads[k % reads.size()]);
    }
    for (; e < erases.size(); ++e) {
      if (!index.Erase(erases[e])) ++bad;
    }
    writing.store(false);
    group.Wait();
    CHECK_EQ(bad.load(), 0);

    for (const auto& [id, b] : inserts) CHECK(scan.Insert(id, b));
    for (const ObjectId id : erases) CHECK(scan.Erase(id));
    std::string why;
    if (!index.CheckInvariants(&why)) {
      std::fprintf(stderr, "CheckInvariants: %s\n", why.c_str());
      CHECK(false);
    }
  }
  for (const Query3& q : reads) CHECK(answer(index, q) == answer(scan, q));
  // Fewer rows than were ever appended: a compaction dropped the dead.
  CHECK_LT(index.array().size(), static_cast<std::size_t>(next));
  CHECK(!index.fold_stack().empty());
  quasii::SetIntraQueryThreads(prev);
}

/// What the shared-lock attempt relies on, for every roster index: a
/// range, a point and a kNN query answer like Scan, and running them again
/// adds no `cracks` or `objects_moved` — the static indexes never
/// reorganize once built, and the adaptive ones have refined what the
/// queries touch.
void TestRerunsMatchScanAndCrackNothing() {
  Rng rng(41);
  const Box3 universe = MakeUniverse<3>();
  const Dataset3 data = RandomDataset<3>(&rng, universe, 300);
  const Box3 box = RandomBox<3>(&rng, universe, 0.2);
  const std::vector<Query3> queries = {RangeQuery<3>(box),
                                       PointQuery<3>(box.Center()),
                                       KNearestQuery<3>(universe.Center(), 4)};
  ScanIndex<3> scan(data);
  for (auto& index : MakeRoster(data, universe)) {
    index->Build();
    for (int pass = 0; pass < 2; ++pass) {
      const auto before = index->stats();
      for (const Query3& q : queries) {
        Answer got = RunQuery(index.get(), q);
        Answer want = RunQuery(&scan, q);
        if (q.type() != quasii::QueryType::kKNearest) {
          std::sort(got.ids.begin(), got.ids.end());
          std::sort(want.ids.begin(), want.ids.end());
        }
        CHECK(got.ids == want.ids);
      }
      if (pass == 1) {
        CHECK_EQ(index->stats().cracks, before.cracks);
        CHECK_EQ(index->stats().objects_moved, before.objects_moved);
      }
    }
  }
}

}  // namespace

int main() {
  RUN_TEST(TestRngSplitStreamsIndependent);
  RUN_TEST(TestRngSplitIsStableAndSeedBased);
  RUN_TEST(TestSchedulerGroupRunsEverythingAndWaits);
  RUN_TEST(TestSchedulerWorkersHoldDistinctStatsSlots);
  RUN_TEST(TestObjectStoreVersionTicksPerAcceptedMutation);
  RUN_TEST(TestStatsMergeAcrossConcurrentThreads);
  RUN_TEST(TestConcurrentQueriesMatchScanOracle);
  RUN_TEST(TestBatchesDeterministicAcrossPoolSizes);
  RUN_TEST(TestConcurrentReadWriteStreamsReachSequentialState);
  RUN_TEST(TestQuasiiConvergedForTracksRefinementAndMutations);
  RUN_TEST(TestQuasiiSkewedExtentReadsBesideLargeInserts);
  RUN_TEST(TestQuasiiInsertFoldsBesideReaders);
  RUN_TEST(TestQuasiiDeclinedReadsBesideMutations);
  RUN_TEST(TestRerunsMatchScanAndCrackNothing);
  return 0;
}
