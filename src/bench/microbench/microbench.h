#ifndef QUASII_BENCH_MICROBENCH_MICROBENCH_H_
#define QUASII_BENCH_MICROBENCH_MICROBENCH_H_

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench.h"
#include "bench/json.h"
#include "bench/workload.h"
#include "common/bytes.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/request.h"
#include "common/simd.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "geometry/box.h"
#include "quasii/quasii_index.h"
#include "scan/scan_index.h"
#include "sfc/sfcracker_index.h"

namespace quasii::bench {

/// The perf-trajectory microbenchmark: the two incremental indexes (QUASII,
/// SFCracker) plus the Scan baseline over the Section 6.1 configurations at
/// n = 2^min_exp .. 2^max_exp. Its `BENCH_quasii.json` report is the
/// baseline every perf PR diffs against: first-query cost, the per-query
/// convergence curve, cumulative crack/move counters, and total query time.
/// The "mixed" workload (70% range / 20% point / 5% count / 5% kNN through
/// the typed engine) measures whether QUASII's convergence survives
/// heterogeneous workloads — the paper's §7 open question — and the
/// "readwrite" workload interleaves inserts and erases with the queries
/// (55/15/5/5/15/5), measuring incremental maintenance under a shifting
/// population. Schema v3 added the insert/erase per-op-type sections and a
/// `post_workload` verification block (every range query of the stream
/// re-run after the mutations, with an order-sensitive checksum that must
/// agree across the roster). Schema v4 adds the `scaling` block on the
/// uniform-workload QUASII results: aggregate query throughput of the
/// *converged* index at 1/2/4/8 pool threads (the whole query stream,
/// repeated to a measurable batch size, one chunk per thread), the
/// measurement behind the multi-threaded execution layer's acceptance bar.
/// Schema v5 adds the `join` per-op-type section everywhere and the "join"
/// workload: repeated self-joins per index, the measurement behind the
/// crack-driven join's acceptance bar (QUASII must produce the same pairs
/// as Scan's nested loop while testing far fewer objects, and converge —
/// later rounds add no cracks). The join workload is quadratic for the
/// Scan baseline, so it belongs to CI-sized exponents, not the default
/// full-size matrix. Schema v6 adds the `recovery` block on the
/// uniform-workload QUASII results: the converged index is snapshotted
/// (`src/persist/`), recovered into a fresh instance, and re-queried — the
/// durability acceptance bar is `replay_cracks == 0` (the restored slice
/// hierarchy is already converged) with a matching result checksum.
/// Schema v7 adds `bytes_scanned` to every stats object, the `simd_tier`
/// option, and the `ab` block on the uniform-workload QUASII results:
/// interleaved A/B reruns of the converged read stream comparing the scalar
/// vs native SIMD tier, with checksum/counter equality verdicts — the
/// measurement behind the explicit SIMD kernel layer's acceptance bar.
/// Schema v9 (v8 is skipped so the microbench and bench driver schemas stay
/// aligned) adds the "parallel" entry to the `ab` block — cold-start
/// first-query cost at 1 vs 8 intra-query exec threads over fresh indexes,
/// with checksum/counter equality plus a `content_match` verdict that the
/// parallel run produced the bit-identical physical crack structure — and
/// records the `exec_threads` / `grain` morsel-execution options. Schema
/// v10 drops the packed-column `memory` block, the "packed" A/B entry and
/// the `packing_enabled` option: leaf scans read the raw columns only.
struct MicrobenchOptions {
  int min_exp = 17;
  int max_exp = 20;
  int queries = 1000;
  std::uint64_t seed = 1;
  /// Subset of {"uniform", "clustered", "mixed", "readwrite", "join"};
  /// uniform + clustered + readwrite when empty (the committed-baseline
  /// matrix).
  std::vector<std::string> workloads;
};

/// One point of an index's convergence curve, sampled at geometrically
/// spaced operation counts (1, 2, 4, ..., total) so early refinement and
/// steady state are both visible at a glance.
struct ConvergencePoint {
  int query = 0;  // 1-based index of the operation just executed
  double cumulative_ms = 0;
  std::uint64_t cumulative_cracks = 0;
  std::uint64_t cumulative_objects_moved = 0;
};

/// Post-workload verification: every range query of the stream re-run once
/// the mutations have landed. `checksum` folds each query's sorted result
/// ids through FNV-1a in stream order, so any per-query divergence across
/// the roster changes it.
struct PostWorkload {
  std::uint64_t queries = 0;
  std::uint64_t result_objects = 0;
  std::uint64_t checksum = 0;
};

/// One point of the converged-throughput scaling curve.
struct ScalingPoint {
  int threads = 0;
  int rounds = 0;
  std::uint64_t queries = 0;  // total executed: stream queries × rounds
  double wall_ms = 0;
  double queries_per_s = 0;
};

/// Measures aggregate query throughput of the (already converged) index at
/// 1/2/4/8 batch threads (scheduler workers plus the helping caller): the
/// read-only query stream, repeated to a measurable batch size, cut into
/// one contiguous chunk per thread (`ParallelFor`), each query's ids in its
/// own slot — so converged QUASII executions take the shared-lock path and
/// scale with threads. Wall-clock only; the index's reported work counters
/// were captured before this runs. Speedups are only meaningful on machines
/// with that many hardware threads (the report records throughput, not a
/// verdict).
inline std::vector<ScalingPoint> MeasureScaling(SpatialIndex<3>* index,
                                                const std::vector<Op3>& ops) {
  std::vector<Query3> queries;
  queries.reserve(ops.size());
  for (const Op3& op : ops) {
    if (op.kind() == OpKind::kQuery) queries.push_back(op.query());
  }
  std::vector<ScalingPoint> points;
  if (queries.empty()) return points;
  // Repeat the stream so each measurement is a sizeable batch: short runs
  // would time worker wake-up, not query execution — and the CI scaling
  // check gates on the 8-vs-1-thread ratio, so the window must be long
  // enough for runner noise to average out.
  constexpr std::size_t kTargetQueries = 32768;
  const int rounds = static_cast<int>(
      std::max<std::size_t>(1, kTargetQueries / queries.size()));
  for (const int threads : {1, 2, 4, 8}) {
    TaskScheduler scheduler(threads - 1);
    const std::size_t chunk =
        (queries.size() + static_cast<std::size_t>(threads) - 1) /
        static_cast<std::size_t>(threads);
    Timer wall;
    for (int r = 0; r < rounds; ++r) {
      std::vector<std::vector<ObjectId>> ids(queries.size());
      ParallelFor(&scheduler, 0, queries.size(), chunk,
                  [&](std::size_t begin, std::size_t end) {
                    CountSink count;
                    for (std::size_t i = begin; i < end; ++i) {
                      if (queries[i].type() == QueryType::kCount) {
                        count.Reset();
                        index->Execute(queries[i], count);
                      } else {
                        VectorSink sink(&ids[i]);
                        index->Execute(queries[i], sink);
                      }
                    }
                  });
    }
    ScalingPoint p;
    p.threads = threads;
    p.rounds = rounds;
    p.queries = queries.size() * static_cast<std::size_t>(rounds);
    p.wall_ms = wall.Millis();
    p.queries_per_s = p.wall_ms > 0
                          ? static_cast<double>(p.queries) * 1000.0 / p.wall_ms
                          : 0;
    points.push_back(p);
  }
  return points;
}

/// The snapshot→recover round trip of a converged index (QUASII on the
/// uniform configs): how big the snapshot is, what saving and recovering
/// cost, and the two durability acceptance checks — a recovered index must
/// answer the workload's range queries with the identical checksum while
/// performing zero cracks (its restored structure is already converged).
struct RecoveryPoint {
  std::uint64_t snapshot_bytes = 0;
  double save_ms = 0;
  double recover_ms = 0;
  std::uint64_t replay_queries = 0;
  std::uint64_t replay_cracks = 0;
  bool checksum_match = false;
  bool ok = false;  // snapshot + recovery both succeeded
};

/// One interleaved A/B comparison over the converged read stream: mode A and
/// mode B alternate pass-by-pass (A,B,A,B,...) so drift hits both equally,
/// and each mode's median pass time is reported. A final untimed pass per
/// mode verifies that results (stream checksum) and work counters are
/// bit-identical across modes — the kernels must differ in speed only.
struct AbResult {
  std::string name;    // "simd" or "parallel"
  std::string mode_a;  // e.g. "scalar" / "threads=1"
  std::string mode_b;  // e.g. "avx2" / "threads=8"
  double a_median_ms = 0;
  double b_median_ms = 0;
  double speedup = 0;  // a_median / b_median: how much faster B runs
  int rounds = 0;      // timed passes per mode
  int a_threads = 0;   // intra-query exec threads per mode ("parallel" only)
  int b_threads = 0;
  bool checksum_match = false;
  bool counters_match = false;
  /// Physical-structure verdict: a digest of the index's serialized
  /// structure (crack columns, slice boundaries) agrees across modes. The
  /// simd comparison runs on one already-converged index, so there
  /// it holds by construction; the "parallel" comparison cracks two fresh
  /// indexes and must reproduce the *same physical layout* either way.
  bool content_match = true;
};

/// One timed pass of the workload's range queries (results accumulated, not
/// sorted or digested — this times query execution, nothing else).
inline double TimeRangePass(SpatialIndex<3>* index,
                            const std::vector<Op3>& ops) {
  std::vector<ObjectId> ids;
  VectorSink sink(&ids);
  Timer t;
  for (const Op3& op : ops) {
    if (op.kind() != OpKind::kQuery) continue;
    if (op.query().type() != QueryType::kRange) {
      continue;
    }
    ids.clear();
    index->Execute(op.query(), sink);
  }
  return t.Millis();
}

inline double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// Timed passes per A/B mode (interleaved, so 2x this many passes total).
constexpr int kAbRounds = 5;

/// Order-sensitive FNV-1a fold over every range query's sorted result ids —
/// the same digest `RunMicro`'s post-workload pass computes.
inline std::uint64_t RangeQueryChecksum(
    SpatialIndex<3>* index, const std::vector<Op3>& ops,
    std::uint64_t* queries_out, std::uint64_t* result_objects_out = nullptr) {
  std::vector<ObjectId> ids;
  VectorSink id_sink(&ids);
  std::uint64_t checksum = 14695981039346656037ull;  // FNV-1a offset basis
  const auto fnv = [&checksum](std::uint64_t v) {
    checksum = (checksum ^ v) * 1099511628211ull;
  };
  for (const Op3& op : ops) {
    if (op.kind() != OpKind::kQuery) continue;
    if (op.query().type() != QueryType::kRange) {
      continue;
    }
    ids.clear();
    index->Execute(op.query(), id_sink);
    std::sort(ids.begin(), ids.end());
    fnv(ids.size());
    for (const ObjectId id : ids) fnv(id);
    if (queries_out != nullptr) ++*queries_out;
    if (result_objects_out != nullptr) *result_objects_out += ids.size();
  }
  return checksum;
}

/// Snapshots the (converged) index, recovers it into `fresh`, and replays
/// the workload's range queries against the recovered instance. The
/// snapshot lands at `snapshot_path` and is deleted before returning.
inline RecoveryPoint MeasureRecovery(const SpatialIndex<3>& converged,
                                     SpatialIndex<3>* fresh,
                                     const std::vector<Op3>& ops,
                                     std::uint64_t expected_checksum,
                                     const std::string& snapshot_path) {
  RecoveryPoint point;
  Timer save_timer;
  const persist::PersistError serr =
      persist::WriteSnapshot<3>(converged, snapshot_path,
                                &point.snapshot_bytes);
  point.save_ms = save_timer.Millis();
  if (serr != persist::PersistError::kNone) return point;

  Timer recover_timer;
  const persist::RecoveryResult rec =
      persist::RecoverIndex<3>(fresh, snapshot_path, /*wal_path=*/"");
  point.recover_ms = recover_timer.Millis();
  std::remove(snapshot_path.c_str());
  if (!rec.ok()) return point;
  point.ok = true;

  fresh->ResetStats();
  const std::uint64_t replayed =
      RangeQueryChecksum(fresh, ops, &point.replay_queries);
  point.replay_cracks = fresh->stats().cracks;
  point.checksum_match = replayed == expected_checksum;
  return point;
}

/// Runs one interleaved A/B comparison on a converged QUASII index.
/// `setup_a` / `setup_b` flip the execution mode (SIMD tier) before each
/// pass; the caller restores its preferred mode after.
/// The index must already be converged for `ops` — the verification passes
/// require `cracks == 0` in both modes, so any reorganization fails the
/// `counters_match` verdict.
template <typename SetupA, typename SetupB>
inline AbResult MeasureAb(QuasiiIndex<3>* index, const std::vector<Op3>& ops,
                          std::uint64_t expected_checksum, const char* name,
                          const char* mode_a, SetupA setup_a,
                          const char* mode_b, SetupB setup_b) {
  AbResult r;
  r.name = name;
  r.mode_a = mode_a;
  r.mode_b = mode_b;
  r.rounds = kAbRounds;
  std::vector<double> a_ms;
  std::vector<double> b_ms;
  for (int i = 0; i < kAbRounds; ++i) {
    setup_a();
    a_ms.push_back(TimeRangePass(index, ops));
    setup_b();
    b_ms.push_back(TimeRangePass(index, ops));
  }
  setup_a();
  index->ResetStats();
  std::uint64_t queries_a = 0;
  const std::uint64_t sum_a = RangeQueryChecksum(index, ops, &queries_a);
  const QueryStats stats_a = index->stats();
  setup_b();
  index->ResetStats();
  std::uint64_t queries_b = 0;
  const std::uint64_t sum_b = RangeQueryChecksum(index, ops, &queries_b);
  const QueryStats stats_b = index->stats();
  r.checksum_match = sum_a == expected_checksum && sum_b == expected_checksum;
  r.counters_match = stats_a.objects_tested == stats_b.objects_tested &&
                     stats_a.partitions_visited == stats_b.partitions_visited &&
                     stats_a.cracks == 0 && stats_b.cracks == 0;
  r.a_median_ms = MedianOf(a_ms);
  r.b_median_ms = MedianOf(b_ms);
  r.speedup = r.b_median_ms > 0 ? r.a_median_ms / r.b_median_ms : 0;
  return r;
}

/// Cold-start first-query cost: a fresh QUASII index over `data`, then the
/// stream's first range query executed once — the §6.2 index-building spike
/// the morsel-parallel cracking path attacks. Returns 0 when the stream has
/// no range query.
inline double TimeColdFirstQuery(const Dataset3& data,
                                 const std::vector<Op3>& ops) {
  const Op3* first = nullptr;
  for (const Op3& op : ops) {
    if (op.kind() == OpKind::kQuery &&
        op.query().type() == QueryType::kRange) {
      first = &op;
      break;
    }
  }
  if (first == nullptr) return 0;
  QuasiiIndex<3> index(data);
  index.Build();
  std::vector<ObjectId> ids;
  VectorSink sink(&ids);
  Timer t;
  index.Execute(first->query(), sink);
  return t.Millis();
}

/// Full-stream verification state for one intra-query thread count: a fresh
/// index cracked by the whole workload, digested three ways.
struct ParallelVerify {
  std::uint64_t checksum = 0;   // post-workload range-query checksum
  std::uint64_t structure = 0;  // FNV over the serialized crack structure
  QueryStats stats;             // cumulative work counters
};

inline ParallelVerify RunParallelVerify(const Dataset3& data,
                                        const std::vector<Op3>& ops) {
  QuasiiIndex<3> index(data);
  index.Build();
  index.ResetStats();
  ParallelVerify v;
  std::uint64_t queries = 0;
  v.checksum = RangeQueryChecksum(&index, ops, &queries);
  v.stats = index.stats();
  std::string blob;
  ByteWriter w(&blob);
  if (index.SerializeStructure(w)) {
    v.structure = FnvBytes(kFnvBasis, blob);
  }
  return v;
}

/// The intra-query parallelism A/B: cold-start first-query time at 1 vs 8
/// exec threads, interleaved pass-by-pass over fresh indexes, plus a full
/// verification workload per mode. Parallel cracking must be *scheduling
/// only*: identical result checksums, identical crack/objects_tested/
/// objects_moved counters, and a bit-identical physical structure (the
/// serialized crack columns + slice boundaries). A `QUASII_EXEC_THREADS`
/// env cap may clamp the parallel arm back to 1 thread (the force-serial
/// CI job); the equality verdicts must hold regardless, the speedup only
/// means anything when `b_threads` really exceeds 1 and cores exist.
inline AbResult MeasureParallelAb(const Dataset3& data,
                                  const std::vector<Op3>& ops,
                                  std::uint64_t expected_checksum) {
  AbResult r;
  r.name = "parallel";
  r.rounds = kAbRounds;
  const int restore = IntraQueryThreads();
  r.a_threads = 1;
  r.b_threads = SetIntraQueryThreads(8);  // env cap may clamp below 8
  r.mode_a = "threads=" + std::to_string(r.a_threads);
  r.mode_b = "threads=" + std::to_string(r.b_threads);
  std::vector<double> a_ms;
  std::vector<double> b_ms;
  for (int i = 0; i < kAbRounds; ++i) {
    SetIntraQueryThreads(r.a_threads);
    a_ms.push_back(TimeColdFirstQuery(data, ops));
    SetIntraQueryThreads(r.b_threads);
    b_ms.push_back(TimeColdFirstQuery(data, ops));
  }
  SetIntraQueryThreads(r.a_threads);
  const ParallelVerify va = RunParallelVerify(data, ops);
  SetIntraQueryThreads(r.b_threads);
  const ParallelVerify vb = RunParallelVerify(data, ops);
  SetIntraQueryThreads(restore);
  r.checksum_match =
      va.checksum == expected_checksum && vb.checksum == expected_checksum;
  r.counters_match = va.stats.cracks == vb.stats.cracks &&
                     va.stats.objects_tested == vb.stats.objects_tested &&
                     va.stats.objects_moved == vb.stats.objects_moved;
  r.content_match = va.structure == vb.structure && va.structure != 0;
  r.a_median_ms = MedianOf(a_ms);
  r.b_median_ms = MedianOf(b_ms);
  r.speedup = r.b_median_ms > 0 ? r.a_median_ms / r.b_median_ms : 0;
  return r;
}

/// Per-index microbench measurement (a superset of `IndexRun`'s fields,
/// shaped for convergence analysis instead of raw latency dumps).
struct MicroRun {
  std::string name;
  double build_ms = 0;
  double first_query_ms = 0;
  double total_query_ms = 0;
  /// Mean latency over the last 10% of queries — the converged cost.
  double steady_tail_mean_ms = 0;
  std::uint64_t result_objects = 0;
  QueryStats cumulative;
  std::array<TypeBreakdown, kNumOpTypes> per_type;
  std::vector<ConvergencePoint> convergence;
  PostWorkload post_workload;
};

/// The microbench roster: the §6.3 incremental-index comparison plus the
/// index-less baseline.
inline std::vector<std::unique_ptr<SpatialIndex<3>>> MakeMicrobenchRoster(
    const Dataset3& data, const Box3& universe) {
  std::vector<std::unique_ptr<SpatialIndex<3>>> roster;
  roster.push_back(std::make_unique<ScanIndex<3>>(data));
  roster.push_back(std::make_unique<SfcrackerIndex<3>>(data, universe));
  roster.push_back(std::make_unique<QuasiiIndex<3>>(data));
  return roster;
}

/// Rounds of the join-workload scenario: the first self-join cracks (or
/// scans), the remaining ones measure the converged join cost — enough
/// points for the convergence curve to show the drop without paying the
/// quadratic Scan baseline more often than necessary.
constexpr int kJoinRounds = 4;

/// The join scenario: `kJoinRounds` repeated index-vs-itself joins through
/// `Execute(Query, PairSink&)`, shaped into the `MicroRun` schema — the
/// convergence points sample every round, `first_query_ms` is the cracking
/// round, `steady_tail_mean_ms` the last (converged) one, and all work
/// lands in the `join` per-type section. `result_objects` accumulates
/// canonical pair counts, which must agree across the roster.
inline MicroRun RunJoinMicro(SpatialIndex<3>* index) {
  MicroRun run;
  run.name = std::string(index->name());
  Timer build_timer;
  index->Build();
  run.build_ms = build_timer.Millis();
  index->ResetStats();

  const Query3 q = JoinQuery<3>(*index);
  CountPairSink pairs;
  TypeBreakdown& agg = run.per_type[static_cast<std::size_t>(kTypeJoin)];
  for (int r = 0; r < kJoinRounds; ++r) {
    const QueryStats before = index->thread_stats();
    pairs.Reset();
    Timer t;
    index->Execute(q, pairs);
    const double ms = t.Millis();
    run.total_query_ms += ms;
    run.result_objects += pairs.count();
    if (r == 0) run.first_query_ms = ms;
    if (r == kJoinRounds - 1) run.steady_tail_mean_ms = ms;
    ++agg.queries;
    agg.total_ms += ms;
    agg.result_objects += pairs.count();
    agg.stats += index->thread_stats() - before;
    ConvergencePoint p;
    p.query = r + 1;
    p.cumulative_ms = run.total_query_ms;
    p.cumulative_cracks = index->stats().cracks;
    p.cumulative_objects_moved = index->stats().objects_moved;
    run.convergence.push_back(p);
  }
  run.cumulative = index->stats();
  return run;
}

inline MicroRun RunMicro(SpatialIndex<3>* index, const std::vector<Op3>& ops) {
  MicroRun run;
  run.name = std::string(index->name());
  Timer build_timer;
  index->Build();
  run.build_ms = build_timer.Millis();
  index->ResetStats();

  RunSinks sinks;
  int next_sample = 1;
  bool first_query_recorded = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TimedExec exec = RunTimedOp(index, ops[i], &sinks, &run.per_type);
    run.total_query_ms += exec.ms;
    run.result_objects += exec.results;
    // The first *query* (mutations before it are cheap appends and don't
    // initialize an incremental index) — the §6.2 index-building cost.
    if (!first_query_recorded && ops[i].kind() == OpKind::kQuery) {
      run.first_query_ms = exec.ms;
      first_query_recorded = true;
    }
    const int done = static_cast<int>(i) + 1;
    if (done == next_sample || i + 1 == ops.size()) {
      ConvergencePoint p;
      p.query = done;
      p.cumulative_ms = run.total_query_ms;
      p.cumulative_cracks = index->stats().cracks;
      p.cumulative_objects_moved = index->stats().objects_moved;
      run.convergence.push_back(p);
      while (next_sample <= done) next_sample *= 2;
    }
  }

  run.cumulative = index->stats();
  // Converged per-query cost: repeat the queries of the last 10% of the
  // stream once more. Those regions are fully refined now, so this measures
  // steady state without polluting the totals recorded above (the per-type
  // counters do absorb the re-run's stats deltas into a scratch copy, not
  // the report). Mutations are skipped: replaying an insert/erase would be
  // rejected by the store, and the tail is about query cost.
  const std::size_t tail = std::max<std::size_t>(1, ops.size() / 10);
  std::array<TypeBreakdown, kNumOpTypes> scratch{};
  double tail_ms = 0;
  std::size_t tail_queries = 0;
  for (std::size_t i = ops.size() - tail; i < ops.size(); ++i) {
    if (ops[i].kind() != OpKind::kQuery) continue;
    tail_ms += RunTimedOp(index, ops[i], &sinks, &scratch).ms;
    ++tail_queries;
  }
  run.steady_tail_mean_ms =
      tail_queries > 0 ? tail_ms / static_cast<double>(tail_queries) : 0;

  // Post-workload verification pass: the final state answers every range
  // query of the stream; its checksum must agree across the roster (and
  // with the recovered instance's replay in `MeasureRecovery`).
  run.post_workload.checksum =
      RangeQueryChecksum(index, ops, &run.post_workload.queries,
                         &run.post_workload.result_objects);
  return run;
}

inline void WriteMicroRun(
    JsonWriter* w, const MicroRun& run,
    const std::vector<ScalingPoint>* scaling = nullptr,
    const RecoveryPoint* recovery = nullptr,
    const std::vector<AbResult>* ab = nullptr) {
  w->BeginObject();
  w->Key("index").String(run.name);
  w->Key("build_ms").Double(run.build_ms);
  w->Key("first_query_ms").Double(run.first_query_ms);
  w->Key("total_query_ms").Double(run.total_query_ms);
  w->Key("steady_tail_mean_ms").Double(run.steady_tail_mean_ms);
  w->Key("result_objects").Uint(run.result_objects);
  w->Key("cumulative_stats");
  WriteStats(w, run.cumulative);
  w->Key("per_type");
  WriteTypeBreakdown(w, run.per_type);
  w->Key("post_workload").BeginObject();
  w->Key("queries").Uint(run.post_workload.queries);
  w->Key("result_objects").Uint(run.post_workload.result_objects);
  w->Key("checksum").Uint(run.post_workload.checksum);
  w->EndObject();
  w->Key("convergence").BeginArray();
  for (const ConvergencePoint& p : run.convergence) {
    w->BeginObject();
    w->Key("query").Uint(static_cast<std::uint64_t>(p.query));
    w->Key("cumulative_ms").Double(p.cumulative_ms);
    w->Key("cumulative_cracks").Uint(p.cumulative_cracks);
    w->Key("cumulative_objects_moved").Uint(p.cumulative_objects_moved);
    w->EndObject();
  }
  w->EndArray();
  if (scaling != nullptr && !scaling->empty()) {
    const double base_qps = scaling->front().queries_per_s;
    w->Key("scaling").BeginArray();
    for (const ScalingPoint& p : *scaling) {
      w->BeginObject();
      w->Key("threads").Uint(static_cast<std::uint64_t>(p.threads));
      w->Key("rounds").Uint(static_cast<std::uint64_t>(p.rounds));
      w->Key("queries").Uint(p.queries);
      w->Key("wall_ms").Double(p.wall_ms);
      w->Key("queries_per_s").Double(p.queries_per_s);
      w->Key("speedup").Double(base_qps > 0 ? p.queries_per_s / base_qps : 0);
      w->EndObject();
    }
    w->EndArray();
  }
  if (recovery != nullptr) {
    w->Key("recovery").BeginObject();
    w->Key("ok").Bool(recovery->ok);
    w->Key("snapshot_bytes").Uint(recovery->snapshot_bytes);
    w->Key("save_ms").Double(recovery->save_ms);
    w->Key("recover_ms").Double(recovery->recover_ms);
    w->Key("replay_queries").Uint(recovery->replay_queries);
    w->Key("replay_cracks").Uint(recovery->replay_cracks);
    w->Key("checksum_match").Bool(recovery->checksum_match);
    w->EndObject();
  }
  if (ab != nullptr && !ab->empty()) {
    w->Key("ab").BeginObject();
    for (const AbResult& r : *ab) {
      w->Key(r.name).BeginObject();
      w->Key("mode_a").String(r.mode_a);
      w->Key("mode_b").String(r.mode_b);
      w->Key("a_median_ms").Double(r.a_median_ms);
      w->Key("b_median_ms").Double(r.b_median_ms);
      w->Key("speedup").Double(r.speedup);
      w->Key("rounds").Uint(static_cast<std::uint64_t>(r.rounds));
      if (r.a_threads > 0) {
        w->Key("a_threads").Uint(static_cast<std::uint64_t>(r.a_threads));
        w->Key("b_threads").Uint(static_cast<std::uint64_t>(r.b_threads));
      }
      w->Key("checksum_match").Bool(r.checksum_match);
      w->Key("counters_match").Bool(r.counters_match);
      w->Key("content_match").Bool(r.content_match);
      w->EndObject();
    }
    w->EndObject();
  }
  w->EndObject();
}

/// Runs the full microbench matrix and returns the BENCH_quasii.json report.
inline std::string RunMicrobench(const MicrobenchOptions& options) {
  std::vector<std::string> workloads = options.workloads;
  if (workloads.empty()) workloads = {"uniform", "clustered", "readwrite"};

  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("quasii-microbench-v10");
  w.Key("options").BeginObject();
  w.Key("min_exp").Int(options.min_exp);
  w.Key("max_exp").Int(options.max_exp);
  w.Key("queries").Int(options.queries);
  w.Key("seed").Uint(options.seed);
  w.Key("simd_tier").String(simd::TierName(simd::ActiveTier()));
  w.Key("exec_threads").Int(IntraQueryThreads());
  w.Key("grain").Uint(static_cast<std::uint64_t>(MorselGrain()));
  w.EndObject();

  w.Key("configs").BeginArray();
  for (const std::string& workload : workloads) {
    for (int e = options.min_exp; e <= options.max_exp; ++e) {
      BenchConfig config;
      config.dataset = "uniform";
      // The mixed, readwrite, and join workloads reuse the uniform
      // footprint generator; only the operations differ.
      const bool mixed = workload == "mixed";
      const bool readwrite = workload == "readwrite";
      const bool join = workload == "join";
      config.workload = mixed || readwrite || join ? "uniform" : workload;
      config.n = std::size_t{1} << e;
      config.queries = options.queries;
      // Paper selectivities: 0.1% for the uniform workload (§6.6), 10^-2 %
      // for the clustered default (§6.1).
      config.selectivity = config.workload == "clustered" ? 1e-4 : 1e-3;
      config.seed = options.seed;
      if (mixed) config.mix = DefaultMixedWorkloadMix();
      if (readwrite) config.mix = DefaultReadWriteMix();

      Dataset3 data;
      Box3 universe;
      std::vector<Box3> boxes;
      MakeBenchInputs(config, &data, &universe, &boxes);
      const std::vector<Op3> ops =
          join ? std::vector<Op3>{} : MakeBenchOps(config, boxes, data.size());

      w.BeginObject();
      w.Key("dataset").String(config.dataset);
      w.Key("workload").String(workload);
      w.Key("n").Uint(data.size());
      w.Key("queries").Uint(join ? static_cast<std::size_t>(kJoinRounds)
                                 : ops.size());
      w.Key("selectivity").Double(config.selectivity);
      w.Key("seed").Uint(config.seed);
      w.Key("mix");
      WriteMix(&w, config.mix);
      w.Key("results").BeginArray();
      auto roster = MakeMicrobenchRoster(data, universe);
      for (const auto& index : roster) {
        const MicroRun run =
            join ? RunJoinMicro(index.get()) : RunMicro(index.get(), ops);
        // The scaling curve and the snapshot→recover round trip both ride
        // on the uniform (read-only, pure-range) configs' QUASII result:
        // the workload has fully converged the index by now, so they
        // measure the shared-lock read path and the structure-restoring
        // recovery (which must replay with zero cracks).
        std::vector<ScalingPoint> scaling;
        RecoveryPoint recovery;
        bool have_recovery = false;
        std::vector<AbResult> ab;
        if (workload == "uniform" && index->name() == "QUASII") {
          scaling = MeasureScaling(index.get(), ops);
          QuasiiIndex<3> fresh(data);
          const std::string snapshot_path =
              "quasii_microbench_" + std::to_string(getpid()) + "_" +
              std::to_string(e) + ".snapshot";
          recovery = MeasureRecovery(*index, &fresh, ops,
                                     run.post_workload.checksum,
                                     snapshot_path);
          have_recovery = true;
          // Interleaved A/B reruns of the (now converged) read stream:
          // scalar vs native SIMD tier. Results must be bit-identical in
          // both modes; only the pass time may differ.
          auto* q = dynamic_cast<QuasiiIndex<3>*>(index.get());
          const simd::Tier native = simd::ActiveTier();
          ab.push_back(MeasureAb(
              q, ops, run.post_workload.checksum, "simd", "scalar",
              [] { simd::ForceTier(simd::Tier::kScalar); },
              simd::TierName(native), [native] { simd::ForceTier(native); }));
          simd::ForceTier(native);
          // Second comparison, and the only one that re-cracks: cold-start
          // first-query cost at 1 vs 8 intra-query exec threads, over
          // fresh indexes each round. Parallel cracking must reproduce the
          // serial run bit-for-bit (results, counters, physical layout).
          ab.push_back(
              MeasureParallelAb(data, ops, run.post_workload.checksum));
        }
        WriteMicroRun(&w, run, scaling.empty() ? nullptr : &scaling,
                      have_recovery ? &recovery : nullptr,
                      ab.empty() ? nullptr : &ab);
      }
      w.EndArray();
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace quasii::bench

#endif  // QUASII_BENCH_MICROBENCH_MICROBENCH_H_
