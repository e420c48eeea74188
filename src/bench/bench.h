#ifndef QUASII_BENCH_BENCH_H_
#define QUASII_BENCH_BENCH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/json.h"
#include "bench/workload.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "datagen/neuro.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "grid/grid_index.h"
#include "mosaic/mosaic_index.h"
#include "persist/recovery.h"
#include "quasii/quasii_index.h"
#include "rtree/rtree_index.h"
#include "scan/scan_index.h"
#include "sfc/sfc_index.h"
#include "sfc/sfcracker_index.h"

namespace quasii::bench {

/// Linear-interpolated percentile of a latency sample, `p` in [0, 1].
/// Copies and sorts; the report paths call it a handful of times per run.
/// Shared by the bench report (p50/p90/p99 per thread and overall) and the
/// wire client's per-client tail-latency summary.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p <= 0.0) return values.front();
  if (p >= 1.0) return values.back();
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Durability wiring of a run (`src/persist/`): WAL every accepted
/// mutation, periodic snapshots, and an optional recover-before-run phase.
/// Restricted to sequential single-index runs — persistence is
/// single-threaded by contract, and one WAL belongs to one index.
struct DurabilityConfig {
  /// Append-only mutation log; empty disables durability entirely.
  std::string wal_path;
  /// Defaults to `wal_path + ".snapshot"`.
  std::string snapshot_path;
  /// Snapshot after every N accepted mutations (0 = never).
  std::size_t snapshot_every = 0;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kEveryOp;
  std::size_t fsync_every_n = 8;
  /// Recover from the snapshot + WAL before running the workload.
  bool recover = false;

  bool enabled() const { return !wal_path.empty(); }
  std::string EffectiveSnapshotPath() const {
    return snapshot_path.empty() ? wal_path + ".snapshot" : snapshot_path;
  }
};

/// Durability-side measurements of one run: logging/snapshot cost (kept
/// out of the per-op latencies, reported separately) and the recovery
/// outcome when `recover` was requested.
struct DurabilityRun {
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_syncs = 0;
  double wal_ms = 0;
  std::uint64_t snapshots_written = 0;
  double snapshot_ms = 0;
  /// First persistence failure of the run (`kNone` when clean); logging
  /// stops at the first failure so a broken disk cannot corrupt the log.
  persist::PersistError error = persist::PersistError::kNone;
  bool recovered = false;
  double recover_ms = 0;
  persist::RecoveryResult recovery;
};

/// Configuration of one experiment run (paper Section 6.1 setup, scaled by
/// the caller): one dataset, one query workload, a roster of indexes.
struct BenchConfig {
  /// "uniform" (synthetic, Section 6.1) or "neuro" (clustered substitute).
  std::string dataset = "uniform";
  /// "uniform" (Section 6.6) or "clustered" (Section 6.1 default).
  std::string workload = "uniform";
  std::size_t n = std::size_t{1} << 17;
  int queries = 1000;
  double selectivity = 1e-3;
  std::uint64_t seed = 1;
  /// Empty = every index in the roster; otherwise exact `name()` matches.
  std::vector<std::string> indexes;
  /// Per-type composition of the workload (default: pure range, the paper's
  /// setting) plus the kNN parameter.
  WorkloadMix mix;
  std::size_t knn_k = 10;
  /// Concurrent driver threads. 1 = the classic sequential measurement;
  /// N > 1 splits the workload into N deterministic per-thread op streams
  /// (disjoint id spaces) executed at once on a `TaskScheduler`.
  int threads = 1;
  /// WAL + snapshot persistence (off unless `wal_path` is set).
  DurabilityConfig durability;
};

/// The full evaluation roster over one dataset (Section 6.1 list).
inline std::vector<std::unique_ptr<SpatialIndex<3>>> MakeIndexRoster(
    const Dataset3& data, const Box3& universe) {
  std::vector<std::unique_ptr<SpatialIndex<3>>> roster;
  roster.push_back(std::make_unique<ScanIndex<3>>(data));
  roster.push_back(std::make_unique<SfcIndex<3>>(data, universe));
  roster.push_back(std::make_unique<SfcrackerIndex<3>>(data, universe));
  {
    GridIndex<3>::Params p;
    p.assignment = GridAssignment::kQueryExtension;
    roster.push_back(std::make_unique<GridIndex<3>>(data, universe, p));
  }
  roster.push_back(std::make_unique<MosaicIndex<3>>(data, universe));
  roster.push_back(std::make_unique<RTreeIndex<3>>(data));
  roster.push_back(std::make_unique<QuasiiIndex<3>>(data));
  return roster;
}

/// Per-op-type aggregate of a run: how many operations of the type ran,
/// their wall clock, their result cardinality (query results; for mutations
/// the number of *accepted* operations), and the work counters they were
/// responsible for (stats deltas, so the per-type counters sum to the
/// cumulative ones).
struct TypeBreakdown {
  std::uint64_t queries = 0;
  double total_ms = 0;
  std::uint64_t result_objects = 0;
  QueryStats stats;
};

/// One thread's share of a concurrent run: its op stream's latencies and
/// per-type breakdown. The per-type `stats` stay zero here — work counters
/// are shared across threads mid-run, so per-op deltas are not attributable;
/// only the run-wide cumulative stats are reported.
struct ThreadRun {
  int thread = 0;
  double total_ms = 0;
  std::vector<double> latencies_ms;
  std::uint64_t result_objects = 0;
  std::array<TypeBreakdown, kNumOpTypes> per_type{};
};

/// Per-index measurement: build time, per-op latencies, cumulative stats,
/// and the per-op-type breakdown (the five query types plus insert/erase).
/// Threaded runs add the batch wall clock and one section per thread;
/// `latencies_ms` then concatenates the streams in thread order and
/// `total_query_ms` sums the client-observed per-op latencies across
/// threads — scheduling delay included, so it exceeds `wall_ms` under
/// contention; `wall_ms` is the throughput denominator.
struct IndexRun {
  std::string name;
  double build_ms = 0;
  double total_query_ms = 0;
  std::vector<double> latencies_ms;
  std::uint64_t result_objects = 0;
  QueryStats cumulative;
  std::array<TypeBreakdown, kNumOpTypes> per_type;
  int threads = 1;
  double wall_ms = 0;
  std::vector<ThreadRun> per_thread;
};

/// The right-hand box set of a config's stream-join ops: a fixed-size
/// uniform box set drawn with its own seed stream (`seed + 3`), so adding
/// `join:` to a mix perturbs neither the dataset nor the query footprints.
inline std::vector<Box3> MakeJoinSource(const BenchConfig& config,
                                        const Box3& universe) {
  datagen::UniformQueryParams p;
  p.count = 64;
  p.selectivity = config.selectivity;
  p.seed = config.seed + 3;
  return datagen::MakeUniformQueries(universe, p);
}

inline void MakeBenchInputs(const BenchConfig& config, Dataset3* data,
                            Box3* universe, std::vector<Box3>* queries) {
  if (config.dataset == "neuro") {
    datagen::NeuroDatasetParams p;
    p.count = config.n;
    p.seed = config.seed;
    *data = datagen::MakeNeuroDataset(p);
    *universe = datagen::NeuroUniverse(p);
  } else {
    datagen::UniformDatasetParams p;
    p.count = config.n;
    p.seed = config.seed;
    *data = datagen::MakeUniformDataset(p);
    *universe = datagen::UniformUniverse(p);
  }
  if (config.workload == "clustered") {
    datagen::ClusteredQueryParams p;
    // Round up per cluster, then trim, so exactly `queries` run.
    p.queries_per_cluster =
        (config.queries + p.clusters - 1) / std::max(p.clusters, 1);
    p.selectivity = config.selectivity;
    p.seed = config.seed + 1;
    *queries = datagen::MakeClusteredQueries(*universe, *data, p);
    // Trim the rounded-up cluster output. Clamp instead of a blind resize: a
    // resize past the generated count would *enlarge* the workload with
    // default-constructed (empty) query boxes.
    const std::size_t want = static_cast<std::size_t>(config.queries);
    if (queries->size() > want) queries->resize(want);
  } else {
    datagen::UniformQueryParams p;
    p.count = config.queries;
    p.selectivity = config.selectivity;
    p.seed = config.seed + 1;
    *queries = datagen::MakeUniformQueries(*universe, p);
  }
}

/// The operation stream of a config: the box footprints typed per the mix
/// (queries plus insert/erase mutations), interleaved deterministically
/// from the config seed. `initial_n` is the dataset size the indexes were
/// loaded with (fresh insert ids start there).
inline std::vector<Op3> MakeBenchOps(const BenchConfig& config,
                                     const std::vector<Box3>& boxes,
                                     std::size_t initial_n,
                                     const std::vector<Box3>* join_source =
                                         nullptr) {
  WorkloadSpec spec;
  spec.mix = config.mix;
  spec.knn_k = config.knn_k;
  spec.seed = config.seed + 2;
  return MakeOpWorkload<3>(boxes, spec, initial_n, join_source);
}

/// Reusable sinks of a measurement loop, pre-sized so reallocation never
/// lands inside a timed query.
struct RunSinks {
  RunSinks() { result.reserve(4096); }
  std::vector<ObjectId> result;
  VectorSink vector_sink{&result};
  CountSink count_sink;
  CountPairSink pair_count;
};

struct TimedExec {
  double ms = 0;
  std::uint64_t results = 0;
};

/// Executes one operation — query (with the sink its type calls for) or
/// mutation — and times it. No stats accounting: safe to call from
/// concurrent threads, where work counters are shared and per-op deltas are
/// not attributable. For mutations `results` is 1 when the operation was
/// accepted.
inline TimedExec ExecTimedOp(SpatialIndex<3>* index, const Op3& op,
                             RunSinks* sinks) {
  TimedExec exec;
  if (op.kind() == OpKind::kQuery) {
    const Query3& q = op.query();
    if (q.type() == QueryType::kCount) {
      sinks->count_sink.Reset();
      Timer t;
      index->Execute(q, sinks->count_sink);
      exec.ms = t.Millis();
      exec.results = sinks->count_sink.count();
    } else {
      sinks->result.clear();
      Timer t;
      index->Execute(q, sinks->vector_sink);
      exec.ms = t.Millis();
      exec.results = sinks->result.size();
    }
    return exec;
  }
  if (op.kind() == OpKind::kJoin) {
    // The query is built here, at execution time: it borrows the op-owned
    // stream vector, which is only stable for this call.
    const Query3 q = JoinQuery<3>(op.join_stream());
    sinks->pair_count.Reset();
    Timer t;
    index->Execute(q, sinks->pair_count);
    exec.ms = t.Millis();
    exec.results = sinks->pair_count.count();
    return exec;
  }
  Timer t;
  const bool accepted = op.kind() == OpKind::kInsert
                            ? index->Insert(op.id(), op.box())
                            : index->Erase(op.id());
  exec.ms = t.Millis();
  exec.results = accepted ? 1 : 0;
  return exec;
}

/// Folds one executed op into its per-op-type section (latency, op count,
/// result/acceptance count — not stats).
inline void AccumulateOp(const Op3& op, const TimedExec& exec,
                         std::array<TypeBreakdown, kNumOpTypes>* per_type) {
  TypeBreakdown& agg =
      (*per_type)[static_cast<std::size_t>(OpTypeIndexOf(op))];
  ++agg.queries;
  agg.total_ms += exec.ms;
  agg.result_objects += exec.results;
}

/// Executes one operation — query or mutation — timing it into its
/// per-op-type section including the stats delta (sequential measurement
/// loops only: reading `index->stats()` around an op is only meaningful
/// when no other thread is working). For mutations `results` is 1 when the
/// operation was accepted (the store semantics are index-independent, so
/// acceptance patterns must agree across the roster like query results do).
inline TimedExec RunTimedOp(SpatialIndex<3>* index, const Op3& op,
                            RunSinks* sinks,
                            std::array<TypeBreakdown, kNumOpTypes>* per_type) {
  // Sequential loop: all work lands in this thread's shard, so the delta
  // comes from `thread_stats()` instead of folding every slot twice per op.
  const QueryStats before = index->thread_stats();
  const TimedExec exec = ExecTimedOp(index, op, sinks);
  AccumulateOp(op, exec, per_type);
  (*per_type)[static_cast<std::size_t>(OpTypeIndexOf(op))].stats +=
      index->thread_stats() - before;
  return exec;
}

/// Executes one typed query against `index`, timing it into its per-type
/// section — the sequential measurement primitive the microbench loop
/// shares with `RunTimedOp`.
inline TimedExec RunTimedQuery(
    SpatialIndex<3>* index, const Query3& q, RunSinks* sinks,
    std::array<TypeBreakdown, kNumOpTypes>* per_type) {
  return RunTimedOp(index, Op3::MakeQuery(q), sinks, per_type);
}

/// Sequential measurement loop. With a durability config, every accepted
/// mutation is WAL-logged (LSN = the store version it produced) and a
/// snapshot is taken every `snapshot_every` accepted mutations; the
/// logging/snapshot cost lands in `dur_out`, not in the per-op latencies.
inline IndexRun RunIndex(SpatialIndex<3>* index, const std::vector<Op3>& ops,
                         const DurabilityConfig* dur = nullptr,
                         DurabilityRun* dur_out = nullptr) {
  IndexRun run;
  run.name = std::string(index->name());
  Timer build_timer;
  index->Build();
  run.build_ms = build_timer.Millis();
  index->ResetStats();

  persist::WalWriter<3> wal;
  bool logging = dur != nullptr && dur->enabled() && dur_out != nullptr;
  if (logging) {
    const persist::PersistError err =
        wal.Open(dur->wal_path, dur->fsync, dur->fsync_every_n);
    if (err != persist::PersistError::kNone) {
      dur_out->error = err;
      logging = false;
    }
  }
  std::size_t accepted_mutations = 0;

  run.latencies_ms.reserve(ops.size());
  RunSinks sinks;
  for (const Op3& op : ops) {
    const TimedExec exec = RunTimedOp(index, op, &sinks, &run.per_type);
    run.latencies_ms.push_back(exec.ms);
    run.total_query_ms += exec.ms;
    run.result_objects += exec.results;
    const bool mutation = op.is_mutation();
    if (logging && mutation && exec.results == 1) {
      persist::WalRecord<3> rec;
      rec.lsn = index->store().version();
      rec.id = op.id();
      if (op.kind() == OpKind::kInsert) {
        rec.op = persist::WalOp::kInsert;
        rec.box = op.box();
      } else {
        rec.op = persist::WalOp::kErase;
      }
      Timer wal_timer;
      const persist::PersistError err = wal.Append(rec);
      dur_out->wal_ms += wal_timer.Millis();
      if (err != persist::PersistError::kNone) {
        dur_out->error = err;
        logging = false;
        continue;
      }
      ++accepted_mutations;
      if (dur->snapshot_every > 0 &&
          accepted_mutations % dur->snapshot_every == 0) {
        Timer snap_timer;
        const persist::PersistError serr =
            persist::WriteSnapshot<3>(*index, dur->EffectiveSnapshotPath());
        dur_out->snapshot_ms += snap_timer.Millis();
        if (serr != persist::PersistError::kNone) {
          dur_out->error = serr;
          logging = false;
        } else {
          ++dur_out->snapshots_written;
        }
      }
    }
  }
  if (dur_out != nullptr && (logging || wal.records_appended() > 0)) {
    Timer sync_timer;
    const persist::PersistError err = wal.Sync();
    dur_out->wal_ms += sync_timer.Millis();
    if (err != persist::PersistError::kNone &&
        dur_out->error == persist::PersistError::kNone) {
      dur_out->error = err;
    }
    dur_out->wal_records = wal.records_appended();
    dur_out->wal_bytes = wal.bytes_written();
    dur_out->wal_syncs = wal.syncs();
  }
  run.cumulative = index->stats();
  return run;
}

/// Concurrent measurement: each per-thread op stream runs as one task of a
/// scheduler with a thread per stream (the caller helps as the last one)
/// against the shared index, with per-thread sinks and latency vectors.
/// Per-op stats deltas are not recorded (counters are shared mid-run); the
/// cumulative stats are read once after every stream has finished. The
/// aggregate view concatenates/sums the thread sections, and `wall_ms` is
/// the whole batch's wall clock — the throughput denominator.
inline IndexRun RunIndexThreaded(SpatialIndex<3>* index,
                                 const std::vector<std::vector<Op3>>& streams) {
  IndexRun run;
  run.name = std::string(index->name());
  run.threads = static_cast<int>(streams.size());
  Timer build_timer;
  index->Build();
  run.build_ms = build_timer.Millis();
  index->ResetStats();

  run.per_thread.resize(streams.size());
  TaskScheduler scheduler(static_cast<int>(streams.size()) - 1);
  Timer wall;
  TaskScheduler::Group group(&scheduler);
  for (std::size_t t = 0; t < streams.size(); ++t) {
    group.Run([index, &streams, &run, t] {
      ThreadRun& section = run.per_thread[t];
      section.thread = static_cast<int>(t);
      const std::vector<Op3>& ops = streams[t];
      section.latencies_ms.reserve(ops.size());
      RunSinks sinks;
      for (const Op3& op : ops) {
        const TimedExec exec = ExecTimedOp(index, op, &sinks);
        AccumulateOp(op, exec, &section.per_type);
        section.latencies_ms.push_back(exec.ms);
        section.total_ms += exec.ms;
        section.result_objects += exec.results;
      }
    });
  }
  group.Wait();
  run.wall_ms = wall.Millis();

  for (const ThreadRun& section : run.per_thread) {
    run.latencies_ms.insert(run.latencies_ms.end(),
                            section.latencies_ms.begin(),
                            section.latencies_ms.end());
    run.total_query_ms += section.total_ms;
    run.result_objects += section.result_objects;
    for (int ty = 0; ty < kNumOpTypes; ++ty) {
      const TypeBreakdown& from =
          section.per_type[static_cast<std::size_t>(ty)];
      TypeBreakdown& to = run.per_type[static_cast<std::size_t>(ty)];
      to.queries += from.queries;
      to.total_ms += from.total_ms;
      to.result_objects += from.result_objects;
    }
  }
  run.cumulative = index->stats();
  return run;
}

inline void WriteStats(JsonWriter* w, const QueryStats& s) {
  w->BeginObject();
  w->Key("objects_tested").Uint(s.objects_tested);
  w->Key("partitions_visited").Uint(s.partitions_visited);
  w->Key("cracks").Uint(s.cracks);
  w->Key("objects_moved").Uint(s.objects_moved);
  w->Key("duplicates_removed").Uint(s.duplicates_removed);
  w->Key("intervals").Uint(s.intervals);
  w->Key("bytes_scanned").Uint(s.bytes_scanned);
  w->EndObject();
}

/// Emits the `per_type` object: one section per operation type, always all
/// seven — range/point/count/knn/join/insert/erase (zeroed sections make
/// schema consumers simpler than absent ones).
inline void WriteTypeBreakdown(
    JsonWriter* w, const std::array<TypeBreakdown, kNumOpTypes>& per_type) {
  w->BeginObject();
  for (int t = 0; t < kNumOpTypes; ++t) {
    const TypeBreakdown& agg = per_type[static_cast<std::size_t>(t)];
    w->Key(QueryTypeName(t)).BeginObject();
    w->Key("queries").Uint(agg.queries);
    w->Key("total_ms").Double(agg.total_ms);
    w->Key("mean_ms").Double(
        agg.queries > 0 ? agg.total_ms / static_cast<double>(agg.queries) : 0);
    w->Key("result_objects").Uint(agg.result_objects);
    w->Key("stats");
    WriteStats(w, agg.stats);
    w->EndObject();
  }
  w->EndObject();
}

inline void WriteMix(JsonWriter* w, const WorkloadMix& mix) {
  w->BeginObject();
  w->Key("range").Double(mix.range);
  w->Key("point").Double(mix.point);
  w->Key("count").Double(mix.count);
  w->Key("knn").Double(mix.knn);
  w->Key("join").Double(mix.join);
  w->Key("insert").Double(mix.insert);
  w->Key("erase").Double(mix.erase);
  w->EndObject();
}

/// Runs the configured experiment and returns the JSON report consumed by
/// the BENCH_*.json comparison tooling (schema v6: single-index runs can
/// carry a `durability` section — WAL/snapshot cost and, with `--recover`,
/// the recovery outcome). A durability or recovery failure sets `*error`
/// and returns ""; `error == nullptr` runs without durability plumbing.
inline std::string RunBenchmark(const BenchConfig& config,
                                std::string* error) {
  Dataset3 data;
  Box3 universe;
  std::vector<Box3> boxes;
  MakeBenchInputs(config, &data, &universe, &boxes);
  std::vector<Box3> join_source;
  if (config.mix.join > 0) join_source = MakeJoinSource(config, universe);
  const bool threaded = config.threads > 1;
  std::vector<Op3> ops;
  std::vector<std::vector<Op3>> streams;
  std::size_t total_ops = 0;
  if (threaded) {
    WorkloadSpec spec;
    spec.mix = config.mix;
    spec.knn_k = config.knn_k;
    spec.seed = config.seed + 2;
    streams = MakeThreadOpStreams(boxes, spec, data.size(), config.threads,
                                  &join_source);
    for (const auto& s : streams) total_ops += s.size();
  } else {
    ops = MakeBenchOps(config, boxes, data.size(), &join_source);
    total_ops = ops.size();
  }

  JsonWriter w;
  w.BeginObject();
  const bool durable = config.durability.enabled() && error != nullptr;
  w.Key("schema").String("quasii-bench-v9");
  w.Key("config").BeginObject();
  w.Key("dataset").String(config.dataset);
  w.Key("workload").String(config.workload);
  w.Key("n").Uint(data.size());
  w.Key("queries").Uint(total_ops);
  w.Key("selectivity").Double(config.selectivity);
  w.Key("seed").Uint(config.seed);
  w.Key("mix");
  WriteMix(&w, config.mix);
  w.Key("knn_k").Uint(config.knn_k);
  w.Key("threads").Uint(static_cast<std::uint64_t>(
      threaded ? config.threads : 1));
  w.Key("exec_threads").Uint(static_cast<std::uint64_t>(IntraQueryThreads()));
  w.EndObject();

  w.Key("results").BeginArray();
  auto roster = MakeIndexRoster(data, universe);
  for (const auto& index : roster) {
    if (!config.indexes.empty() &&
        std::find(config.indexes.begin(), config.indexes.end(),
                  std::string(index->name())) == config.indexes.end()) {
      continue;
    }
    DurabilityRun dur;
    if (durable && config.durability.recover) {
      Timer recover_timer;
      dur.recovery = persist::RecoverIndex<3>(
          index.get(), config.durability.EffectiveSnapshotPath(),
          config.durability.wal_path);
      dur.recover_ms = recover_timer.Millis();
      dur.recovered = true;
      if (!dur.recovery.ok()) {
        *error = std::string("recovery failed: ") +
                 persist::PersistErrorName(dur.recovery.error) +
                 (dur.recovery.detail.empty() ? "" : ": ") +
                 dur.recovery.detail;
        return "";
      }
    }
    const IndexRun run =
        threaded ? RunIndexThreaded(index.get(), streams)
                 : RunIndex(index.get(), ops, durable ? &config.durability
                                                      : nullptr,
                            durable ? &dur : nullptr);
    if (durable && dur.error != persist::PersistError::kNone) {
      *error = std::string("durability failure: ") +
               persist::PersistErrorName(dur.error);
      return "";
    }
    w.BeginObject();
    w.Key("index").String(run.name);
    w.Key("build_ms").Double(run.build_ms);
    w.Key("total_query_ms").Double(run.total_query_ms);
    // Tail-latency summary over every client-observed per-op latency of the
    // run (all threads concatenated in a threaded run) — the v8 headline
    // metric next to the full latency array.
    w.Key("p50_ms").Double(Percentile(run.latencies_ms, 0.50));
    w.Key("p90_ms").Double(Percentile(run.latencies_ms, 0.90));
    w.Key("p99_ms").Double(Percentile(run.latencies_ms, 0.99));
    w.Key("result_objects").Uint(run.result_objects);
    w.Key("cumulative_stats");
    WriteStats(&w, run.cumulative);
    w.Key("per_type");
    WriteTypeBreakdown(&w, run.per_type);
    if (threaded) {
      // Threaded runs: the batch wall clock (the throughput denominator —
      // the per-op sum `total_query_ms` counts client-observed latencies,
      // scheduling delay included) and one section per thread. Per-type
      // stats inside them stay zero — see `ThreadRun`.
      w.Key("wall_ms").Double(run.wall_ms);
      w.Key("per_thread").BeginArray();
      for (const ThreadRun& section : run.per_thread) {
        w.BeginObject();
        w.Key("thread").Uint(static_cast<std::uint64_t>(section.thread));
        w.Key("ops").Uint(section.latencies_ms.size());
        w.Key("total_ms").Double(section.total_ms);
        // Per-client tail latency under the concurrent mixed workload —
        // each thread is one client of the run.
        w.Key("p50_ms").Double(Percentile(section.latencies_ms, 0.50));
        w.Key("p90_ms").Double(Percentile(section.latencies_ms, 0.90));
        w.Key("p99_ms").Double(Percentile(section.latencies_ms, 0.99));
        w.Key("result_objects").Uint(section.result_objects);
        w.Key("latencies_ms").BeginArray();
        for (const double ms : section.latencies_ms) w.Double(ms);
        w.EndArray();
        w.EndObject();
      }
      w.EndArray();
    }
    if (durable) {
      w.Key("durability").BeginObject();
      w.Key("wal_path").String(config.durability.wal_path);
      w.Key("snapshot_path").String(config.durability.EffectiveSnapshotPath());
      w.Key("fsync").String(
          std::string(persist::FsyncPolicyName(config.durability.fsync)));
      w.Key("wal_records").Uint(dur.wal_records);
      w.Key("wal_bytes").Uint(dur.wal_bytes);
      w.Key("wal_syncs").Uint(dur.wal_syncs);
      w.Key("wal_ms").Double(dur.wal_ms);
      w.Key("snapshots_written").Uint(dur.snapshots_written);
      w.Key("snapshot_ms").Double(dur.snapshot_ms);
      if (dur.recovered) {
        w.Key("recovery").BeginObject();
        w.Key("recover_ms").Double(dur.recover_ms);
        w.Key("snapshot_loaded").Bool(dur.recovery.snapshot_loaded);
        w.Key("structure_restored").Bool(dur.recovery.structure_restored);
        w.Key("snapshot_lsn").Uint(dur.recovery.snapshot_lsn);
        w.Key("wal_records").Uint(dur.recovery.wal_records);
        w.Key("wal_replayed").Uint(dur.recovery.wal_replayed);
        w.Key("wal_tail_truncated").Bool(dur.recovery.wal_tail_truncated);
        w.Key("recovered_lsn").Uint(dur.recovery.recovered_lsn);
        w.EndObject();
      }
      w.EndObject();
    }
    w.Key("latencies_ms").BeginArray();
    for (const double ms : run.latencies_ms) w.Double(ms);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

inline std::string RunBenchmark(const BenchConfig& config) {
  return RunBenchmark(config, nullptr);
}

}  // namespace quasii::bench

#endif  // QUASII_BENCH_BENCH_H_
