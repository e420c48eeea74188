#ifndef QUASII_BENCH_BENCH_H_
#define QUASII_BENCH_BENCH_H_

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/cli.h"
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

/// A run without `recover` logs a fresh LSN history starting at 1; appended
/// to an existing log, that history makes the file unrecoverable
/// (`wal_lsn_gap`). Returns why such a run must not start, or "" when it
/// may. Nothing is deleted.
inline std::string CheckWalStart(const DurabilityConfig& dur) {
  struct stat st;
  if (!dur.enabled() || dur.recover ||
      ::stat(dur.wal_path.c_str(), &st) != 0 || st.st_size == 0) {
    return "";
  }
  return dur.wal_path +
         " already holds a log: recover from it (--recover) or remove it";
}

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
/// the caller): one dataset, one query workload, a roster of indexes. A
/// report is a matrix of these.
struct BenchConfig {
  /// "uniform" (synthetic, Section 6.1) or "neuro" (clustered substitute).
  std::string dataset = "uniform";
  /// Footprints: "clustered" (Section 6.1 default) or uniform (Section 6.6)
  /// for every other name. "uniform" and "clustered" type the footprints
  /// by `mix`; the presets "mixed" and "readwrite" name the run of their
  /// default mix, and "join" runs `kJoinRounds` self-joins instead.
  std::string workload = "uniform";
  std::size_t n = std::size_t{1} << 17;
  int queries = 1000;
  double selectivity = 1e-3;
  std::uint64_t seed = 1;
  /// Empty = every index in the roster; otherwise `kRosterNames` entries.
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

/// Rounds of the join workload: the first self-join cracks (or scans), the
/// remaining ones measure the converged join cost — enough points for the
/// convergence curve to show the drop without paying the quadratic Scan
/// baseline more often than necessary.
constexpr int kJoinRounds = 4;

/// The evaluation roster (Section 6.1 list) in report order; each entry is
/// its index's `name()`.
inline constexpr std::array<std::string_view, 7> kRosterNames = {
    "Scan", "SFC", "SFCracker", "GridQueryExt", "Mosaic", "R-Tree", "QUASII"};

/// Builds the roster over one dataset: every index, or only those `names`
/// lists (still in roster order).
inline std::vector<std::unique_ptr<SpatialIndex<3>>> MakeIndexRoster(
    const Dataset3& data, const Box3& universe,
    const std::vector<std::string>& names = {}) {
  const auto wanted = [&names](std::string_view name) {
    return names.empty() ||
           std::find(names.begin(), names.end(), name) != names.end();
  };
  std::vector<std::unique_ptr<SpatialIndex<3>>> roster;
  if (wanted("Scan")) roster.push_back(std::make_unique<ScanIndex<3>>(data));
  if (wanted("SFC")) {
    roster.push_back(std::make_unique<SfcIndex<3>>(data, universe));
  }
  if (wanted("SFCracker")) {
    roster.push_back(std::make_unique<SfcrackerIndex<3>>(data, universe));
  }
  if (wanted("GridQueryExt")) {
    GridIndex<3>::Params p;
    p.assignment = GridAssignment::kQueryExtension;
    roster.push_back(std::make_unique<GridIndex<3>>(data, universe, p));
  }
  if (wanted("Mosaic")) {
    roster.push_back(std::make_unique<MosaicIndex<3>>(data, universe));
  }
  if (wanted("R-Tree")) roster.push_back(std::make_unique<RTreeIndex<3>>(data));
  if (wanted("QUASII"))
    roster.push_back(std::make_unique<QuasiiIndex<3>>(data));
  return roster;
}

/// The roster selector of the bench driver and the server: `list` is a
/// comma list of roster names. An empty item or an unknown name fails, with
/// `*error` listing the valid names.
inline bool ParseIndexList(const std::string& list,
                           std::vector<std::string>* names,
                           std::string* error) {
  std::vector<std::string> parsed;
  bool ok = cli::SplitCommas(list, &parsed);
  for (const std::string& name : parsed) {
    ok = ok && std::find(kRosterNames.begin(), kRosterNames.end(), name) !=
                   kRosterNames.end();
  }
  if (!ok) {
    *error = "expected a comma list of index names from";
    for (const std::string_view name : kRosterNames) {
      (*error += ' ') += name;
    }
    return false;
  }
  *names = std::move(parsed);
  return true;
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

/// One point of an index's convergence curve, sampled at geometrically
/// spaced operation counts (1, 2, 4, ..., total) so early refinement and
/// steady state are both visible at a glance.
struct ConvergencePoint {
  std::size_t query = 0;  // 1-based index of the operation just executed
  double cumulative_ms = 0;
  std::uint64_t cumulative_cracks = 0;
  std::uint64_t cumulative_objects_moved = 0;
};

/// Post-workload verification: every range query of the stream re-run once
/// the mutations have landed. `checksum` folds each query's sorted result
/// ids through FNV-1a in stream order, so any per-query divergence across
/// the roster changes it; a stream without range queries has checksum 0.
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

/// The snapshot→recover round trip of a converged QUASII: how big the
/// snapshot is, what saving and recovering cost, and the two durability
/// acceptance checks — a recovered index must answer the workload's range
/// queries with the identical checksum while performing zero cracks (its
/// restored structure is already converged).
struct RecoveryPoint {
  std::uint64_t snapshot_bytes = 0;
  double save_ms = 0;
  double recover_ms = 0;
  std::uint64_t replay_queries = 0;
  std::uint64_t replay_cracks = 0;
  bool checksum_match = false;
  bool ok = false;  // snapshot + recovery both succeeded
};

/// One interleaved A/B comparison: mode A and mode B alternate pass-by-pass
/// (A,B,A,B,...) so drift hits both equally, and each mode's median pass
/// time is reported. A final verification per mode checks that results
/// (stream checksum) and work counters are bit-identical across modes —
/// the modes must differ in speed only.
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

/// Per-index measurement, the one record of every run: build time, the
/// first query (§6.2 index-building cost), the convergence curve, per-op
/// latencies (reported as percentiles), cumulative stats and the per-op-type
/// breakdown, all captured before the converged passes (`steady_tail_mean_ms`,
/// `post_workload`) re-run anything. Threaded runs add the batch wall clock
/// and one section per thread; `latencies_ms` then concatenates the streams
/// in thread order and `total_query_ms` sums the client-observed per-op
/// latencies across threads — scheduling delay included, so it exceeds
/// `wall_ms` under contention; `wall_ms` is the throughput denominator.
/// They record no first query or convergence curve: per-op counter reads
/// are not attributable while other threads work.
struct IndexRun {
  std::string name;
  double build_ms = 0;
  double first_query_ms = 0;
  double total_query_ms = 0;
  /// Mean latency of the reads in the last 10% of the stream, re-run after
  /// the workload — the converged cost.
  double steady_tail_mean_ms = 0;
  std::vector<double> latencies_ms;
  std::uint64_t result_objects = 0;
  QueryStats cumulative;
  std::array<TypeBreakdown, kNumOpTypes> per_type{};
  std::vector<ConvergencePoint> convergence;
  PostWorkload post_workload;
  double wall_ms = 0;
  std::vector<ThreadRun> per_thread;
  std::optional<DurabilityRun> durability;
  /// Converged-QUASII measurements (`MeasureConvergedQuasii`).
  std::vector<ScalingPoint> scaling;
  std::optional<RecoveryPoint> recovery;
  std::vector<AbResult> ab;
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

/// The type-interleaving spec of a config (its own seed stream, `seed + 2`):
/// the box footprints typed per the mix, interleaved deterministically.
inline WorkloadSpec MakeBenchSpec(const BenchConfig& config) {
  WorkloadSpec spec;
  spec.mix = config.mix;
  spec.knn_k = config.knn_k;
  spec.seed = config.seed + 2;
  return spec;
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
/// accepted. With `self_join`, a join op joins the index with itself (the
/// join workload's rounds) instead of streaming the op's box window.
inline TimedExec ExecTimedOp(SpatialIndex<3>* index, const Op3& op,
                             RunSinks* sinks, bool self_join = false) {
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
    const Query3 q =
        self_join ? JoinQuery<3>(*index) : JoinQuery<3>(op.join_stream());
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

/// Order-sensitive FNV-1a fold over every range query's sorted result ids:
/// the post-workload digest, which must agree across the roster and with a
/// recovered index's replay.
inline PostWorkload RangeQueryChecksum(SpatialIndex<3>* index,
                                       const std::vector<Op3>& ops) {
  std::vector<ObjectId> ids;
  VectorSink id_sink(&ids);
  PostWorkload out;
  std::uint64_t checksum = kFnvBasis;
  for (const Op3& op : ops) {
    if (op.kind() != OpKind::kQuery ||
        op.query().type() != QueryType::kRange) {
      continue;
    }
    ids.clear();
    index->Execute(op.query(), id_sink);
    std::sort(ids.begin(), ids.end());
    checksum = FnvMix(checksum, ids.size());
    for (const ObjectId id : ids) checksum = FnvMix(checksum, id);
    ++out.queries;
    out.result_objects += ids.size();
  }
  if (out.queries > 0) out.checksum = checksum;
  return out;
}

/// The passes every run ends with, after its counters are captured: the
/// converged per-read cost (the reads of the last 10% of the stream re-run;
/// mutations are skipped, since a replayed insert/erase would be rejected)
/// and the post-workload verification of the final state.
inline void MeasureConverged(SpatialIndex<3>* index,
                             const std::vector<Op3>& ops, bool self_join,
                             IndexRun* run) {
  const std::size_t tail =
      std::min(ops.size(), std::max<std::size_t>(1, ops.size() / 10));
  RunSinks sinks;
  double tail_ms = 0;
  std::size_t tail_reads = 0;
  for (std::size_t i = ops.size() - tail; i < ops.size(); ++i) {
    if (ops[i].is_mutation()) continue;
    tail_ms += ExecTimedOp(index, ops[i], &sinks, self_join).ms;
    ++tail_reads;
  }
  run->steady_tail_mean_ms =
      tail_reads > 0 ? tail_ms / static_cast<double>(tail_reads) : 0;
  run->post_workload = RangeQueryChecksum(index, ops);
}

/// Sequential measurement loop. Every op is timed into its per-op-type
/// section together with its stats delta (meaningful here, where no other
/// thread works), and the convergence curve is sampled at ops 1, 2, 4, ...
/// and the last; a self-join covers the whole index, so every self-join
/// round is a point. With a durability config the index is first recovered
/// when `recover` is set, every accepted mutation is WAL-logged (LSN = the
/// store version it produced) and a snapshot is taken every
/// `snapshot_every` accepted mutations; that cost lands in
/// `run.durability`, not in the per-op latencies. A failed recovery returns
/// before the workload runs.
inline IndexRun RunIndex(SpatialIndex<3>* index, const std::vector<Op3>& ops,
                         bool self_join = false,
                         const DurabilityConfig* dur = nullptr) {
  IndexRun run;
  run.name = std::string(index->name());
  DurabilityRun* dur_out = nullptr;
  if (dur != nullptr && dur->enabled()) {
    dur_out = &run.durability.emplace();
    if (dur->recover) {
      Timer recover_timer;
      dur_out->recovery = persist::RecoverIndex<3>(
          index, dur->EffectiveSnapshotPath(), dur->wal_path);
      dur_out->recover_ms = recover_timer.Millis();
      dur_out->recovered = true;
      if (!dur_out->recovery.ok()) return run;
    }
  }
  Timer build_timer;
  index->Build();
  run.build_ms = build_timer.Millis();
  index->ResetStats();

  persist::WalWriter<3> wal;
  bool logging = dur_out != nullptr;
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
  bool first_query_recorded = false;
  std::size_t next_sample = 1;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op3& op = ops[i];
    // Sequential loop: all work lands in this thread's shard, so the delta
    // comes from `thread_stats()` instead of folding every slot twice per op.
    const QueryStats before = index->thread_stats();
    const TimedExec exec = ExecTimedOp(index, op, &sinks, self_join);
    AccumulateOp(op, exec, &run.per_type);
    run.per_type[static_cast<std::size_t>(OpTypeIndexOf(op))].stats +=
        index->thread_stats() - before;
    run.latencies_ms.push_back(exec.ms);
    run.total_query_ms += exec.ms;
    run.result_objects += exec.results;
    // The first read (mutations before it are cheap appends and don't
    // initialize an incremental index) — the §6.2 index-building cost.
    if (!first_query_recorded && !op.is_mutation()) {
      run.first_query_ms = exec.ms;
      first_query_recorded = true;
    }
    const std::size_t done = i + 1;
    if (self_join || done == next_sample || done == ops.size()) {
      const QueryStats now = index->stats();
      run.convergence.push_back(
          {done, run.total_query_ms, now.cracks, now.objects_moved});
      while (next_sample <= done) next_sample *= 2;
    }
    if (logging && op.is_mutation() && exec.results == 1) {
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
  MeasureConverged(index, ops, self_join, &run);
  return run;
}

/// Concurrent measurement: each per-thread op stream runs as one task of a
/// scheduler with a thread per stream (the caller helps as the last one)
/// against the shared index, with per-thread sinks and latency vectors.
/// Per-op stats deltas are not recorded (counters are shared mid-run); the
/// cumulative stats are read once after every stream has finished. The
/// aggregate view concatenates/sums the thread sections, and `wall_ms` is
/// the whole batch's wall clock — the throughput denominator. The converged
/// passes run sequentially over the streams in thread order.
inline IndexRun RunIndexThreaded(SpatialIndex<3>* index,
                                 const std::vector<std::vector<Op3>>& streams) {
  IndexRun run;
  run.name = std::string(index->name());
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
  std::vector<Op3> all;
  for (const auto& s : streams) all.insert(all.end(), s.begin(), s.end());
  MeasureConverged(index, all, /*self_join=*/false, &run);
  return run;
}

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
  const PostWorkload replay = RangeQueryChecksum(fresh, ops);
  point.replay_queries = replay.queries;
  point.replay_cracks = fresh->stats().cracks;
  point.checksum_match = replay.checksum == expected_checksum;
  return point;
}

/// One timed pass of the workload's range queries (results accumulated, not
/// sorted or digested — this times query execution, nothing else).
inline double TimeRangePass(SpatialIndex<3>* index,
                            const std::vector<Op3>& ops) {
  std::vector<ObjectId> ids;
  VectorSink sink(&ids);
  Timer t;
  for (const Op3& op : ops) {
    if (op.kind() != OpKind::kQuery ||
        op.query().type() != QueryType::kRange) {
      continue;
    }
    ids.clear();
    index->Execute(op.query(), sink);
  }
  return t.Millis();
}

/// Records each mode's median pass time and the B-over-A speedup.
inline void SetAbMedians(std::vector<double> a_ms, std::vector<double> b_ms,
                         AbResult* r) {
  std::sort(a_ms.begin(), a_ms.end());
  std::sort(b_ms.begin(), b_ms.end());
  r->a_median_ms = a_ms[a_ms.size() / 2];
  r->b_median_ms = b_ms[b_ms.size() / 2];
  r->speedup = r->b_median_ms > 0 ? r->a_median_ms / r->b_median_ms : 0;
}

/// Timed passes per A/B mode (interleaved, so 2x this many passes total).
constexpr int kAbRounds = 5;

/// The scalar-vs-native SIMD A/B over the converged read stream of a QUASII
/// index. The index must already be converged for `ops` — the verification
/// passes require `cracks == 0` in both modes, so any reorganization fails
/// the `counters_match` verdict. The native tier is restored after.
inline AbResult MeasureSimdAb(SpatialIndex<3>* index,
                              const std::vector<Op3>& ops,
                              std::uint64_t expected_checksum) {
  const simd::Tier native = simd::ActiveTier();
  AbResult r;
  r.name = "simd";
  r.mode_a = "scalar";
  r.mode_b = simd::TierName(native);
  r.rounds = kAbRounds;
  std::vector<double> a_ms;
  std::vector<double> b_ms;
  for (int i = 0; i < kAbRounds; ++i) {
    simd::ForceTier(simd::Tier::kScalar);
    a_ms.push_back(TimeRangePass(index, ops));
    simd::ForceTier(native);
    b_ms.push_back(TimeRangePass(index, ops));
  }
  QueryStats stats[2];
  std::uint64_t sums[2];
  for (const int mode : {0, 1}) {
    simd::ForceTier(mode == 0 ? simd::Tier::kScalar : native);
    index->ResetStats();
    sums[mode] = RangeQueryChecksum(index, ops).checksum;
    stats[mode] = index->stats();
  }
  simd::ForceTier(native);
  r.checksum_match =
      sums[0] == expected_checksum && sums[1] == expected_checksum;
  r.counters_match =
      stats[0].objects_tested == stats[1].objects_tested &&
      stats[0].partitions_visited == stats[1].partitions_visited &&
      stats[0].cracks == 0 && stats[1].cracks == 0;
  SetAbMedians(a_ms, b_ms, &r);
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
  v.checksum = RangeQueryChecksum(&index, ops).checksum;
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
  SetAbMedians(a_ms, b_ms, &r);
  return r;
}

/// The converged-QUASII measurements, taken once QUASII has run a whole
/// sequential, non-durable uniform config with a pure-range mix (so it is
/// converged for the stream): the read-path scaling curve, the
/// snapshot→recover round trip (which must replay with zero cracks), and
/// the simd and parallel A/Bs. Results must be bit-identical in every mode;
/// only the times may differ.
inline void MeasureConvergedQuasii(SpatialIndex<3>* index,
                                   const Dataset3& data,
                                   const std::vector<Op3>& ops,
                                   IndexRun* run) {
  const std::uint64_t checksum = run->post_workload.checksum;
  run->scaling = MeasureScaling(index, ops);
  QuasiiIndex<3> fresh(data);
  run->recovery = MeasureRecovery(
      *index, &fresh, ops, checksum,
      "quasii_bench_" + std::to_string(getpid()) + "_" +
          std::to_string(data.size()) + ".snapshot");
  run->ab.push_back(MeasureSimdAb(index, ops, checksum));
  // The only comparison that re-cracks: cold-start first-query cost at 1 vs
  // 8 intra-query exec threads, over fresh indexes each round.
  run->ab.push_back(MeasureParallelAb(data, ops, checksum));
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

/// p50/p90/p99 of one latency sample.
inline void WritePercentiles(JsonWriter* w, const std::vector<double>& ms) {
  w->Key("p50_ms").Double(Percentile(ms, 0.50));
  w->Key("p90_ms").Double(Percentile(ms, 0.90));
  w->Key("p99_ms").Double(Percentile(ms, 0.99));
}

inline void WriteRun(JsonWriter* w, const IndexRun& run,
                     const DurabilityConfig& dur_config) {
  w->BeginObject();
  w->Key("index").String(run.name);
  w->Key("build_ms").Double(run.build_ms);
  w->Key("first_query_ms").Double(run.first_query_ms);
  w->Key("total_query_ms").Double(run.total_query_ms);
  w->Key("steady_tail_mean_ms").Double(run.steady_tail_mean_ms);
  // Tail-latency summary over every client-observed per-op latency of the
  // run (all threads concatenated in a threaded run).
  WritePercentiles(w, run.latencies_ms);
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
    w->Key("query").Uint(p.query);
    w->Key("cumulative_ms").Double(p.cumulative_ms);
    w->Key("cumulative_cracks").Uint(p.cumulative_cracks);
    w->Key("cumulative_objects_moved").Uint(p.cumulative_objects_moved);
    w->EndObject();
  }
  w->EndArray();
  if (!run.per_thread.empty()) {
    // Threaded runs: the batch wall clock (the throughput denominator —
    // the per-op sum `total_query_ms` counts client-observed latencies,
    // scheduling delay included) and one section per thread, each one
    // client of the run. Per-type stats inside them stay zero — see
    // `ThreadRun`.
    w->Key("wall_ms").Double(run.wall_ms);
    w->Key("per_thread").BeginArray();
    for (const ThreadRun& section : run.per_thread) {
      w->BeginObject();
      w->Key("thread").Uint(static_cast<std::uint64_t>(section.thread));
      w->Key("ops").Uint(section.latencies_ms.size());
      w->Key("total_ms").Double(section.total_ms);
      WritePercentiles(w, section.latencies_ms);
      w->Key("result_objects").Uint(section.result_objects);
      w->EndObject();
    }
    w->EndArray();
  }
  if (run.durability) {
    const DurabilityRun& dur = *run.durability;
    w->Key("durability").BeginObject();
    w->Key("wal_path").String(dur_config.wal_path);
    w->Key("snapshot_path").String(dur_config.EffectiveSnapshotPath());
    w->Key("fsync").String(
        std::string(persist::FsyncPolicyName(dur_config.fsync)));
    w->Key("wal_records").Uint(dur.wal_records);
    w->Key("wal_bytes").Uint(dur.wal_bytes);
    w->Key("wal_syncs").Uint(dur.wal_syncs);
    w->Key("wal_ms").Double(dur.wal_ms);
    w->Key("snapshots_written").Uint(dur.snapshots_written);
    w->Key("snapshot_ms").Double(dur.snapshot_ms);
    if (dur.recovered) {
      w->Key("recovery").BeginObject();
      w->Key("recover_ms").Double(dur.recover_ms);
      w->Key("snapshot_loaded").Bool(dur.recovery.snapshot_loaded);
      w->Key("structure_restored").Bool(dur.recovery.structure_restored);
      w->Key("snapshot_lsn").Uint(dur.recovery.snapshot_lsn);
      w->Key("wal_records").Uint(dur.recovery.wal_records);
      w->Key("wal_replayed").Uint(dur.recovery.wal_replayed);
      w->Key("wal_tail_truncated").Bool(dur.recovery.wal_tail_truncated);
      w->Key("recovered_lsn").Uint(dur.recovery.recovered_lsn);
      w->EndObject();
    }
    w->EndObject();
  }
  if (!run.scaling.empty()) {
    const double base_qps = run.scaling.front().queries_per_s;
    w->Key("scaling").BeginArray();
    for (const ScalingPoint& p : run.scaling) {
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
  if (run.recovery) {
    const RecoveryPoint& rec = *run.recovery;
    w->Key("recovery").BeginObject();
    w->Key("ok").Bool(rec.ok);
    w->Key("snapshot_bytes").Uint(rec.snapshot_bytes);
    w->Key("save_ms").Double(rec.save_ms);
    w->Key("recover_ms").Double(rec.recover_ms);
    w->Key("replay_queries").Uint(rec.replay_queries);
    w->Key("replay_cracks").Uint(rec.replay_cracks);
    w->Key("checksum_match").Bool(rec.checksum_match);
    w->EndObject();
  }
  if (!run.ab.empty()) {
    w->Key("ab").BeginObject();
    for (const AbResult& r : run.ab) {
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

/// Runs one config over its roster and appends its `configs[]` entry. A
/// durability or recovery failure sets `*error` and returns false.
inline bool RunConfig(const BenchConfig& config, JsonWriter* w,
                      std::string* error) {
  Dataset3 data;
  Box3 universe;
  std::vector<Box3> boxes;
  MakeBenchInputs(config, &data, &universe, &boxes);
  std::vector<Box3> join_source;
  if (config.mix.join > 0) join_source = MakeJoinSource(config, universe);
  // Self-join rounds run sequentially.
  const bool self_join = config.workload == "join";
  const bool threaded = config.threads > 1 && !self_join;
  const bool durable = config.durability.enabled();
  if (durable) {
    *error = CheckWalStart(config.durability);
    if (!error->empty()) return false;
  }
  std::vector<Op3> ops;
  std::vector<std::vector<Op3>> streams;
  std::size_t total_ops = 0;
  if (threaded) {
    streams = MakeThreadOpStreams(boxes, MakeBenchSpec(config), data.size(),
                                  config.threads, &join_source);
    for (const auto& s : streams) total_ops += s.size();
  } else {
    // A self-join round's op is a placeholder: `ExecTimedOp` joins the
    // index with itself.
    ops = self_join ? std::vector<Op3>(kJoinRounds, Op3::MakeStreamJoin({}))
                    : MakeOpWorkload<3>(boxes, MakeBenchSpec(config),
                                        data.size(), &join_source);
    total_ops = ops.size();
  }
  const bool converged_extras = config.workload == "uniform" &&
                                config.mix.IsPureRange() && !threaded &&
                                !durable;

  w->BeginObject();
  w->Key("dataset").String(config.dataset);
  w->Key("workload").String(config.workload);
  w->Key("n").Uint(data.size());
  w->Key("queries").Uint(total_ops);
  w->Key("selectivity").Double(config.selectivity);
  w->Key("seed").Uint(config.seed);
  w->Key("mix");
  WriteMix(w, config.mix);
  w->Key("knn_k").Uint(config.knn_k);
  w->Key("threads").Uint(static_cast<std::uint64_t>(threaded ? config.threads
                                                             : 1));
  w->Key("results").BeginArray();
  for (const auto& index : MakeIndexRoster(data, universe, config.indexes)) {
    IndexRun run =
        threaded ? RunIndexThreaded(index.get(), streams)
                 : RunIndex(index.get(), ops, self_join,
                            durable ? &config.durability : nullptr);
    if (run.durability && run.durability->recovered &&
        !run.durability->recovery.ok()) {
      const persist::RecoveryResult& rec = run.durability->recovery;
      *error = std::string("recovery failed: ") +
               persist::PersistErrorName(rec.error) +
               (rec.detail.empty() ? "" : ": ") + rec.detail;
      return false;
    }
    if (run.durability &&
        run.durability->error != persist::PersistError::kNone) {
      *error = std::string("durability failure: ") +
               persist::PersistErrorName(run.durability->error);
      return false;
    }
    if (converged_extras && index->name() == "QUASII") {
      MeasureConvergedQuasii(index.get(), data, ops, &run);
    }
    WriteRun(w, run, config.durability);
  }
  w->EndArray();
  w->EndObject();
  return true;
}

/// Runs every config in order and returns the `quasii-bench-v10` report
/// (README "Report schema"). A durability or recovery failure sets
/// `*error` (when given) and returns "".
inline std::string RunBenchmark(const std::vector<BenchConfig>& configs,
                                std::string* error = nullptr) {
  std::string local_error;
  if (error == nullptr) error = &local_error;
  error->clear();
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("quasii-bench-v10");
  w.Key("options").BeginObject();
  w.Key("simd_tier").String(simd::TierName(simd::ActiveTier()));
  w.Key("exec_threads").Int(IntraQueryThreads());
  w.Key("grain").Uint(static_cast<std::uint64_t>(MorselGrain()));
  w.EndObject();
  w.Key("configs").BeginArray();
  for (const BenchConfig& config : configs) {
    if (!RunConfig(config, &w, error)) return "";
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace quasii::bench

#endif  // QUASII_BENCH_BENCH_H_
