// Shared pieces of the benchmark driver: arguments, the metric registry and
// run report, generated operations, result checks and the fingerprint.
#ifndef QBENCH_COMMON_H_
#define QBENCH_COMMON_H_

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/query.h"
#include "common/request.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "metrics.h"
#include "quasii/quasii_index.h"
#include "trace.h"

namespace qbench {

using quasii::Box3;
using quasii::Dataset3;
using quasii::ObjectId;
using quasii::Rng;
using quasii::SpatialIndex;

/// Fixed workload parameters (also spelled out in BENCHMARK.json).
inline constexpr std::size_t kObjects = std::size_t{1} << 20;
inline constexpr std::size_t kFootprints = 4096;
inline constexpr double kFootprintSelectivity = 1e-3;
inline constexpr std::size_t kKnnK = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;    ///< quasii_server binary
  std::string work_dir;  ///< scratch directory inside the checkout
  std::string git = "none";
  std::string digest = "none";
  /// This worker process's index among the run's `parts` processes.
  std::size_t part = 0;
  std::size_t parts = 1;
};

/// Every metric the benchmark reports, with its unit. End-to-end metrics
/// are printed by untraced runs, per-layer metrics by traced runs.
struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"session_ms", "ms"},          {"first_query_ms", "ms"},
    {"throughput_ops_s", "ops/s"}, {"latency_p50_ms", "ms"},
    {"max_rate_ops_s", "ops/s"},   {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// `latency_p99_ms` is user-visible but reported with the layers, without
/// a bound: on served_rw it measures the host's stalls more than the
/// server (see README.md), and no bound of at most 25% holds it.
inline constexpr MetricDef kPerLayer[] = {
    {"latency_p99_ms", "ms"},
    {"datagen.dataset_ms", "ms"},
    {"datagen.footprints_ms", "ms"},
    {"quasii.crack_query_ms", "ms"},
    {"quasii.crack_queries", "count"},
    {"quasii.cracks", "count"},
    {"quasii.objects_moved", "count"},
    {"quasii.first_query_moved", "count"},
    {"quasii.read_query_us", "us"},
    {"quasii.descent_us", "us"},
    {"quasii.partitions_per_query", "count"},
    {"quasii.tested_per_result", "ratio"},
    {"quasii.warmup_ms", "ms"},
    {"quasii.warmup_cracks", "count"},
    {"crack_array.moved_rows_per_ms", "rows/ms"},
    {"crack_array.scan_bytes_per_result", "B"},
    {"crack_array.scan_gb_s", "GB/s"},
    {"packed_column.resident_mb", "MiB"},
    {"packed_column.packed_row_share", "ratio"},
    {"task_scheduler.tasks", "count"},
    {"task_scheduler.worker_share", "ratio"},
    {"task_scheduler.steals", "count"},
    {"server.ping_rtt_p50_us", "us"},
    {"server.ping_rtt_tail_us", "us"},
    {"server.ping_rtt_tail_pct", "%"},
    {"server.overloaded", "count"},
    {"server.frame_errors", "count"},
    {"server.window_cracks", "count"},
    {"server.window_moved", "count"},
    {"server.batch_mean", "ops"},
    {"server.batched_share", "ratio"},
    {"server.exec_tasks", "count"},
    {"request.encode_us", "us"},
    {"request.decode_us", "us"},
    {"request.bytes_per_op", "B"},
    {"recorder.bytes_per_request", "B"},
    {"generator.late_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.span_cover_share", "ratio"},
    {"trace.spans", "count"},
};

/// A run's metrics, op accounting and verdict.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  /// Records a failed output check. `ops` operations count as failed.
  void Fail(const std::string& why, std::uint64_t ops = 1) {
    std::fprintf(stderr, "qbench: check failed: %s\n", why.c_str());
    correct_ = false;
    failed_ += ops;
  }
  /// Counts failed operations that are not wrong outputs (refusals,
  /// transport errors) — the run stays correct.
  void FailOps(std::uint64_t ops) { failed_ += ops; }
  void Attempt(std::uint64_t ops) { attempted_ += ops; }

  bool correct() const { return correct_; }

  /// The result line: every metric of the active list, by name and unit.
  std::string Json(bool trace) {
    std::ostringstream out;
    bool first = true;
    const std::span<const MetricDef> defs =
        trace ? std::span<const MetricDef>(kPerLayer)
              : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef& d : defs) {
      // A per-layer metric of a layer the workload does not run reads 0.
      // An end-to-end metric is measured on every workload, so a missing
      // one is a fault of the driver; a value of 0 (no ladder rate passed)
      // is a valid, bad measurement.
      double v = 0;
      auto it = values_.find(d.name);
      if (it != values_.end()) v = it->second;
      if (!std::isfinite(v) || (!trace && it == values_.end())) {
        Fail(std::string("metric ") + d.name + " was not measured");
        v = 0;
      }
      char num[64];
      std::snprintf(num, sizeof(num), "%.12g", v);
      out << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": " << num
          << ", \"unit\": \"" << d.unit << "\"}";
      first = false;
    }
    // The header comes last: a metric check above may have failed the run.
    std::ostringstream head;
    head << "{\"correct\": " << (correct_ ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
         << ", \"failed\": " << failed_ << ", \"metrics\": {";
    return head.str() + out.str() + "}}";
  }

 private:
  std::map<std::string, double> values_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Generated operations --------------------------------------------------

enum class OpType : std::uint8_t {
  kRange,
  kCount,
  kPoint,
  kKnn,
  kInsert,
  kErase,
  kPing,
  kStats
};

struct Op {
  OpType type = OpType::kRange;
  Box3 box;         ///< reads: the footprint; inserts: the new object
  ObjectId id = 0;  ///< inserts / erases
};

struct MixWeight {
  OpType type;
  double weight;
};

inline OpType DrawType(Rng& rng, std::span<const MixWeight> mix) {
  double total = 0;
  for (const MixWeight& m : mix) total += m.weight;
  double u = rng.Uniform(0, total);
  for (const MixWeight& m : mix) {
    if (u < m.weight) return m.type;
    u -= m.weight;
  }
  return mix.back().type;
}

inline quasii::Query<3> ReadQuery(const Op& op) {
  switch (op.type) {
    case OpType::kCount:
      return quasii::CountQuery(op.box);
    case OpType::kPoint:
      return quasii::PointQuery(op.box.Center());
    case OpType::kKnn:
      return quasii::KNearestQuery(op.box.Center(), kKnnK);
    default:
      return quasii::RangeQuery(op.box);
  }
}

inline quasii::Request<3> OpRequest(const Op& op) {
  switch (op.type) {
    case OpType::kInsert:
      return quasii::Request<3>::MakeInsert(op.id, op.box);
    case OpType::kErase:
      return quasii::Request<3>::MakeErase(op.id);
    case OpType::kPing:
      return quasii::Request<3>::MakePing();
    case OpType::kStats:
      return quasii::Request<3>::MakeStats();
    default:
      return quasii::Request<3>::MakeQuery(ReadQuery(op));
  }
}

/// The dataset: the paper's uniform synthetic boxes (n = 2^20).
inline quasii::datagen::UniformDatasetParams DatasetParams(std::uint64_t seed) {
  quasii::datagen::UniformDatasetParams p;
  p.count = kObjects;
  p.seed = seed;
  return p;
}

/// The read footprints: uniform cubes of selectivity 1e-3.
inline std::vector<Box3> MakeFootprints(std::uint64_t seed) {
  quasii::datagen::UniformQueryParams p;
  p.count = static_cast<int>(kFootprints);
  p.selectivity = kFootprintSelectivity;
  p.seed = Rng::SplitMix64(seed ^ 0xF00Dull);
  return quasii::datagen::MakeUniformQueries(
      quasii::datagen::UniformUniverse(DatasetParams(seed)), p);
}

// --- Result checks -----------------------------------------------------------

/// A read's result: the ids (empty for counts) and the match count.
struct ReadResult {
  std::vector<ObjectId> ids;
  std::uint64_t count = 0;
};

inline void ExecuteRead(SpatialIndex<3>& index, const Op& op,
                        ReadResult* out) {
  out->ids.clear();
  if (op.type == OpType::kCount) {
    quasii::CountSink sink;
    index.Execute(ReadQuery(op), sink);
    out->count = sink.count();
  } else {
    quasii::VectorSink sink(&out->ids);
    index.Execute(ReadQuery(op), sink);
    out->count = out->ids.size();
  }
}

inline std::uint64_t HashResult(const ReadResult& r) {
  std::uint64_t h = quasii::FnvMix(quasii::kFnvBasis, r.count);
  for (const ObjectId id : r.ids) h = quasii::FnvMix(h, id);
  return h;
}

/// Oracle comparison: range and point results as sorted id sets, counts by
/// value, kNN as the exact (distance, id)-ordered sequence the
/// tie-deterministic `TopKSink` defines.
inline bool SameResult(OpType type, ReadResult a, ReadResult b) {
  if (a.count != b.count) return false;
  if (type == OpType::kCount) return true;
  if (type != OpType::kKnn) {
    std::sort(a.ids.begin(), a.ids.end());
    std::sort(b.ids.begin(), b.ids.end());
  }
  return a.ids == b.ids;
}

// --- Process and machine facts ----------------------------------------------

/// VmHWM (peak resident set) of a process, in MiB; 0 if unreadable.
inline double PeakRssMb(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

inline int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

#ifndef QBENCH_BUILD_TYPE
#define QBENCH_BUILD_TYPE "unknown"
#endif

/// The hardware and configuration a report's numbers came from.
inline std::string Fingerprint(const Args& a, int intra_threads,
                               int pool_threads, int exec_threads) {
  std::ostringstream f;
  f << "{\"fingerprint\": {\"workload\": \"" << JsonEscape(a.workload)
    << "\", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
    << ", \"trace\": " << (a.trace ? 1 : 0)
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"usable_cpus\": " << UsableCpus() << ", \"cpu_model\": \""
    << JsonEscape(CpuModel()) << "\", \"simd_tier\": \""
    << quasii::simd::TierName(quasii::simd::ActiveTier())
    << "\", \"packing\": "
    << (quasii::QuasiiIndex<3>::PackingEnabled() ? "true" : "false")
    << ", \"intra_query_threads\": " << intra_threads
    << ", \"server_pool_threads\": " << pool_threads
    << ", \"server_exec_threads\": " << exec_threads
    << ", \"compiler\": \"" << JsonEscape(__VERSION__)
    << "\", \"build_type\": \"" << QBENCH_BUILD_TYPE << "\", \"git_commit\": \""
    << JsonEscape(a.git) << "\", \"source_digest\": \"" << JsonEscape(a.digest)
    << "\", \"objects\": " << kObjects << "}}";
  return f.str();
}

}  // namespace qbench

#endif  // QBENCH_COMMON_H_
