// Experiment driver: runs every index of the Section 6 evaluation over a
// generated dataset + query workload and prints a JSON report (per-query
// latencies, cumulative QueryStats, per-query-type breakdown per index) to
// stdout or --out.
//
// Examples:
//   quasii_bench --dataset=uniform --workload=uniform --n=1048576
//   quasii_bench --dataset=neuro --workload=clustered --queries=500
//       --indexes=QUASII,Scan --out=bench.json
//   quasii_bench --mix=range:0.7,point:0.2,count:0.05,knn:0.05 --knn-k=10
//   quasii_bench --indexes=QUASII --mix=range:0.8,insert:0.1,erase:0.1
//       --wal=/tmp/run.wal --snapshot-every=256 --fsync=every_n
//   quasii_bench --indexes=QUASII --wal=/tmp/run.wal --recover
//
// Argument parsing is strict: unknown flags, missing values, and malformed
// numbers are a one-line diagnostic and exit code 2 — never a silent
// default.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench.h"
#include "bench/cli.h"

namespace {

using quasii::bench::BenchConfig;
namespace cli = quasii::bench::cli;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: quasii_bench [--dataset=uniform|neuro]\n"
               "                    [--workload=uniform|clustered]\n"
               "                    [--n=COUNT] [--queries=COUNT]\n"
               "                    [--selectivity=FRACTION] [--seed=SEED]\n"
               "                    [--indexes=NAME,NAME,...] [--out=PATH]\n"
               "                    [--mix=range:W,point:W,count:W,knn:W,\n"
               "                           join:W,insert:W,erase:W]\n"
               "                    [--knn-k=K] [--threads=N]\n"
               "                    [--wal=PATH] [--snapshot=PATH]\n"
               "                    [--snapshot-every=N]\n"
               "                    [--fsync=every_op|every_n|none]\n"
               "                    [--fsync-n=N] [--recover]\n"
               "--mix types the workload (weights are ratios; default pure\n"
               "range); point/kNN queries probe the footprint box centres.\n"
               "join ops stream a window of a fixed 64-box right-hand set\n"
               "(seed+3) against the index, reporting canonical pair counts.\n"
               "insert/erase weights turn it into a read/write stream:\n"
               "inserts add fresh objects derived from the footprint boxes,\n"
               "erases remove uniform victims from the live id pool.\n"
               "--threads=N splits the workload into N deterministic\n"
               "per-thread op streams (disjoint id spaces) executed\n"
               "concurrently; the report gains wall_ms and per-thread\n"
               "sections.\n"
               "--wal=PATH logs every accepted mutation to an append-only\n"
               "WAL (requires exactly one --indexes entry and --threads=1);\n"
               "--snapshot-every=N also snapshots the index every N accepted\n"
               "mutations (default snapshot path: WAL path + .snapshot).\n"
               "--recover restores the index from the snapshot + WAL before\n"
               "running the workload.\n");
}

/// One strict-parse failure: diagnostic naming the flag, nonzero exit.
[[noreturn]] void Die(const std::string& flag, const char* why) {
  std::fprintf(stderr, "quasii_bench: bad %s: %s\n", flag.c_str(), why);
  std::exit(2);
}

void ParseArgOrDie(const std::string& arg, BenchConfig* config,
                   std::string* out_path) {
  const cli::FlagArg flag = cli::SplitFlag(arg);
  if (!flag.is_flag) {
    std::fprintf(stderr, "quasii_bench: unrecognized argument: %s\n",
                 arg.c_str());
    std::exit(2);
  }
  // --recover is the only value-less flag.
  if (flag.key == "recover") {
    if (flag.has_value) Die(arg, "--recover takes no value");
    config->durability.recover = true;
    return;
  }
  if (!flag.has_value) {
    std::fprintf(stderr, "quasii_bench: missing value: %s (use --%s=VALUE)\n",
                 arg.c_str(), flag.key.c_str());
    std::exit(2);
  }
  const std::string& value = flag.value;
  if (flag.key == "dataset") {
    if (value != "uniform" && value != "neuro") {
      Die(arg, "expected uniform or neuro");
    }
    config->dataset = value;
  } else if (flag.key == "workload") {
    if (value != "uniform" && value != "clustered") {
      Die(arg, "expected uniform or clustered");
    }
    config->workload = value;
  } else if (flag.key == "n") {
    std::uint64_t n = 0;
    if (!cli::ParseU64(value, &n) || n == 0) {
      Die(arg, "expected a positive integer");
    }
    config->n = static_cast<std::size_t>(n);
  } else if (flag.key == "queries") {
    std::int64_t q = 0;
    if (!cli::ParseI64(value, &q) || q <= 0 || q > 1'000'000'000) {
      Die(arg, "expected a positive integer");
    }
    config->queries = static_cast<int>(q);
  } else if (flag.key == "selectivity") {
    double s = 0;
    if (!cli::ParseDouble(value, &s) || !(s > 0.0) || s > 1.0) {
      Die(arg, "expected a fraction in (0, 1]");
    }
    config->selectivity = s;
  } else if (flag.key == "seed") {
    if (!cli::ParseU64(value, &config->seed)) {
      Die(arg, "expected a non-negative integer");
    }
  } else if (flag.key == "indexes") {
    config->indexes = cli::SplitCommas(value);
    if (config->indexes.empty()) Die(arg, "expected at least one index name");
  } else if (flag.key == "mix") {
    if (!quasii::bench::ParseWorkloadMix(value, &config->mix)) {
      Die(arg, "expected TYPE:WEIGHT pairs with a positive total");
    }
  } else if (flag.key == "knn-k") {
    std::uint64_t k = 0;
    if (!cli::ParseU64(value, &k) || k == 0) {
      Die(arg, "expected a positive integer");
    }
    config->knn_k = static_cast<std::size_t>(k);
  } else if (flag.key == "threads") {
    std::int64_t t = 0;
    if (!cli::ParseI64(value, &t) || t <= 0 ||
        t > quasii::TaskScheduler::kMaxThreads) {
      Die(arg, ("expected an integer in [1, " +
                std::to_string(quasii::TaskScheduler::kMaxThreads) + "]")
                   .c_str());
    }
    config->threads = static_cast<int>(t);
  } else if (flag.key == "wal") {
    if (value.empty()) Die(arg, "expected a file path");
    config->durability.wal_path = value;
  } else if (flag.key == "snapshot") {
    if (value.empty()) Die(arg, "expected a file path");
    config->durability.snapshot_path = value;
  } else if (flag.key == "snapshot-every") {
    std::uint64_t every = 0;
    if (!cli::ParseU64(value, &every) || every == 0) {
      Die(arg, "expected a positive mutation count");
    }
    config->durability.snapshot_every = static_cast<std::size_t>(every);
  } else if (flag.key == "fsync") {
    if (value == "every_op") {
      config->durability.fsync = quasii::persist::FsyncPolicy::kEveryOp;
    } else if (value == "every_n") {
      config->durability.fsync = quasii::persist::FsyncPolicy::kEveryN;
    } else if (value == "none") {
      config->durability.fsync = quasii::persist::FsyncPolicy::kNone;
    } else {
      Die(arg, "expected every_op, every_n, or none");
    }
  } else if (flag.key == "fsync-n") {
    std::uint64_t every = 0;
    if (!cli::ParseU64(value, &every) || every == 0) {
      Die(arg, "expected a positive record count");
    }
    config->durability.fsync_every_n = static_cast<std::size_t>(every);
  } else if (flag.key == "out") {
    if (value.empty()) Die(arg, "expected a file path");
    *out_path = value;
  } else {
    std::fprintf(stderr, "quasii_bench: unknown flag: --%s\n",
                 flag.key.c_str());
    PrintUsage();
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  std::string out_path;
  bool saw_snapshot_control = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    ParseArgOrDie(arg, &config, &out_path);
    saw_snapshot_control =
        saw_snapshot_control || arg.rfind("--snapshot", 0) == 0 ||
        arg.rfind("--fsync", 0) == 0 || arg == "--recover";
  }
  if (!config.durability.enabled()) {
    if (saw_snapshot_control) {
      std::fprintf(stderr,
                   "quasii_bench: --snapshot*/--fsync*/--recover require "
                   "--wal=PATH\n");
      return 2;
    }
  } else {
    // Persistence is single-threaded by contract and one WAL describes one
    // index's mutation history — anything else would interleave streams.
    if (config.threads != 1) {
      std::fprintf(stderr, "quasii_bench: --wal requires --threads=1\n");
      return 2;
    }
    if (config.indexes.size() != 1) {
      std::fprintf(stderr,
                   "quasii_bench: --wal requires exactly one --indexes "
                   "entry\n");
      return 2;
    }
  }

  std::string error;
  const std::string report = quasii::bench::RunBenchmark(config, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "quasii_bench: %s\n", error.c_str());
    return 1;
  }
  if (out_path.empty()) {
    std::cout << report << std::endl;
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << report << '\n';
  }
  return 0;
}
