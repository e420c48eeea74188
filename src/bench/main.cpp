// Experiment driver: runs a matrix of configurations (every --workload at
// every --n) over the chosen index roster and prints one JSON report
// (schema quasii-bench-v10) to stdout or --out.
//
// Examples:
//   quasii_bench --dataset=neuro --workload=clustered --queries=500
//       --indexes=QUASII,Scan --out=bench.json
//   quasii_bench --n=8192,16384 --queries=200
//       --workload=uniform,clustered,readwrite,join
//       --indexes=Scan,SFCracker,QUASII --out=BENCH_quasii_ci.json
//   quasii_bench --mix=range:0.7,point:0.2,count:0.05,knn:0.05 --knn-k=10
//   quasii_bench --indexes=QUASII --mix=range:0.8,insert:0.1,erase:0.1
//       --wal=/tmp/run.wal --snapshot-every=256 --fsync=every_n
//   quasii_bench --indexes=QUASII --wal=/tmp/run.wal --recover
//
// Argument parsing is strict: unknown flags, missing values, malformed
// numbers and empty list items are a one-line diagnostic and exit code 2 —
// never a silent default.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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
               "                    [--workload=W,...] [--n=COUNT,...]\n"
               "                    [--queries=COUNT] [--selectivity=FRAC]\n"
               "                    [--seed=SEED] [--indexes=NAME,NAME,...]\n"
               "                    [--out=PATH]\n"
               "                    [--mix=range:W,point:W,count:W,knn:W,\n"
               "                           join:W,insert:W,erase:W]\n"
               "                    [--knn-k=K] [--threads=N]\n"
               "                    [--wal=PATH] [--snapshot=PATH]\n"
               "                    [--snapshot-every=N]\n"
               "                    [--fsync=every_op|every_n|none]\n"
               "                    [--fsync-n=N] [--recover]\n"
               "The report holds one config per (workload, n), workloads\n"
               "outermost. Workloads: uniform and clustered footprints,\n"
               "typed by --mix (default pure range); the presets mixed\n"
               "(70/20/5/5 range/point/count/kNN), readwrite (55/15/5/5\n"
               "queries + 15%% insert, 5%% erase) and join (4 self-joins per\n"
               "index; quadratic for Scan) run over uniform footprints and\n"
               "take no --mix. --selectivity defaults to 1e-4 on clustered,\n"
               "1e-3 otherwise. Indexes: Scan, SFC, SFCracker, GridQueryExt,\n"
               "Mosaic, R-Tree, QUASII (default: all).\n"
               "join mix ops stream a window of a fixed 64-box right-hand set\n"
               "(seed+3) against the index, reporting canonical pair counts.\n"
               "insert/erase weights turn it into a read/write stream.\n"
               "--threads=N splits each workload into N deterministic\n"
               "per-thread op streams (disjoint id spaces) executed\n"
               "concurrently; results gain wall_ms and per-thread sections.\n"
               "--wal=PATH logs every accepted mutation to an append-only\n"
               "WAL (one --indexes entry, one --n and --workload,\n"
               "--threads=1; an existing non-empty WAL needs --recover);\n"
               "--snapshot-every=N also snapshots the index every N accepted\n"
               "mutations (default snapshot path: WAL path + .snapshot).\n"
               "--recover restores the index from the snapshot + WAL before\n"
               "running the workload.\n");
}

/// One strict-parse failure: diagnostic naming the flag, nonzero exit.
[[noreturn]] void Die(const std::string& flag, const std::string& why) {
  std::fprintf(stderr, "quasii_bench: bad %s: %s\n", flag.c_str(),
               why.c_str());
  std::exit(2);
}

/// A usage error that is not one flag's value: diagnostic, exit code 2.
[[noreturn]] void Reject(const char* why) {
  std::fprintf(stderr, "quasii_bench: %s\n", why);
  std::exit(2);
}

/// The parsed command line: one config template plus the matrix axes.
struct Args {
  BenchConfig base;
  std::vector<std::size_t> ns = {BenchConfig().n};
  std::vector<std::string> workloads = {"uniform"};
  bool selectivity_set = false;
  bool mix_set = false;
  bool snapshot_control_set = false;
  std::string out_path;
};

bool IsPreset(const std::string& workload) {
  return workload == "mixed" || workload == "readwrite" || workload == "join";
}

void ParseArgOrDie(const std::string& arg, Args* args) {
  BenchConfig* config = &args->base;
  const cli::FlagArg flag = cli::SplitFlag(arg);
  if (!flag.is_flag) {
    std::fprintf(stderr, "quasii_bench: unrecognized argument: %s\n",
                 arg.c_str());
    std::exit(2);
  }
  args->snapshot_control_set =
      args->snapshot_control_set || flag.key.rfind("snapshot", 0) == 0 ||
      flag.key.rfind("fsync", 0) == 0 || flag.key == "recover";
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
  std::vector<std::string> items;
  if (flag.key == "dataset") {
    if (value != "uniform" && value != "neuro") {
      Die(arg, "expected uniform or neuro");
    }
    config->dataset = value;
  } else if (flag.key == "workload") {
    bool ok = cli::SplitCommas(value, &items);
    for (const std::string& w : items) {
      ok = ok && (w == "uniform" || w == "clustered" || IsPreset(w));
    }
    if (!ok) {
      Die(arg, "expected a comma list of uniform, clustered, mixed, "
               "readwrite, join");
    }
    args->workloads = items;
  } else if (flag.key == "n") {
    bool ok = cli::SplitCommas(value, &items);
    args->ns.clear();
    for (const std::string& item : items) {
      std::uint64_t n = 0;
      ok = ok && cli::ParseU64(item, &n) && n > 0;
      args->ns.push_back(static_cast<std::size_t>(n));
    }
    if (!ok) Die(arg, "expected a comma list of positive integers");
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
    args->selectivity_set = true;
  } else if (flag.key == "seed") {
    if (!cli::ParseU64(value, &config->seed)) {
      Die(arg, "expected a non-negative integer");
    }
  } else if (flag.key == "indexes") {
    std::string why;
    if (!quasii::bench::ParseIndexList(value, &config->indexes, &why)) {
      Die(arg, why);
    }
  } else if (flag.key == "mix") {
    if (!quasii::bench::ParseWorkloadMix(value, &config->mix)) {
      Die(arg, "expected TYPE:WEIGHT pairs with a positive total");
    }
    args->mix_set = true;
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
      Die(arg, "expected an integer in [1, " +
                   std::to_string(quasii::TaskScheduler::kMaxThreads) + "]");
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
    args->out_path = value;
  } else {
    std::fprintf(stderr, "quasii_bench: unknown flag: --%s\n",
                 flag.key.c_str());
    PrintUsage();
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    ParseArgOrDie(arg, &args);
  }
  const BenchConfig& base = args.base;
  const auto& workloads = args.workloads;
  if (args.mix_set &&
      std::any_of(workloads.begin(), workloads.end(), IsPreset)) {
    Reject("--mix cannot be combined with the mixed, readwrite or join "
           "presets");
  }
  if (base.threads != 1 &&
      std::find(workloads.begin(), workloads.end(), "join") !=
          workloads.end()) {
    Reject("--workload=join runs sequentially (--threads=1)");
  }
  if (!base.durability.enabled()) {
    if (args.snapshot_control_set) {
      Reject("--snapshot*/--fsync*/--recover require --wal=PATH");
    }
  } else {
    // Persistence is single-threaded by contract and one WAL describes one
    // index's mutation history — anything else would interleave streams.
    if (base.threads != 1) Reject("--wal requires --threads=1");
    if (base.indexes.size() != 1) {
      Reject("--wal requires exactly one --indexes entry");
    }
    if (args.ns.size() != 1 || workloads.size() != 1) {
      Reject("--wal requires one --n and one --workload");
    }
    const std::string refusal = quasii::bench::CheckWalStart(base.durability);
    if (!refusal.empty()) Reject(refusal.c_str());
  }

  std::vector<BenchConfig> configs;
  for (const std::string& workload : workloads) {
    for (const std::size_t n : args.ns) {
      BenchConfig config = base;
      config.workload = workload;
      config.n = n;
      // Paper selectivities: 0.1% for the uniform workload (§6.6), 10^-2 %
      // for the clustered default (§6.1).
      if (!args.selectivity_set) {
        config.selectivity = workload == "clustered" ? 1e-4 : 1e-3;
      }
      if (workload == "mixed") {
        config.mix = quasii::bench::DefaultMixedWorkloadMix();
      }
      if (workload == "readwrite") {
        config.mix = quasii::bench::DefaultReadWriteMix();
      }
      configs.push_back(config);
    }
  }

  std::string error;
  const std::string report = quasii::bench::RunBenchmark(configs, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "quasii_bench: %s\n", error.c_str());
    return 1;
  }
  if (args.out_path.empty()) {
    std::cout << report << std::endl;
  } else {
    std::ofstream out(args.out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.out_path.c_str());
      return 1;
    }
    out << report << '\n';
  }
  return 0;
}
