// Query server driver: builds a dataset + index roster (same generators the
// benchmark uses, so a served run is comparable to an in-process one), then
// serves the typed request protocol on a Unix-domain socket until SIGINT or
// SIGTERM. On shutdown prints a JSON report: admission counters plus the
// final content checksum of every roster index — the values the replay
// determinism gate compares against an in-process replay of the recorded
// workload.
//
// Examples:
//   quasii_server --socket=/tmp/quasii.sock --n=65536
//   quasii_server --socket=/tmp/quasii.sock --indexes=QUASII,Scan
//       --record=/tmp/run.workload --snapshot=/tmp/run.snap
//
// Argument parsing is strict: unknown flags, missing values, and malformed
// numbers are a one-line diagnostic and exit code 2 — never a silent
// default.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench.h"
#include "bench/cli.h"
#include "bench/json.h"
#include "server/server.h"

namespace {

namespace cli = quasii::bench::cli;
using quasii::SpatialIndex;
using quasii::server::QueryServer;

struct ServerConfig {
  std::string socket_path;
  std::size_t n = std::size_t{1} << 16;
  std::uint64_t seed = 1;
  std::vector<std::string> indexes;
  std::size_t max_inflight = 256;
  int exec_threads = 1;
  std::string record_path;
  std::string snapshot_path;
  std::string out_path;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: quasii_server --socket=PATH [--n=COUNT] [--seed=SEED]\n"
               "                     [--indexes=NAME,NAME,...]\n"
               "                     [--max-inflight=N] [--exec-threads=N]\n"
               "                     [--record=PATH]\n"
               "                     [--snapshot=PATH] [--out=PATH]\n"
               "Serves the framed request protocol over a Unix-domain\n"
               "socket. --record logs every accepted request to a framed\n"
               "workload log for deterministic replay; --snapshot enables\n"
               "the snapshot admin request (path gains a .<target> suffix).\n"
               "Prints a JSON counter/checksum report on shutdown.\n"
               "--pool-threads=N (1..32) is accepted and range-checked for\n"
               "old command lines but sizes nothing: requests run on the\n"
               "one exec thread, with no batch pool.\n");
}

[[noreturn]] void Die(const std::string& flag, const char* why) {
  std::fprintf(stderr, "quasii_server: bad %s: %s\n", flag.c_str(), why);
  std::exit(2);
}

void ParseArgOrDie(const std::string& arg, ServerConfig* config) {
  const cli::FlagArg flag = cli::SplitFlag(arg);
  if (!flag.is_flag) {
    std::fprintf(stderr, "quasii_server: unrecognized argument: %s\n",
                 arg.c_str());
    PrintUsage();
    std::exit(2);
  }
  std::uint64_t u = 0;
  if (flag.key == "socket") {
    if (!flag.has_value || flag.value.empty()) Die(arg, "expected a path");
    config->socket_path = flag.value;
  } else if (flag.key == "n") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u) || u == 0) {
      Die(arg, "expected a positive integer");
    }
    config->n = static_cast<std::size_t>(u);
  } else if (flag.key == "seed") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u)) {
      Die(arg, "expected an unsigned integer");
    }
    config->seed = u;
  } else if (flag.key == "indexes") {
    if (!flag.has_value) Die(arg, "expected a comma-separated name list");
    config->indexes = cli::SplitCommas(flag.value);
  } else if (flag.key == "max-inflight") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u) || u == 0) {
      Die(arg, "expected a positive integer");
    }
    config->max_inflight = static_cast<std::size_t>(u);
  } else if (flag.key == "pool-threads") {
    // Parsed and checked only: the batch pool it sized is gone.
    if (!flag.has_value || !cli::ParseU64(flag.value, &u) || u == 0 ||
        u > quasii::TaskScheduler::kMaxThreads) {
      Die(arg, ("expected an integer in [1, " +
                std::to_string(quasii::TaskScheduler::kMaxThreads) + "]")
                   .c_str());
    }
  } else if (flag.key == "exec-threads") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u) || u == 0 ||
        u > quasii::TaskScheduler::kMaxThreads) {
      Die(arg, ("expected an integer in [1, " +
                std::to_string(quasii::TaskScheduler::kMaxThreads) + "]")
                   .c_str());
    }
    config->exec_threads = static_cast<int>(u);
  } else if (flag.key == "record") {
    if (!flag.has_value || flag.value.empty()) Die(arg, "expected a path");
    config->record_path = flag.value;
  } else if (flag.key == "snapshot") {
    if (!flag.has_value || flag.value.empty()) Die(arg, "expected a path");
    config->snapshot_path = flag.value;
  } else if (flag.key == "out") {
    if (!flag.has_value || flag.value.empty()) Die(arg, "expected a path");
    config->out_path = flag.value;
  } else if (flag.key == "help") {
    PrintUsage();
    std::exit(0);
  } else {
    std::fprintf(stderr, "quasii_server: unknown flag: %s\n", arg.c_str());
    PrintUsage();
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  for (int i = 1; i < argc; ++i) ParseArgOrDie(argv[i], &config);
  if (config.socket_path.empty()) {
    std::fprintf(stderr, "quasii_server: --socket is required\n");
    PrintUsage();
    return 2;
  }

  // Block the shutdown signals BEFORE spawning server threads so sigwait
  // below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  quasii::bench::BenchConfig bench_config;
  bench_config.n = config.n;
  bench_config.seed = config.seed;
  quasii::Dataset3 data;
  quasii::Box3 universe;
  std::vector<quasii::Box3> unused_queries;
  quasii::bench::MakeBenchInputs(bench_config, &data, &universe,
                                 &unused_queries);
  auto roster_owned = quasii::bench::MakeIndexRoster(data, universe);

  std::vector<SpatialIndex<3>*> roster;
  std::vector<std::string> roster_names;
  for (auto& index : roster_owned) {
    if (!config.indexes.empty()) {
      bool wanted = false;
      for (const std::string& name : config.indexes) {
        if (name == index->name()) wanted = true;
      }
      if (!wanted) continue;
    }
    roster.push_back(index.get());
    roster_names.emplace_back(index->name());
  }
  if (roster.empty()) {
    std::fprintf(stderr, "quasii_server: --indexes matched nothing\n");
    return 2;
  }

  QueryServer<3>::Options options;
  options.max_inflight = config.max_inflight;
  options.exec_threads = config.exec_threads;
  options.record_path = config.record_path;
  options.snapshot_path = config.snapshot_path;

  QueryServer<3> server(roster, options);
  std::string error;
  if (!server.Start(&error) || !server.Listen(config.socket_path, &error)) {
    std::fprintf(stderr, "quasii_server: %s\n", error.c_str());
    return 1;
  }

  // Machine-readable readiness line (the smoke test waits for it).
  std::printf("READY %s targets=%zu\n", config.socket_path.c_str(),
              roster.size());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  server.Stop();

  const QueryServer<3>::Counters c = server.counters();
  quasii::bench::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("quasii-server-v1");
  w.Key("signal").Int(sig);
  w.Key("connections").Uint(c.connections);
  w.Key("accepted").Uint(c.accepted);
  w.Key("overloaded").Uint(c.overloaded);
  w.Key("malformed").Uint(c.malformed);
  w.Key("frame_errors").Uint(c.frame_errors);
  w.Key("batches").Uint(c.batches);
  w.Key("batched_queries").Uint(c.batched_queries);
  w.Key("exec_threads").Int(server.exec_threads());
  w.Key("exec_tasks").Uint(c.exec_tasks);
  w.Key("exec_steals").Uint(c.exec_steals);
  w.Key("parallel_requests").Uint(c.parallel_requests);
  w.Key("recorded").Uint(server.recorded());
  w.Key("indexes").BeginArray();
  const std::vector<std::uint64_t> checksums = server.IndexChecksums();
  for (std::size_t i = 0; i < roster.size(); ++i) {
    w.BeginObject();
    w.Key("index").String(roster_names[i]);
    w.Key("checksum").Uint(checksums[i]);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  const std::string report = w.str();
  if (config.out_path.empty()) {
    std::printf("%s\n", report.c_str());
  } else {
    std::ofstream out(config.out_path);
    out << report << "\n";
    if (!out) {
      std::fprintf(stderr, "quasii_server: cannot write %s\n",
                   config.out_path.c_str());
      return 1;
    }
  }
  return 0;
}
