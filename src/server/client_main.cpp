// Wire client driver, three modes over the same connection machinery:
//
//   workload (default)  N client threads, each with its own connection and
//                       its own deterministic op stream (the bench's
//                       `MakeThreadOpStreams` split — disjoint insert id
//                       spaces, disjoint erase pools), driven serially with
//                       per-op latency capture. Reports per-client and
//                       aggregate p50/p90/p99 plus a response-stream
//                       checksum per client.
//   --agree             sends every read op to EVERY listed target and
//                       compares normalized results (status, count, sorted
//                       ids/pairs) across the roster — the served twin of
//                       the equivalence tests. Nonzero exit on divergence.
//   --replay=FILE       re-sends a recorded workload log in log order on
//                       one connection and folds the response-stream
//                       checksum; against a freshly seeded server this must
//                       reproduce the original run bit-for-bit.
//
// Dataset parameters (--n/--seed) must match the server's so generated id
// spaces and the erase pool line up with the served roster.
//
// Argument parsing is strict: unknown flags, missing values, and malformed
// numbers are a one-line diagnostic and exit code 2 — never a silent
// default.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench.h"
#include "bench/cli.h"
#include "bench/json.h"
#include "common/task_scheduler.h"
#include "server/client.h"
#include "server/recorder.h"

namespace {

namespace cli = quasii::bench::cli;
using quasii::Box3;
using quasii::ObjectId;
using quasii::Request;
using quasii::RequestKind;
using quasii::ResponseStatus;
using quasii::server::ClientReply;
using quasii::server::WireClient;

struct ClientConfig {
  std::string socket_path;
  int clients = 1;
  std::size_t n = std::size_t{1} << 16;
  int queries = 1000;
  double selectivity = 1e-3;
  std::uint64_t seed = 1;
  quasii::bench::WorkloadMix mix;
  std::size_t knn_k = 10;
  std::vector<std::uint8_t> targets = {0};
  bool agree = false;
  std::string replay_path;
  std::string out_path;
  int exec_threads = 1;
  /// After the `QUASII_EXEC_THREADS` cap; set in `main`, echoed in reports.
  int exec_threads_effective = 1;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: quasii_client --socket=PATH [--clients=N]\n"
               "                     [--queries=COUNT] [--n=COUNT]\n"
               "                     [--selectivity=FRACTION] [--seed=SEED]\n"
               "                     [--mix=range:W,point:W,count:W,knn:W,\n"
               "                            join:W,insert:W,erase:W]\n"
               "                     [--knn-k=K] [--targets=I,I,...]\n"
               "                     [--agree] [--replay=FILE] [--out=PATH]\n"
               "                     [--exec-threads=N]\n"
               "Default mode drives N concurrent clients with deterministic\n"
               "per-client op streams and reports p50/p90/p99 latency plus\n"
               "response checksums. --agree sends reads to every target and\n"
               "verifies the roster answers identically. --replay re-sends\n"
               "a recorded workload log and reports its response checksum.\n"
               "--n and --seed must match the server's dataset flags.\n");
}

[[noreturn]] void Die(const std::string& flag, const char* why) {
  std::fprintf(stderr, "quasii_client: bad %s: %s\n", flag.c_str(), why);
  std::exit(2);
}

void ParseArgOrDie(const std::string& arg, ClientConfig* config) {
  const cli::FlagArg flag = cli::SplitFlag(arg);
  if (!flag.is_flag) {
    std::fprintf(stderr, "quasii_client: unrecognized argument: %s\n",
                 arg.c_str());
    PrintUsage();
    std::exit(2);
  }
  std::uint64_t u = 0;
  if (flag.key == "socket") {
    if (!flag.has_value || flag.value.empty()) Die(arg, "expected a path");
    config->socket_path = flag.value;
  } else if (flag.key == "clients") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u) || u == 0 ||
        u > 256) {
      Die(arg, "expected an integer in [1, 256]");
    }
    config->clients = static_cast<int>(u);
  } else if (flag.key == "queries") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u) || u == 0) {
      Die(arg, "expected a positive integer");
    }
    config->queries = static_cast<int>(u);
  } else if (flag.key == "n") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u) || u == 0) {
      Die(arg, "expected a positive integer");
    }
    config->n = static_cast<std::size_t>(u);
  } else if (flag.key == "selectivity") {
    double d = 0;
    if (!flag.has_value || !cli::ParseDouble(flag.value, &d) || d <= 0 ||
        d > 1) {
      Die(arg, "expected a fraction in (0, 1]");
    }
    config->selectivity = d;
  } else if (flag.key == "seed") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u)) {
      Die(arg, "expected an unsigned integer");
    }
    config->seed = u;
  } else if (flag.key == "mix") {
    if (!flag.has_value ||
        !quasii::bench::ParseWorkloadMix(flag.value, &config->mix)) {
      Die(arg, "expected type:weight pairs (see --help)");
    }
  } else if (flag.key == "knn-k") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u) || u == 0) {
      Die(arg, "expected a positive integer");
    }
    config->knn_k = static_cast<std::size_t>(u);
  } else if (flag.key == "targets") {
    if (!flag.has_value) Die(arg, "expected a comma-separated index list");
    config->targets.clear();
    for (const std::string& part : cli::SplitCommas(flag.value)) {
      if (!cli::ParseU64(part, &u) || u > 255) {
        Die(arg, "expected target indices in [0, 255]");
      }
      config->targets.push_back(static_cast<std::uint8_t>(u));
    }
    if (config->targets.empty()) Die(arg, "expected at least one target");
  } else if (flag.key == "agree") {
    if (flag.has_value) Die(arg, "takes no value");
    config->agree = true;
  } else if (flag.key == "replay") {
    if (!flag.has_value || flag.value.empty()) Die(arg, "expected a path");
    config->replay_path = flag.value;
  } else if (flag.key == "out") {
    if (!flag.has_value || flag.value.empty()) Die(arg, "expected a path");
    config->out_path = flag.value;
  } else if (flag.key == "exec-threads") {
    if (!flag.has_value || !cli::ParseU64(flag.value, &u) || u == 0 ||
        u > quasii::TaskScheduler::kMaxThreads) {
      Die(arg, ("expected an integer in [1, " +
                std::to_string(quasii::TaskScheduler::kMaxThreads) + "]")
                   .c_str());
    }
    config->exec_threads = static_cast<int>(u);
  } else if (flag.key == "help") {
    PrintUsage();
    std::exit(0);
  } else {
    std::fprintf(stderr, "quasii_client: unknown flag: %s\n", arg.c_str());
    PrintUsage();
    std::exit(2);
  }
}

/// Per-status tallies plus the latency sample and response checksum of one
/// client's run.
struct ClientRun {
  int client = 0;
  std::uint8_t target = 0;
  std::uint64_t ops = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t malformed = 0;
  std::uint64_t epoch_mismatch = 0;
  std::uint64_t other = 0;
  std::vector<double> latencies_ms;
  std::uint64_t checksum = quasii::kFnvBasis;
  bool transport_ok = true;
};

void Tally(const ClientReply<3>& reply, ClientRun* run) {
  ++run->ops;
  switch (reply.response.status) {
    case ResponseStatus::kOk:
      ++run->ok;
      break;
    case ResponseStatus::kOverloaded:
      ++run->overloaded;
      break;
    case ResponseStatus::kMalformed:
      ++run->malformed;
      break;
    case ResponseStatus::kEpochMismatch:
      ++run->epoch_mismatch;
      break;
    default:
      ++run->other;
      break;
  }
  run->checksum = quasii::FnvBytes(run->checksum, reply.body);
}

/// One client thread of workload mode: own connection, own op stream,
/// strictly serial request/response with wall-clock capture per op.
void RunWorkloadClient(const ClientConfig& config,
                       const std::vector<quasii::bench::Op3>& ops, ClientRun* run) {
  WireClient<3> client;
  if (!client.ConnectUds(config.socket_path) || !client.Handshake()) {
    run->transport_ok = false;
    return;
  }
  run->latencies_ms.reserve(ops.size());
  for (const quasii::bench::Op3& op : ops) {
    const auto start = std::chrono::steady_clock::now();
    auto reply = client.Call(run->target, op);
    const auto stop = std::chrono::steady_clock::now();
    if (!reply) {
      run->transport_ok = false;
      return;
    }
    run->latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    Tally(*reply, run);
  }
}

/// Normalized result image for cross-target comparison: id/pair order is an
/// index implementation detail, so sort before comparing.
std::string NormalizedResult(const ClientReply<3>& reply) {
  std::string out;
  quasii::ByteWriter w(&out);
  w.U8(static_cast<std::uint8_t>(reply.response.status));
  w.U64(reply.response.count);
  std::vector<ObjectId> ids = reply.response.ids;
  std::sort(ids.begin(), ids.end());
  for (const ObjectId id : ids) w.U32(id);
  std::vector<std::pair<ObjectId, ObjectId>> pairs = reply.response.pairs;
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [l, r] : pairs) {
    w.U32(l);
    w.U32(r);
  }
  return out;
}

int RunAgreeMode(const ClientConfig& config,
                 const std::vector<quasii::bench::Op3>& ops,
                 quasii::bench::JsonWriter* w) {
  WireClient<3> client;
  if (!client.ConnectUds(config.socket_path) || !client.Handshake()) {
    std::fprintf(stderr, "quasii_client: connect/handshake failed\n");
    return 1;
  }
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  for (const quasii::bench::Op3& op : ops) {
    if (!op.is_read()) continue;  // mutations would diverge the roster
    std::string reference;
    for (std::size_t t = 0; t < config.targets.size(); ++t) {
      auto reply = client.Call(config.targets[t], op);
      if (!reply) {
        std::fprintf(stderr, "quasii_client: transport failure (%s)\n",
                     quasii::server::WireErrorName(client.last_error()));
        return 1;
      }
      const std::string norm = NormalizedResult(*reply);
      if (t == 0) {
        reference = norm;
      } else if (norm != reference) {
        ++mismatches;
        std::fprintf(stderr,
                     "quasii_client: target %u disagrees with target %u on "
                     "op %llu (%s)\n",
                     config.targets[t], config.targets[0],
                     static_cast<unsigned long long>(compared),
                     quasii::RequestKindName(op.kind()));
        break;
      }
    }
    ++compared;
  }
  w->BeginObject();
  w->Key("schema").String("quasii-client-v1");
  w->Key("mode").String("agree");
  w->Key("exec_threads").Int(config.exec_threads_effective);
  w->Key("targets").Uint(config.targets.size());
  w->Key("compared").Uint(compared);
  w->Key("mismatches").Uint(mismatches);
  w->EndObject();
  return mismatches == 0 ? 0 : 1;
}

int RunReplayMode(const ClientConfig& config, quasii::bench::JsonWriter* w) {
  const auto log =
      quasii::server::ReadWorkloadLog<3>(config.replay_path);
  if (!log.exists || log.error != quasii::persist::PersistError::kNone) {
    std::fprintf(stderr, "quasii_client: cannot replay %s: %s\n",
                 config.replay_path.c_str(),
                 log.exists ? quasii::persist::PersistErrorName(log.error)
                            : "not found");
    return 1;
  }
  WireClient<3> client;
  if (!client.ConnectUds(config.socket_path) || !client.Handshake()) {
    std::fprintf(stderr, "quasii_client: connect/handshake failed\n");
    return 1;
  }
  ClientRun run;
  for (const auto& rec : log.records) {
    auto reply = client.Call(rec.target, rec.request);
    if (!reply) {
      std::fprintf(stderr, "quasii_client: transport failure (%s)\n",
                   quasii::server::WireErrorName(client.last_error()));
      return 1;
    }
    Tally(*reply, &run);
  }
  w->BeginObject();
  w->Key("schema").String("quasii-client-v1");
  w->Key("mode").String("replay");
  w->Key("exec_threads").Int(config.exec_threads_effective);
  w->Key("requests").Uint(run.ops);
  w->Key("ok").Uint(run.ok);
  w->Key("truncated_tail").Bool(log.truncated_tail);
  w->Key("response_checksum").Uint(run.checksum);
  w->EndObject();
  return 0;
}

int RunWorkloadMode(const ClientConfig& config,
                    quasii::bench::JsonWriter* w) {
  quasii::bench::BenchConfig bench_config;
  bench_config.n = config.n;
  bench_config.seed = config.seed;
  bench_config.queries = config.queries;
  bench_config.selectivity = config.selectivity;
  quasii::Dataset3 data;
  Box3 universe;
  std::vector<Box3> boxes;
  quasii::bench::MakeBenchInputs(bench_config, &data, &universe, &boxes);
  const std::vector<Box3> join_source =
      quasii::bench::MakeJoinSource(bench_config, universe);

  quasii::bench::WorkloadSpec spec;
  spec.mix = config.mix;
  spec.knn_k = config.knn_k;
  spec.seed = config.seed + 2;
  const auto streams = quasii::bench::MakeThreadOpStreams<3>(
      boxes, spec, config.n, config.clients, &join_source);

  std::vector<ClientRun> runs(streams.size());
  std::vector<std::thread> threads;
  threads.reserve(streams.size());
  for (std::size_t c = 0; c < streams.size(); ++c) {
    runs[c].client = static_cast<int>(c);
    runs[c].target = config.targets[c % config.targets.size()];
    threads.emplace_back(RunWorkloadClient, std::cref(config),
                         std::cref(streams[c]), &runs[c]);
  }
  for (std::thread& t : threads) t.join();

  bool transport_ok = true;
  std::vector<double> all_latencies;
  w->BeginObject();
  w->Key("schema").String("quasii-client-v1");
  w->Key("mode").String("workload");
  w->Key("exec_threads").Int(config.exec_threads_effective);
  w->Key("clients").Uint(runs.size());
  w->Key("per_client").BeginArray();
  for (const ClientRun& run : runs) {
    transport_ok = transport_ok && run.transport_ok;
    all_latencies.insert(all_latencies.end(), run.latencies_ms.begin(),
                         run.latencies_ms.end());
    w->BeginObject();
    w->Key("client").Int(run.client);
    w->Key("target").Uint(run.target);
    w->Key("ops").Uint(run.ops);
    w->Key("ok").Uint(run.ok);
    w->Key("overloaded").Uint(run.overloaded);
    w->Key("malformed").Uint(run.malformed);
    w->Key("epoch_mismatch").Uint(run.epoch_mismatch);
    w->Key("other").Uint(run.other);
    w->Key("p50_ms").Double(quasii::bench::Percentile(run.latencies_ms, 0.50));
    w->Key("p90_ms").Double(quasii::bench::Percentile(run.latencies_ms, 0.90));
    w->Key("p99_ms").Double(quasii::bench::Percentile(run.latencies_ms, 0.99));
    w->Key("response_checksum").Uint(run.checksum);
    w->Key("transport_ok").Bool(run.transport_ok);
    w->EndObject();
  }
  w->EndArray();
  w->Key("p50_ms").Double(quasii::bench::Percentile(all_latencies, 0.50));
  w->Key("p90_ms").Double(quasii::bench::Percentile(all_latencies, 0.90));
  w->Key("p99_ms").Double(quasii::bench::Percentile(all_latencies, 0.99));
  w->Key("transport_ok").Bool(transport_ok);
  w->EndObject();
  return transport_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ClientConfig config;
  for (int i = 1; i < argc; ++i) ParseArgOrDie(argv[i], &config);
  if (config.socket_path.empty()) {
    std::fprintf(stderr, "quasii_client: --socket is required\n");
    PrintUsage();
    return 2;
  }
  if (config.agree && !config.replay_path.empty()) {
    std::fprintf(stderr,
                 "quasii_client: --agree and --replay are exclusive\n");
    return 2;
  }
  // The client executes no queries itself; applying the knob anyway keeps
  // the flag's semantics identical across both binaries, and the effective
  // (env-capped) value lands in the report either way.
  config.exec_threads_effective =
      quasii::SetIntraQueryThreads(config.exec_threads);

  quasii::bench::JsonWriter w;
  int rc = 0;
  if (!config.replay_path.empty()) {
    rc = RunReplayMode(config, &w);
  } else if (config.agree) {
    quasii::bench::BenchConfig bench_config;
    bench_config.n = config.n;
    bench_config.seed = config.seed;
    bench_config.queries = config.queries;
    bench_config.selectivity = config.selectivity;
    quasii::Dataset3 data;
    Box3 universe;
    std::vector<Box3> boxes;
    quasii::bench::MakeBenchInputs(bench_config, &data, &universe, &boxes);
    const std::vector<Box3> join_source =
        quasii::bench::MakeJoinSource(bench_config, universe);
    quasii::bench::WorkloadSpec spec;
    spec.mix = config.mix;
    spec.knn_k = config.knn_k;
    spec.seed = config.seed + 2;
    const auto ops = quasii::bench::MakeOpWorkload<3>(
        boxes, spec, /*initial_n=*/config.n, &join_source);
    rc = RunAgreeMode(config, ops, &w);
  } else {
    rc = RunWorkloadMode(config, &w);
  }

  const std::string report = w.str();
  if (!report.empty()) {
    if (config.out_path.empty()) {
      std::printf("%s\n", report.c_str());
    } else {
      std::ofstream out(config.out_path);
      out << report << "\n";
      if (!out) {
        std::fprintf(stderr, "quasii_client: cannot write %s\n",
                     config.out_path.c_str());
        return 1;
      }
    }
  }
  return rc;
}
