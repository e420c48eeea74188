// Benchmark driver: runs one workload against the QUASII library (and, for
// served_rw, the quasii_server binary), checks every answer it can, and
// prints the run's metrics as the last line of stdout.
//
//   qbench_driver --workload=explore_cold|served_rw
//                 --seed=N --seconds=S --trace=0|1 --server=PATH
//                 --work-dir=DIR [--part=I --parts=K] [--git=COMMIT]
//                 [--digest=HEX]
//
// One invocation is one worker process of a run; run.py starts K of them
// and combines their results. --part picks this worker's share of the cold
// probes. --trace=0 prints the end-to-end metrics; --trace=1 prints the
// per-layer metrics and writes the recorded spans (with self times) to
// DIR/trace-<workload>-<seed>-<part>.jsonl. The exit code is 1 when any
// output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "local.h"
#include "served.h"

namespace {

bool ParseArgs(int argc, char** argv, qbench::Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      a->workload = value;
    } else if (key == "seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (key == "server") {
      a->server = value;
    } else if (key == "work-dir") {
      a->work_dir = value;
    } else if (key == "git") {
      a->git = value;
    } else if (key == "digest") {
      a->digest = value;
    } else if (key == "part" || key == "parts") {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
      (key == "part" ? a->part : a->parts) = static_cast<std::size_t>(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->work_dir.empty() && a->parts > 0 &&
         a->part < a->parts;
}

}  // namespace

int main(int argc, char** argv) {
  qbench::Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: qbench_driver --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --server=PATH --work-dir=DIR\n");
    return 2;
  }
  qbench::Tracer tracer(a.trace);
  qbench::Report report;
  int intra = 1;
  int pool = 0;
  int exec = 0;
  if (a.workload == "explore_cold") {
    intra = 2;
    qbench::RunExploreCold(a, tracer, &report);
  } else if (a.workload == "served_rw") {
    if (a.server.empty()) {
      std::fprintf(stderr, "qbench_driver: served_rw needs --server\n");
      return 2;
    }
    pool = qbench::kServerPoolThreads;
    exec = qbench::kServerExecThreads;
    intra = exec;
    qbench::RunServedRw(a, tracer, &report);
  } else {
    std::fprintf(stderr, "qbench_driver: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  if (a.trace) {
    const std::string path = a.work_dir + "/trace-" + a.workload + "-" +
                             std::to_string(a.seed) + "-" +
                             std::to_string(a.part) + ".jsonl";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "qbench_driver: cannot write %s\n", path.c_str());
    }
  }
  std::printf("%s\n", qbench::Fingerprint(a, intra, pool, exec).c_str());
  const std::string line = report.Json(a.trace);
  std::printf("%s\n", line.c_str());
  return report.correct() ? 0 : 1;
}
