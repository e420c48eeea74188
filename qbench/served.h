// The served workload: a quasii_server child driven over one pipelined
// Unix-socket connection by an open-loop generator, then checked against an
// in-process replay of the log the server recorded.
#ifndef QBENCH_SERVED_H_
#define QBENCH_SERVED_H_

#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "local.h"
#include "scan/scan_index.h"
#include "server/client.h"
#include "server/recorder.h"

extern char** environ;

namespace qbench {

using quasii::Request;
using quasii::Response;
using quasii::ResponseStatus;

inline constexpr int kServerPoolThreads = 2;
inline constexpr int kServerExecThreads = 2;
/// Open-loop schedule: the nominal rate, the ladder above it, and the p99
/// limit every rate is judged against. On a 4-vCPU Xeon the ladder finds
/// 2.7-4k ops/s right after warm-up and about 2k after 15 s of traffic
/// (capacity falls as inserts accumulate), so 1000 ops/s is about half the
/// capacity the nominal window sees.
inline constexpr double kNominalRate = 1000;
inline constexpr double kLadder[] = {1500, 1700, 1900, 2150, 2400, 2700,
                                     3000, 3350, 3750, 4200, 4700, 5250,
                                     5900, 6600, 7400, 8300};
inline constexpr double kP99LimitMs = 25;
/// Ops per ladder step: enough for a p99 with ten samples beyond it.
inline constexpr std::size_t kStepOps = 1000;
/// Ladder climbs per worker process. One climb ends at whichever step a
/// host stall happens to hit, so the worker reports the median climb.
inline constexpr int kClimbs = 3;
/// The closed-loop capacity phase: ops, requests kept in flight (well
/// below the server's admission bound of 256, so none is refused), and the
/// ops per block whose completion rates it takes the median of.
inline constexpr std::size_t kCapacityOps = 6000;
inline constexpr std::size_t kCapacityWindow = 32;
inline constexpr std::size_t kCapacityBlock = 500;
/// Server starts per worker process that each time one cold first query.
inline constexpr std::size_t kServedProbes = 3;
/// Blocks of the nominal window where the generator's own p99 lateness
/// exceeds this measure the host, not the server, and are left out.
inline constexpr double kLateBlockMs = 0.5;
inline constexpr std::size_t kPingEvery = 100;
inline constexpr std::size_t kSampleStride = 61;

/// CPU placement: with at least four usable CPUs the server runs on all but
/// the last one and the load generator on the last, so the generator's
/// wake-ups never queue behind server threads. Threads inherit the set of
/// the thread that creates them, and the server the set of its spawner.
struct CpuPlan {
  cpu_set_t all;
  cpu_set_t server;
  cpu_set_t client;
};

inline CpuPlan PlanCpus() {
  CpuPlan p;
  CPU_ZERO(&p.all);
  sched_getaffinity(0, sizeof(p.all), &p.all);
  p.server = p.all;
  p.client = p.all;
  if (CPU_COUNT(&p.all) >= 4) {
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &p.all)) last = c;
    }
    CPU_CLR(last, &p.server);
    CPU_ZERO(&p.client);
    CPU_SET(last, &p.client);
  }
  return p;
}

inline void PinCallingThread(const cpu_set_t& set) {
  sched_setaffinity(0, sizeof(set), &set);
}

/// Keeps the given CPUs out of idle while it lives: one SCHED_IDLE thread
/// per CPU spins. Any runnable thread preempts a spinner at once, so a
/// wake-up on that CPU no longer waits for the hypervisor to resume a
/// halted virtual CPU — the dominant source of run-to-run latency noise on
/// a shared virtual machine.
class IdleSpinners {
 public:
  explicit IdleSpinners(const cpu_set_t& cpus) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &cpus)) continue;
      threads_.emplace_back([this, c] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        sched_setaffinity(0, sizeof(one), &one);
        sched_param none{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &none);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#elif defined(__aarch64__)
          asm volatile("yield");
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The quasii_server child process. The destructor kills and reaps a child
/// that was not stopped, so no exit path leaves it running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const Args& a, const std::string& socket,
             const std::string& record, std::string* error) {
    int out[2];
    if (::pipe(out) != 0) {
      *error = "pipe failed";
      return false;
    }
    std::vector<std::string> args = {
        a.server,
        "--socket=" + socket,
        "--n=" + std::to_string(kObjects),
        "--seed=" + std::to_string(a.seed),
        "--indexes=QUASII",
        "--pool-threads=" + std::to_string(kServerPoolThreads),
        "--exec-threads=" + std::to_string(kServerExecThreads),
        "--record=" + record};
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    posix_spawn_file_actions_addclose(&fa, out[0]);
    posix_spawn_file_actions_addclose(&fa, out[1]);
    const int rc =
        posix_spawn(&pid_, a.server.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(out[1]);
    out_fd_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      *error = "cannot start " + a.server;
      return false;
    }
    // Wait for the READY line.
    while (output_.find('\n') == std::string::npos) {
      if (!ReadSome(60'000)) {
        *error = "server never became ready";
        return false;
      }
    }
    if (output_.rfind("READY", 0) != 0) {
      *error = "unexpected server banner: " + output_;
      return false;
    }
    output_.erase(0, output_.find('\n') + 1);
    return true;
  }

  pid_t pid() const { return pid_; }

  /// SIGTERM, then the shutdown report (its stdout up to EOF) and the exit
  /// status.
  bool Stop(std::string* report) {
    if (pid_ < 0) return false;
    ::kill(pid_, SIGTERM);
    while (ReadSome(60'000)) {
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    CloseOut();
    *report = output_;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  /// Appends available stdout; false on EOF, error or timeout.
  bool ReadSome(int timeout_ms) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    output_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  void CloseOut() {
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    CloseOut();
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string output_;
};

/// An unsigned field of the server's flat JSON report (first occurrence).
inline std::uint64_t ReportField(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

/// Everything the client learns on its one connection.
struct Connection {
  quasii::server::WireClient<3> wire;
  /// FNV over the bodies of accepted replies, in arrival order — which on
  /// one connection is the server's execution order, hence the log order.
  std::uint64_t response_checksum = quasii::kFnvBasis;
  std::vector<std::uint64_t> accepted_seqs;
  std::map<std::uint64_t, std::pair<Op, ReadResult>> samples;
  std::uint64_t accepted_inserts = 0;
  std::uint64_t accepted_erases = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t bad_replies = 0;
};

/// The server hosts one index, target 0.
inline constexpr std::uint8_t kTarget = 0;

/// Folds one reply into the connection state and judges it. Refusals are
/// not accepted requests (never recorded), so they stay out of the stream
/// checksum.
inline bool AbsorbReply(Connection& c, const Op& op, std::uint64_t seq,
                        const std::string& body, const Response<3>& resp,
                        bool sample) {
  if (resp.status == ResponseStatus::kOverloaded) {
    ++c.overloaded;
    return false;
  }
  c.response_checksum = quasii::FnvBytes(c.response_checksum, body);
  c.accepted_seqs.push_back(seq);
  if (resp.status != ResponseStatus::kOk ||
      resp.kind != OpRequest(op).kind()) {
    ++c.bad_replies;
    return false;
  }
  switch (op.type) {
    case OpType::kInsert:
      c.accepted_inserts += resp.accepted ? 1 : 0;
      return resp.accepted;
    case OpType::kErase:
      c.accepted_erases += resp.accepted ? 1 : 0;
      return resp.accepted;
    case OpType::kPing:
    case OpType::kStats:
      return true;
    default:
      break;
  }
  if (op.type != OpType::kCount && resp.ids.size() != resp.count) {
    ++c.bad_replies;
    return false;
  }
  if (sample) {
    ReadResult rr;
    rr.ids = resp.ids;
    rr.count = resp.count;
    c.samples[seq] = {op, std::move(rr)};
  }
  return true;
}

/// One request, answered before the next is sent.
inline bool Call(Connection& c, const Op& op, bool sample, Response<3>* out,
                 std::string* error) {
  const std::optional<quasii::server::ClientReply<3>> reply =
      c.wire.Call(kTarget, OpRequest(op));
  if (!reply) {
    *error = "transport failure";
    return false;
  }
  *out = reply->response;
  if (!AbsorbReply(c, op, reply->seq, reply->body, reply->response, sample)) {
    *error = "request refused or wrong";
    return false;
  }
  return true;
}

/// Ops of one phase and the reply bytes it received.
struct Phase {
  std::vector<OpenLoopOp> ops;
  std::uint64_t reply_bytes = 0;
  bool transport_ok = true;
};

/// How a phase sends: on a fixed schedule of `rate` ops/s (open loop), or
/// whenever fewer than `window` requests are in flight (closed loop, where
/// an op is due when it is sent).
struct Pace {
  double rate = 0;
  std::size_t window = 0;
};

/// Sends `stream[begin, begin + count)` at the given pace over the one
/// pipelined connection and collects the replies, from one thread: it waits
/// in `ppoll` for whichever comes first, a reply or the next send's due
/// time, so no second client thread competes with the generator for its
/// CPU. `WireClient::Send` never waits for a reply, so one thread can
/// pipeline. Spans are recorded only for ops whose block (by due time)
/// `trace_block` selects; there, the request's encoding and the reply's
/// decoding are also timed on their own, on a copy, after the wire call.
template <typename TraceBlock>
Phase RunPhase(Connection& c, const std::vector<Op>& stream, std::size_t begin,
               std::size_t count, Pace pace, bool sample, Tracer& tracer,
               TraceBlock trace_block) {
  Phase ph;
  ph.ops.resize(count);
  const bool open = pace.rate > 0;
  const std::int64_t start = NowNs() + 2'000'000;
  if (open) {
    for (std::size_t i = 0; i < count; ++i) {
      ph.ops[i].due_ns = DueNs(start, pace.rate, i);
    }
  }
  const int fd = c.wire.fd();
  std::vector<bool> seen(count, false);
  std::string scratch;
  std::uint64_t base = 0;  // seq of the phase's first request
  std::size_t sent = 0;
  std::size_t received = 0;
  while (received < count) {
    const std::int64_t now = NowNs();
    const bool send_now =
        sent < count && (open ? now >= ph.ops[sent].due_ns
                              : sent - received < pace.window);
    if (send_now) {
      const std::size_t i = sent++;
      OpenLoopOp& o = ph.ops[i];
      if (!open) o.due_ns = now;
      tracer.set_enabled(trace_block(o.due_ns - start));
      const Request<3> req = OpRequest(stream[begin + i]);
      o.sent_ns = NowNs();
      const std::optional<std::uint64_t> seq = c.wire.Send(kTarget, req);
      const std::int64_t s1 = NowNs();
      if (!seq) break;
      if (i == 0) base = *seq;
      if (*seq != base + i) break;
      tracer.Add(kSpanSend, o.sent_ns, s1, -1, *seq);
      if (tracer.enabled()) {
        scratch.clear();
        quasii::ByteWriter w(&scratch);
        const std::int64_t e0 = NowNs();
        req.Serialize(&w);
        tracer.Add(kSpanEncode, e0, NowNs(), -1, *seq);
      }
      continue;
    }
    // Wait for a reply, at most until the next send is due.
    const std::int64_t wait_ns = open && sent < count
                                     ? ph.ops[sent].due_ns - now
                                     : std::int64_t{30'000'000'000};
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd p{fd, POLLIN, 0};
    const int ready = ::ppoll(&p, 1, &ts, nullptr);
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      if (open && sent < count) continue;  // the next send is due
      break;                               // no reply for 30 s
    }
    if (ready < 0) break;
    const std::int64_t r0 = NowNs();
    const std::optional<quasii::server::ClientReply<3>> reply = c.wire.Recv();
    const std::int64_t r1 = NowNs();
    if (!reply || reply->seq < base || reply->seq - base >= sent ||
        seen[reply->seq - base]) {
      break;
    }
    const std::size_t i = reply->seq - base;
    seen[i] = true;
    ++received;
    ph.ops[i].done_ns = r1;
    ph.reply_bytes += reply->body.size() + 16;  // frame header and seq
    tracer.set_enabled(trace_block(ph.ops[i].due_ns - start));
    tracer.Add(kSpanRecv, r0, r1, -1, reply->seq);
    if (tracer.enabled()) {
      const std::int64_t d0 = NowNs();
      const bool parsed =
          Response<3>::TryParse(std::string_view(reply->body)).has_value();
      tracer.Add(kSpanDecode, d0, NowNs(), -1, reply->seq);
      if (!parsed) break;
    }
    ph.ops[i].ok = AbsorbReply(c, stream[begin + i], reply->seq, reply->body,
                               reply->response,
                               sample && (begin + i) % kSampleStride == 0);
  }
  ph.transport_ok = received == count;
  return ph;
}

/// The served op stream: range 55%, point 10%, count 10%, kNN 10%,
/// insert 10%, erase 5% over the read footprints, with every 100th op a
/// Ping. Inserts add fresh ids past the dataset; erases remove distinct
/// dataset ids, so every mutation is accepted.
inline std::vector<Op> MakeServedStream(std::uint64_t seed,
                                        const std::vector<Box3>& footprints,
                                        std::size_t count) {
  static constexpr MixWeight kMix[] = {
      {OpType::kRange, 55}, {OpType::kPoint, 10},  {OpType::kCount, 10},
      {OpType::kKnn, 10},   {OpType::kInsert, 10}, {OpType::kErase, 5}};
  Rng rng(Rng::SplitMix64(seed ^ 0x5E4DEDull));
  const Box3 universe = quasii::datagen::UniformUniverse(DatasetParams(seed));
  const std::uint64_t erase_offset = rng.UniformInt(0, kObjects - 1);
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::vector<Op> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op& op = ops[i];
    if (i % kPingEvery == kPingEvery - 1) {
      op.type = OpType::kPing;
      continue;
    }
    op.type = DrawType(rng, kMix);
    if (op.type == OpType::kInsert) {
      op.id = static_cast<ObjectId>(kObjects + inserts++);
      for (int d = 0; d < 3; ++d) {
        const quasii::Scalar side = rng.UniformScalar(1, 10);
        const quasii::Scalar lo =
            rng.UniformScalar(universe.lo[d], universe.hi[d] - side);
        op.box.lo[d] = lo;
        op.box.hi[d] = lo + side;
      }
    } else if (op.type == OpType::kErase) {
      // An odd multiplier permutes the power-of-two id space: distinct ids.
      op.id = static_cast<ObjectId>(
          (erases++ * 0x9E3779B1ull + erase_offset) & (kObjects - 1));
    } else {
      op.box = footprints[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(footprints.size()) - 1))];
    }
  }
  return ops;
}

/// The read cycle over the footprints: one op per footprint, typed by the
/// mix range 40%, count 20%, point 20%, kNN (k=10) 20%.
inline std::vector<Op> MakeReadCycle(std::uint64_t seed,
                                     const std::vector<Box3>& footprints) {
  static constexpr MixWeight kMix[] = {{OpType::kRange, 40},
                                       {OpType::kCount, 20},
                                       {OpType::kPoint, 20},
                                       {OpType::kKnn, 20}};
  Rng rng(Rng::SplitMix64(seed ^ 0x5EADull));
  std::vector<Op> ops(footprints.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].type = DrawType(rng, kMix);
    ops[i].box = footprints[i];
  }
  return ops;
}

/// The op index cold probe `j` of `probes` uses: spread over the cycle and
/// distinct across the run's worker processes.
inline std::size_t ProbeIndex(const Args& a, std::size_t j, std::size_t probes,
                              std::size_t cycle) {
  return (j * a.parts + a.part) * cycle / (probes * a.parts);
}

/// The untimed warm pass: one read per footprint (the read cycle), then
/// one insert and its erase, each followed by reads, so the
/// one-time cost of the first mutation (the store's copy-on-write of the
/// dataset) is paid before timing starts.
inline std::vector<Op> MakeWarmPass(std::uint64_t seed,
                                    const std::vector<Box3>& footprints) {
  std::vector<Op> ops = MakeReadCycle(seed, footprints);
  const std::vector<Op> reads(ops.begin(), ops.begin() + 64);
  Op mutation;
  mutation.type = OpType::kInsert;
  mutation.id = static_cast<ObjectId>(2 * kObjects);
  mutation.box = footprints.front();
  ops.push_back(mutation);
  ops.insert(ops.end(), reads.begin(), reads.end());
  mutation.type = OpType::kErase;
  ops.push_back(mutation);
  ops.insert(ops.end(), reads.begin(), reads.end());
  return ops;
}

/// One block of the nominal window (by due time): latency percentiles of
/// its data ops (pings excluded) and how late the generator sent.
struct BlockStats {
  double p50_ms = 0;
  double p99_ms = 0;
  double late_p99_ms = 0;
  bool traced = false;
};

template <typename TraceBlock>
std::vector<BlockStats> Blocks(const std::vector<OpenLoopOp>& ops,
                               const std::vector<Op>& stream,
                               std::int64_t block_ns, TraceBlock traced) {
  std::vector<BlockStats> out;
  if (ops.empty()) return out;
  const std::int64_t start = ops.front().due_ns;
  std::vector<std::vector<double>> lat, late;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t b =
        static_cast<std::size_t>((ops[i].due_ns - start) / block_ns);
    if (b >= lat.size()) {
      lat.resize(b + 1);
      late.resize(b + 1);
    }
    late[b].push_back(LatenessMs(ops[i]));
    if (stream[i].type != OpType::kPing) lat[b].push_back(LatencyFromDueMs(ops[i]));
  }
  for (std::size_t b = 0; b < lat.size(); ++b) {
    // A trailing partial block too small for its own p99 is dropped.
    if (SupportedTailPercentile(lat[b].size()) < 99) continue;
    BlockStats s;
    s.p50_ms = Percentile(lat[b], 50);
    s.p99_ms = Percentile(lat[b], 99);
    s.late_p99_ms = Percentile(late[b], 99);
    s.traced = traced(static_cast<std::int64_t>(b) * block_ns);
    out.push_back(s);
  }
  return out;
}

/// Median of the given span's durations, in microseconds.
inline double MedianSpanUs(const std::vector<Span>& spans, int name) {
  std::vector<double> v;
  for (const Span& s : spans) {
    if (s.name == name) v.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return Median(v);
}

/// Starts a server pinned to the server CPUs and connects to it.
inline bool StartServer(const Args& a, const CpuPlan& cpus,
                        const std::string& socket, const std::string& record,
                        ServerProcess* server, Connection* conn,
                        std::string* error) {
  PinCallingThread(cpus.server);
  const bool started = server->Start(a, socket, record, error);
  PinCallingThread(cpus.client);
  if (!started) return false;
  if (!conn->wire.ConnectUds(socket) || !conn->wire.Handshake()) {
    *error = "cannot connect to " + socket;
    return false;
  }
  return true;
}

inline void RunServedRw(const Args& a, Tracer& tracer, Report* r) {
  const std::string stem = a.work_dir + "/qbench-" + std::to_string(::getpid());
  const std::string socket = stem + ".sock";
  const std::string record = stem + ".qwkl";
  // Half the measured time goes to the nominal window; the ladder's steps
  // are counted in ops. A longer window lets inserts pile up and moves the
  // window toward capacity.
  const double nominal_s = a.seconds / 2;
  // Blocks of a second or more, holding at least 1000 data ops, so each
  // block supports its own p99.
  const std::int64_t block_ns = static_cast<std::int64_t>(
      std::max(1.0, 1100.0 / kNominalRate) * 1e9);

  const std::vector<Box3> footprints = MakeFootprints(a.seed);
  const std::vector<Op> warm_ops = MakeWarmPass(a.seed, footprints);
  const std::size_t nominal_ops =
      static_cast<std::size_t>(std::llround(kNominalRate * nominal_s));
  const std::vector<Op> stream = MakeServedStream(
      a.seed, footprints,
      nominal_ops + kCapacityOps +
          kClimbs * 2 * kStepOps * std::size(kLadder));
  const CpuPlan cpus = PlanCpus();
  // Wake-ups at the due time, not up to the default 50 us slack after it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::string error;
  const IdleSpinners spinners(cpus.all);

  // The cold first query over the wire: fresh servers, each asked one read
  // at a different footprint.
  {
    std::vector<double> probes;
    Response<3> resp;
    for (std::size_t j = 0; j < kServedProbes; ++j) {
      ServerProcess server;
      Connection conn;
      if (!StartServer(a, cpus, socket, record, &server, &conn, &error)) {
        r->Fail("server start: " + error);
        return;
      }
      const std::int64_t c0 = NowNs();
      const Op& op = warm_ops[ProbeIndex(a, j, kServedProbes, kFootprints)];
      if (!Call(conn, op, false, &resp, &error)) {
        r->Fail("cold probe: " + error);
        return;
      }
      probes.push_back(static_cast<double>(NowNs() - c0) / 1e6);
      std::string ignored;
      server.Stop(&ignored);
    }
    r->Set("first_query_ms", Median(probes));
  }

  // Setup: start the server that serves the timed traffic, connect, and
  // warm it with one pass over the read footprints.
  ServerProcess server;
  Connection c;
  {
    SpanScope setup(tracer, kSpanSetup);
    const std::int64_t t0 = NowNs();
    {
      SpanScope s(tracer, kSpanServerStart, setup.handle());
      if (!StartServer(a, cpus, socket, record, &server, &c, &error)) {
        r->Fail("server start: " + error);
        return;
      }
    }
    const std::int64_t w0 = NowNs();
    Response<3> resp;
    for (std::size_t i = 0; i < warm_ops.size(); ++i) {
      if (!Call(c, warm_ops[i], false, &resp, &error)) {
        r->Fail("warm pass op " + std::to_string(i) + ": " + error);
        return;
      }
    }
    const std::int64_t w1 = NowNs();
    r->Set("setup_s", static_cast<double>(w1 - t0) / 1e9);
    // The server's cold session: the warm pass, one round trip at a time.
    r->Set("session_ms", static_cast<double>(w1 - w0) / 1e6);
  }

  Op stats_op;
  stats_op.type = OpType::kStats;
  Response<3> stats_before;
  if (!Call(c, stats_op, false, &stats_before, &error)) {
    r->Fail("Stats request: " + error);
    return;
  }

  // The nominal window. Traced runs trace every other block.
  auto odd_block = [&](std::int64_t since_start) {
    return a.trace && (since_start / block_ns) % 2 == 1;
  };
  Phase nominal = RunPhase(c, stream, 0, nominal_ops, Pace{kNominalRate, 0},
                           true, tracer, odd_block);
  tracer.set_enabled(a.trace);
  r->Attempt(nominal_ops);
  if (!nominal.transport_ok) {
    r->Fail("transport failure in the nominal window", 0);
    return;
  }
  std::size_t nominal_failed = 0;
  for (const OpenLoopOp& op : nominal.ops) nominal_failed += op.ok ? 0 : 1;
  r->FailOps(nominal_failed);
  Response<3> stats_after;
  if (!Call(c, stats_op, false, &stats_after, &error)) {
    r->Fail("Stats request: " + error);
    return;
  }

  const std::vector<BlockStats> blocks =
      Blocks(nominal.ops, stream, block_ns, odd_block);
  // Blocks where the generator lagged measure the host, not the server;
  // they are left out unless they are the majority, in which case the
  // latencies report the lag and generator.late_ms_p99 says so. The p50 is
  // the median over blocks. The p99 is the lowest block p99, the tail of the
  // quietest second: host stalls of 2-15 ms hit some seconds and not others
  // (an idle VM's timer wake-ups show them too) and only ever add latency,
  // so any statistic that counts stalled seconds swings with how many a
  // run's stalls hit. A slower server path raises every block's p99.
  std::vector<double> p50, p99, tp50;
  std::size_t untraced = 0;
  std::size_t clean = 0;
  for (const BlockStats& b : blocks) {
    untraced += b.traced ? 0 : 1;
    clean += !b.traced && b.late_p99_ms <= kLateBlockMs ? 1 : 0;
  }
  const bool skip_lagged = clean * 2 >= untraced;
  for (const BlockStats& b : blocks) {
    if (b.traced) {
      tp50.push_back(b.p50_ms);
    } else if (!skip_lagged || b.late_p99_ms <= kLateBlockMs) {
      p50.push_back(b.p50_ms);
      p99.push_back(b.p99_ms);
    }
  }
  r->Set("latency_p50_ms", Median(p50));
  if (!p99.empty()) {
    r->Set("latency_p99_ms", *std::min_element(p99.begin(), p99.end()));
  }
  if (!tp50.empty() && !p50.empty()) {
    r->Set("trace.overhead_pct", (Median(tp50) / Median(p50) - 1) * 100);
    // Share of the traced blocks' wall time the client-side layer spans
    // (encode, send, receive, decode) cover; the rest is waiting.
    double span_ns = 0;
    for (const Span& sp : tracer.spans()) {
      if (sp.name == kSpanEncode || sp.name == kSpanSend ||
          sp.name == kSpanRecv || sp.name == kSpanDecode) {
        span_ns += static_cast<double>(sp.end_ns - sp.start_ns);
      }
    }
    r->Set("trace.span_cover_share",
           span_ns / (static_cast<double>(tp50.size()) * static_cast<double>(block_ns)));
  }
  std::vector<double> late, ping;
  for (std::size_t i = 0; i < nominal.ops.size(); ++i) {
    late.push_back(LatenessMs(nominal.ops[i]));
    if (stream[i].type == OpType::kPing) {
      ping.push_back(
          static_cast<double>(nominal.ops[i].done_ns - nominal.ops[i].sent_ns) / 1e3);
    }
  }
  r->Set("generator.late_ms_p99", Percentile(late, 99));
  {
    // Request frames: header (8), seq (8), target (1) and the body.
    std::uint64_t request_bytes = 0;
    std::string body;
    for (std::size_t i = 0; i < nominal_ops; ++i) {
      body.clear();
      quasii::ByteWriter w(&body);
      OpRequest(stream[i]).Serialize(&w);
      request_bytes += body.size() + 17;
    }
    r->Set("request.bytes_per_op",
           static_cast<double>(request_bytes + nominal.reply_bytes) /
               static_cast<double>(nominal_ops));
  }
  r->Set("server.window_cracks",
         static_cast<double>(stats_after.stats.cracks - stats_before.stats.cracks));
  r->Set("server.window_moved", static_cast<double>(stats_after.stats.objects_moved -
                                                    stats_before.stats.objects_moved));
  // The server's cold start: everything its QUASII did in the warm pass.
  r->Set("quasii.warmup_cracks", static_cast<double>(stats_before.stats.cracks));
  r->Set("quasii.cracks",
         static_cast<double>(stats_after.stats.cracks - stats_before.stats.cracks));
  r->Set("quasii.objects_moved", static_cast<double>(stats_after.stats.objects_moved -
                                                     stats_before.stats.objects_moved));
  r->Set("server.ping_rtt_p50_us", Median(ping));
  const double ping_tail = SupportedTailPercentile(ping.size());
  r->Set("server.ping_rtt_tail_pct", ping_tail);
  r->Set("server.ping_rtt_tail_us", ping_tail > 0 ? Percentile(ping, ping_tail) : 0);

  // Capacity: a closed loop that keeps kCapacityWindow requests in flight.
  // Its throughput is the median completion rate over blocks of
  // kCapacityBlock ops.
  Tracer off(false);
  const auto never = [](std::int64_t) { return false; };
  {
    const int span = tracer.Begin(kSpanCapacity);
    const Phase cap = RunPhase(c, stream, nominal_ops, kCapacityOps,
                               Pace{0, kCapacityWindow}, false, off, never);
    tracer.End(span);
    if (!cap.transport_ok) {
      r->Fail("transport failure in the capacity phase", 0);
      return;
    }
    std::vector<std::int64_t> done;
    for (const OpenLoopOp& op : cap.ops) done.push_back(op.done_ns);
    std::sort(done.begin(), done.end());
    r->Set("throughput_ops_s", Median(BlockRates(done, cap.ops.front().sent_ns,
                                                 kCapacityBlock)));
  }

  // The ladder: kClimbs climbs over rising rates, each a step of kStepOps
  // ops, until one misses the limit twice in a row (one retry absorbs a
  // host hiccup). A climb's result is the highest rate that passed in it,
  // the nominal window's included. Climbs after the first start two steps
  // below where the one before passed last.
  const StepVerdict nominal_verdict =
      JudgeStep(nominal.ops, kNominalRate, kP99LimitMs);
  std::size_t next = nominal_ops + kCapacityOps;
  std::size_t from = 0;
  std::vector<double> climbs;
  for (int k = 0; k < kClimbs; ++k) {
    std::vector<StepVerdict> verdicts{nominal_verdict};
    std::size_t last_pass = 0;
    bool climbing = true;
    for (std::size_t s = from; s < std::size(kLadder) && climbing; ++s) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        const int step_span = tracer.Begin(kSpanLadderStep);
        Phase step = RunPhase(c, stream, next, kStepOps, Pace{kLadder[s], 0},
                              false, off, never);
        tracer.End(step_span);
        next += kStepOps;
        if (!step.transport_ok) {
          r->Fail("transport failure on the ladder", 0);
          return;
        }
        const StepVerdict v = JudgeStep(step.ops, kLadder[s], kP99LimitMs);
        std::fprintf(stderr, "qbench: climb %d ladder %.0f ops/s p99 %.3f ms%s%s\n",
                     k, kLadder[s], v.p99_ms,
                     v.backlog_growing ? ", backlog growing" : "",
                     v.passes ? "" : ", misses");
        verdicts.push_back(v);
        if (v.passes) {
          last_pass = s;
          break;
        }
        if (attempt == 1) climbing = false;
      }
    }
    climbs.push_back(MaxPassingRate(verdicts));
    from = last_pass >= 2 ? last_pass - 2 : 0;
  }
  r->Set("max_rate_ops_s", Median(climbs));

  // End state: live population, then the server's own report.
  Response<3> stats_end;
  if (!Call(c, stats_op, false, &stats_end, &error)) {
    r->Fail("Stats request: " + error);
    return;
  }
  const std::uint64_t expect_live =
      kObjects + c.accepted_inserts - c.accepted_erases;
  if (stats_end.live_count != expect_live) {
    r->Fail("live_count " + std::to_string(stats_end.live_count) +
            " != " + std::to_string(expect_live));
  }
  if (c.bad_replies != 0) {
    r->Fail(std::to_string(c.bad_replies) + " wrong or refused replies", 0);
  }
  r->Set("peak_rss_mb", PeakRssMb(std::to_string(server.pid())));
  std::string report;
  if (!server.Stop(&report)) r->Fail("server did not shut down cleanly");
  const std::uint64_t accepted = ReportField(report, "accepted");
  const std::uint64_t batches = ReportField(report, "batches");
  const std::uint64_t batched = ReportField(report, "batched_queries");
  const std::uint64_t recorded = ReportField(report, "recorded");
  const std::uint64_t server_checksum = ReportField(report, "checksum");
  r->Set("server.overloaded", static_cast<double>(ReportField(report, "overloaded")));
  r->Set("server.frame_errors",
         static_cast<double>(ReportField(report, "frame_errors")));
  r->Set("server.exec_tasks", static_cast<double>(ReportField(report, "exec_tasks")));
  r->Set("server.batch_mean",
         batches == 0 ? 0 : static_cast<double>(batched) / static_cast<double>(batches));
  r->Set("server.batched_share",
         accepted == 0 ? 0 : static_cast<double>(batched) / static_cast<double>(accepted));
  if (recorded != c.accepted_seqs.size() || accepted != recorded) {
    r->Fail("server recorded " + std::to_string(recorded) + " of " +
            std::to_string(accepted) + " accepted; client saw " +
            std::to_string(c.accepted_seqs.size()));
  }

  // Replay the recorded log in-process and check it against the served run.
  PinCallingThread(cpus.all);
  Dataset3 data;
  {
    SpanScope s(tracer, kSpanDataset);
    const std::int64_t t0 = NowNs();
    data = quasii::datagen::MakeUniformDataset(DatasetParams(a.seed));
    r->Set("datagen.dataset_ms", static_cast<double>(NowNs() - t0) / 1e6);
  }
  {
    const std::int64_t t0 = NowNs();
    const std::vector<Box3> fp = MakeFootprints(a.seed);
    r->Set("datagen.footprints_ms", static_cast<double>(NowNs() - t0) / 1e6);
  }
  const quasii::server::WorkloadLogContents<3> log =
      quasii::server::ReadWorkloadLog<3>(record);
  if (!log.exists || log.error != quasii::persist::PersistError::kNone ||
      log.truncated_tail || log.records.size() != c.accepted_seqs.size()) {
    r->Fail("recorded log unreadable or of the wrong length");
    return;
  }
  {
    std::ifstream f(record, std::ios::binary | std::ios::ate);
    const double size = static_cast<double>(f.tellg());
    r->Set("recorder.bytes_per_request",
           (size - 16) / static_cast<double>(std::max<std::size_t>(log.records.size(), 1)));
  }
  if (a.trace) {
    // The index layer's share of the server's cold session: the same warm
    // pass on a fresh in-process QUASII, without the server or the wire.
    SpanScope s(tracer, kSpanWarmPass);
    quasii::SetIntraQueryThreads(kServerExecThreads);
    QuasiiIndex<3> warm(data);
    const std::int64_t t0 = NowNs();
    for (const Op& op : warm_ops) quasii::ExecuteRequest<3>(&warm, OpRequest(op));
    r->Set("quasii.warmup_ms", static_cast<double>(NowNs() - t0) / 1e6);
    if (warm.stats().cracks != stats_before.stats.cracks) {
      r->Fail("the in-process warm pass cracked " +
              std::to_string(warm.stats().cracks) + " times, the server " +
              std::to_string(stats_before.stats.cracks));
    }
  }
  {
    SpanScope s(tracer, kSpanReplay);
    quasii::SetIntraQueryThreads(kServerExecThreads);
    QuasiiIndex<3> replica(data);
    quasii::SpatialIndex<3>* roster[] = {&replica};
    const quasii::server::ReplayResult replay = quasii::server::ReplayWorkload<3>(
        std::span<quasii::SpatialIndex<3>* const>(roster), log.records);
    if (!replay.ok || replay.response_checksum != c.response_checksum) {
      r->Fail("replayed response stream differs from the served one");
    }
    if (replay.index_checksums.empty() ||
        replay.index_checksums[0] != server_checksum) {
      r->Fail("replayed index content differs from the server's");
    }
    CheckIndex(replica, tracer, "replay", r);
  }
  {
    // Oracle: sampled served answers against Scan at the same point of the
    // mutation stream.
    SpanScope s(tracer, kSpanOracle);
    quasii::ScanIndex<3> scan(data);
    ReadResult expect;
    for (std::size_t j = 0; j < log.records.size(); ++j) {
      const Request<3>& req = log.records[j].request;
      if (req.kind() == quasii::RequestKind::kInsert ||
          req.kind() == quasii::RequestKind::kErase) {
        quasii::ExecuteRequest<3>(&scan, req);
        continue;
      }
      auto it = c.samples.find(c.accepted_seqs[j]);
      if (it == c.samples.end()) continue;
      ExecuteRead(scan, it->second.first, &expect);
      if (!SameResult(it->second.first.type, it->second.second, expect)) {
        r->Fail("served op " + std::to_string(it->first) + " disagrees with Scan");
      }
    }
    if (quasii::IndexContentChecksum(scan) != server_checksum) {
      r->Fail("Scan mirror content differs from the server's");
    }
  }
  std::remove(record.c_str());
  std::remove(socket.c_str());

  if (a.trace) {
    r->Set("request.encode_us", MedianSpanUs(tracer.spans(), kSpanEncode));
    r->Set("request.decode_us", MedianSpanUs(tracer.spans(), kSpanDecode));
    r->Set("trace.spans", static_cast<double>(tracer.spans().size()));
  }
}

}  // namespace qbench

#endif  // QBENCH_SERVED_H_
