#ifndef QUASII_SERVER_SERVER_H_
#define QUASII_SERVER_SERVER_H_

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/request.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"
#include "persist/snapshot.h"
#include "server/protocol.h"
#include "server/recorder.h"

namespace quasii::server {

/// Asynchronous query server fronting a roster of indexes.
///
/// Architecture — one thread class per concern:
///  - an acceptor thread (only with `Listen`) hands sockets to…
///  - per-connection reader threads, which do the handshake, read frames
///    through a `FrameReader` (one `recv` per burst of pipelined frames),
///    parse and validate them, and admit each burst onto the bounded
///    admission queue under one lock with one notify. A request refused
///    here (typed `kOverloaded` / `kMalformed`) is answered by the reader,
///    under the connection's write lock;
///  - ONE exec thread. Each time it wakes it drains the whole queue as one
///    run, appends the run to the workload log with one write, and executes
///    the run's requests in admission order through `ExecuteRequest`. It is
///    the only thread that executes requests, which makes the admission
///    order the execution order — the property the workload recorder and
///    bit-identical replay rest on. An index's own shared-lock attempt picks
///    the read path: for QUASII, one read-only descent when the read is
///    converged, the exclusive path when it must crack. Each reply frame is
///    built in place in its connection's buffer, and each connection's
///    buffer goes out with one `send` at the end of the run.
///
/// Admission control: `max_inflight` bounds the requests accepted and not
/// yet answered — the queue plus the current run. Beyond it a request is
/// answered `kOverloaded` without being recorded (it was never accepted, so
/// replays reproduce only the accepted stream). Shutdown drains: readers
/// stop admitting first, then the exec thread empties the queue — an
/// accepted request is always executed, recorded and answered.
///
/// Snapshot reads: a request pinned to a store epoch executes only if the
/// target's `ObjectStore::version()` still equals the pin, else answers
/// `kEpochMismatch` — optimistic snapshot isolation without version
/// retention. `kSnapshot` admin requests write a durable snapshot via
/// `persist::WriteSnapshot` when the server was given a snapshot path.
template <int D>
class QueryServer {
 public:
  struct Options {
    /// Admission bound: accepted requests not yet answered, across all
    /// clients.
    std::size_t max_inflight = 256;
    /// Intra-query morsel threads (`SetIntraQueryThreads`, applied at
    /// `Start`; a `QUASII_EXEC_THREADS` env cap may clamp it). Default 1:
    /// fully serial intra-query execution, so record/replay determinism
    /// needs no caveats. Raising it parallelizes cracking *within* the
    /// single exec thread's requests (converged reads and leaf scans always
    /// run on the calling thread) — admission order stays the execution
    /// order either way.
    int exec_threads = 1;
    /// Workload log path; empty disables recording.
    std::string record_path;
    /// Snapshot path prefix (".<target>" is appended); empty makes
    /// `kSnapshot` answer `kUnsupported`.
    std::string snapshot_path;
  };

  struct Counters {
    std::uint64_t connections = 0;
    std::uint64_t accepted = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t malformed = 0;
    std::uint64_t frame_errors = 0;
    /// Drained runs of more than one request, and the requests in them.
    std::uint64_t batches = 0;
    std::uint64_t batched_queries = 0;
    /// Intra-query worker utilization, sampled per request around the exec
    /// loop: morsel tasks run (worker + helping-waiter + inline), tasks
    /// that crossed deques (steals), and how many requests fanned out at
    /// all. All zero at `exec_threads = 1`.
    std::uint64_t exec_tasks = 0;
    std::uint64_t exec_steals = 0;
    std::uint64_t parallel_requests = 0;
  };

  QueryServer(std::vector<SpatialIndex<D>*> roster, Options options)
      : roster_(std::move(roster)), options_(std::move(options)) {}

  ~QueryServer() { Stop(); }

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Opens the recorder (when configured), applies the intra-query thread
  /// count, and starts the exec thread.
  bool Start(std::string* error) {
    exec_threads_effective_ = SetIntraQueryThreads(options_.exec_threads);
    if (!options_.record_path.empty()) {
      const persist::PersistError err = recorder_.Open(options_.record_path);
      if (err != persist::PersistError::kNone) {
        if (error != nullptr) {
          *error = std::string("cannot open workload log: ") +
                   persist::PersistErrorName(err);
        }
        return false;
      }
    }
    exec_ = std::thread([this] { ExecLoop(); });
    return true;
  }

  /// Binds and listens on a Unix-domain socket and starts the acceptor.
  /// Call after `Start`. An existing socket file is replaced.
  bool Listen(const std::string& path, std::string* error) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "socket path too long";
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = "socket() failed";
      return false;
    }
    ::unlink(path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      if (error != nullptr) *error = "bind/listen failed on " + path;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    acceptor_ = std::thread([this] { AcceptLoop(); });
    return true;
  }

  /// Adopts an already-connected socket (the socketpair test path). Takes
  /// ownership of `fd`.
  void AddConnection(int fd) {
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_client_id_++;
      conns_.push_back(conn);
    }
    counters_.connections.fetch_add(1, std::memory_order_relaxed);
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }

  /// Orderly shutdown: stop accepting, stop reading, drain the admission
  /// queue (every accepted request executes, is recorded, and is answered),
  /// then close. Idempotent; the destructor calls it.
  void Stop() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) return;
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    std::vector<std::shared_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns = conns_;
    }
    // Readers wake on EOF from the read-side shutdown and exit; after the
    // joins no new request can be admitted.
    for (auto& c : conns) ::shutdown(c->fd, SHUT_RD);
    for (auto& c : conns) {
      if (c->reader.joinable()) c->reader.join();
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      exec_stop_ = true;
    }
    queue_cv_.notify_all();
    if (exec_.joinable()) exec_.join();
    for (auto& c : conns) ::close(c->fd);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.clear();
    }
    recorder_.Close();
  }

  Counters counters() const {
    Counters out;
    out.connections = counters_.connections.load();
    out.accepted = counters_.accepted.load();
    out.overloaded = counters_.overloaded.load();
    out.malformed = counters_.malformed.load();
    out.frame_errors = counters_.frame_errors.load();
    out.batches = counters_.batches.load();
    out.batched_queries = counters_.batched_queries.load();
    out.exec_tasks = counters_.exec_tasks.load();
    out.exec_steals = counters_.exec_steals.load();
    out.parallel_requests = counters_.parallel_requests.load();
    return out;
  }

  /// The intra-query thread count actually in effect (`Options` value after
  /// the `QUASII_EXEC_THREADS` cap), valid once `Start` has run.
  int exec_threads() const { return exec_threads_effective_; }

  std::uint64_t recorded() const { return recorder_.records(); }
  std::size_t roster_size() const { return roster_.size(); }

  /// Final-state digests, one per roster index — the server half of the
  /// replay determinism gate. Call only while quiescent (after `Stop` or
  /// with no request in flight).
  std::vector<std::uint64_t> IndexChecksums() const {
    std::vector<std::uint64_t> out;
    out.reserve(roster_.size());
    for (const SpatialIndex<D>* index : roster_) {
      out.push_back(IndexContentChecksum(*index));
    }
    return out;
  }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::mutex write_mu;  ///< reader refusals vs exec replies
    /// Exec thread only: this run's reply frames, sent at the run's end.
    std::string replies;
    std::thread reader;
  };

  struct Pending {
    std::shared_ptr<Connection> conn;
    std::uint64_t seq = 0;
    std::uint8_t target = 0;
    Request<D> request;
  };

  struct AtomicCounters {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> overloaded{0};
    std::atomic<std::uint64_t> malformed{0};
    std::atomic<std::uint64_t> frame_errors{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> batched_queries{0};
    std::atomic<std::uint64_t> exec_tasks{0};
    std::atomic<std::uint64_t> exec_steals{0};
    std::atomic<std::uint64_t> parallel_requests{0};
  };

  void AcceptLoop() {
    while (!stopping_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener shut down
      }
      AddConnection(fd);
    }
  }

  /// Appends the reply frame `[u64 seq] [Response<D> bytes]` to `out`.
  static void AppendReply(std::string* out, std::uint64_t seq,
                          const Response<D>& resp) {
    const std::size_t at = BeginFrame(out);
    ByteWriter w(out);
    w.U64(seq);
    resp.Serialize(&w);
    EndFrame(out, at);
  }

  static void AppendStatus(std::string* out, std::uint64_t seq,
                           ResponseStatus status, RequestKind kind) {
    Response<D> resp;
    resp.status = status;
    resp.kind = kind;
    AppendReply(out, seq, resp);
  }

  /// Writes `frames` to `conn` under its write lock. A write failure means
  /// the client is gone; its requests were still executed and recorded
  /// (responses are at-most-once, requests are exactly-once up to the
  /// recorded log).
  static void Send(Connection& conn, std::string_view frames) {
    std::lock_guard<std::mutex> lock(conn.write_mu);
    WriteFull(conn.fd, frames.data(), frames.size());
  }

  void ReaderLoop(std::shared_ptr<Connection> conn) {
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      WriteFrame(conn->fd, HelloPayload());
    }
    FrameReader reader(conn->fd);
    std::string_view payload;
    if (reader.Next(&payload) != WireError::kNone ||
        !CheckHelloPayload(payload)) {
      counters_.frame_errors.fetch_add(1, std::memory_order_relaxed);
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
    std::vector<Pending> burst;
    std::string refusals;  // reply frames for requests refused here
    while (true) {
      const WireError err = reader.Next(&payload);
      const bool fatal =
          err != WireError::kNone || !Take(conn, payload, &burst, &refusals);
      // Admit before the next read could block, and before dropping the
      // connection: every frame that arrived intact ahead of a failure is
      // answered, as it would be frame by frame.
      if (!fatal && reader.Buffered()) continue;
      Admit(*conn, &burst, &refusals);
      if (!fatal) continue;
      if (err != WireError::kClosed) {
        // Torn frame, bad CRC, oversized length, I/O failure, or an
        // envelope too short to carry a seq: the stream has no
        // resynchronization point; count it and drop the connection. Every
        // malformed input is a typed outcome, never UB.
        counters_.frame_errors.fetch_add(1, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
      }
      return;
    }
  }

  /// Parses one request envelope into `burst`, or answers it `kMalformed`
  /// into `refusals`. False on an envelope too short to carry a seq.
  bool Take(const std::shared_ptr<Connection>& conn, std::string_view payload,
            std::vector<Pending>* burst, std::string* refusals) {
    ByteReader r(payload);
    const std::uint64_t seq = r.U64();
    const std::uint8_t target = r.U8();
    if (!r.ok()) return false;
    auto request = Request<D>::TryParse(&r);
    if (!request || !r.ok() || r.remaining() != 0 ||
        target >= roster_.size()) {
      counters_.malformed.fetch_add(1, std::memory_order_relaxed);
      AppendStatus(refusals, seq, ResponseStatus::kMalformed,
                   request ? request->kind() : RequestKind::kPing);
      return true;
    }
    Pending& p = burst->emplace_back();
    p.conn = conn;
    p.seq = seq;
    p.target = target;
    p.request = *std::move(request);
    return true;
  }

  /// Admits a burst under one lock and one notify; what does not fit under
  /// `max_inflight` is answered `kOverloaded` with the burst's refusals.
  void Admit(Connection& conn, std::vector<Pending>* burst,
             std::string* refusals) {
    std::uint64_t admitted = 0;
    if (!burst->empty()) {
      std::lock_guard<std::mutex> lock(queue_mu_);
      for (Pending& p : *burst) {
        if (queue_.size() + in_run_ >= options_.max_inflight) {
          counters_.overloaded.fetch_add(1, std::memory_order_relaxed);
          AppendStatus(refusals, p.seq, ResponseStatus::kOverloaded,
                       p.request.kind());
          continue;
        }
        queue_.push_back(std::move(p));
        ++admitted;
      }
    }
    burst->clear();
    if (admitted > 0) {
      counters_.accepted.fetch_add(admitted, std::memory_order_relaxed);
      queue_cv_.notify_one();
    }
    if (!refusals->empty()) {
      Send(conn, *refusals);
      refusals->clear();
    }
  }

  void ExecLoop() {
    std::vector<Pending> run;
    std::string log;
    std::vector<Connection*> replied;  // connections with frames this run
    while (true) {
      run.clear();
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        in_run_ = 0;  // the previous run is answered
        queue_cv_.wait(lock, [this] { return exec_stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // exec_stop_ and fully drained
        run.swap(queue_);
        in_run_ = run.size();
      }
      if (run.size() > 1) {
        counters_.batches.fetch_add(1, std::memory_order_relaxed);
        counters_.batched_queries.fetch_add(run.size(),
                                            std::memory_order_relaxed);
      }
      if (recorder_.is_open()) {
        log.clear();
        for (const Pending& p : run) {
          WorkloadRecorder<D>::EncodeRecord(&log, p.conn->id, p.target,
                                            p.request);
        }
        recorder_.AppendFrames(log, run.size());
      }
      for (const Pending& p : run) {
        const Response<D> resp = Execute(p);
        if (p.conn->replies.empty()) replied.push_back(p.conn.get());
        AppendReply(&p.conn->replies, p.seq, resp);
      }
      for (Connection* conn : replied) {
        Send(*conn, conn->replies);
        conn->replies.clear();
      }
      replied.clear();
    }
  }

  /// Executes one request, sampling the intra-query scheduler around it:
  /// every morsel task the request fanned out has completed when
  /// `ExecuteRequest` returns (`Group::Wait` is a full barrier), so the
  /// stats delta is exactly this request's work.
  Response<D> Execute(const Pending& p) {
    RequestHooks<D> hooks;
    std::string snapshot_path;
    if (p.request.kind() == RequestKind::kSnapshot &&
        !options_.snapshot_path.empty()) {
      snapshot_path =
          options_.snapshot_path + "." + std::to_string(p.target);
      hooks.snapshot_now = [&snapshot_path](SpatialIndex<D>& index,
                                            std::uint64_t* lsn) {
        if (persist::WriteSnapshot<D>(index, snapshot_path) !=
            persist::PersistError::kNone) {
          return false;
        }
        *lsn = index.store().version();
        return true;
      };
    }
    const TaskScheduler::Stats before = IntraQueryScheduler().stats();
    Response<D> resp = ExecuteRequest(roster_[p.target], p.request, &hooks);
    const TaskScheduler::Stats after = IntraQueryScheduler().stats();
    const std::uint64_t tasks = (after.executed - before.executed) +
                                (after.helped - before.helped) +
                                (after.inlined - before.inlined);
    if (tasks > 0) {
      counters_.exec_tasks.fetch_add(tasks, std::memory_order_relaxed);
      counters_.exec_steals.fetch_add(after.stolen - before.stolen,
                                      std::memory_order_relaxed);
      counters_.parallel_requests.fetch_add(1, std::memory_order_relaxed);
    }
    return resp;
  }

  std::vector<SpatialIndex<D>*> roster_;
  Options options_;
  int exec_threads_effective_ = 1;
  WorkloadRecorder<D> recorder_;

  int listen_fd_ = -1;
  std::thread acceptor_;
  std::thread exec_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::uint64_t next_client_id_ = 1;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::vector<Pending> queue_;
  std::size_t in_run_ = 0;  ///< requests of the exec thread's current run
  bool exec_stop_ = false;

  AtomicCounters counters_;
};

}  // namespace quasii::server

#endif  // QUASII_SERVER_SERVER_H_
