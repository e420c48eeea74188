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
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/request.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"
#include "persist/snapshot.h"
#include "server/protocol.h"
#include "server/recorder.h"

namespace quasii::server {

/// Asynchronous batched query server fronting a roster of indexes.
///
/// Architecture — one thread class per concern:
///  - an acceptor thread (only with `Listen`) hands sockets to…
///  - per-connection reader threads, which do the handshake, parse and
///    validate frames, and either reject immediately (typed `kOverloaded` /
///    `kMalformed`, written under the connection's write lock) or enqueue
///    onto the bounded admission queue;
///  - ONE exec thread consumes the queue in FIFO order. It is the only
///    thread that executes requests, which makes the admission order the
///    execution order — the property the workload recorder (appended at
///    dequeue time) and bit-identical replay rest on. Runs of consecutive
///    *converged* unpinned queries against the same index are batched onto
///    the server's own `TaskScheduler` through `BatchExecutor`: the exec
///    thread helps as the last of `pool_threads` threads. `ConvergedFor`
///    guarantees shared-mode execution (no reorganization), so batched
///    results are byte-identical to serial execution and determinism
///    survives the parallelism. The batch scheduler is separate from
///    `IntraQueryScheduler()`, so `exec_tasks` counts intra-query work only.
///
/// Admission control: the queue is bounded at `max_inflight`; beyond it a
/// request is answered `kOverloaded` without being recorded (it was never
/// accepted, so replays reproduce only the accepted stream). Shutdown
/// drains: readers stop admitting first, then the exec thread empties the
/// queue — an accepted request is always executed, recorded and answered.
/// A batch never outlives its `RunBatch` call, so no batch work is left
/// when the exec thread joins.
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
    /// Admission bound: queued-but-unexecuted requests across all clients.
    std::size_t max_inflight = 256;
    /// Longest run of converged queries handed to the pool at once.
    std::size_t max_batch = 64;
    /// Threads that execute a batch: `pool_threads - 1` scheduler workers
    /// plus the helping exec thread.
    int pool_threads = 4;
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
      : roster_(std::move(roster)),
        options_(options),
        pool_(options.pool_threads - 1),
        executor_(&pool_) {}

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
    std::mutex write_mu;  ///< reader rejections vs exec responses
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

  void SendResponse(Connection& conn, std::uint64_t seq,
                    const Response<D>& resp) {
    std::string payload;
    ByteWriter w(&payload);
    w.U64(seq);
    resp.Serialize(&w);
    std::lock_guard<std::mutex> lock(conn.write_mu);
    // A write failure means the client is gone; the request was still
    // executed and recorded (responses are at-most-once, requests are
    // exactly-once up to the recorded log).
    WriteFrame(conn.fd, payload);
  }

  void SendStatus(Connection& conn, std::uint64_t seq, ResponseStatus status,
                  RequestKind kind) {
    Response<D> resp;
    resp.status = status;
    resp.kind = kind;
    SendResponse(conn, seq, resp);
  }

  void ReaderLoop(std::shared_ptr<Connection> conn) {
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      WriteFrame(conn->fd, HelloPayload());
    }
    std::string payload;
    if (ReadFrame(conn->fd, &payload) != WireError::kNone ||
        !CheckHelloPayload(payload)) {
      counters_.frame_errors.fetch_add(1, std::memory_order_relaxed);
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
    while (true) {
      const WireError err = ReadFrame(conn->fd, &payload);
      if (err == WireError::kClosed) return;
      if (err != WireError::kNone) {
        // Torn frame, bad CRC, oversized length, I/O failure: the stream
        // has no resynchronization point; count it and drop the
        // connection. Every malformed input is a typed outcome, never UB.
        counters_.frame_errors.fetch_add(1, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
        return;
      }
      ByteReader r(payload);
      const std::uint64_t seq = r.U64();
      const std::uint8_t target = r.U8();
      if (!r.ok()) {
        // Too short to even carry a seq to echo — protocol violation.
        counters_.frame_errors.fetch_add(1, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
        return;
      }
      auto request = Request<D>::TryParse(&r);
      if (!request || !r.ok() || r.remaining() != 0 ||
          target >= roster_.size()) {
        counters_.malformed.fetch_add(1, std::memory_order_relaxed);
        SendStatus(*conn, seq, ResponseStatus::kMalformed,
                   request ? request->kind() : RequestKind::kPing);
        continue;
      }
      Pending p;
      p.conn = conn;
      p.seq = seq;
      p.target = target;
      p.request = *std::move(request);
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (queue_.size() >= options_.max_inflight) {
          counters_.overloaded.fetch_add(1, std::memory_order_relaxed);
          SendStatus(*conn, seq, ResponseStatus::kOverloaded,
                     p.request.kind());
          continue;
        }
        queue_.push_back(std::move(p));
      }
      counters_.accepted.fetch_add(1, std::memory_order_relaxed);
      queue_cv_.notify_one();
    }
  }

  /// Whether `p` may join a converged read batch: an unpinned plain query
  /// (pinned reads take the serial path, where the epoch check lives)
  /// whose descent the target index promises not to reorganize. The exec
  /// thread is the only mutator, so `ConvergedFor` is stable here, and the
  /// batched `Execute` runs its shared-lock attempt without declining. A
  /// batched QUASII read therefore descends twice: once here as a hint,
  /// once in `Execute`, which collects its scans.
  bool Batchable(const Pending& p) const {
    return p.request.kind() == RequestKind::kQuery &&
           p.request.pin_epoch() == 0 &&
           roster_[p.target]->ConvergedFor(p.request.query());
  }

  void Record(const Pending& p) {
    if (!recorder_.is_open()) return;
    recorder_.Append(p.conn->id, p.target, p.request);
  }

  void ExecLoop() {
    std::vector<Pending> batch;
    while (true) {
      batch.clear();
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [this] { return exec_stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // exec_stop_ and fully drained
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        // Extend a converged-read run without waiting: batching is an
        // opportunistic amortization, never a latency tax.
        if (Batchable(batch.front())) {
          while (!queue_.empty() && batch.size() < options_.max_batch &&
                 queue_.front().target == batch.front().target &&
                 Batchable(queue_.front())) {
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
          }
        }
      }
      for (const Pending& p : batch) Record(p);
      // Utilization sampling: every morsel task any of this batch's
      // requests fanned out has completed by the time its Execute returns
      // (`Group::Wait` is a full barrier), so the scheduler-stats delta
      // around the batch is exactly this batch's work.
      const TaskScheduler::Stats before = IntraQueryScheduler().stats();
      if (batch.size() > 1) {
        RunBatch(batch);
      } else {
        RunSingle(batch.front());
      }
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
    }
  }

  void RunSingle(const Pending& p) {
    RequestHooks<D> hooks;
    std::string snapshot_path;
    if (!options_.snapshot_path.empty()) {
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
    const Response<D> resp =
        ExecuteRequest(roster_[p.target], p.request, &hooks);
    SendResponse(*p.conn, p.seq, resp);
  }

  void RunBatch(const std::vector<Pending>& batch) {
    std::vector<Query<D>> queries;
    queries.reserve(batch.size());
    for (const Pending& p : batch) queries.push_back(p.request.query());
    SpatialIndex<D>* index = roster_[batch.front().target];
    std::vector<BatchResult> results =
        executor_.Run(index, std::span<const Query<D>>(queries));
    counters_.batches.fetch_add(1, std::memory_order_relaxed);
    counters_.batched_queries.fetch_add(batch.size(),
                                        std::memory_order_relaxed);
    // No mutation can interleave (this thread is the only mutator), so one
    // version read covers the whole batch.
    const std::uint64_t epoch = index->store().version();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Response<D> resp;
      resp.kind = RequestKind::kQuery;
      resp.epoch = epoch;
      resp.count = results[i].count;
      resp.ids = std::move(results[i].ids);
      SendResponse(*batch[i].conn, batch[i].seq, resp);
    }
  }

  std::vector<SpatialIndex<D>*> roster_;
  Options options_;
  int exec_threads_effective_ = 1;
  TaskScheduler pool_;
  BatchExecutor<D> executor_;
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
  std::deque<Pending> queue_;
  bool exec_stop_ = false;

  AtomicCounters counters_;
};

}  // namespace quasii::server

#endif  // QUASII_SERVER_SERVER_H_
