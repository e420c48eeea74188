#ifndef QUASII_COMMON_TASK_SCHEDULER_H_
#define QUASII_COMMON_TASK_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/query_stats.h"

namespace quasii {

/// Work-stealing task scheduler — the one executor of the execution layer.
/// The process-wide `IntraQueryScheduler()` fans morsels out *within* a
/// query; separate instances fan queries out *across* threads
/// (the microbench's scaling batches, the threaded bench driver). Batch
/// determinism comes from contiguous chunking, not from execution order.
///
/// Design:
///  - one deque per worker plus one shared injection deque for external
///    submitters; a worker pops its own deque LIFO (cache-hot subtasks
///    first) and steals FIFO from the injection deque or a sibling's deque
///    when its own runs dry;
///  - nested submission never deadlocks: `Group::Wait` *helps* — while its
///    tasks are outstanding the waiter pops and executes runnable tasks
///    (its own group's or anyone's) instead of blocking, so a worker that
///    fans out children makes progress even with a single worker thread,
///    and a scheduler with zero workers degrades to inline execution;
///  - all queues hang off one mutex. At morsel granularity (thousands of
///    rows per task) the lock is nowhere near the critical path, and the
///    single-mutex design keeps the helping/stealing state machine simple
///    enough to reason about under TSan.
///
/// Every worker binds a stats slot taken from `AcquireStatsSlot` at
/// construction and returned at destruction, so the workers of coexisting
/// schedulers land in distinct non-zero shards and tasks may drive
/// `SpatialIndex::Execute` concurrently. (Morsel tasks spawned by the index
/// code never write index counters directly — they accumulate into
/// task-local `QueryStats` merged by the submitting thread.)
class TaskScheduler {
 public:
  /// Utilization counters, cumulative since construction. `executed` counts
  /// tasks run by worker threads, `helped` tasks run by a waiter inside
  /// `Group::Wait`, `inlined` tasks run immediately because the scheduler
  /// has no workers, and `stolen` the subset of executed/helped tasks taken
  /// from another worker's deque.
  struct Stats {
    std::uint64_t executed = 0;
    std::uint64_t helped = 0;
    std::uint64_t inlined = 0;
    std::uint64_t stolen = 0;
  };

  /// Spawns `workers` worker threads (clamped to [0, kMaxThreads - 1]).
  /// Zero workers is a valid, useful configuration: every task runs inline
  /// on the submitting thread, which is the serial-execution mode the
  /// engine defaults to.
  explicit TaskScheduler(int workers) {
    const int n = std::clamp(workers, 0, kMaxThreads - 1);
    queues_.resize(static_cast<std::size_t>(n) + 1);
    slots_.reserve(static_cast<std::size_t>(n));
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int slot = AcquireStatsSlot();
      slots_.push_back(slot);
      workers_.emplace_back([this, i, slot] { WorkerLoop(i, slot); });
    }
  }

  /// Joining requires every submitted task to have completed; `Group` is a
  /// scoped handle whose destructor waits, so by construction no task can
  /// outlive its scheduler.
  ~TaskScheduler() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    for (const int slot : slots_) ReleaseStatsSlot(slot);
  }

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  int workers() const { return static_cast<int>(workers_.size()); }

  /// Whether submitting tasks can actually fan out. False ⇒ `Group::Run`
  /// executes inline and `ParallelFor` degenerates to one serial call.
  bool parallel() const { return !workers_.empty(); }

  Stats stats() const {
    Stats s;
    s.executed = executed_.load(std::memory_order_relaxed);
    s.helped = helped_.load(std::memory_order_relaxed);
    s.inlined = inlined_.load(std::memory_order_relaxed);
    s.stolen = stolen_.load(std::memory_order_relaxed);
    return s;
  }

  /// A set of tasks fanned out together. Scoped: the destructor waits, so
  /// a `Group` on the stack can never leak running tasks into code that
  /// assumes they finished.
  class Group {
   public:
    explicit Group(TaskScheduler* s) : s_(s) {}
    ~Group() { Wait(); }

    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    /// Submits `fn`. On a scheduler with no workers the task runs inline,
    /// immediately, on this thread — same semantics, zero queueing.
    void Run(std::function<void()> fn) {
      if (!s_->parallel()) {
        s_->inlined_.fetch_add(1, std::memory_order_relaxed);
        fn();
        return;
      }
      const int self = TlsWorkerIndex(s_);
      {
        std::unique_lock<std::mutex> lock(s_->mu_);
        ++pending_;
        // A worker pushes to the BACK of its own deque (popped LIFO by
        // itself, stolen FIFO by siblings); external threads inject into
        // the shared deque 0.
        s_->queues_[static_cast<std::size_t>(self) + 1].push_back(
            Task{std::move(fn), this});
      }
      s_->cv_work_.notify_one();
    }

    /// Blocks until every task `Run` on this group has finished — by
    /// *helping*: while tasks (this group's or any other's) are runnable,
    /// the waiter executes them instead of sleeping. This is what makes
    /// nested fan-out deadlock-free at any pool size.
    void Wait() {
      if (!s_->parallel()) return;
      std::unique_lock<std::mutex> lock(s_->mu_);
      while (pending_ > 0) {
        Task task;
        bool stolen = false;
        if (s_->PopAnyLocked(TlsWorkerIndex(s_), &task, &stolen)) {
          lock.unlock();
          task.fn();
          lock.lock();
          s_->helped_.fetch_add(1, std::memory_order_relaxed);
          if (stolen) s_->stolen_.fetch_add(1, std::memory_order_relaxed);
          s_->FinishLocked(task.group);
        } else {
          s_->cv_done_.wait(lock);
        }
      }
    }

   private:
    friend class TaskScheduler;
    TaskScheduler* s_;
    std::size_t pending_ = 0;  // guarded by s_->mu_
  };

  /// Most threads one scheduler runs a fan-out on: its workers plus the
  /// helping caller. Half the stats slots, so the intra-query scheduler and
  /// a batch scheduler both at the cap still fit in `kStatsSlots - 1`.
  static constexpr int kMaxThreads = kStatsSlots / 2;

 private:
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
  };

  /// Pops a runnable task: own deque back first (LIFO), then the shared
  /// injection deque, then siblings' fronts (a steal). `self` is the
  /// caller's worker index or -1 for non-workers. Caller holds `mu_`.
  bool PopAnyLocked(int self, Task* out, bool* stolen) {
    *stolen = false;
    const std::size_t own = static_cast<std::size_t>(self) + 1;
    if (self >= 0 && !queues_[own].empty()) {
      *out = std::move(queues_[own].back());
      queues_[own].pop_back();
      return true;
    }
    if (!queues_[0].empty()) {
      *out = std::move(queues_[0].front());
      queues_[0].pop_front();
      return true;
    }
    for (std::size_t q = 1; q < queues_.size(); ++q) {
      if (q == own || queues_[q].empty()) continue;
      *out = std::move(queues_[q].front());
      queues_[q].pop_front();
      *stolen = true;
      return true;
    }
    return false;
  }

  /// Completion bookkeeping for one finished task. Caller holds `mu_`.
  void FinishLocked(Group* g) {
    if (--g->pending_ == 0) cv_done_.notify_all();
  }

  void WorkerLoop(int index, int slot) {
    ScopedStatsSlot bind(slot);
    TlsWorkerBinding binding(this, index);
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      Task task;
      bool stolen = false;
      if (PopAnyLocked(index, &task, &stolen)) {
        lock.unlock();
        task.fn();
        lock.lock();
        executed_.fetch_add(1, std::memory_order_relaxed);
        if (stolen) stolen_.fetch_add(1, std::memory_order_relaxed);
        FinishLocked(task.group);
        continue;
      }
      if (stop_) return;
      cv_work_.wait(lock);
    }
  }

  /// Thread → (scheduler, worker index) binding so `Run`/`Wait` know which
  /// deque this thread owns. Schedulers are plural (tests build their own),
  /// so the TLS records which scheduler the binding belongs to.
  struct TlsSlot {
    const TaskScheduler* sched = nullptr;
    int index = -1;
  };
  static TlsSlot& Tls() {
    static thread_local TlsSlot slot;
    return slot;
  }
  static int TlsWorkerIndex(const TaskScheduler* s) {
    const TlsSlot& t = Tls();
    return t.sched == s ? t.index : -1;
  }
  struct TlsWorkerBinding {
    TlsWorkerBinding(const TaskScheduler* s, int index) {
      Tls() = TlsSlot{s, index};
    }
    ~TlsWorkerBinding() { Tls() = TlsSlot{}; }
  };

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::deque<Task>> queues_;  // [0] injection, [1+i] worker i
  bool stop_ = false;
  std::vector<int> slots_;  // worker i's stats slot
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> helped_{0};
  std::atomic<std::uint64_t> inlined_{0};
  std::atomic<std::uint64_t> stolen_{0};
};

/// Morsel-parallel loop: cuts [begin, end) into contiguous morsels of
/// `grain` elements (the last may be shorter) and runs `body(b, e)` for
/// each. Morsel boundaries are a pure function of the range and `grain` —
/// never of the worker count — so any code whose OUTPUT depends on the cut
/// points (the chunked partition in crack_array.h) produces identical
/// results at every thread count, including zero workers where the whole
/// loop runs serially in morsel order on the caller.
template <typename Body>
void ParallelFor(TaskScheduler* s, std::size_t begin, std::size_t end,
                 std::size_t grain, const Body& body) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  if (!s->parallel() || end - begin <= grain) {
    for (std::size_t b = begin; b < end; b += grain) {
      body(b, std::min(b + grain, end));
    }
    return;
  }
  TaskScheduler::Group g(s);
  // Submit every morsel after the first, run the first inline, then help
  // drain the rest in Wait.
  for (std::size_t b = begin + grain; b < end; b += grain) {
    const std::size_t e = std::min(b + grain, end);
    g.Run([&body, b, e] { body(b, e); });
  }
  body(begin, std::min(begin + grain, end));
  g.Wait();
}

namespace internal {

inline int ParseEnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return static_cast<int>(
      std::clamp<long>(parsed, 1, TaskScheduler::kMaxThreads));
}

/// `QUASII_EXEC_THREADS`, parsed once: the startup intra-query thread count
/// AND a hard cap on later `SetIntraQueryThreads` requests, so the CI
/// force-serial leg (`QUASII_EXEC_THREADS=1`) pins serial execution even
/// through runtime overrides — the exact analogue of how
/// `QUASII_FORCE_SCALAR` pins the SIMD tier. 0 means "unset".
inline int EnvExecThreadsCap() {
  static const int cap = ParseEnvInt("QUASII_EXEC_THREADS", 0);
  return cap;
}

struct IntraQueryState {
  std::unique_ptr<TaskScheduler> scheduler;
  int threads = 1;
};

inline IntraQueryState& IntraQuery() {
  static IntraQueryState state = [] {
    IntraQueryState s;
    const int cap = EnvExecThreadsCap();
    s.threads = cap > 0 ? cap : 1;
    s.scheduler = std::make_unique<TaskScheduler>(s.threads - 1);
    return s;
  }();
  return state;
}

}  // namespace internal

/// The process-wide intra-query scheduler. Default size 1 (no workers —
/// fully serial) unless `QUASII_EXEC_THREADS` says otherwise, so nothing
/// goes parallel without an explicit opt-in and the server's replay
/// determinism gate is untouched by default.
inline TaskScheduler& IntraQueryScheduler() {
  return *internal::IntraQuery().scheduler;
}

/// Current intra-query thread count (workers + the submitting thread).
inline int IntraQueryThreads() { return internal::IntraQuery().threads; }

/// Resizes the intra-query scheduler to `threads` total threads, clamped
/// by the `QUASII_EXEC_THREADS` cap when that is set. NOT thread-safe
/// against in-flight queries — call it between queries (microbench A/B
/// mode switches, server startup). Returns the effective thread count.
inline int SetIntraQueryThreads(int threads) {
  threads = std::clamp(threads, 1, TaskScheduler::kMaxThreads);
  const int cap = internal::EnvExecThreadsCap();
  if (cap > 0) threads = std::min(threads, cap);
  internal::IntraQueryState& state = internal::IntraQuery();
  if (threads != state.threads) {
    state.scheduler.reset();  // return its stats slots before taking new ones
    state.scheduler = std::make_unique<TaskScheduler>(threads - 1);
    state.threads = threads;
  }
  return state.threads;
}

/// Morsel size in rows for `ParallelFor` over row ranges: big enough that
/// task dispatch is noise next to the per-row work, small enough that a
/// cold 2^20-row crack cuts into plenty of morsels for 8 threads.
inline constexpr std::size_t MorselGrain() { return 4096; }

}  // namespace quasii

#endif  // QUASII_COMMON_TASK_SCHEDULER_H_
