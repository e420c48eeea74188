#ifndef QUASII_COMMON_QUERY_STATS_H_
#define QUASII_COMMON_QUERY_STATS_H_

#include <array>
#include <cstdint>
#include <ostream>

namespace quasii {

/// Work counters accumulated while executing queries. Every index maintains
/// one instance per executing thread (see `ShardedQueryStats`); the
/// experiment harness snapshots the merged view per query to reproduce the
/// paper's "objects considered for intersection" analyses (Section 6.2).
struct QueryStats {
  /// Boxes tested for intersection against the query (candidate objects).
  std::uint64_t objects_tested = 0;
  /// Index partitions (cells, nodes, slices) visited.
  std::uint64_t partitions_visited = 0;
  /// Reorganization passes over some array segment (cracks / splits).
  std::uint64_t cracks = 0;
  /// Entries relocated while reorganizing data (incremental indexes).
  std::uint64_t objects_moved = 0;
  /// Candidates discarded by de-duplication (replication-based indexes).
  std::uint64_t duplicates_removed = 0;
  /// 1d intervals a query decomposed into (SFC-based indexes).
  std::uint64_t intervals = 0;
  /// Column bytes read by leaf scans (bound columns, live-byte probes,
  /// emitted ids). Only `CrackArray::StreamScan`-based paths report it.
  std::uint64_t bytes_scanned = 0;

  void Reset() { *this = QueryStats{}; }

  QueryStats& operator+=(const QueryStats& o) {
    objects_tested += o.objects_tested;
    partitions_visited += o.partitions_visited;
    cracks += o.cracks;
    objects_moved += o.objects_moved;
    duplicates_removed += o.duplicates_removed;
    intervals += o.intervals;
    bytes_scanned += o.bytes_scanned;
    return *this;
  }

  friend QueryStats operator-(QueryStats a, const QueryStats& b) {
    a.objects_tested -= b.objects_tested;
    a.partitions_visited -= b.partitions_visited;
    a.cracks -= b.cracks;
    a.objects_moved -= b.objects_moved;
    a.duplicates_removed -= b.duplicates_removed;
    a.intervals -= b.intervals;
    a.bytes_scanned -= b.bytes_scanned;
    return a;
  }
};

inline std::ostream& operator<<(std::ostream& os, const QueryStats& s) {
  return os << "{tested=" << s.objects_tested
            << " visited=" << s.partitions_visited << " cracks=" << s.cracks
            << " moved=" << s.objects_moved
            << " dedup=" << s.duplicates_removed
            << " intervals=" << s.intervals
            << " bytes_scanned=" << s.bytes_scanned << '}';
}

/// Number of per-thread counter slots an index carries. Slot 0 belongs to
/// unregistered threads (the main thread of a single-threaded run); the
/// `ThreadPool` binds each worker to one of the remaining slots, so
/// concurrency is bounded at `kStatsSlots - 1` pool workers.
inline constexpr int kStatsSlots = 64;

namespace internal {
inline thread_local int tls_stats_slot = 0;
}  // namespace internal

/// The counter slot the calling thread writes to (0 unless bound).
inline int CurrentStatsSlot() { return internal::tls_stats_slot; }

/// Binds the calling thread to a stats slot for its lifetime. Every thread
/// that executes queries concurrently with others MUST hold a distinct slot
/// (the `ThreadPool` does this for its workers); two unbound threads would
/// otherwise race on slot 0.
class ScopedStatsSlot {
 public:
  explicit ScopedStatsSlot(int slot) : prev_(internal::tls_stats_slot) {
    internal::tls_stats_slot = slot;
  }
  ~ScopedStatsSlot() { internal::tls_stats_slot = prev_; }
  ScopedStatsSlot(const ScopedStatsSlot&) = delete;
  ScopedStatsSlot& operator=(const ScopedStatsSlot&) = delete;

 private:
  int prev_;
};

/// One cache line per slot: concurrent threads bump their own counters
/// without invalidating each other's lines (the sharing would otherwise
/// serialize the lock-free read paths right back).
struct alignas(64) PaddedQueryStats {
  QueryStats stats;
};

/// Mergeable per-thread work counters: execution paths write the calling
/// thread's `Local()` slot with plain stores, and `Merged()` folds all slots
/// into one total. Writes are unsynchronized by design — `Merged()`/`Reset()`
/// are only meaningful while no query is in flight (the harness reads stats
/// between phases, never mid-batch).
class ShardedQueryStats {
 public:
  QueryStats& Local() {
    return slots_[static_cast<std::size_t>(CurrentStatsSlot())].stats;
  }

  const QueryStats& Local() const {
    return slots_[static_cast<std::size_t>(CurrentStatsSlot())].stats;
  }

  QueryStats Merged() const {
    QueryStats total;
    for (const PaddedQueryStats& slot : slots_) total += slot.stats;
    return total;
  }

  void Reset() {
    for (PaddedQueryStats& slot : slots_) slot.stats.Reset();
  }

 private:
  std::array<PaddedQueryStats, kStatsSlots> slots_{};
};

}  // namespace quasii

#endif  // QUASII_COMMON_QUERY_STATS_H_
