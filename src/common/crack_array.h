#ifndef QUASII_COMMON_CRACK_ARRAY_H_
#define QUASII_COMMON_CRACK_ARRAY_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/simd.h"
#include "common/task_scheduler.h"
#include "geometry/box.h"

namespace quasii {

namespace internal {

/// Thread-local leaf-scan scratch: the compacted survivor ids. Repeated
/// scans on one thread reuse the buffer without reallocating — but one huge
/// scan must not pin a peak-sized buffer on a long-lived pool thread
/// forever. Shrink policy: once the buffer exceeds `kCapBytes` and
/// `kShrinkStreak` consecutive scans each used at most a quarter of its
/// capacity, it is re-sized down to the latest working size. The streak
/// requirement keeps an alternating big/small scan mix from thrashing the
/// allocator.
struct ScanScratch {
  static constexpr std::size_t kCapBytes = std::size_t{1} << 20;
  static constexpr int kShrinkStreak = 64;

  std::vector<ObjectId> ids;
  int streak = 0;

  /// Called after each scan with the number of ids that scan needed.
  void Release(std::size_t used) {
    if (ids.capacity() <= kCapBytes / sizeof(ObjectId) ||
        used > ids.capacity() / 4) {
      streak = 0;
      return;
    }
    if (++streak < kShrinkStreak) return;
    streak = 0;
    std::vector<ObjectId> right_sized;
    right_sized.reserve(used);
    ids.swap(right_sized);
  }
};

inline ScanScratch& ScanScratchTLS() {
  static thread_local ScanScratch scratch;
  return scratch;
}

}  // namespace internal

/// Partition of rows `[begin, end)` so that every row with
/// `pred(key(i)) == true` precedes every row with `pred(key(i)) == false`,
/// calling `swap_rows(i, j)` for each exchanged pair. `swap_rows` MUST
/// move every column `key(i)` reads. Returns the split position.
///
/// This is the one tuned reorganization primitive every incremental index
/// (QUASII slices, SFCracker pieces) is built on: the comparison loop
/// touches only the dense columns the key is read from, and full rows are
/// exchanged only for the elements that actually change sides — the cache
/// behaviour database cracking depends on [Idreos et al., 18]. Large ranges
/// use a BlockQuicksort-style scheme [Edelkamp & Weiß]: misplaced-element
/// offsets are gathered per block with branchless conditional increments,
/// then exchanged pairwise — a median-positioned crack predicate is a coin
/// flip per element, and data-dependent branches there mispredict half the
/// time.
template <typename KeyAt, typename Pred, typename SwapRows>
std::size_t CrackPartition(KeyAt key, std::size_t begin, std::size_t end,
                           Pred pred, SwapRows swap_rows) {
  constexpr std::size_t kBlock = 128;
  std::size_t lo = begin;
  std::size_t hi = end;

  // Blocked phase: gather the offsets of elements on the wrong side of each
  // boundary block (stores are unconditional, counters advance via setcc —
  // no data-dependent branch), then swap the pairs.
  unsigned char offs_l[kBlock];
  unsigned char offs_r[kBlock];
  std::size_t nl = 0;  // pending misplaced elements in the left block
  std::size_t nr = 0;  // pending misplaced elements in the right block
  std::size_t il = 0;
  std::size_t ir = 0;
  while (hi - lo > 2 * kBlock) {
    if (nl == 0) {
      il = 0;
      for (std::size_t i = 0; i < kBlock; ++i) {
        offs_l[nl] = static_cast<unsigned char>(i);
        nl += !pred(key(lo + i));
      }
    }
    if (nr == 0) {
      ir = 0;
      for (std::size_t i = 0; i < kBlock; ++i) {
        offs_r[nr] = static_cast<unsigned char>(i + 1);
        nr += pred(key(hi - 1 - i));
      }
    }
    const std::size_t m = nl < nr ? nl : nr;
    for (std::size_t i = 0; i < m; ++i) {
      swap_rows(lo + offs_l[il + i], hi - offs_r[ir + i]);
    }
    nl -= m;
    nr -= m;
    il += m;
    ir += m;
    // A fully fixed block retires; `lo`/`hi` stay pinned to a block with
    // pending offsets (at most one side can have any).
    if (nl == 0) lo += kBlock;
    if (nr == 0) hi -= kBlock;
  }

  // Scalar tail: the remaining window (including at most one partially
  // fixed block, which re-scans harmlessly) is small.
  while (true) {
    while (lo < hi && pred(key(lo))) ++lo;
    while (lo < hi && !pred(key(hi - 1))) --hi;
    if (lo >= hi) break;
    // Row `lo` fails the predicate, row `hi - 1` passes it: exchange.
    swap_rows(lo, hi - 1);
    ++lo;
    --hi;
  }
  return lo;
}

namespace internal {

/// Ranges at least this long partition via `ChunkedCrackPartition` — chosen
/// so every committed CI-sized run (n ≤ 2^14) stays on the classic
/// single-pass `CrackPartition` and its baseline counters are untouched.
inline constexpr std::size_t kChunkedPartitionMin = std::size_t{1} << 16;

/// Bounds the chunk count so the fixup bookkeeping (one split offset and at
/// most two misplaced runs per chunk) stays a few KB however large the
/// range.
inline constexpr std::size_t kMaxPartitionChunks = 256;

/// A contiguous run of rows, for the fixup phase's misplaced-element lists.
struct PartitionRun {
  std::size_t pos = 0;
  std::size_t len = 0;
};

/// Maps `rank` to its absolute row position within the concatenation of
/// `runs` (`prefix[i]` = total length of runs before `i`).
inline std::size_t RunPosition(const std::vector<PartitionRun>& runs,
                               const std::vector<std::size_t>& prefix,
                               std::size_t rank) {
  const auto it = std::upper_bound(prefix.begin(), prefix.end(), rank) - 1;
  const std::size_t r = static_cast<std::size_t>(it - prefix.begin());
  return runs[r].pos + (rank - prefix[r]);
}

}  // namespace internal

/// Parallelizable partition of rows `[begin, end)` with the same contract as
/// `CrackPartition`, as a classic two-phase parallel partition:
///
///  1. **Block partition** — the range is cut into contiguous chunks whose
///     count and boundaries are a pure function of the range length and the
///     morsel grain (never the worker count), and each chunk is partitioned
///     independently with `CrackPartition` (disjoint rows, so concurrent
///     `swap_rows` callbacks never touch the same row or id).
///  2. **Bounded swap fixup** — with the global split `S` known from the
///     per-chunk splits, the misplaced elements form at most one run per
///     chunk on each side of `S` (pred-false runs before `S`, pred-true
///     runs after). Their counts are equal by construction, and pairing the
///     k-th misplaced-false row with the k-th misplaced-true row yields a
///     set of disjoint swaps executed morsel-parallel.
///
/// The resulting layout depends only on the input, the range, and the
/// grain — NOT on how many workers executed the morsels — so serial
/// (zero-worker) and 8-thread executions produce bit-identical columns,
/// which is what keeps crack counters and median-split pivots identical
/// across thread counts. Note the layout intentionally DIFFERS from what a
/// single `CrackPartition` pass would produce; callers select between the
/// two by range length alone so every execution mode agrees on which
/// algorithm ran.
template <typename KeyAt, typename Pred, typename SwapRows>
std::size_t ChunkedCrackPartition(KeyAt key, std::size_t begin,
                                  std::size_t end, Pred pred,
                                  SwapRows swap_rows, TaskScheduler* exec) {
  const std::size_t len = end - begin;
  const std::size_t chunk =
      std::max(MorselGrain(), (len + internal::kMaxPartitionChunks - 1) /
                                  internal::kMaxPartitionChunks);
  const std::size_t nchunks = (len + chunk - 1) / chunk;
  if (nchunks < 2) return CrackPartition(key, begin, end, pred, swap_rows);

  // Phase 1: chunk-local partitions (parallel over chunks, disjoint rows).
  std::vector<std::size_t> split(nchunks);
  ParallelFor(exec, 0, nchunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t k = cb; k < ce; ++k) {
      const std::size_t b = begin + k * chunk;
      const std::size_t e = std::min(b + chunk, end);
      split[k] = CrackPartition(key, b, e, pred, swap_rows);
    }
  });

  // Global split: total pred-true count across chunks.
  std::size_t s = begin;
  for (std::size_t k = 0; k < nchunks; ++k) {
    s += split[k] - (begin + k * chunk);
  }

  // Phase 2: misplaced runs. Before `s` the offenders are each chunk's
  // false suffix `[split_k, chunk_end)` clipped to `< s`; after `s` each
  // chunk's true prefix `[chunk_begin, split_k)` clipped to `>= s`.
  std::vector<internal::PartitionRun> false_runs;
  std::vector<internal::PartitionRun> true_runs;
  std::vector<std::size_t> false_prefix;
  std::vector<std::size_t> true_prefix;
  std::size_t false_total = 0;
  std::size_t true_total = 0;
  for (std::size_t k = 0; k < nchunks; ++k) {
    const std::size_t b = begin + k * chunk;
    const std::size_t e = std::min(b + chunk, end);
    const std::size_t fb = split[k];
    const std::size_t fe = std::min(e, s);
    if (fb < fe) {
      false_runs.push_back({fb, fe - fb});
      false_prefix.push_back(false_total);
      false_total += fe - fb;
    }
    const std::size_t tb = std::max(b, s);
    const std::size_t te = split[k];
    if (tb < te) {
      true_runs.push_back({tb, te - tb});
      true_prefix.push_back(true_total);
      true_total += te - tb;
    }
  }
  // Counts agree by the counting argument above; the swaps are disjoint
  // (each rank names one row left of `s` and one right of it).
  ParallelFor(exec, 0, false_total, MorselGrain(),
              [&](std::size_t rb, std::size_t re) {
                for (std::size_t r = rb; r < re; ++r) {
                  swap_rows(internal::RunPosition(false_runs, false_prefix, r),
                            internal::RunPosition(true_runs, true_prefix, r));
                }
              });
  (void)true_total;
  return s;
}

/// Structure-of-arrays storage for an incrementally reorganized spatial
/// collection: per-dimension MBB bound columns (`lo`/`hi`), the id column,
/// and a liveness byte per row (erase tombstones), all permuted in lockstep.
/// The crack key of a row in dimension `d` is its MBB centre, derived from
/// the two bound columns wherever it is read (`key`) rather than stored.
///
/// The layout serves the two hot loops of an incremental index:
///  - cracking comparators read the key from the two dense bound columns of
///    one dimension instead of loading a whole `Entry<D>` struct, and rows
///    are exchanged only for elements that actually change sides;
///  - leaf scans test the dense bound columns dimension-by-dimension in
///    branchless, auto-vectorizable passes — `lo[d] <= q.hi[d] &&
///    hi[d] >= q.lo[d]` per dimension is exactly `Box::Intersects`, so
///    survivors are true results and no box is ever materialized.
///
/// Dynamic data rides on two mechanisms:
///  - `Append` pushes new rows behind `pending_begin()`: the *pending tail*,
///    an unsorted suffix the owning index drains into its structure at query
///    time (QUASII promotes it to a root slice that subsequent queries crack
///    lazily, exactly like initial data) and seals with `SealPending`;
///  - `EraseId` tombstones a row in place (`live` byte cleared, O(1) via the
///    id → row map). The map is built lazily: a read-only session never
///    pays for it, because crack swaps maintain it only once the first
///    `EraseId` has built it in one pass over the live rows. Leaf scans AND
///    the live bytes into their filter branchlessly, and
///    `PartitionLiveFirst` lets crack steps sweep the dead rows of a range
///    aside in passing.
template <int D>
class CrackArray {
 public:
  static constexpr std::size_t kNoRow =
      std::numeric_limits<std::size_t>::max();

  CrackArray() = default;
  explicit CrackArray(const Dataset<D>& data) { Reset(data); }

  /// (Re)builds the columns from `data` in dataset order (ids are dataset
  /// positions, everything live and structured).
  void Reset(const Dataset<D>& data) {
    Load(data.size(), [&data](auto&& append) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        append(static_cast<ObjectId>(i), data[i]);
      }
    });
  }

  /// The one bulk loader: empties the array, sizes every column for `rows`
  /// rows up front (so the load neither reallocates nor re-faults pages
  /// the way row-by-row growth does), then calls `fill(append)`, where
  /// `append(id, box)` adds one live row, and marks every row structured.
  template <typename Fill>
  void Load(std::size_t rows, Fill&& fill) {
    Clear();
    for (int d = 0; d < D; ++d) {
      const std::size_t dd = static_cast<std::size_t>(d);
      los_[dd].reserve(rows);
      his_[dd].reserve(rows);
    }
    ids_.reserve(rows);
    live_.reserve(rows);
    fill([this](ObjectId id, const Box<D>& b) { Append(id, b); });
    SealPending();
  }

  /// Empties the array (no rows, no tombstones, no pending tail) and drops
  /// the id → row map, memory included.
  void Clear() {
    for (int d = 0; d < D; ++d) {
      const std::size_t dd = static_cast<std::size_t>(d);
      los_[dd].clear();
      his_[dd].clear();
    }
    ids_.clear();
    live_.clear();
    std::vector<std::size_t>().swap(row_of_);
    has_row_map_ = false;
    tombstones_ = 0;
    pending_begin_ = 0;
  }

  /// Appends a live row for `id` to the pending tail. The id must not have
  /// a live row already (the owning index's store enforces this).
  void Append(ObjectId id, const Box<D>& b) {
    const std::size_t row = ids_.size();
    for (int d = 0; d < D; ++d) {
      const std::size_t dd = static_cast<std::size_t>(d);
      los_[dd].push_back(b.lo[d]);
      his_[dd].push_back(b.hi[d]);
    }
    ids_.push_back(id);
    live_.push_back(1);
    if (!has_row_map_) return;
    if (id >= row_of_.size()) {
      row_of_.resize(static_cast<std::size_t>(id) + 1, kNoRow);
    }
    row_of_[id] = row;
  }

  /// Tombstones the live row of `id` in place. Returns false when the id
  /// has no live row. The dead row keeps its position (slice offsets stay
  /// valid) but disappears from every scan; a later `Append` of the same id
  /// creates a fresh row and the dead one stays dead forever. O(1), except
  /// that the first call after a `Clear` builds the id → row map in O(n).
  bool EraseId(ObjectId id) {
    if (!has_row_map_) BuildRowMap();
    if (id >= row_of_.size() || row_of_[id] == kNoRow) return false;
    live_[row_of_[id]] = 0;
    row_of_[id] = kNoRow;
    ++tombstones_;
    return true;
  }

  /// First row of the pending (appended, not yet structured) tail.
  std::size_t pending_begin() const { return pending_begin_; }
  std::size_t pending_count() const { return ids_.size() - pending_begin_; }
  /// Marks every current row structured (the owner absorbed the tail).
  void SealPending() { pending_begin_ = ids_.size(); }

  std::size_t tombstones() const { return tombstones_; }
  bool live(std::size_t i) const { return live_[i] != 0; }

  /// Whether the id → row map exists (built by the first `EraseId` or by
  /// `DecodeFrom`, dropped by `Clear`), and the bytes it holds.
  bool has_row_map() const { return has_row_map_; }
  std::size_t row_map_bytes() const {
    return row_of_.size() * sizeof(std::size_t);
  }

  /// Any tombstoned row in `[begin, end)`? One `memchr` over the dense
  /// live bytes — the guard that keeps a tombstone elsewhere in the array
  /// from pessimizing scans and sweeps of clean ranges.
  bool HasDeadIn(std::size_t begin, std::size_t end) const {
    return tombstones_ > 0 &&
           std::memchr(live_.data() + begin, 0, end - begin) != nullptr;
  }

  /// The crack key of an MBB: its centre. `key` and `CenterKey` share this
  /// one arithmetic, so row keys and box keys agree bit-for-bit.
  static Scalar Center(Scalar lo, Scalar hi) { return (lo + hi) / 2; }
  static Scalar CenterKey(const Box<D>& b, int d) {
    return Center(b.lo[d], b.hi[d]);
  }

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// The crack key of row `i` in dimension `d`, derived from its bounds.
  Scalar key(int d, std::size_t i) const {
    const std::size_t dd = static_cast<std::size_t>(d);
    return Center(los_[dd][i], his_[dd][i]);
  }
  const std::vector<Scalar>& lo_col(int d) const {
    return los_[static_cast<std::size_t>(d)];
  }
  const std::vector<Scalar>& hi_col(int d) const {
    return his_[static_cast<std::size_t>(d)];
  }
  ObjectId id(std::size_t i) const { return ids_[i]; }
  const std::vector<ObjectId>& ids() const { return ids_; }
  /// The box of row `i`, reassembled from the bound columns (cold path:
  /// tests and diagnostics; hot loops scan the columns directly).
  Box<D> box(std::size_t i) const {
    Box<D> b;
    for (int d = 0; d < D; ++d) {
      const std::size_t dd = static_cast<std::size_t>(d);
      b.lo[d] = los_[dd][i];
      b.hi[d] = his_[dd][i];
    }
    return b;
  }

  /// Leaf scan of rows `[begin, end)` against `(q, predicate)`, streaming
  /// the matches into `emit`, in one pass of the fused explicit-SIMD kernel
  /// (`simd::FilterRows`, dispatched scalar/AVX2 at runtime): per block of
  /// rows it ANDs the predicate's interval test of every tested dimension
  /// over the dense bound columns — dimension-wise the tests *are*
  /// `Box::Intersects` / `ContainsBox`, so survivors are exact results and
  /// no box is ever materialized — then compress-stores the survivor ids
  /// into a dense run handed over as one `AddRun` (one virtual call per
  /// scan, not per object), or, on count-only executions, only counts them
  /// and never reads the id column.
  ///
  /// For `kIntersects`, dimensions set in `covered_dims` are proven
  /// overlapping by the caller's structure (e.g. a QUASII slice whose value
  /// interval lies inside the query's) and are not tested; a fully covered
  /// scan emits its whole range without testing anything. Testing a covered
  /// dimension anyway changes nothing, which is what lets a caller merge
  /// adjacent ranges by ANDing their masks. Containment predicates ignore
  /// the mask: covered centre keys prove intersection, not containment.
  ///
  /// Tombstoned rows never survive: when the scanned range contains any
  /// (one `memchr` over the live bytes decides — a tombstone elsewhere in
  /// the array costs this range nothing), the kernel also ANDs in the live
  /// bytes, and the full-coverage bulk path is bypassed.
  ///
  /// Safe to call concurrently (it reads the columns and writes only
  /// thread-local scratch and the emitter) as long as no thread is
  /// reorganizing the array — the converged read path of QUASII's
  /// concurrency contract.
  ///
  /// Returns the number of column bytes the scan actually touched (bound
  /// columns, live-byte probe, emitted ids) — the engine accumulates
  /// it into `QueryStats::bytes_scanned`.
  std::uint64_t StreamScan(std::size_t begin, std::size_t end, const Box<D>& q,
                           RangePredicate predicate, unsigned covered_dims,
                           MatchEmitter* emit) const {
    const std::size_t len = end - begin;
    if (len == 0) return 0;
    if (predicate != RangePredicate::kIntersects) covered_dims = 0;
    const bool range_has_dead = HasDeadIn(begin, end);
    std::uint64_t bytes = tombstones_ > 0 ? len : 0;  // live-byte probe
    if (covered_dims == (1u << D) - 1 && !range_has_dead) {
      if (emit->count_only()) {
        emit->AddAnonymous(len);
      } else {
        emit->AddRun(ids_.data() + begin, len);
        bytes += len * sizeof(ObjectId);
      }
      return bytes;
    }
    simd::ColumnTests<D> tests;
    std::size_t k = 0;
    for (int d = 0; d < D; ++d) {
      if (covered_dims & (1u << d)) continue;
      const Scalar qlo = q.lo[d];
      const Scalar qhi = q.hi[d];
      const Scalar* los = los_[static_cast<std::size_t>(d)].data() + begin;
      const Scalar* his = his_[static_cast<std::size_t>(d)].data() + begin;
      // All three predicates are one (column <= bound) & (column >= bound)
      // pair; only the column/bound pairing differs.
      switch (predicate) {
        case RangePredicate::kIntersects:
          tests[k++] = {los, qhi, his, qlo};
          break;
        case RangePredicate::kContains:  // object ⊇ q, per dimension
          tests[k++] = {los, qlo, his, qhi};
          break;
        case RangePredicate::kContainedBy:  // object ⊆ q, per dimension
          tests[k++] = {his, qhi, los, qlo};
          break;
      }
      bytes += 2 * len * sizeof(Scalar);
    }
    const std::uint8_t* live = range_has_dead ? live_.data() + begin : nullptr;
    internal::ScanScratch& scratch = internal::ScanScratchTLS();
    if (emit->count_only()) {
      emit->AddAnonymous(
          simd::FilterRows(tests, k, live, nullptr, len, nullptr));
      scratch.Release(0);
      return bytes;
    }
    scratch.ids.resize(len);
    const std::size_t m = simd::FilterRows(tests, k, live, ids_.data() + begin,
                                           len, scratch.ids.data());
    if (m > 0) emit->AddRun(scratch.ids.data(), m);
    bytes += len * sizeof(ObjectId);
    scratch.Release(len);
    return bytes;
  }

  /// One crack step: partitions `[begin, end)` so keys in dimension `d`
  /// below `v` precede the rest, co-moving every column. Returns the split
  /// position.
  std::size_t CrackOnAxis(std::size_t begin, std::size_t end, int d, Scalar v) {
    return Partition(CenterKeys(d), begin, end,
                     [v](Scalar k) { return k < v; });
  }

  /// Sweeps the tombstoned rows of `[begin, end)` behind the live ones (the
  /// same blocked partition as a crack step, keyed on the live column).
  /// Returns the first dead position — the caller shrinks its slice to the
  /// live prefix and parks the dead suffix where no scan visits it, so a
  /// refinement compacts erased objects out of the hot range in passing.
  std::size_t PartitionLiveFirst(std::size_t begin, std::size_t end) {
    const std::uint8_t* live = live_.data();
    return Partition([live](std::size_t i) { return live[i]; }, begin, end,
                     [](std::uint8_t v) { return v != 0; });
  }

  /// Exchanges rows `i` and `j` — every column, and the id → row map
  /// entries once the map is built. The building block of every partition
  /// here, public for owners that place rows by a key of their own.
  void SwapRows(std::size_t i, std::size_t j) {
    for (int d = 0; d < D; ++d) {
      const std::size_t dd = static_cast<std::size_t>(d);
      std::swap(los_[dd][i], los_[dd][j]);
      std::swap(his_[dd][i], his_[dd][j]);
    }
    std::swap(ids_[i], ids_[j]);
    std::swap(live_[i], live_[j]);
    if (!has_row_map_) return;
    // Only live rows own their id's map entry: a dead row's id may have
    // been re-appended as a fresh live row elsewhere, and that mapping
    // must not be clobbered by moving the stale corpse around.
    if (live_[i]) row_of_[ids_[i]] = i;
    if (live_[j]) row_of_[ids_[j]] = j;
  }

  struct SplitResult {
    /// Split position; `pos == end` means the range could not be split.
    std::size_t pos = 0;
    /// Value boundary between the halves: left keys are `< bound`, right
    /// keys `>= bound`.
    Scalar bound = 0;
    /// Every key in the range is identical — the range cannot shrink by
    /// cracking along `d` (the caller freezes the slice).
    bool frozen = false;
  };

  /// Splits `[begin, end)` at (approximately) its median key in dimension
  /// `d`. The pivot is the exact median of an evenly strided key sample
  /// (the whole range when small), selected on a scratch copy of the floats,
  /// then the rows are partitioned once at the pivot value — a near-halving
  /// split at a fraction of an exact `nth_element` pass over the rows. If
  /// the pivot is the minimum key the split lands above its duplicate run
  /// instead, and a range of all-identical keys is reported `frozen`.
  SplitResult MedianSplit(std::size_t begin, std::size_t end, int d) {
    static constexpr std::size_t kMedianSample = 256;
    const std::size_t len = end - begin;
    if (len < 2) {
      // Nothing to halve; report the range unsplittable.
      SplitResult r;
      r.pos = end;
      if (len == 1) {
        r.bound = std::nextafter(key(d, begin),
                                 std::numeric_limits<Scalar>::infinity());
      }
      r.frozen = true;
      return r;
    }
    std::vector<Scalar>& scratch = MedianScratchTLS();
    scratch.clear();
    const std::size_t stride =
        len <= 2 * kMedianSample ? 1 : len / kMedianSample;
    for (std::size_t i = begin; i < end; i += stride) {
      scratch.push_back(key(d, i));
    }
    const auto nth =
        scratch.begin() + static_cast<std::ptrdiff_t>(scratch.size() / 2);
    std::nth_element(scratch.begin(), nth, scratch.end());
    const Scalar pivot = *nth;

    SplitResult r;
    r.pos = CrackOnAxis(begin, end, d, pivot);
    r.bound = pivot;
    if (r.pos == begin) {
      // The pivot is the minimum key: split above its duplicate run.
      r.pos = Partition(CenterKeys(d), begin, end,
                        [pivot](Scalar k) { return k <= pivot; });
      r.bound =
          std::nextafter(pivot, std::numeric_limits<Scalar>::infinity());
      r.frozen = r.pos == end;  // every key equals the pivot
    }
    return r;
  }

  /// Serializes the full column set — bounds, ids, liveness, and the
  /// pending boundary — for snapshot structure blobs (keys are derived from
  /// the bounds, so they are not written). Columns are written verbatim
  /// (not re-derived from a store) because dead rows must survive: a
  /// tombstoned id may have been re-inserted with a different box, so its
  /// stale row's bounds exist nowhere else.
  void EncodeTo(ByteWriter* w) const {
    const std::size_t n = ids_.size();
    w->U64(n);
    w->U64(pending_begin_);
    for (int d = 0; d < D; ++d) {
      const std::size_t dd = static_cast<std::size_t>(d);
      for (std::size_t i = 0; i < n; ++i) w->F(los_[dd][i]);
      for (std::size_t i = 0; i < n; ++i) w->F(his_[dd][i]);
    }
    for (std::size_t i = 0; i < n; ++i) w->U32(ids_[i]);
    w->Bytes(live_.data(), n);
  }

  /// Rebuilds the array from an `EncodeTo` blob: columns are read back and
  /// the derived state (id → row map, tombstone count) is reconstructed —
  /// the map eagerly, because building it is what proves every id owns at
  /// most one live row. False on truncated input or an id owning two live
  /// rows.
  bool DecodeFrom(ByteReader* r) {
    Clear();
    const std::uint64_t n64 = r->U64();
    const std::uint64_t pending = r->U64();
    if (!r->ok() || pending > n64) return false;
    // A row is (2 * D) Scalars + id + live byte; reject counts the
    // remaining input cannot possibly hold before allocating.
    const std::size_t row_bytes = 2 * D * sizeof(Scalar) + 4 + 1;
    if (n64 > r->remaining() / row_bytes) return false;
    const std::size_t n = static_cast<std::size_t>(n64);
    for (int d = 0; d < D; ++d) {
      const std::size_t dd = static_cast<std::size_t>(d);
      los_[dd].resize(n);
      his_[dd].resize(n);
      for (std::size_t i = 0; i < n; ++i) los_[dd][i] = r->F();
      for (std::size_t i = 0; i < n; ++i) his_[dd][i] = r->F();
    }
    ids_.resize(n);
    for (std::size_t i = 0; i < n; ++i) ids_[i] = r->U32();
    live_.resize(n);
    if (n > 0 && !r->Bytes(live_.data(), n)) return false;
    if (!r->ok()) return false;
    pending_begin_ = static_cast<std::size_t>(pending);
    for (std::size_t i = 0; i < n; ++i) tombstones_ += live_[i] == 0;
    return BuildRowMap();
  }

  /// Column-agreement validator: every column has one entry per row, the
  /// id → row map (when it exists) maps exactly the live rows and nothing
  /// else, a map that does not exist holds no entries at all, and the
  /// tombstone count matches the live column. False fills `why` with the
  /// first violation.
  bool CheckColumns(std::string* why) const {
    const std::size_t n = ids_.size();
    for (int d = 0; d < D; ++d) {
      const std::size_t dd = static_cast<std::size_t>(d);
      if (los_[dd].size() != n || his_[dd].size() != n) {
        if (why) *why = "crack array: column lengths disagree";
        return false;
      }
    }
    if (live_.size() != n || pending_begin_ > n) {
      if (why) *why = "crack array: live column or pending boundary invalid";
      return false;
    }
    if (!has_row_map_ && !row_of_.empty()) {
      if (why) *why = "crack array: id map entries without a built map";
      return false;
    }
    std::size_t dead = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!live_[i]) {
        ++dead;
        continue;
      }
      const ObjectId id = ids_[i];
      if (has_row_map_ && (id >= row_of_.size() || row_of_[id] != i)) {
        if (why) *why = "crack array: live row not in the id map";
        return false;
      }
    }
    if (dead != tombstones_) {
      if (why) *why = "crack array: tombstone count disagrees";
      return false;
    }
    if (!has_row_map_) return true;
    // Every live row owns its entry (checked above); any further entry
    // would be a stale mapping to a moved or dead row.
    std::size_t mapped = 0;
    for (const std::size_t row : row_of_) mapped += row != kNoRow;
    if (mapped != n - dead) {
      if (why) *why = "crack array: id map holds entries for no live row";
      return false;
    }
    return true;
  }

 private:
  /// Algorithm selection is by range length ALONE (never thread count):
  /// long ranges always take the chunked partition, short ones always the
  /// single pass, so a serial and an 8-thread execution of the same query
  /// stream walk through identical physical layouts.
  template <typename KeyAt, typename Pred>
  std::size_t Partition(KeyAt key, std::size_t begin, std::size_t end,
                        Pred pred) {
    const auto swap = [this](std::size_t i, std::size_t j) { SwapRows(i, j); };
    if (end - begin >= internal::kChunkedPartitionMin) {
      return ChunkedCrackPartition(key, begin, end, pred, swap,
                                   &IntraQueryScheduler());
    }
    return CrackPartition(key, begin, end, pred, swap);
  }

  /// The row → crack-key accessor of dimension `d`, for `Partition`.
  auto CenterKeys(int d) const {
    const Scalar* los = los_[static_cast<std::size_t>(d)].data();
    const Scalar* his = his_[static_cast<std::size_t>(d)].data();
    return [los, his](std::size_t i) { return Center(los[i], his[i]); };
  }

  /// Builds the id → row map in one pass over the live rows, sized once
  /// for the largest id any row holds. False when two live rows share an
  /// id (the map is then left built but must not be trusted; only
  /// `DecodeFrom` can meet that, and it rejects the blob).
  bool BuildRowMap() {
    const auto max_id = std::max_element(ids_.begin(), ids_.end());
    row_of_.assign(max_id == ids_.end() ? 0 : std::size_t{*max_id} + 1,
                   kNoRow);
    has_row_map_ = true;
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (!live_[i]) continue;
      if (row_of_[ids_[i]] != kNoRow) return false;
      row_of_[ids_[i]] = i;
    }
    return true;
  }

  std::array<std::vector<Scalar>, D> los_;
  std::array<std::vector<Scalar>, D> his_;
  std::vector<ObjectId> ids_;
  /// Liveness byte per row (1 = live, 0 = tombstone), co-permuted.
  std::vector<std::uint8_t> live_;
  /// id → live row (`kNoRow` when the id has no live row). Empty until the
  /// first `EraseId` builds it; from then on every append and swap
  /// maintains it, so later erases are O(1).
  std::vector<std::size_t> row_of_;
  bool has_row_map_ = false;
  std::size_t tombstones_ = 0;
  /// Rows `[pending_begin_, size())` are the unsorted appended tail.
  std::size_t pending_begin_ = 0;

  /// Pivot-selection scratch, thread-local because `MedianSplit` runs
  /// concurrently on disjoint ranges when QUASII's median split hands
  /// right halves to tasks (a shared member would race even though the
  /// owning index holds its exclusive lock — the workers all belong to one
  /// query).
  static std::vector<Scalar>& MedianScratchTLS() {
    static thread_local std::vector<Scalar> scratch;
    return scratch;
  }
};

}  // namespace quasii

#endif  // QUASII_COMMON_CRACK_ARRAY_H_
