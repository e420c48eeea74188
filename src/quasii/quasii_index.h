#ifndef QUASII_QUASII_QUASII_INDEX_H_
#define QUASII_QUASII_QUASII_INDEX_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/crack_array.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/query_stats.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"
#include "geometry/box.h"

namespace quasii {

/// QUASII (Sections 4–5): the paper's query-aware spatial incremental index.
///
/// The structure is a hierarchy of *slices*, one level per dimension: level-d
/// slices partition their parent's entry range along dimension d, so a fully
/// refined index resembles a lazily built STR packing (see `StrSort`). All
/// work happens inside query execution: a query descends the hierarchy and
/// refines only the slices it touches, cracking them at the query bounds
/// (`CrackOnAxis`) and then sub-slicing the query-covered piece at median
/// keys until it obeys the level's size threshold. Untouched regions keep
/// their coarse slices, so reorganization cost is proportional to what the
/// workload actually asks for — the contrast with Mosaic's eager splitting
/// and SFCracker's many-cracks-per-query behaviour (Section 6.3).
///
/// Per-level size thresholds follow the paper's geometric progression: the
/// leaf (level D-1) threshold is a leaf limit `t` and each level above is
/// allowed `rho = (n / t)^(1/D)` times more, so `D` refinements take a slice
/// from `n` down to `t`. The leaf limit is query-aware (`LeafThresholds`): a
/// box query's limit is the rows its extended box reaches in the class,
/// rounded up to a power of two and clamped between `kMinLeafRows` and the
/// paper's `tau` (`Params::leaf_threshold`), so a small query refines the
/// slices it touches until a leaf scan holds about what it reaches, while a
/// query that reaches `tau` rows or more keeps the paper's leaves. Joins
/// refine to the finest leaf, `kMinLeafRows`; the extent-class derivation
/// uses `tau`. The limit is a pure function of the query box, the class
/// and the data bounds, so no per-query state is stored: a larger query
/// finds finer slices within its threshold and cracks nothing, and a
/// smaller one refines only the childless slices and leaves it touches
/// (`NeedsRefinement`), so it never discards what a coarser query built.
///
/// Extended objects use the query-extension strategy [40], like
/// `SfcrackerIndex`: an entry is keyed by its MBB centre, queries are
/// extended by a half extent per dimension, and candidates are filtered
/// against the original query box. The half extent is not one global
/// maximum but one per *extent class*: the rows are grouped into K classes
/// by the power-of-two ceiling of their largest side, and each class has
/// its own row ranges, root slice list, live count (`n` above) and
/// per-dimension half extents. A query descends every class with its box
/// widened by that class's half extent only, so the 1% of large objects in
/// the paper's dataset no longer widen every query for the 99% of small
/// ones. K and the class bounds come from the data (`DeriveClasses`, no
/// knob); data of one size gets K = 1, which is the single-hierarchy
/// layout. All classes share one `CrackArray`, one
/// lock and one snapshot blob.
///
/// Storage is the shared structure-of-arrays `CrackArray` core: cracks and
/// median splits compare centre keys derived from one dimension's dense
/// `lo`/`hi` columns instead of loading whole entry structs, and leaf scans
/// are `CrackArray::StreamScan` — one fused SIMD pass over the same bound
/// columns per run of adjacent leaves (the descent merges them), streaming
/// the survivors straight into the query's `Sink`.
///
/// Every query type of the engine drives cracking:
///  - point queries are zero-extent ranges and refine the slices around the
///    probed point;
///  - count queries descend and crack exactly like ranges but resolve
///    leaves via anonymous `AddMatches` — the id column is never read;
///  - kNN runs an expanding ring of range probes through the normal descent,
///    so nearest-neighbor workloads build the index too;
///  - joins against another QUASII index descend both slice hierarchies in
///    lockstep, cracking each side at the other's slice bounds before
///    walking the overlapping slice pairs — so both indexes converge from
///    join traffic alone (see `JoinVisit`).
///
/// Mutations are handled incrementally, in the spirit of the paper's
/// query-driven refinement:
///  - inserts land in the crack array's unsorted pending tail and join the
///    smallest extent class whose bound covers their largest side (widening
///    that class's half extent if they exceed it); the next query splits
///    the tail by class and promotes each class's piece to a root-level
///    slice of that class with open value bounds, which subsequent queries
///    crack down lazily exactly like initial data — an insert itself never
///    cracks anything. Promoted tails fold with the logarithmic method
///    (`AbsorbPending`): a tail merges with every newest promoted group no
///    larger than what it has gathered so far, so the promoted root slices
///    per class stay about log2 of the promoted rows instead of growing by
///    one per insert-then-read cycle;
///  - erases tombstone the object's row in place (O(1) via the id → row
///    map, which the first erase after a (re)initialization builds in one
///    O(n) pass, so read-only sessions never maintain it); leaf scans skip
///    tombstones branchlessly through the live mask, refinement sweeps the
///    dead rows of a cracked slice aside in passing, and once tombstones
///    exceed a quarter of the array the whole structure is rebuilt from the
///    live set (which derives the extent classes afresh);
///  - both mutations update the touched class's live count, from which
///    every descent derives its level thresholds, so each slice hierarchy's
///    geometric progression keeps tracking its population as it grows and
///    shrinks.
///
/// Concurrency (the `SpatialIndex` contract): a range, count, point or
/// conjunction query runs in two steps. Under the exclusive lock only, a
/// refine pre-pass cracks the slices the query touches. Then one `const`
/// read (`Read`) descends every class without changing anything,
/// collecting its leaf scans, and runs those scans. The shared-lock
/// attempt runs that same read first; it declines at the first slice the
/// query would refine — or at once when a pending tail or a compaction is
/// due — having counted and emitted nothing. A converged read scans under
/// the shared lock with any number of peers, writing only thread-local
/// scratch and the caller's stats shard; a declined one (a warm-up query)
/// runs again under the exclusive lock, where it cracks. kNN always takes
/// the exclusive lock.
template <int D>
class QuasiiIndex final : public SpatialIndex<D> {
 public:
  struct Params {
    /// The coarsest leaf: the largest a level-(D-1) slice may be when it is
    /// scanned (the paper's tau, ~1000). The extent-class derivation uses
    /// this setting as is; a box query that reaches fewer rows refines its
    /// leaves further, down to `kMinLeafRows` (`LeafThresholds`), and a
    /// join refines to that finest leaf.
    std::size_t leaf_threshold = 1024;
  };

  /// The finest leaf limit a box query refines to (`LeafThresholds`), and
  /// the one every join refines to. Finer leaves cost more per slice than
  /// they save in scanning: on the paper's data at n = 2^20 with
  /// selectivity 1e-4 queries (4-vCPU Xeon VM), a crack-free read took
  /// 4.44 us at 256-row leaves and 6.46 us at 64-row ones.
  static constexpr std::size_t kMinLeafRows = 256;

  /// One slice: a contiguous range `[begin, end)` of the crack array whose
  /// centre keys along dimension `level` all lie in the half-open value
  /// interval `[lo, hi)`. Slices of level `D-1` are leaves; others hold
  /// child slices of the next level once a query has descended into them.
  struct Slice {
    int level = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    Scalar lo = 0;
    Scalar hi = 0;
    /// Set when every key in the range is identical: the slice cannot shrink
    /// below its threshold by cracking along `level` and is accepted as-is.
    bool frozen = false;
    std::vector<Slice> children;

    std::size_t size() const { return end - begin; }
  };

  using Thresholds = std::array<std::size_t, D>;

  /// One extent class: the rows whose largest side is at most `bound` and
  /// above the previous class's bound.
  struct ExtentClass {
    /// Largest object side the class admits: a power of two, or +inf for
    /// the last class (which takes everything larger).
    Scalar bound = std::numeric_limits<Scalar>::infinity();
    /// Query extension per dimension: every live row of the class has
    /// `Extent(d) / 2 <= half_extent[d]` (the invariant that keeps answers
    /// correct).
    Point<D> half_extent{};
    /// Live rows of the class, pending tail included.
    std::size_t live = 0;
    /// Level-0 slices, in array position order. Together, the root slices
    /// of all classes tile the structured prefix of the array.
    std::vector<Slice> root;
  };

  explicit QuasiiIndex(const Dataset<D>& data, const Params& params = Params{})
      : SpatialIndex<D>(data), params_(params) {}
  /// A temporary dataset would be destroyed while the store still reads it.
  explicit QuasiiIndex(Dataset<D>&&, const Params& = Params{}) = delete;

  std::string_view name() const override { return "QUASII"; }

  /// Incremental index: `Build()` is a no-op; all work happens at query
  /// time.
  void Build() override {}

  /// Structural accessors for tests and analyses.
  std::size_t class_count() const { return classes_.size(); }
  const ExtentClass& extent_class(std::size_t c) const { return classes_[c]; }
  const CrackArray<D>& array() const { return array_; }
  bool initialized() const { return initialized_; }
  /// First row of every promoted insert group, oldest first
  /// (`AbsorbPending`).
  const std::vector<std::size_t>& fold_stack() const { return fold_stack_; }

  /// The per-level size thresholds of a slice hierarchy over `n` rows with
  /// leaf limit `leaf`: the leaf (level D-1) threshold is `leaf` and each
  /// level above is allowed `rho = (n / leaf)^(1/D)` times more. Every
  /// level's threshold grows with `leaf`.
  static Thresholds ThresholdsFor(std::size_t n, std::size_t leaf) {
    Thresholds out{};
    const double rho =
        n > leaf ? std::pow(static_cast<double>(n) / static_cast<double>(leaf),
                            1.0 / D)
                 : 1.0;
    double t = static_cast<double>(leaf);
    for (int d = D - 1; d >= 0; --d) {
      out[static_cast<std::size_t>(d)] =
          static_cast<std::size_t>(std::ceil(t));
      t *= rho;
    }
    return out;
  }

  /// The level thresholds a box query `q` descends class `c` with. The
  /// leaf limit is the class rows `q`'s extended box reaches, estimated as
  /// uniform over the data bounds `U` like `ClassCost` does,
  /// `E = n_c · Π_d min(1, (q.hi_d - q.lo_d + 2·h_d) / U_d)`, rounded up to
  /// a power of two and clamped to `[min(kMinLeafRows, tau), tau]`; the
  /// levels above follow from it (`ThresholdsFor`). Pure: the refine
  /// pre-pass and the read call it with the same box, so they cannot
  /// disagree.
  Thresholds LeafThresholds(const ExtentClass& c, const Box<D>& q) const {
    const std::size_t tau = params_.leaf_threshold;
    const Box<D>& u = this->store_.bounds();
    double reach = static_cast<double>(c.live);
    for (int d = 0; d < D; ++d) {
      const double span = static_cast<double>(u.hi[d]) - u.lo[d];
      if (!(span > 0) || !std::isfinite(span)) continue;
      const double side = static_cast<double>(q.hi[d]) - q.lo[d] +
                          2.0 * c.half_extent[d];
      reach *= std::min(1.0, side / span);
    }
    std::size_t limit = tau;
    if (reach < static_cast<double>(tau)) {  // false for NaN too
      const std::size_t rows = static_cast<std::size_t>(std::ceil(reach));
      limit = std::clamp(std::bit_ceil(rows), std::min(kMinLeafRows, tau), tau);
    }
    return ThresholdsFor(c.live, limit);
  }

  /// Per-row column bytes (lo/hi bounds, id and live byte), plus the
  /// id → row map's 8 B per slot once an erase has built it.
  typename SpatialIndex<D>::ColumnMemory column_memory() const override {
    constexpr std::uint64_t kRow =
        static_cast<std::uint64_t>(D) * (2 * sizeof(Scalar)) +
        sizeof(ObjectId) + 1;
    return {static_cast<std::uint64_t>(array_.size()) * kRow +
                static_cast<std::uint64_t>(array_.row_map_bytes()),
            0};
  }

  /// Kept only because `qbench/` reads it; goes in the next benchmark change.
  static constexpr bool PackingEnabled() { return false; }

  /// Snapshot structure blob: the crack-array columns plus the class table
  /// (K, then per class its bound, half extents and slice hierarchy), so a
  /// recovered index resumes exactly as converged as it was — a replayed
  /// query workload cracks nothing.
  bool SerializeStructure(ByteWriter& w) const override {
    w.U8(initialized_ ? 1 : 0);
    if (!initialized_) return true;
    array_.EncodeTo(&w);
    w.U64(classes_.size());
    for (const ExtentClass& c : classes_) {
      w.F(c.bound);
      for (int d = 0; d < D; ++d) w.F(c.half_extent[d]);
      EncodeSlices(c.root, &w);
    }
    return true;
  }

  /// Refuses (false, index reset) a blob that is truncated or whose class
  /// table `CheckClassTable` rejects — a CRC only proves the bytes were
  /// written, and a live row outside its class's half extent would
  /// silently drop answers.
  bool DeserializeStructure(std::string_view bytes) override {
    fold_stack_.clear();  // restored slices are never folded
    ByteReader r(bytes);
    const bool init = r.U8() != 0;
    if (!r.ok()) return false;
    if (!init) {
      // Captured before the first query: stay lazy, initialize on demand.
      RebuildFromStore();
      return r.remaining() == 0;
    }
    std::vector<std::size_t> live;
    if (!DecodeClasses(&r) || !r.ok() || r.remaining() != 0 ||
        !CheckClassTable(&live, nullptr)) {
      RebuildFromStore();  // leave no half-decoded structure behind
      return false;
    }
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      classes_[c].live = live[c];
    }
    initialized_ = true;
    return true;
  }

  void RebuildFromStore() override {
    initialized_ = false;
    array_.Clear();
    classes_.clear();
    fold_stack_.clear();
  }

  /// Extends the store check with crack-array column agreement, the
  /// live-row ↔ store bijection (every live row's id is alive and its
  /// columns match the store's box bit-for-bit), the class table
  /// (`CheckClassTable`), each class's live count,
  /// slice-range tiling, key containment in every slice's value interval,
  /// and the fold stack (`CheckFoldStack`).
  bool CheckInvariants(std::string* why = nullptr) const override {
    if (!SpatialIndex<D>::CheckInvariants(why)) return false;
    if (!initialized_) return true;
    if (!array_.CheckColumns(why)) return false;
    std::size_t live_rows = 0;
    for (std::size_t i = 0; i < array_.size(); ++i) {
      if (!array_.live(i)) continue;
      ++live_rows;
      const ObjectId id = array_.id(i);
      if (!this->store_.alive(id)) {
        if (why) *why = "quasii: live row for a non-live id";
        return false;
      }
      const Box<D>& b = this->store_.box(id);
      for (int d = 0; d < D; ++d) {
        if (array_.lo_col(d)[i] != b.lo[d] || array_.hi_col(d)[i] != b.hi[d]) {
          if (why) *why = "quasii: row columns disagree with the store box";
          return false;
        }
      }
    }
    if (live_rows != this->store_.live_count()) {
      if (why) *why = "quasii: live rows != store live count";
      return false;
    }
    std::vector<std::size_t> class_live;
    if (!CheckClassTable(&class_live, why)) return false;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const ExtentClass& cls = classes_[c];
      if (cls.live != class_live[c]) {
        if (why) *why = "quasii: class live count disagrees with its rows";
        return false;
      }
      for (const Slice& s : cls.root) {
        if (!CheckSlice(s, 0, why)) return false;
      }
    }
    return CheckFoldStack(why);
  }

  /// A query is converged — safe to execute concurrently under the shared
  /// lock — when nothing about its execution can reorganize. For a box
  /// query that is its `Read` not declining, run here with nothing
  /// recorded; reads and the server never ask, and joins and stream joins
  /// do. kNN stays conservative: its expanding ring probes regions the
  /// triggering query never names. A join touches the whole structure and
  /// cracks wherever the partner has slice bounds, so it needs the array
  /// `ReadyToRead` and a read-only descent of every class without bounds
  /// at the join's thresholds (`JoinThresholds`): only full convergence
  /// guarantees a join is a pure read of this side. Those are the finest
  /// any descent uses, so the same check covers the `ExecuteBox` probes of
  /// a stream join or of a join with a partner of another index type.
  bool ConvergedFor(const Query<D>& query) const override {
    if (query.type() == QueryType::kKNearest) return false;
    if (query.type() != QueryType::kJoin) {
      const Box<D> box = DescentBox(query);
      if (box.IsEmpty()) return ReadyToRead();
      return Read(box, RangePredicate::kIntersects, false, nullptr, nullptr);
    }
    if (!ReadyToRead()) return false;
    for (const ExtentClass& c : classes_) {
      if (!ReadDescent(c.root, Box<D>::Infinite(), JoinThresholds(c), 0u,
                       nullptr)) {
        return false;
      }
    }
    return true;
  }

 protected:
  /// Inserts never reorganize: the new row joins the pending tail and the
  /// next query drains it through the normal refinement machinery. The
  /// row's class is the smallest one whose bound covers its largest side;
  /// only that class's half extent can widen, and only when the row
  /// exceeds it.
  void OnInsert(ObjectId id, const Box<D>& box) override {
    if (!initialized_) return;  // Initialize() reads the store wholesale
    array_.Append(id, box);
    ExtentClass& c = classes_[ClassOf(box)];
    for (int d = 0; d < D; ++d) {
      c.half_extent[d] = std::max(c.half_extent[d], box.Extent(d) / 2);
    }
    ++c.live;
  }

  /// Erases tombstone in place; scans skip the row branchlessly until a
  /// refinement sweeps it aside or a compaction reclaims it. The store
  /// still holds the erased box, which names the row's class.
  void OnErase(ObjectId id) override {
    if (!initialized_) return;
    array_.EraseId(id);
    ExtentClass& c = classes_[ClassOf(this->store_.box(id))];
    --c.live;
  }

  /// The refine pre-pass — `PrepareArray`, then a refine-only `Visit` of
  /// every class at the thresholds `LeafThresholds` sizes to `q` — and
  /// then the read, which the pre-pass leaves nothing to refine. Only the
  /// cracking steps of the pre-pass fork; the read runs no task.
  void ExecuteBox(const Box<D>& q, RangePredicate predicate, bool count_only,
                  Sink& sink) override {
    PrepareArray();
    for (ExtentClass& c : classes_) {
      if (c.root.empty()) continue;
      Visit(&c.root, LeafThresholds(c, q), ExtendedBox(q, c.half_extent),
            /*descend=*/true);
    }
    if (!Read(q, predicate, count_only, &sink, &this->Stats())) {
      this->AbortDeclinedRead();
    }
  }

  /// The shared-lock attempt: `Read` for box queries, declining kNN.
  bool TryExecuteShared(const Query<D>& query, Sink& sink) override {
    return this->RunBoxQuery(
        query, sink,
        [this](const Box<D>& q, RangePredicate predicate, bool count_only,
               Sink& s) {
          return Read(q, predicate, count_only, &s, &this->Stats());
        });
  }

  /// Expanding-ring kNN: range probes of doubling radius run through the
  /// normal descent, so each probe cracks the slices it touches — the index
  /// keeps converging under nearest-neighbor workloads.
  void ExecuteKNearest(const Point<D>& pt, std::size_t k,
                       Sink& sink) override {
    if (!initialized_) Initialize();
    this->RingKNearest(pt, k, sink);
  }

  /// The crack-driven join (the two-set extension of the paper's
  /// query-driven refinement): when the partner is a QUASII index too, both
  /// slice hierarchies are descended in lockstep and each side is cracked
  /// at the other side's slice bounds before the overlapping slice pairs
  /// are walked — the join itself is the workload that converges both
  /// structures, and a repeated join runs crack-free over the slices the
  /// first one carved. Any other partner falls back to the base class's
  /// index-nested-loop (whose probes still crack this side). The descent
  /// runs once per pair of extent classes (one from each side), with the
  /// pair's summed half extents. Self-joins descend the one set of
  /// hierarchies against itself, visiting each unordered class pair once
  /// (`c <= c'`); pair canonicalization (unordered-once, no diagonal)
  /// lives in the emitter's flush.
  void ExecuteJoin(SpatialIndex<D>& other_base, JoinEmitter& emit) override {
    auto* other = dynamic_cast<QuasiiIndex<D>*>(&other_base);
    if (other == nullptr) {
      SpatialIndex<D>::ExecuteJoin(other_base, emit);
      return;
    }
    PrepareArray();
    if (other != this) other->PrepareArray();
    if (array_.empty() || other->array_.empty()) return;
    for (std::size_t a = 0; a < classes_.size(); ++a) {
      ExtentClass& mine = classes_[a];
      for (std::size_t b = other == this ? a : 0; b < other->classes_.size();
           ++b) {
        ExtentClass& theirs = other->classes_[b];
        JoinClassPair pair{{}, JoinThresholds(mine),
                           other->JoinThresholds(theirs)};
        for (int d = 0; d < D; ++d) {
          pair.h[d] = mine.half_extent[d] + theirs.half_extent[d];
        }
        JoinVisit(other, pair, &mine.root, &theirs.root, emit);
      }
    }
  }

 private:
  /// One leaf scan, planned by `Read`'s descent and run after it, so
  /// nothing reaches the sink before the descent of every class has
  /// completed. A job may span several adjacent leaves (`RecordLeafScan`
  /// merges them).
  struct LeafScanJob {
    std::size_t begin = 0;
    std::size_t end = 0;
    unsigned covered = 0;
  };

  /// One execution's job list, taken from a thread-local buffer and given
  /// back at scope exit: it allocates nothing once its thread has recorded
  /// as many jobs before, and an execution nested on the same thread (a
  /// task that `Group::Wait` helps run, or a sink that queries) finds the
  /// buffer taken and uses a fresh one instead of clobbering this one.
  struct JobBuffer {
    JobBuffer() {
      jobs.swap(Cached());
      jobs.clear();
    }
    ~JobBuffer() { jobs.swap(Cached()); }
    JobBuffer(const JobBuffer&) = delete;
    JobBuffer& operator=(const JobBuffer&) = delete;

    static std::vector<LeafScanJob>& Cached() {
      static thread_local std::vector<LeafScanJob> cached;
      return cached;
    }

    std::vector<LeafScanJob> jobs;
  };

  /// Records the scan of leaf rows `[begin, end)` with covered-dimension
  /// mask `covered`. A leaf that starts where the last recorded job ends
  /// extends that job, whose mask becomes the AND of both: a dropped bit
  /// only tests a dimension every row passes, so the ids and their order
  /// stay the same and a run of adjacent leaves costs one scan call.
  static void RecordLeafScan(std::vector<LeafScanJob>* jobs, std::size_t begin,
                             std::size_t end, unsigned covered) {
    if (!jobs->empty() && jobs->back().end == begin) {
      jobs->back().end = end;
      jobs->back().covered &= covered;
    } else {
      jobs->push_back(LeafScanJob{begin, end, covered});
    }
  }

  /// Runs recorded leaf scans on the calling thread, in capture order, into
  /// one emitter over `sink`, adding the bytes they read to `st`.
  void ScanJobs(const std::vector<LeafScanJob>& jobs, const Box<D>& q,
                RangePredicate predicate, bool count_only, Sink& sink,
                QueryStats* st) const {
    MatchEmitter emit(count_only, &sink);
    for (const LeafScanJob& job : jobs) {
      st->bytes_scanned += array_.StreamScan(job.begin, job.end, q, predicate,
                                             job.covered, &emit);
    }
    emit.Flush();
  }

  /// What a collecting `ReadDescent` gathers for a read of `q`: its leaf
  /// scans and their counters, held here until the descent of every class
  /// has completed.
  struct ReadPlan {
    const Box<D>* q;
    std::vector<LeafScanJob>* jobs;
    std::uint64_t partitions_visited = 0;
    std::uint64_t objects_tested = 0;
  };

  /// What a join descent over one pair of extent classes needs besides the
  /// two slice lists: the pair's summed half extents and each side's level
  /// thresholds.
  struct JoinClassPair {
    Point<D> h;
    Thresholds mine;
    Thresholds theirs;
  };

  /// Adapts a partner-slice `StreamScan` into join pairs: every id the scan
  /// emits pairs with the currently fixed left-side object and goes straight
  /// to the join's `JoinEmitter`, which canonicalizes at its flush.
  class PairListSink final : public Sink {
   public:
    explicit PairListSink(JoinEmitter* emit) : emit_(emit) {}
    void set_left(ObjectId left) { left_ = left; }
    void Emit(ObjectId id) override { emit_->Add(left_, id); }
    void EmitRun(const ObjectId* ids, std::size_t n) override {
      for (std::size_t i = 0; i < n; ++i) emit_->Add(left_, ids[i]);
    }
    void AddMatches(std::uint64_t) override {}

   private:
    JoinEmitter* emit_;
    ObjectId left_ = 0;
  };

  /// The shared entry ritual of every reorganizing execution: first-query
  /// initialization, tombstone compaction when due, and promotion of the
  /// pending insert tail into the slice hierarchy. A no-op (pure read) when
  /// the array is `ReadyToRead`.
  void PrepareArray() {
    if (!initialized_) Initialize();
    MaybeCompact();
    AbsorbPending();
  }

  /// The level thresholds a join descends class `c` with: the finest leaf,
  /// `min(kMinLeafRows, tau)`. A join pairs leaves, so smaller leaves
  /// prune more pairs: on 2^15 uniform rows (4-vCPU Xeon VM) a converged
  /// self-join took 40.5 ms at 256-row leaves and 77.7 ms at 1024.
  Thresholds JoinThresholds(const ExtentClass& c) const {
    return ThresholdsFor(c.live,
                         std::min(kMinLeafRows, params_.leaf_threshold));
  }

  /// Whether a descent at level threshold `limit` refines touched slice
  /// `s`: it holds more rows, is not frozen, and has no children. A slice
  /// with children keeps its level: it was within the threshold of the
  /// descent that created them, and cracking it would discard their
  /// refinement, so a descent with finer thresholds (a query that reaches
  /// fewer rows, a join, or a class that lost rows to erases) refines
  /// below it.
  static bool NeedsRefinement(const Slice& s, std::size_t limit) {
    return s.size() > limit && !s.frozen && s.children.empty();
  }

  /// Whether `PrepareArray` has nothing to do: the array is initialized,
  /// has no pending tail and owes no compaction.
  bool ReadyToRead() const {
    return initialized_ && array_.pending_count() == 0 && !CompactionDue();
  }

  /// The one read of a box query: a read-only descent per class
  /// (`ReadDescent`, with `q` widened by the class's half extent,
  /// `ExtendedBox`, at the thresholds `LeafThresholds` sizes to `q`) plans
  /// the leaf scans, then those scans run in plan (= visit) order into one
  /// emitter. Declines (false, nothing counted or emitted) when the array
  /// is not `ReadyToRead`, or at the first slice the refine pre-pass would
  /// change. With a null `sink` it only decides, recording nothing.
  bool Read(const Box<D>& q, RangePredicate predicate, bool count_only,
            Sink* sink, QueryStats* st) const {
    if (!ReadyToRead()) return false;
    if (array_.empty()) return true;
    JobBuffer buffer;
    ReadPlan plan{&q, &buffer.jobs};
    ReadPlan* record = sink == nullptr ? nullptr : &plan;
    for (const ExtentClass& c : classes_) {
      if (!ReadDescent(c.root, ExtendedBox(q, c.half_extent),
                       LeafThresholds(c, q), 0u, record)) {
        return false;
      }
    }
    if (sink == nullptr) return true;
    st->partitions_visited += plan.partitions_visited;
    st->objects_tested += plan.objects_tested;
    ScanJobs(buffer.jobs, q, predicate, count_only, *sink, st);
    return true;
  }

  /// The one read-only descent over one class's slices, routed like the
  /// refine pre-pass (`Visit` with `descend`: the same `outside` test):
  /// false at the first touched slice the pre-pass would change, one that
  /// `NeedsRefinement` at its level threshold or a non-leaf without
  /// children. With a `plan` it records the leaf scans and the counters of
  /// a read of `plan->q`; without one it only decides. `covered` is the
  /// bitmask of dimensions whose slice value range lies inside the query's
  /// own interval — every centre key there is inside `q`, which (as
  /// `box.lo <= centre <= box.hi`) already proves the box overlaps `q` in
  /// that dimension, so the leaf scan skips its bound test (intersection
  /// predicate only; `StreamScan` ignores the mask for containment).
  bool ReadDescent(const std::vector<Slice>& slices, const Box<D>& ext,
                   const Thresholds& threshold, unsigned covered,
                   ReadPlan* plan) const {
    for (const Slice& s : slices) {
      const int d = s.level;
      if (s.size() == 0 || s.lo >= ext.hi[d] || s.hi <= ext.lo[d]) continue;
      if (NeedsRefinement(s, threshold[static_cast<std::size_t>(d)])) {
        return false;
      }
      const bool leaf = d == D - 1;
      if (!leaf && s.children.empty()) return false;
      unsigned mask = covered;
      if (plan != nullptr) {
        if (plan->q->lo[d] <= s.lo && s.hi <= plan->q->hi[d]) mask |= 1u << d;
        ++plan->partitions_visited;
        if (leaf) {
          plan->objects_tested += s.size();
          RecordLeafScan(plan->jobs, s.begin, s.end, mask);
        }
      }
      if (!leaf && !ReadDescent(s.children, ext, threshold, mask, plan)) {
        return false;
      }
    }
    return true;
  }

  /// The half-open descent box of `q` for a class with half extents `h`:
  /// `[lo, hi)` per dimension covers every centre key of a class member
  /// whose MBB can intersect `q` (centre-based assignment plus the class's
  /// half extent on both sides). Containment predicates imply
  /// intersection, so the same descent generates their candidates.
  static Box<D> ExtendedBox(const Box<D>& q, const Point<D>& h) {
    Box<D> ext;
    for (int d = 0; d < D; ++d) {
      ext.lo[d] = q.lo[d] - h[d];
      ext.hi[d] = std::nextafter(q.hi[d] + h[d],
                                 std::numeric_limits<Scalar>::infinity());
    }
    return ext;
  }

  std::size_t LiveRows() const {
    return array_.size() - array_.tombstones();
  }

  static Scalar MaxSide(const Box<D>& b) {
    Scalar side = 0;
    for (int d = 0; d < D; ++d) side = std::max(side, b.Extent(d));
    return side;
  }

  /// Size buckets for the class derivation: bucket `b` holds the objects
  /// whose largest side `s` has `2^(b-127) < s <= 2^(b-126)` — the
  /// power-of-two ceiling of `s`, read off its float bits — so the buckets
  /// span every finite side (zero and subnormal sides share bucket 0, an
  /// overflowed +inf side lands in the last bucket).
  static constexpr int kBuckets = 255;
  static_assert(std::numeric_limits<Scalar>::is_iec559 &&
                    sizeof(Scalar) == sizeof(std::uint32_t),
                "SideBucket reads the bits of a binary32 Scalar");
  static int SideBucket(Scalar side) {
    const auto bits = std::bit_cast<std::uint32_t>(side);
    const int exp = static_cast<int>((bits >> 23) & 0xFFu);
    if (exp == 0) return 0;
    return exp - 1 + ((bits & 0x7FFFFFu) != 0 ? 1 : 0);
  }

  /// The largest side bucket `b` admits: `2^(b-126)`, or +inf for the last.
  static Scalar BucketBound(int b) {
    return b + 1 >= kBuckets ? std::numeric_limits<Scalar>::infinity()
                             : std::ldexp(Scalar{1}, b - 126);
  }

  static int BucketOf(const Box<D>& b) { return SideBucket(MaxSide(b)); }

  /// The class an object belongs to: the first whose bound covers its
  /// largest side (the last class's bound is +inf).
  std::size_t ClassOf(const Box<D>& b) const {
    return class_of_bucket_[static_cast<std::size_t>(BucketOf(b))];
  }

  /// Rebuilds the bucket → class table from the class bounds.
  void IndexBuckets() {
    std::size_t c = 0;
    for (int b = 0; b < kBuckets; ++b) {
      while (c + 1 < classes_.size() &&
             !(BucketBound(b) <= classes_[c].bound)) {
        ++c;
      }
      class_of_bucket_[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(c);
    }
  }

  /// Rows and per-dimension maximum half extent of one size bucket (or of
  /// a run of buckets).
  struct BucketStats {
    std::size_t count = 0;
    Point<D> half{};

    void Add(const BucketStats& o) {
      count += o.count;
      for (int d = 0; d < D; ++d) half[d] = std::max(half[d], o.half[d]);
    }
  };
  using Histogram = std::array<BucketStats, kBuckets>;

  /// Estimated rows one small query tests in a class of `s.count` rows:
  /// its leaf cells are `(tau / n)^(1/D)` of the data bounds `u` wide per
  /// dimension, and the query is widened by the class's half extent on
  /// both sides, so it reaches `n · Π_d (cell + 2·h_d / U_d)` rows (each
  /// factor capped at 1: a class cannot cost more than all its rows).
  double ClassCost(const BucketStats& s, const Box<D>& u) const {
    if (s.count == 0) return 0;
    const double n = static_cast<double>(s.count);
    const double cell = std::pow(
        static_cast<double>(params_.leaf_threshold) / n, 1.0 / D);
    double cost = n;
    for (int d = 0; d < D; ++d) {
      const double span = static_cast<double>(u.hi[d]) - u.lo[d];
      if (!(span > 0) || !std::isfinite(span)) continue;
      cost *= std::min(1.0, cell + 2.0 * s.half[d] / span);
    }
    return cost;
  }

  /// Splits the run of non-empty buckets `used[i..j]` into classes: cuts at
  /// the boundary that lowers the summed `ClassCost` the most, recursing
  /// into both sides, and stops where no cut lowers it. Appends the
  /// resulting runs (as their last index into `used`) in size order.
  void SplitBuckets(const Histogram& hist, const std::vector<int>& used,
                    std::size_t i, std::size_t j, const Box<D>& u,
                    std::vector<std::size_t>* class_ends) const {
    const auto run = [&](std::size_t from, std::size_t to) {
      BucketStats s;
      for (std::size_t k = from; k <= to; ++k) {
        s.Add(hist[static_cast<std::size_t>(used[k])]);
      }
      return s;
    };
    double best = ClassCost(run(i, j), u);
    std::size_t cut = j;
    for (std::size_t k = i; k < j; ++k) {
      const double split =
          ClassCost(run(i, k), u) + ClassCost(run(k + 1, j), u);
      if (split < best) {
        best = split;
        cut = k;
      }
    }
    if (cut == j) {
      class_ends->push_back(j);
      return;
    }
    SplitBuckets(hist, used, i, cut, u, class_ends);
    SplitBuckets(hist, used, cut + 1, j, u, class_ends);
  }

  /// Derives the extent classes from the size histogram of the live set:
  /// each class is a run of buckets, bounded by its largest bucket's bound
  /// (the last class by +inf), with the run's row count and maximum half
  /// extents. No data gives one empty class.
  void DeriveClasses(const Histogram& hist) {
    std::vector<int> used;
    for (int b = 0; b < kBuckets; ++b) {
      if (hist[static_cast<std::size_t>(b)].count > 0) used.push_back(b);
    }
    std::vector<std::size_t> ends;
    if (!used.empty()) {
      SplitBuckets(hist, used, 0, used.size() - 1, this->store_.bounds(),
                   &ends);
    }
    classes_.assign(std::max<std::size_t>(ends.size(), 1), ExtentClass{});
    std::size_t k = 0;
    for (std::size_t c = 0; c < ends.size(); ++c) {
      BucketStats s;
      for (; k <= ends[c]; ++k) {
        s.Add(hist[static_cast<std::size_t>(used[k])]);
      }
      if (c + 1 < ends.size()) classes_[c].bound = BucketBound(used[ends[c]]);
      classes_[c].half_extent = s.half;
      classes_[c].live = s.count;
    }
    IndexBuckets();
  }

  /// First-query (and compaction) work: build the structure-of-arrays
  /// columns from the live object set (pre-sized for the live count) while
  /// recording each row's size bucket and histogramming the buckets,
  /// derive the extent classes from the histogram, then group the rows by
  /// class (`GroupByClass`) and give every class one open root slice over
  /// its rows. Grouping is loading work, not cracking: it is not counted in
  /// `cracks`/`objects_moved`.
  void Initialize() {
    const std::size_t n = this->store_.live_count();
    std::vector<std::uint8_t>& row_bucket = BucketScratchTLS();
    row_bucket.resize(n);
    Histogram hist{};
    std::size_t row = 0;
    array_.Load(n, [&](auto&& append) {
      this->store_.ForEachLive([&](ObjectId id, const Box<D>& b) {
        append(id, b);
        const int bucket = BucketOf(b);
        row_bucket[row++] = static_cast<std::uint8_t>(bucket);
        // A new maximum is rare: compare first, so the common row stores
        // nothing and no store-to-load chain runs through the histogram.
        Point<D>& half = hist[static_cast<std::size_t>(bucket)].half;
        for (int d = 0; d < D; ++d) {
          const Scalar h = b.Extent(d) / 2;
          if (h > half[d]) half[d] = h;
        }
      });
    });
    CountBuckets(row_bucket.data(), n, &hist);
    DeriveClasses(hist);
    std::vector<std::size_t> counts;
    for (const ExtentClass& c : classes_) counts.push_back(c.live);
    const std::vector<std::size_t> ends =
        GroupByClass(0, row_bucket.data(), counts);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      classes_[c].root.push_back(OpenSlice(0, ends[c], ends[c + 1]));
    }
    fold_stack_.clear();
    initialized_ = true;
  }

  /// Groups the rows from `begin` on by class, in class order, given each
  /// row's size bucket (`bucket[i]` for row `begin + i`, permuted along
  /// with the rows) and the number of rows per class. Classes are runs of
  /// buckets, so each class boundary is a two-way split by bucket: one
  /// pass over the bucket bytes finds the rows on the wrong side of the
  /// boundary (equally many on each side), and the k-th of each side swap
  /// places — disjoint swaps, run morsel-parallel like
  /// `ChunkedCrackPartition`'s fixup, since the misplaced rows are
  /// scattered and each swap waits on cache misses. The layout depends
  /// only on the input. Returns the K+1 group boundaries.
  std::vector<std::size_t> GroupByClass(
      std::size_t begin, std::uint8_t* bucket,
      const std::vector<std::size_t>& counts) {
    std::vector<std::size_t> bounds(counts.size() + 1, 0);
    for (std::size_t c = 0; c < counts.size(); ++c) {
      bounds[c + 1] = bounds[c] + counts[c];
    }
    const std::size_t n = bounds.back();
    std::vector<std::size_t> left;
    std::vector<std::size_t> right;
    int top = -1;  // the largest bucket of class c
    for (std::size_t c = 0; c + 1 < counts.size(); ++c) {
      while (top + 1 < kBuckets &&
             class_of_bucket_[static_cast<std::size_t>(top + 1)] <= c) {
        ++top;
      }
      left.clear();
      right.clear();
      for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
        if (bucket[i] > top) left.push_back(i);
      }
      for (std::size_t i = bounds[c + 1]; i < n; ++i) {
        if (bucket[i] <= top) right.push_back(i);
      }
      ParallelFor(&IntraQueryScheduler(), 0, left.size(), MorselGrain(),
                  [&](std::size_t kb, std::size_t ke) {
                    for (std::size_t k = kb; k < ke; ++k) {
                      array_.SwapRows(begin + left[k], begin + right[k]);
                      std::swap(bucket[left[k]], bucket[right[k]]);
                    }
                  });
    }
    for (std::size_t& b : bounds) b += begin;
    return bounds;
  }

  /// Fills the histogram's row counts from the per-row bucket bytes (four
  /// interleaved tallies, so consecutive rows of one bucket do not wait on
  /// each other's increment).
  static void CountBuckets(const std::uint8_t* bucket, std::size_t n,
                           Histogram* hist) {
    std::array<std::array<std::size_t, kBuckets>, 4> tally{};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      for (std::size_t k = 0; k < 4; ++k) ++tally[k][bucket[i + k]];
    }
    for (; i < n; ++i) ++tally[0][bucket[i]];
    for (std::size_t b = 0; b < kBuckets; ++b) {
      (*hist)[b].count = tally[0][b] + tally[1][b] + tally[2][b] + tally[3][b];
    }
  }

  /// A slice of `level` over rows `[begin, end)` with open value bounds:
  /// the unrefined starting point of a root list or a child list.
  static Slice OpenSlice(int level, std::size_t begin, std::size_t end) {
    Slice s;
    s.level = level;
    s.begin = begin;
    s.end = end;
    s.lo = -std::numeric_limits<Scalar>::infinity();
    s.hi = std::numeric_limits<Scalar>::infinity();
    return s;
  }

  /// The per-row bucket bytes of `Initialize` (one byte per loaded row),
  /// thread-local and kept between calls like the scan scratch: a fresh
  /// row-sized allocation
  /// right before the columns are re-reserved would land in the memory a
  /// dropped index just freed and push the new columns onto fresh pages
  /// (thousands of page faults on a 2^20-row load).
  static std::vector<std::uint8_t>& BucketScratchTLS() {
    static thread_local std::vector<std::uint8_t> scratch;
    return scratch;
  }

  /// Whether tombstones dominate: at least `kMinCompactTombstones` of them,
  /// and at least a quarter of the rows.
  bool CompactionDue() const {
    const std::size_t dead = array_.tombstones();
    return dead >= kMinCompactTombstones && dead * 4 >= array_.size();
  }

  /// Rebuilds from the live set once tombstones dominate: the one O(n)
  /// reclamation backing the otherwise in-passing compaction.
  void MaybeCompact() {
    if (!CompactionDue()) return;
    this->Stats().objects_moved += LiveRows();
    Initialize();
  }

  /// Drains the pending tail into the slice hierarchies with the
  /// logarithmic method (Bentley & Saxe; database cracking merges pending
  /// inserts the same way). The promoted rows form *groups*, each absorbed
  /// together and holding one open root slice per class, and `fold_stack_`
  /// records their start rows. The tail first swallows, like a binary
  /// counter's carry, every newest group no larger than what it has
  /// gathered so far; the gathered range then loses its root slices (and
  /// their refinement), is regrouped by class (`GroupByClass`, dead rows
  /// included) and becomes one new group of open root slices that queries
  /// refine lazily, exactly like initial data. Group sizes strictly
  /// decrease up the stack, each promoted row is regrouped O(log P) times
  /// for P promoted rows, and equal-size tails leave at most
  /// `floor(log2 P) + 1` groups, so reads cost the same after thousands of
  /// insert-then-read cycles as after a few.
  void AbsorbPending() {
    std::size_t begin = array_.pending_begin();
    const std::size_t end = array_.size();
    if (begin == end) return;
    while (!fold_stack_.empty() && begin - fold_stack_.back() <= end - begin) {
      begin = fold_stack_.back();
      fold_stack_.pop_back();
    }
    std::vector<std::uint8_t> bucket(end - begin);
    std::vector<std::size_t> counts(classes_.size(), 0);
    for (std::size_t i = begin; i < end; ++i) {
      bucket[i - begin] = static_cast<std::uint8_t>(BucketOf(array_.box(i)));
      ++counts[class_of_bucket_[bucket[i - begin]]];
    }
    const std::vector<std::size_t> ends =
        GroupByClass(begin, bucket.data(), counts);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      // Root lists are in position order, so the folded groups' slices
      // are each list's tail.
      std::vector<Slice>& root = classes_[c].root;
      while (!root.empty() && root.back().begin >= begin) root.pop_back();
      if (ends[c] < ends[c + 1]) {
        root.push_back(OpenSlice(0, ends[c], ends[c + 1]));
      }
    }
    fold_stack_.push_back(begin);
    array_.SealPending();
  }

  /// Preorder slice serialization: per slice its range, value interval,
  /// frozen flag, and (recursively) its children. Levels are implied by
  /// depth.
  void EncodeSlices(const std::vector<Slice>& slices, ByteWriter* w) const {
    w->U64(slices.size());
    for (const Slice& s : slices) {
      w->U64(s.begin);
      w->U64(s.end);
      w->F(s.lo);
      w->F(s.hi);
      w->U8(s.frozen ? 1 : 0);
      EncodeSlices(s.children, w);
    }
  }

  /// Decodes the crack-array columns and the class table. Checks only what
  /// decoding itself needs (a class count and slice lists the input can
  /// hold); `CheckClassTable` validates the result.
  bool DecodeClasses(ByteReader* r) {
    if (!array_.DecodeFrom(r)) return false;
    constexpr std::size_t kMinClassBytes = (D + 1) * sizeof(Scalar) + 8;
    const std::uint64_t count = r->U64();
    if (!r->ok() || count == 0 || count > kBuckets ||
        count > r->remaining() / kMinClassBytes) {
      return false;
    }
    classes_.assign(static_cast<std::size_t>(count), ExtentClass{});
    for (ExtentClass& c : classes_) {
      c.bound = r->F();
      for (int d = 0; d < D; ++d) c.half_extent[d] = r->F();
      if (!DecodeSlices(r, /*level=*/0, array_.size(), &c.root)) return false;
    }
    IndexBuckets();
    return true;
  }

  /// Decodes one slice list, validating as it goes: ranges inside
  /// `array_bound`, recursion no deeper than `D` levels, and a child-list
  /// size the remaining input can actually hold (so corrupt counts fail
  /// fast instead of allocating).
  bool DecodeSlices(ByteReader* r, int level, std::size_t array_bound,
                    std::vector<Slice>* out) {
    constexpr std::size_t kMinSliceBytes = 8 + 8 + 2 * sizeof(Scalar) + 1 + 8;
    const std::uint64_t count = r->U64();
    if (!r->ok() || count > r->remaining() / kMinSliceBytes + 1) return false;
    if (count > 0 && level >= D) return false;
    out->reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      Slice s;
      s.level = level;
      s.begin = static_cast<std::size_t>(r->U64());
      s.end = static_cast<std::size_t>(r->U64());
      s.lo = r->F();
      s.hi = r->F();
      s.frozen = r->U8() != 0;
      if (!r->ok() || s.begin > s.end || s.end > array_bound) return false;
      if (!DecodeSlices(r, level + 1, s.end, &s.children)) return false;
      out->push_back(std::move(s));
    }
    return true;
  }

  /// The class-table invariants that keep answers correct, checked against
  /// the array alone (so snapshot decoding runs them before trusting a
  /// blob): at least one class; bounds strictly increasing, the last +inf;
  /// every half extent finite and non-negative; each class's root slices
  /// in position order, and those of all classes together tiling the
  /// structured prefix `[0, pending_begin)`;
  /// and every live row — pending tail included — in the class `ClassOf`
  /// names for it and within that class's half extent in every dimension.
  /// Fills `live` with each class's live-row count.
  bool CheckClassTable(std::vector<std::size_t>* live,
                       std::string* why) const {
    const auto fail = [why](const char* msg) {
      if (why) *why = msg;
      return false;
    };
    if (classes_.empty()) return fail("quasii: no extent class");
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const ExtentClass& cls = classes_[c];
      const bool last = c + 1 == classes_.size();
      if (last ? cls.bound != std::numeric_limits<Scalar>::infinity()
               : !(cls.bound > 0 && cls.bound < classes_[c + 1].bound)) {
        return fail("quasii: extent class bounds out of order");
      }
      for (int d = 0; d < D; ++d) {
        if (!std::isfinite(cls.half_extent[d]) || cls.half_extent[d] < 0) {
          return fail("quasii: extent class half extent invalid");
        }
      }
      std::size_t prev_end = 0;
      for (const Slice& s : cls.root) {
        if (s.begin < prev_end) {
          return fail("quasii: root slices out of position order");
        }
        prev_end = s.end;
        ranges.emplace_back(s.begin, s.end);
      }
    }
    std::sort(ranges.begin(), ranges.end());
    bool tiled = true;
    std::size_t pos = 0;
    for (const auto& range : ranges) {
      tiled = tiled && range.first == pos;
      pos = range.second;
    }
    if (!tiled || pos != array_.pending_begin()) {
      return fail("quasii: class ranges do not tile the structured prefix");
    }
    live->assign(classes_.size(), 0);
    const auto check_row = [&](std::size_t c, std::size_t i) {
      if (!array_.live(i)) return true;
      const Box<D> b = array_.box(i);
      if (ClassOf(b) != c) return false;
      for (int d = 0; d < D; ++d) {
        if (!(b.Extent(d) / 2 <= classes_[c].half_extent[d])) return false;
      }
      ++(*live)[c];
      return true;
    };
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      for (const Slice& s : classes_[c].root) {
        for (std::size_t i = s.begin; i < s.end; ++i) {
          if (!check_row(c, i)) {
            return fail("quasii: live row outside its extent class");
          }
        }
      }
    }
    for (std::size_t i = array_.pending_begin(); i < array_.size(); ++i) {
      if (array_.live(i) && !check_row(ClassOf(array_.box(i)), i)) {
        return fail("quasii: pending row outside its extent class");
      }
    }
    return true;
  }

  /// The fold stack agrees with the root lists: its entries strictly
  /// increase and lie inside the structured prefix, and each is where a
  /// root slice begins, so no root slice crosses one (a fold drops whole
  /// root slices).
  bool CheckFoldStack(std::string* why) const {
    const auto fail = [why](const char* msg) {
      if (why) *why = msg;
      return false;
    };
    std::vector<std::pair<std::size_t, std::size_t>> roots;
    for (const ExtentClass& c : classes_) {
      for (const Slice& s : c.root) roots.emplace_back(s.begin, s.end);
    }
    std::sort(roots.begin(), roots.end());
    std::size_t r = 0;
    for (std::size_t k = 0; k < fold_stack_.size(); ++k) {
      const std::size_t start = fold_stack_[k];
      if (start >= array_.pending_begin() ||
          (k > 0 && start <= fold_stack_[k - 1])) {
        return fail("quasii: fold stack out of order");
      }
      // The first root slice ending past `start` must begin there.
      while (r < roots.size() && roots[r].second <= start) ++r;
      if (r == roots.size() || roots[r].first != start) {
        return fail("quasii: a root slice crosses a promoted group start");
      }
    }
    return true;
  }

  /// Structural validation of one slice and its subtree: a non-inverted
  /// value interval; every row's key inside it — except the parked-dead
  /// slices (`lo == hi == +inf`), which must hold only tombstoned rows;
  /// and children one level deeper that tile their parent contiguously and
  /// in position order.
  bool CheckSlice(const Slice& s, int level, std::string* why) const {
    constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
    if (s.level != level || s.end < s.begin || s.end > array_.size()) {
      if (why) *why = "quasii: slice list does not tile its range";
      return false;
    }
    const bool parked_dead = s.lo == kInf && s.hi == kInf;
    if (!parked_dead && s.lo > s.hi) {
      if (why) *why = "quasii: inverted slice value interval";
      return false;
    }
    for (std::size_t i = s.begin; i < s.end; ++i) {
      if (parked_dead) {
        if (array_.live(i)) {
          if (why) *why = "quasii: live row in a parked-dead slice";
          return false;
        }
        continue;
      }
      const Scalar k = array_.key(level, i);
      if (!(k >= s.lo && k < s.hi) && !(s.lo == s.hi && k == s.lo)) {
        if (why) *why = "quasii: row key outside its slice interval";
        return false;
      }
    }
    if (s.children.empty()) return true;
    std::size_t pos = s.begin;
    for (const Slice& child : s.children) {
      if (child.begin != pos) {
        if (why) *why = "quasii: slice list does not tile its range";
        return false;
      }
      if (!CheckSlice(child, level + 1, why)) return false;
      pos = child.end;
    }
    if (pos != s.end) {
      if (why) *why = "quasii: children do not cover their parent";
      return false;
    }
    return true;
  }

  /// Two-sided partition of `[begin, end)` by `key < v` — one crack step.
  std::size_t CrackOnAxis(std::size_t begin, std::size_t end, int d, Scalar v) {
    const std::size_t pos = array_.CrackOnAxis(begin, end, d, v);
    ++this->Stats().cracks;
    this->Stats().objects_moved += end - begin;
    return pos;
  }

  /// Refines an oversized slice against the query's `[lo, hi)` interval in
  /// the slice's dimension: cracks off the (coarse) parts before and after
  /// the query, then sub-slices the query-covered middle at median keys
  /// until every piece obeys the level threshold. The returned pieces are
  /// position- and value-ordered, exactly tile the input slice, and live in
  /// this level's scratch buffer (valid until the next same-level `Refine`).
  ///
  /// `limit` is the level threshold the descent refines to.
  ///
  /// When the array carries tombstones, the dead rows of the slice are
  /// first swept behind the live ones and parked in a frozen slice whose
  /// empty value interval (`lo == hi == +inf`) no traversal ever enters —
  /// cracking compacts erased objects out of the hot range in passing.
  std::vector<Slice>& Refine(Slice s, const Box<D>& ext, std::size_t limit) {
    const int d = s.level;
    const Scalar qlo = ext.lo[d];
    const Scalar qhi = ext.hi[d];
    std::vector<Slice>& out = refine_scratch_[static_cast<std::size_t>(d)];
    out.clear();
    Slice dead;
    bool have_dead = false;
    if (array_.HasDeadIn(s.begin, s.end)) {
      const std::size_t live_end = array_.PartitionLiveFirst(s.begin, s.end);
      if (live_end < s.end) {
        ++this->Stats().cracks;
        this->Stats().objects_moved += s.size();
        dead.level = d;
        dead.begin = live_end;
        dead.end = s.end;
        dead.lo = std::numeric_limits<Scalar>::infinity();
        dead.hi = std::numeric_limits<Scalar>::infinity();
        dead.frozen = true;
        have_dead = true;
        s.end = live_end;
      }
    }
    if (qlo > s.lo) {
      const std::size_t pos = CrackOnAxis(s.begin, s.end, d, qlo);
      if (pos > s.begin) {
        Slice left;
        left.level = d;
        left.begin = s.begin;
        left.end = pos;
        left.lo = s.lo;
        left.hi = qlo;
        out.push_back(std::move(left));
      }
      s.begin = pos;
      s.lo = qlo;
    }
    Slice right;
    bool have_right = false;
    if (qhi < s.hi) {
      const std::size_t pos = CrackOnAxis(s.begin, s.end, d, qhi);
      if (pos < s.end) {
        right.level = d;
        right.begin = pos;
        right.end = s.end;
        right.lo = qhi;
        right.hi = s.hi;
        have_right = true;
      }
      s.end = pos;
      s.hi = qhi;
    }
    SplitToThreshold(std::move(s), limit, &out);
    if (have_right) out.push_back(std::move(right));
    if (have_dead) out.push_back(std::move(dead));
    return out;
  }

  /// Halves a slice at its median key until every piece is at most `limit`
  /// (the descent's level threshold), appending the pieces to `out` in
  /// position order. A run of identical keys that cannot be halved is
  /// frozen and accepted oversized (it can still be sliced in later
  /// dimensions). Counters land in the caller's stats shard.
  void SplitToThreshold(Slice s, std::size_t limit, std::vector<Slice>* out) {
    if (s.size() == 0) return;
    SplitPieces(std::move(s), limit, out, &this->Stats(), &split_stack_,
                &IntraQueryScheduler());
  }

  /// The one median-halving loop, at every thread count. A worklist holds
  /// the halves still to split, left on top, so pieces leave in position
  /// order without recursion. When the scheduler has workers, a slice of at
  /// least `kParallelSplitMin` rows hands its right half to a task (an
  /// independent `SplitPieces` over a disjoint row range, with its own
  /// pieces, counters and worklist) and keeps halving the left half.
  /// Such a slice is only ever popped from an otherwise empty worklist —
  /// smaller slices halve into smaller halves — so each forked right half
  /// lies right of everything the worklist still emits, and of every half
  /// forked after it: appending the forked pieces in reverse fork order
  /// after the worklist drains restores position order. Which splits
  /// happen, and so the layout and the counters, depends only on the data;
  /// the fork is a scheduling choice. Nesting grows only through forked
  /// right halves of at least `kParallelSplitMin` rows.
  void SplitPieces(Slice s, std::size_t limit, std::vector<Slice>* out,
                   QueryStats* st, std::vector<Slice>* stack,
                   TaskScheduler* exec) {
    struct Forked {
      std::vector<Slice> pieces;
      QueryStats stats;
    };
    std::deque<Forked> forked;  // stable addresses for the running tasks
    const int d = s.level;
    TaskScheduler::Group g(exec);
    stack->clear();
    stack->push_back(std::move(s));
    while (!stack->empty()) {
      Slice t = std::move(stack->back());
      stack->pop_back();
      if (t.size() <= limit) {
        out->push_back(std::move(t));
        continue;
      }
      const auto split = array_.MedianSplit(t.begin, t.end, d);
      ++st->cracks;
      st->objects_moved += t.size();
      if (split.frozen) {
        t.frozen = true;
        out->push_back(std::move(t));
        continue;
      }
      Slice left;
      left.level = d;
      left.begin = t.begin;
      left.end = split.pos;
      left.lo = t.lo;
      left.hi = split.bound;
      Slice rest;
      rest.level = d;
      rest.begin = split.pos;
      rest.end = t.end;
      rest.lo = split.bound;
      rest.hi = t.hi;
      if (exec->parallel() && t.size() >= kParallelSplitMin) {
        Forked* f = &forked.emplace_back();
        g.Run([this, rest, limit, f, exec]() mutable {
          std::vector<Slice> task_stack;
          SplitPieces(std::move(rest), limit, &f->pieces, &f->stats,
                      &task_stack, exec);
        });
      } else {
        stack->push_back(std::move(rest));
      }
      stack->push_back(std::move(left));
    }
    g.Wait();
    for (auto it = forked.rbegin(); it != forked.rend(); ++it) {
      for (Slice& piece : it->pieces) out->push_back(std::move(piece));
      st->cracks += it->stats.cracks;
      st->objects_moved += it->stats.objects_moved;
    }
  }

  /// Walks one level's slice list at level thresholds `threshold`: skips
  /// slices outside `ext` and refines the touched slices that need it
  /// (`NeedsRefinement`). With `descend` (a box query's refine pre-pass)
  /// it walks on below each touched slice and refinement piece
  /// (`Descend`); without it (the join descent, which walks the levels
  /// itself) it refines this level only. Refinement pieces are stitched
  /// into a rebuilt list in one pass instead of `erase`+`insert` splicing,
  /// so a query that cracks k slices costs one O(list) rebuild, not k of
  /// them.
  void Visit(std::vector<Slice>* slices, const Thresholds& threshold,
             const Box<D>& ext, bool descend) {
    const int d = slices->front().level;
    const std::size_t limit = threshold[static_cast<std::size_t>(d)];
    std::vector<Slice>& rebuilt = visit_scratch_[static_cast<std::size_t>(d)];
    bool rebuilding = false;
    for (std::size_t i = 0; i < slices->size(); ++i) {
      Slice& s = (*slices)[i];
      const bool outside =
          s.size() == 0 || s.lo >= ext.hi[d] || s.hi <= ext.lo[d];
      if (!outside && NeedsRefinement(s, limit)) {
        if (!rebuilding) {
          rebuilding = true;
          rebuilt.clear();
          rebuilt.reserve(slices->size() + 8);
          for (std::size_t j = 0; j < i; ++j) {
            rebuilt.push_back(std::move((*slices)[j]));
          }
        }
        std::vector<Slice>& pieces = Refine(std::move(s), ext, limit);
        for (Slice& piece : pieces) {
          if (descend) Descend(&piece, threshold, ext);
          rebuilt.push_back(std::move(piece));
        }
      } else {
        if (descend) Descend(&s, threshold, ext);
        if (rebuilding) rebuilt.push_back(std::move(s));
      }
    }
    if (rebuilding) {
      slices->swap(rebuilt);
      rebuilt.clear();  // drop the moved-from originals, keep the capacity
    }
  }

  /// The pre-pass step below one within-threshold (or frozen) slice that
  /// may overlap the query: a touched non-leaf slice gets its first child
  /// if it has none (`EnsureChild`), and its children are visited.
  void Descend(Slice* s, const Thresholds& threshold, const Box<D>& ext) {
    const int d = s->level;
    if (d == D - 1 || s->size() == 0 || s->lo >= ext.hi[d] ||
        s->hi <= ext.lo[d]) {
      return;
    }
    EnsureChild(s);
    Visit(&s->children, threshold, ext, /*descend=*/true);
  }

  /// Materializes a non-leaf slice's single open child (the lazy first
  /// level-(d+1) slice covering the whole range) if none exists yet. Only
  /// reorganizing (exclusive-lock) executions ever create one — the
  /// read-only descent (`ReadDescent`) declines at a childless non-leaf.
  void EnsureChild(Slice* s) {
    if (!s->children.empty()) return;
    s->children.push_back(OpenSlice(s->level + 1, s->begin, s->end));
  }

  /// The value intervals of one level's live slices — the crack targets the
  /// join partner refines against. Skips empty slices and the parked-dead
  /// ones (`lo == hi == +inf`).
  static std::vector<std::pair<Scalar, Scalar>> SliceIntervals(
      const std::vector<Slice>& slices) {
    std::vector<std::pair<Scalar, Scalar>> out;
    out.reserve(slices.size());
    for (const Slice& s : slices) {
      if (s.size() == 0 || s.lo >= s.hi) continue;
      out.emplace_back(s.lo, s.hi);
    }
    return out;
  }

  /// The crack half of the join descent: refines this index's level list
  /// against the interval `[lo, hi)` — a partner slice's value range,
  /// pre-extended by the combined half extents — through `Visit` with no
  /// query box, so it cracks and median-splits exactly like a query
  /// descent but processes nothing. Must be called on the index that owns
  /// `slices` (it uses that index's array, scratch, and stats shard);
  /// `threshold` is the join thresholds of the extent class the slices
  /// belong to (`JoinThresholds`).
  void RefineForJoin(std::vector<Slice>* slices, Scalar lo, Scalar hi,
                     const Thresholds& threshold) {
    const int d = slices->front().level;
    Box<D> ext = Box<D>::Infinite();
    ext.lo[d] = lo;
    ext.hi[d] = hi;
    Visit(slices, threshold, ext, /*descend=*/false);
  }

  /// One level of the lockstep join descent over two slice lists (of this
  /// index and `other`; for a self-join both may be the *same* list).
  /// First each side is cracked against a pre-refinement snapshot of the
  /// other side's slice intervals — the snapshot keeps the cross-refinement
  /// from chasing the partner's freshly carved slices, and makes the
  /// self-join refine once instead of twice. Then every overlapping slice
  /// pair is walked once: inner pairs descend into their child lists, leaf
  /// pairs are scanned where the walk finds them (`LeafJoinScan`). Two
  /// slices can hold intersecting objects only when their value intervals
  /// come within the class pair's summed half extents `h` of each other — and
  /// `sa.hi > sb.lo - h && sb.hi > sa.lo - h` is false for the parked dead
  /// slices (`lo == hi == +inf`), so they are skipped for free. On a
  /// self-join over one list the inner walk starts at `j = i`: the pair
  /// (slice_i, slice_j) already covers both orientations after the
  /// emitter's normalization, so `j < i` would only produce duplicates.
  void JoinVisit(QuasiiIndex<D>* other, const JoinClassPair& pair,
                 std::vector<Slice>* mine, std::vector<Slice>* theirs,
                 JoinEmitter& emit) {
    if (mine->empty() || theirs->empty()) return;
    const int d = mine->front().level;
    const Scalar h = pair.h[d];
    const bool same_list = (mine == theirs);
    const std::vector<std::pair<Scalar, Scalar>> their_iv =
        SliceIntervals(*theirs);
    if (!same_list) {
      const std::vector<std::pair<Scalar, Scalar>> my_iv =
          SliceIntervals(*mine);
      for (const auto& iv : their_iv) {
        RefineForJoin(mine, iv.first - h, iv.second + h, pair.mine);
      }
      for (const auto& iv : my_iv) {
        other->RefineForJoin(theirs, iv.first - h, iv.second + h,
                             pair.theirs);
      }
    } else {
      for (const auto& iv : their_iv) {
        RefineForJoin(mine, iv.first - h, iv.second + h, pair.mine);
      }
    }
    for (std::size_t i = 0; i < mine->size(); ++i) {
      Slice& sa = (*mine)[i];
      if (sa.size() == 0) continue;
      for (std::size_t j = same_list ? i : 0; j < theirs->size(); ++j) {
        Slice& sb = (*theirs)[j];
        if (sb.size() == 0) continue;
        if (!(sa.hi > sb.lo - h && sb.hi > sa.lo - h)) continue;
        ++this->Stats().partitions_visited;
        if (d == D - 1) {
          LeafJoinScan(other, sa, sb, &emit);
        } else {
          EnsureChild(&sa);
          other->EnsureChild(&sb);
          JoinVisit(other, pair, &sa.children, &sb.children, emit);
        }
      }
    }
  }

  /// Scans one leaf-slice pair on the calling thread: each live row of this
  /// side's slice streams through the partner slice's bound columns
  /// (`StreamScan` is the exact box-intersection filter and skips the
  /// partner's tombstones itself), and every match goes to `emit`. A pure
  /// read: at the leaf level `RefineForJoin` has already run.
  void LeafJoinScan(QuasiiIndex<D>* other, const Slice& sa, const Slice& sb,
                    JoinEmitter* emit) {
    QueryStats& st = this->Stats();
    PairListSink sink(emit);
    MatchEmitter me(/*count_only=*/false, &sink);
    for (std::size_t r = sa.begin; r < sa.end; ++r) {
      if (!array_.live(r)) continue;
      sink.set_left(array_.id(r));
      st.objects_tested += sb.size();
      const Box<D> probe = array_.box(r);
      st.bytes_scanned += other->array_.StreamScan(
          sb.begin, sb.end, probe, RangePredicate::kIntersects,
          /*covered_dims=*/0u, &me);
    }
  }

  /// Tombstone count below which compaction is never worth an O(n) rebuild.
  static constexpr std::size_t kMinCompactTombstones = 64;
  /// Slices below this size hand no half to a task even when the scheduler
  /// has workers — a scheduling cutoff only, the split sequence (and so
  /// layout and counters) is identical either way.
  static constexpr std::size_t kParallelSplitMin = std::size_t{1} << 14;

  Params params_;
  bool initialized_ = false;
  /// Shared structure-of-arrays cracking core (ids, bounds, live).
  CrackArray<D> array_;
  /// The extent classes, in increasing `bound` order (at least one once
  /// initialized). Each class's half extents widen the queries that
  /// descend its slices; see `ExtentClass`.
  std::vector<ExtentClass> classes_;
  /// Start row of every promoted group, oldest first (`AbsorbPending`).
  /// Transient: (re)initialization and structure restores clear it, and a
  /// restored index folds only the tails promoted after the restore.
  std::vector<std::size_t> fold_stack_;
  /// Size bucket → class (`ClassOf`), rebuilt whenever the classes are.
  std::array<std::uint8_t, kBuckets> class_of_bucket_{};
  /// Reusable buffers: `SplitToThreshold`'s worklist (never live across a
  /// descend) and per-level scratch for `Refine` output / `Visit` rebuilds
  /// (a level's buffer is only reused by the next same-level call, after the
  /// previous contents were consumed).
  std::vector<Slice> split_stack_;
  std::array<std::vector<Slice>, D> refine_scratch_;
  std::array<std::vector<Slice>, D> visit_scratch_;
};

}  // namespace quasii

#endif  // QUASII_QUASII_QUASII_INDEX_H_
