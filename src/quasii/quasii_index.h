#ifndef QUASII_QUASII_QUASII_INDEX_H_
#define QUASII_QUASII_QUASII_INDEX_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
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
/// leaf (level D-1) threshold is `tau` and each level above is allowed
/// `rho = (n / tau)^(1/D)` times more, so `D` refinements take a slice from
/// `n` down to `tau`.
///
/// Extended objects use the query-extension strategy [40], exactly like
/// `SfcrackerIndex`: an entry is keyed by its MBB centre, queries are
/// extended by half the maximum object extent per dimension, and candidates
/// are filtered against the original query box.
///
/// Storage is the shared structure-of-arrays `CrackArray` core: cracks and
/// median splits compare precomputed 4-byte keys instead of loading whole
/// entry structs, and leaf scans are `CrackArray::StreamScan` — branchless
/// vectorizable passes over the per-dimension bound columns that stream the
/// survivors straight into the query's `Sink`.
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
///  - inserts land in the crack array's unsorted pending tail; the next
///    query promotes the tail to a root-level slice with open value bounds
///    (consecutive promotions merge while the previous one is still
///    unrefined), which subsequent queries crack down lazily exactly like
///    initial data — an insert itself never cracks anything;
///  - erases tombstone the object's row in place (O(1) via the id → row
///    map); leaf scans skip tombstones branchlessly through the live mask,
///    refinement sweeps the dead rows of a cracked slice aside in passing,
///    and once tombstones exceed a quarter of the array the whole structure
///    is rebuilt from the live set;
///  - both mutations re-derive the per-level size thresholds from the live
///    count, so the slice hierarchy's geometric progression keeps tracking
///    the population as it grows and shrinks.
///
/// Concurrency (the `SpatialIndex` contract): warm-up queries serialize on
/// the exclusive lock while they crack; once `ConvergedFor` observes that a
/// query's descent touches only within-threshold or frozen slices — and no
/// pending tail or compaction is due — that query runs under the shared
/// lock with any number of peers, since converged leaf scans write only
/// thread-local scratch and the caller's stats shard.
template <int D>
class QuasiiIndex final : public SpatialIndex<D> {
 public:
  struct Params {
    /// Maximum size of a level-(D-1) slice before it is scanned (the paper's
    /// tau, ~1000).
    std::size_t leaf_threshold = 1024;
  };

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

  explicit QuasiiIndex(const Dataset<D>& data, const Params& params = Params{})
      : SpatialIndex<D>(data), params_(params) {}

  std::string_view name() const override { return "QUASII"; }

  /// Incremental index: `Build()` is a no-op; all work happens at query
  /// time.
  void Build() override {}

  /// Structural accessors for tests and analyses.
  const std::vector<Slice>& root_slices() const { return root_; }
  const CrackArray<D>& array() const { return array_; }
  std::size_t LevelThreshold(int level) const {
    return threshold_[static_cast<std::size_t>(level)];
  }
  bool initialized() const { return initialized_; }

  /// Per-row column bytes: keys, lo/hi bounds, id and live byte.
  typename SpatialIndex<D>::ColumnMemory column_memory() const override {
    constexpr std::uint64_t kRow =
        static_cast<std::uint64_t>(D) * (3 * sizeof(Scalar)) +
        sizeof(ObjectId) + 1;
    return {static_cast<std::uint64_t>(array_.size()) * kRow, 0};
  }

  /// Kept only because `qbench/` reads it; goes in the next benchmark change.
  static constexpr bool PackingEnabled() { return false; }

  /// Snapshot structure blob: the crack-array columns plus the slice
  /// hierarchy, so a recovered index resumes exactly as converged as it
  /// was — a replayed query workload cracks nothing.
  bool SerializeStructure(ByteWriter& w) const override {
    w.U8(initialized_ ? 1 : 0);
    if (!initialized_) return true;
    array_.EncodeTo(&w);
    for (int d = 0; d < D; ++d) w.F(half_extent_[d]);
    EncodeSlices(root_, &w);
    return true;
  }

  bool DeserializeStructure(std::string_view bytes) override {
    ByteReader r(bytes);
    const bool init = r.U8() != 0;
    if (!r.ok()) return false;
    if (!init) {
      // Captured before the first query: stay lazy, initialize on demand.
      RebuildFromStore();
      return r.remaining() == 0;
    }
    if (!array_.DecodeFrom(&r)) return false;
    for (int d = 0; d < D; ++d) half_extent_[d] = r.F();
    root_.clear();
    if (!DecodeSlices(&r, /*level=*/0, array_.size(), &root_) || !r.ok() ||
        r.remaining() != 0) {
      RebuildFromStore();  // leave no half-decoded structure behind
      return false;
    }
    ComputeThresholds(LiveRows());
    initialized_ = true;
    return true;
  }

  void RebuildFromStore() override {
    initialized_ = false;
    array_.Clear();
    root_.clear();
    half_extent_ = Point<D>{};
  }

  /// Extends the store check with crack-array column agreement, the
  /// live-row ↔ store bijection (every live row's id is alive and its
  /// columns match the store's box bit-for-bit), slice-range tiling, and
  /// key containment in every slice's value interval.
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
        if (array_.key(d, i) != CrackArray<D>::CenterKey(b, d) ||
            array_.lo_col(d)[i] != b.lo[d] || array_.hi_col(d)[i] != b.hi[d]) {
          if (why) *why = "quasii: row columns disagree with the store box";
          return false;
        }
      }
    }
    if (live_rows != this->store_.live_count()) {
      if (why) *why = "quasii: live rows != store live count";
      return false;
    }
    if (threshold_ != ThresholdsFor(LiveRows(), params_.leaf_threshold)) {
      if (why) *why = "quasii: thresholds not derived from the live count";
      return false;
    }
    // The pending tail is structure-less by definition; slices must tile
    // the structured prefix exactly.
    return CheckSlices(root_, 0, array_.pending_begin(), 0, why);
  }

  /// A query is converged — safe to execute concurrently under the shared
  /// lock — when nothing about its execution can reorganize: the array is
  /// initialized, has no pending tail to promote and no compaction due,
  /// and a read-only replay of the descent touches only slices that are
  /// within their level threshold or frozen, and (above the leaf level)
  /// already have children to descend into. kNN stays conservative: its
  /// expanding ring probes regions the triggering query never names. A
  /// join touches the whole structure and cracks wherever the partner has
  /// slice bounds, so it replays an unbounded descent: only full
  /// convergence guarantees a join is a pure read of this side.
  bool ConvergedFor(const Query<D>& query) const override {
    if (!initialized_) return false;
    if (query.type() == QueryType::kKNearest) return false;
    if (array_.pending_count() > 0) return false;
    const std::size_t dead = array_.tombstones();
    if (dead >= kMinCompactTombstones && dead * 4 >= array_.size()) {
      return false;  // the next ExecuteBox will compact
    }
    if (array_.empty()) return true;
    if (query.type() == QueryType::kJoin) {
      return SlicesConverged(root_, Box<D>::Infinite());
    }
    const Box<D> box = DescentBox(query);
    if (box.IsEmpty()) return true;
    Box<D> ext;
    for (int d = 0; d < D; ++d) {
      ext.lo[d] = box.lo[d] - half_extent_[d];
      ext.hi[d] = std::nextafter(box.hi[d] + half_extent_[d],
                                 std::numeric_limits<Scalar>::infinity());
    }
    return SlicesConverged(root_, ext);
  }

 protected:
  /// Inserts never reorganize: the new row joins the pending tail and the
  /// next query drains it through the normal refinement machinery.
  void OnInsert(ObjectId id, const Box<D>& box) override {
    if (!initialized_) return;  // Initialize() reads the store wholesale
    array_.Append(id, box);
    for (int d = 0; d < D; ++d) {
      half_extent_[d] = std::max(half_extent_[d], box.Extent(d) / 2);
    }
    ComputeThresholds(LiveRows());
  }

  /// Erases tombstone in place; scans skip the row branchlessly until a
  /// refinement sweeps it aside or a compaction reclaims it.
  void OnErase(ObjectId id) override {
    if (!initialized_) return;
    array_.EraseId(id);
    ComputeThresholds(LiveRows());
  }

  void ExecuteBox(const Box<D>& q, RangePredicate predicate, bool count_only,
                  Sink& sink) override {
    PrepareArray();
    if (array_.empty()) return;
    // Half-open extended query: `[lo, hi)` per dimension covers every centre
    // key of an object whose MBB can intersect `q` (centre-based assignment
    // plus half the maximum extent on both sides). Containment predicates
    // imply intersection, so the same descent generates their candidates.
    Box<D> ext;
    for (int d = 0; d < D; ++d) {
      ext.lo[d] = q.lo[d] - half_extent_[d];
      ext.hi[d] = std::nextafter(q.hi[d] + half_extent_[d],
                                 std::numeric_limits<Scalar>::infinity());
    }
    MatchEmitter emit(count_only, &sink);
    TaskScheduler& exec = IntraQueryScheduler();
    std::vector<LeafScanJob> jobs;
    const BoxExec ctx{&q, predicate, &emit, exec.parallel() ? &jobs : nullptr};
    Visit(&root_, ctx, ext, 0u);
    if (!jobs.empty()) RunLeafScans(jobs, ctx, &exec);
    emit.Flush();
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
  /// index-nested-loop (whose probes still crack this side). Self-joins
  /// descend the one hierarchy against itself; pair canonicalization
  /// (unordered-once, no diagonal) lives in the emitter's flush.
  void ExecuteJoin(SpatialIndex<D>& other_base, JoinEmitter& emit) override {
    auto* other = dynamic_cast<QuasiiIndex<D>*>(&other_base);
    if (other == nullptr) {
      SpatialIndex<D>::ExecuteJoin(other_base, emit);
      return;
    }
    PrepareArray();
    if (other != this) other->PrepareArray();
    if (array_.empty() || other->array_.empty()) return;
    JoinVisit(other, &root_, &other->root_, emit);
  }

 private:
  /// One leaf scan deferred for morsel-parallel execution. Captured BY
  /// VALUE during the descent — `Slice` pointers dangle the moment a later
  /// refinement rebuilds a slice list, but the row range of a processed
  /// leaf never moves within one query (subsequent refinements reorganize
  /// only other, disjoint ranges), so (begin, end, covered) is all a scan
  /// needs.
  struct LeafScanJob {
    std::size_t begin = 0;
    std::size_t end = 0;
    unsigned covered = 0;
  };

  /// Box-execution context (see `SpatialIndex::ExecuteBox` for the shared
  /// contract); threaded through the recursive slice descent. When `jobs`
  /// is non-null (intra-query workers available), leaf scans are recorded
  /// there in visit order instead of executing inline, and run after the
  /// descent completes.
  struct BoxExec {
    const Box<D>* q;
    RangePredicate predicate;
    MatchEmitter* emit;
    std::vector<LeafScanJob>* jobs = nullptr;
  };

  /// Adapts a partner-slice `StreamScan` into join pairs: every id the scan
  /// emits pairs with the currently fixed left-side object.
  class LeftFixedSink final : public Sink {
   public:
    explicit LeftFixedSink(JoinEmitter* emit) : emit_(emit) {}
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

  /// `LeftFixedSink`'s task-local twin: collects (left, id) pairs into a
  /// plain buffer instead of an emitter, so parallel leaf-pair walks stay
  /// off the shared `JoinEmitter` until their deterministic merge.
  class PairListSink final : public Sink {
   public:
    explicit PairListSink(std::vector<std::pair<ObjectId, ObjectId>>* out)
        : out_(out) {}
    void set_left(ObjectId left) { left_ = left; }
    void Emit(ObjectId id) override { out_->emplace_back(left_, id); }
    void EmitRun(const ObjectId* ids, std::size_t n) override {
      for (std::size_t i = 0; i < n; ++i) out_->emplace_back(left_, ids[i]);
    }
    void AddMatches(std::uint64_t) override {}

   private:
    std::vector<std::pair<ObjectId, ObjectId>>* out_;
    ObjectId left_ = 0;
  };

  /// The shared entry ritual of every reorganizing execution: first-query
  /// initialization, tombstone compaction when due, and promotion of the
  /// pending insert tail into the slice hierarchy. A no-op (pure read) when
  /// `ConvergedFor` already approved the triggering query.
  void PrepareArray() {
    if (!initialized_) Initialize();
    MaybeCompact();
    AbsorbPending();
  }

  /// Read-only replay of `Visit`'s routing decisions: false as soon as some
  /// touched slice would be refined or would materialize a first child.
  bool SlicesConverged(const std::vector<Slice>& slices,
                       const Box<D>& ext) const {
    for (const Slice& s : slices) {
      const int d = s.level;
      if (s.size() == 0 || s.lo >= ext.hi[d] || s.hi <= ext.lo[d]) continue;
      if (s.size() > threshold_[static_cast<std::size_t>(d)] && !s.frozen) {
        return false;
      }
      if (d == D - 1) continue;
      if (s.children.empty()) return false;
      if (!SlicesConverged(s.children, ext)) return false;
    }
    return true;
  }

  std::size_t LiveRows() const {
    return array_.size() - array_.tombstones();
  }

  /// First-query (and compaction) work: build the structure-of-arrays
  /// columns from the live object set and derive the per-level thresholds
  /// and the query-extension amounts.
  void Initialize() {
    array_.Clear();
    half_extent_ = Point<D>{};
    this->store_.ForEachLive([this](ObjectId id, const Box<D>& b) {
      array_.Append(id, b);
      for (int d = 0; d < D; ++d) {
        half_extent_[d] = std::max(half_extent_[d], b.Extent(d) / 2);
      }
    });
    array_.SealPending();
    ComputeThresholds(array_.size());
    root_.clear();
    Slice root;
    root.level = 0;
    root.begin = 0;
    root.end = array_.size();
    root.lo = -std::numeric_limits<Scalar>::infinity();
    root.hi = std::numeric_limits<Scalar>::infinity();
    root_.push_back(std::move(root));
    initialized_ = true;
  }

  /// Rebuilds from the live set once tombstones dominate: the one O(n)
  /// reclamation backing the otherwise in-passing compaction.
  void MaybeCompact() {
    const std::size_t dead = array_.tombstones();
    if (dead < kMinCompactTombstones || dead * 4 < array_.size()) return;
    this->Stats().objects_moved += LiveRows();
    Initialize();
  }

  /// Drains the pending tail into the slice hierarchy: the tail becomes a
  /// root-level slice with open value bounds that queries refine lazily,
  /// exactly like initial data. While the previously promoted slice is
  /// still unrefined (open bounds, no cracks, no children) the new tail
  /// merges into it, so insert-heavy phases cannot grow the root list by
  /// one slice per query.
  void AbsorbPending() {
    const std::size_t begin = array_.pending_begin();
    const std::size_t end = array_.size();
    if (begin == end) return;
    constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
    if (!root_.empty()) {
      Slice& last = root_.back();
      if (last.end == begin && last.children.empty() && !last.frozen &&
          last.lo == -kInf && last.hi == kInf) {
        last.end = end;
        array_.SealPending();
        return;
      }
    }
    Slice tail;
    tail.level = 0;
    tail.begin = begin;
    tail.end = end;
    tail.lo = -kInf;
    tail.hi = kInf;
    root_.push_back(std::move(tail));
    array_.SealPending();
  }

  static std::array<std::size_t, D> ThresholdsFor(std::size_t n,
                                                  std::size_t leaf_threshold) {
    std::array<std::size_t, D> out{};
    const double tau = static_cast<double>(leaf_threshold);
    const double rho = n > leaf_threshold
                           ? std::pow(static_cast<double>(n) / tau, 1.0 / D)
                           : 1.0;
    double t = tau;
    for (int d = D - 1; d >= 0; --d) {
      out[static_cast<std::size_t>(d)] =
          static_cast<std::size_t>(std::ceil(t));
      t *= rho;
    }
    return out;
  }

  void ComputeThresholds(std::size_t n) {
    threshold_ = ThresholdsFor(n, params_.leaf_threshold);
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

  /// Structural slice-tree validation: a sibling list tiles `[begin, end)`
  /// contiguously and in position order; children sit one level deeper and
  /// tile their parent; every row of a slice has its key inside the
  /// slice's value interval — except the parked-dead slices
  /// (`lo == hi == +inf`), which must hold only tombstoned rows.
  bool CheckSlices(const std::vector<Slice>& slices, std::size_t begin,
                   std::size_t end, int level, std::string* why) const {
    constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
    std::size_t pos = begin;
    for (const Slice& s : slices) {
      if (s.level != level || s.begin != pos || s.end < s.begin ||
          s.end > end) {
        if (why) *why = "quasii: slice list does not tile its range";
        return false;
      }
      pos = s.end;
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
      if (!s.children.empty() &&
          !CheckSlices(s.children, s.begin, s.end, level + 1, why)) {
        return false;
      }
      if (!s.children.empty() &&
          (s.children.front().begin != s.begin ||
           s.children.back().end != s.end)) {
        if (why) *why = "quasii: children do not cover their parent";
        return false;
      }
    }
    if (pos != end) {
      if (why) *why = "quasii: slice list does not cover its range";
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
  /// When the array carries tombstones, the dead rows of the slice are
  /// first swept behind the live ones and parked in a frozen slice whose
  /// empty value interval (`lo == hi == +inf`) no traversal ever enters —
  /// cracking compacts erased objects out of the hot range in passing.
  std::vector<Slice>& Refine(Slice s, const Box<D>& ext) {
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
    SplitToThreshold(std::move(s), &out);
    if (have_right) out.push_back(std::move(right));
    if (have_dead) out.push_back(std::move(dead));
    return out;
  }

  /// Halves a slice at its median key until every piece is at most the level
  /// threshold. Serial executions run the iterative worklist; with intra-
  /// query workers, large slices fan out as a recursive task tree whose two
  /// halves split concurrently (disjoint row ranges, so the median splits
  /// never touch the same rows). Which splits happen — and therefore the
  /// crack counters and the physical layout — depends only on the data, not
  /// on the worker count: both paths perform the identical split sequence,
  /// the parallel one merely re-orders the wall-clock and buffers the right
  /// half so pieces still emit in left-to-right order. A run of identical
  /// keys that cannot be halved is frozen and accepted oversized (it can
  /// still be sliced in later dimensions).
  void SplitToThreshold(Slice s, std::vector<Slice>* out) {
    if (s.size() == 0) return;
    TaskScheduler& exec = IntraQueryScheduler();
    if (exec.parallel() && s.size() >= kParallelSplitMin) {
      QueryStats local;
      SplitRecursive(std::move(s), out, &local, &exec);
      this->Stats().cracks += local.cracks;
      this->Stats().objects_moved += local.objects_moved;
      return;
    }
    SplitIterative(std::move(s), out, &this->Stats(), &split_stack_);
  }

  /// The classic worklist form (left-to-right emission, no recursion).
  /// Counters land in `st` so parallel tasks can accumulate task-locally
  /// and merge into the caller's shard afterwards; `stack` is caller-owned
  /// because the member worklist cannot be shared across concurrent tasks.
  void SplitIterative(Slice s, std::vector<Slice>* out, QueryStats* st,
                      std::vector<Slice>* stack) {
    const int d = s.level;
    const std::size_t limit = threshold_[static_cast<std::size_t>(d)];
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
      // LIFO: push the right half first so the left half is processed (and
      // emitted) before it.
      stack->push_back(std::move(rest));
      stack->push_back(std::move(left));
    }
  }

  /// Task-tree form: splits at the median, forks the right half onto the
  /// scheduler, recurses into the left inline, then appends the right
  /// half's buffered pieces — so the emitted order equals the iterative
  /// worklist's. Small subranges drop back to `SplitIterative` with a local
  /// stack, bounding the recursion depth at log2(n / kParallelSplitMin).
  void SplitRecursive(Slice t, std::vector<Slice>* out, QueryStats* st,
                      TaskScheduler* exec) {
    const int d = t.level;
    const std::size_t limit = threshold_[static_cast<std::size_t>(d)];
    if (t.size() <= limit) {
      out->push_back(std::move(t));
      return;
    }
    if (t.size() < kParallelSplitMin) {
      std::vector<Slice> stack;
      SplitIterative(std::move(t), out, st, &stack);
      return;
    }
    const auto split = array_.MedianSplit(t.begin, t.end, d);
    ++st->cracks;
    st->objects_moved += t.size();
    if (split.frozen) {
      t.frozen = true;
      out->push_back(std::move(t));
      return;
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
    std::vector<Slice> right_out;
    QueryStats right_stats;
    {
      TaskScheduler::Group g(exec);
      g.Run([this, rest, &right_out, &right_stats, exec]() mutable {
        SplitRecursive(std::move(rest), &right_out, &right_stats, exec);
      });
      SplitRecursive(std::move(left), out, st, exec);
      g.Wait();
    }
    st->cracks += right_stats.cracks;
    st->objects_moved += right_stats.objects_moved;
    for (Slice& piece : right_out) out->push_back(std::move(piece));
  }

  /// Walks one level's slice list: skips slices outside the query, refines
  /// oversized touched slices, and descends (or scans, at the leaf level)
  /// the rest. Refinement pieces are stitched into a rebuilt list in one
  /// pass instead of `erase`+`insert` splicing, so a query that cracks k
  /// slices costs one O(list) rebuild, not k of them.
  void Visit(std::vector<Slice>* slices, const BoxExec& ctx, const Box<D>& ext,
             unsigned covered) {
    const int d = slices->front().level;
    std::vector<Slice>& rebuilt = visit_scratch_[static_cast<std::size_t>(d)];
    bool rebuilding = false;
    for (std::size_t i = 0; i < slices->size(); ++i) {
      Slice& s = (*slices)[i];
      const bool outside =
          s.size() == 0 || s.lo >= ext.hi[d] || s.hi <= ext.lo[d];
      if (!outside && s.size() > threshold_[static_cast<std::size_t>(d)] &&
          !s.frozen) {
        if (!rebuilding) {
          rebuilding = true;
          rebuilt.clear();
          rebuilt.reserve(slices->size() + 8);
          for (std::size_t j = 0; j < i; ++j) {
            rebuilt.push_back(std::move((*slices)[j]));
          }
        }
        std::vector<Slice>& pieces = Refine(std::move(s), ext);
        for (Slice& piece : pieces) {
          Process(&piece, ctx, ext, covered);
          rebuilt.push_back(std::move(piece));
        }
      } else {
        if (!outside) Process(&s, ctx, ext, covered);
        if (rebuilding) rebuilt.push_back(std::move(s));
      }
    }
    if (rebuilding) {
      slices->swap(rebuilt);
      rebuilt.clear();  // drop the moved-from originals, keep the capacity
    }
  }

  /// Handles one within-threshold (or frozen) slice that may overlap the
  /// query: scans it at the leaf level, descends otherwise. `covered` is the
  /// bitmask of dimensions whose slice value range lies inside the query's
  /// own interval — every centre key there is inside `q`, which (as
  /// `box.lo <= centre <= box.hi`) already proves the box overlaps `q` in
  /// that dimension, so the leaf scan skips its bound test (intersection
  /// predicate only; `StreamScan` ignores the mask for containment).
  void Process(Slice* s, const BoxExec& ctx, const Box<D>& ext,
               unsigned covered) {
    const int d = s->level;
    if (s->size() == 0 || s->lo >= ext.hi[d] || s->hi <= ext.lo[d]) return;
    if (ctx.q->lo[d] <= s->lo && s->hi <= ctx.q->hi[d]) covered |= 1u << d;
    ++this->Stats().partitions_visited;
    if (d == D - 1) {
      this->Stats().objects_tested += s->size();
      if (ctx.jobs != nullptr) {
        ctx.jobs->push_back(LeafScanJob{s->begin, s->end, covered});
        return;
      }
      this->Stats().bytes_scanned += array_.StreamScan(
          s->begin, s->end, *ctx.q, ctx.predicate, covered, ctx.emit);
      return;
    }
    EnsureChild(s);
    Visit(&s->children, ctx, ext, covered);
  }

  /// Executes the deferred leaf scans morsel-parallel: consecutive jobs are
  /// batched until a batch holds at least a grain of rows, every batch runs
  /// the normal `StreamScan` kernels into its own per-job buffer on some
  /// worker, and the buffers drain into the query's emitter in CAPTURE
  /// (= visit) order — so the sink observes the byte-identical id stream a
  /// serial execution produces, and count-only runs the identical total.
  /// Byte counters accumulate per job and merge into the caller's shard
  /// here; the tasks never touch index stats.
  void RunLeafScans(const std::vector<LeafScanJob>& jobs, const BoxExec& ctx,
                    TaskScheduler* exec) {
    struct JobOut {
      std::vector<ObjectId> ids;
      std::uint64_t count = 0;
      std::uint64_t bytes = 0;
    };
    std::vector<JobOut> results(jobs.size());
    const bool count_only = ctx.emit->count_only();
    std::vector<std::size_t> starts;
    starts.push_back(0);
    std::size_t rows = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      rows += jobs[i].end - jobs[i].begin;
      if (rows >= MorselGrain() && i + 1 < jobs.size()) {
        starts.push_back(i + 1);
        rows = 0;
      }
    }
    {
      TaskScheduler::Group g(exec);
      for (std::size_t b = 0; b < starts.size(); ++b) {
        const std::size_t jb = starts[b];
        const std::size_t je =
            b + 1 < starts.size() ? starts[b + 1] : jobs.size();
        g.Run([this, &jobs, &results, &ctx, count_only, jb, je] {
          for (std::size_t j = jb; j < je; ++j) {
            const LeafScanJob& job = jobs[j];
            JobOut& out = results[j];
            if (count_only) {
              CountSink cs;
              MatchEmitter me(/*count_only=*/true, &cs);
              out.bytes = array_.StreamScan(job.begin, job.end, *ctx.q,
                                            ctx.predicate, job.covered, &me);
              me.Flush();
              out.count = cs.count();
            } else {
              VectorSink vs(&out.ids);
              MatchEmitter me(/*count_only=*/false, &vs);
              out.bytes = array_.StreamScan(job.begin, job.end, *ctx.q,
                                            ctx.predicate, job.covered, &me);
            }
          }
        });
      }
      g.Wait();
    }
    for (JobOut& out : results) {
      if (count_only) {
        ctx.emit->AddAnonymous(out.count);
      } else if (!out.ids.empty()) {
        ctx.emit->AddRun(out.ids.data(), out.ids.size());
      }
      this->Stats().bytes_scanned += out.bytes;
    }
  }

  /// Materializes a non-leaf slice's single open child (the lazy first
  /// level-(d+1) slice covering the whole range) if none exists yet. Only
  /// reorganizing (exclusive-lock) executions ever create one —
  /// `ConvergedFor` declines any query whose descent reaches a childless
  /// non-leaf.
  void EnsureChild(Slice* s) {
    if (!s->children.empty()) return;
    Slice child;
    child.level = s->level + 1;
    child.begin = s->begin;
    child.end = s->end;
    child.lo = -std::numeric_limits<Scalar>::infinity();
    child.hi = std::numeric_limits<Scalar>::infinity();
    s->children.push_back(std::move(child));
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
  /// pre-extended by the combined half extents — exactly like a query
  /// descent would (crack at the interval bounds, median-split the covered
  /// middle to threshold), but without scanning anything. Must be called on
  /// the index that owns `slices` (it uses that index's array, thresholds,
  /// scratch, and stats shard).
  void RefineForJoin(std::vector<Slice>* slices, Scalar lo, Scalar hi) {
    if (slices->empty()) return;
    const int d = slices->front().level;
    Box<D> ext = Box<D>::Infinite();
    ext.lo[d] = lo;
    ext.hi[d] = hi;
    std::vector<Slice>& rebuilt = visit_scratch_[static_cast<std::size_t>(d)];
    bool rebuilding = false;
    for (std::size_t i = 0; i < slices->size(); ++i) {
      Slice& s = (*slices)[i];
      const bool outside = s.size() == 0 || s.lo >= hi || s.hi <= lo;
      if (!outside && s.size() > threshold_[static_cast<std::size_t>(d)] &&
          !s.frozen) {
        if (!rebuilding) {
          rebuilding = true;
          rebuilt.clear();
          rebuilt.reserve(slices->size() + 8);
          for (std::size_t j = 0; j < i; ++j) {
            rebuilt.push_back(std::move((*slices)[j]));
          }
        }
        std::vector<Slice>& pieces = Refine(std::move(s), ext);
        for (Slice& piece : pieces) {
          rebuilt.push_back(std::move(piece));
        }
      } else if (rebuilding) {
        rebuilt.push_back(std::move(s));
      }
    }
    if (rebuilding) {
      slices->swap(rebuilt);
      rebuilt.clear();  // drop the moved-from originals, keep the capacity
    }
  }

  /// One level of the lockstep join descent over two slice lists (of this
  /// index and `other`; for a self-join both may be the *same* list).
  /// First each side is cracked against a pre-refinement snapshot of the
  /// other side's slice intervals — the snapshot keeps the cross-refinement
  /// from chasing the partner's freshly carved slices, and makes the
  /// self-join refine once instead of twice. Then every overlapping slice
  /// pair is walked: leaf pairs scan, inner pairs descend into their child
  /// lists. Two slices can hold intersecting objects only when their value
  /// intervals come within the combined half extents `h` of each other —
  /// and `sa.hi > sb.lo - h && sb.hi > sa.lo - h` is false for the parked
  /// dead slices (`lo == hi == +inf`), so they are skipped for free. On a
  /// self-join over one list the inner walk starts at `j = i`: the pair
  /// (slice_i, slice_j) already covers both orientations after the
  /// emitter's normalization, so `j < i` would only produce duplicates.
  void JoinVisit(QuasiiIndex<D>* other, std::vector<Slice>* mine,
                 std::vector<Slice>* theirs, JoinEmitter& emit) {
    if (mine->empty() || theirs->empty()) return;
    const int d = mine->front().level;
    const Scalar h = half_extent_[d] + other->half_extent_[d];
    const bool same_list = (mine == theirs);
    const std::vector<std::pair<Scalar, Scalar>> their_iv =
        SliceIntervals(*theirs);
    if (!same_list) {
      const std::vector<std::pair<Scalar, Scalar>> my_iv =
          SliceIntervals(*mine);
      for (const auto& iv : their_iv) {
        RefineForJoin(mine, iv.first - h, iv.second + h);
      }
      for (const auto& iv : my_iv) {
        other->RefineForJoin(theirs, iv.first - h, iv.second + h);
      }
    } else {
      for (const auto& iv : their_iv) {
        RefineForJoin(mine, iv.first - h, iv.second + h);
      }
    }
    // Leaf level with intra-query workers: the remaining work is pure
    // scanning over stable slice lists, so collect the overlapping pairs
    // and fan them out. Inner levels keep the serial walk — their loop
    // bodies mutate (EnsureChild, the recursive refinement).
    if (d == D - 1 && IntraQueryScheduler().parallel()) {
      std::vector<std::pair<const Slice*, const Slice*>> pairs;
      for (std::size_t i = 0; i < mine->size(); ++i) {
        const Slice& sa = (*mine)[i];
        if (sa.size() == 0) continue;
        for (std::size_t j = same_list ? i : 0; j < theirs->size(); ++j) {
          const Slice& sb = (*theirs)[j];
          if (sb.size() == 0) continue;
          if (!(sa.hi > sb.lo - h && sb.hi > sa.lo - h)) continue;
          ++this->Stats().partitions_visited;
          pairs.emplace_back(&sa, &sb);
        }
      }
      if (!pairs.empty()) {
        ParallelLeafJoin(other, pairs, emit, &IntraQueryScheduler());
      }
      return;
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
          LeafJoin(other, sa, sb, emit);
        } else {
          EnsureChild(&sa);
          other->EnsureChild(&sb);
          JoinVisit(other, &sa.children, &sb.children, emit);
        }
      }
    }
  }

  /// Scans one leaf-slice pair: each live row of this side's slice streams
  /// through the partner slice's bound columns (`StreamScan` is the exact
  /// box-intersection filter and skips the partner's tombstones itself).
  /// `sink` is either the emitter-backed `LeftFixedSink` (serial path) or a
  /// per-task `PairListSink` (parallel path); counters land in `st` so
  /// tasks accumulate locally.
  template <typename ProbeSink>
  void LeafJoinScan(QuasiiIndex<D>* other, const Slice& sa, const Slice& sb,
                    ProbeSink* sink, QueryStats* st) {
    MatchEmitter me(/*count_only=*/false, sink);
    for (std::size_t r = sa.begin; r < sa.end; ++r) {
      if (!array_.live(r)) continue;
      sink->set_left(array_.id(r));
      st->objects_tested += sb.size();
      const Box<D> probe = array_.box(r);
      st->bytes_scanned += other->array_.StreamScan(
          sb.begin, sb.end, probe, RangePredicate::kIntersects,
          /*covered_dims=*/0u, &me);
    }
  }

  void LeafJoin(QuasiiIndex<D>* other, const Slice& sa, const Slice& sb,
                JoinEmitter& emit) {
    LeftFixedSink sink(&emit);
    LeafJoinScan(other, sa, sb, &sink, &this->Stats());
  }

  /// Walks a batch of leaf pairs per task, each task collecting its pairs
  /// and counters locally; the caller drains the buffers into the real
  /// emitter in pair-capture order and merges the counters into its own
  /// shard. Safe because at the leaf level nothing mutates: `RefineForJoin`
  /// already ran, `LeafJoinScan` is a pure read, and the slice lists (and
  /// so the captured `Slice*`) are stable for the duration of the walk.
  /// Result sets are unaffected by the batching — the emitter canonicalizes
  /// (sorts, dedups) at Flush.
  void ParallelLeafJoin(
      QuasiiIndex<D>* other,
      const std::vector<std::pair<const Slice*, const Slice*>>& pairs,
      JoinEmitter& emit, TaskScheduler* exec) {
    struct TaskOut {
      std::vector<std::pair<ObjectId, ObjectId>> found;
      QueryStats stats;
    };
    // Batch consecutive pairs by probe work (rows scanned ≈ |a| · |b|)
    // until a batch carries enough to amortize its dispatch.
    std::vector<std::size_t> starts;
    starts.push_back(0);
    std::uint64_t work = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      work += static_cast<std::uint64_t>(pairs[i].first->size()) *
              std::max<std::uint64_t>(1, pairs[i].second->size());
      if (work >= kJoinBatchWork && i + 1 < pairs.size()) {
        starts.push_back(i + 1);
        work = 0;
      }
    }
    std::vector<TaskOut> results(starts.size());
    {
      TaskScheduler::Group g(exec);
      for (std::size_t b = 0; b < starts.size(); ++b) {
        const std::size_t pb = starts[b];
        const std::size_t pe =
            b + 1 < starts.size() ? starts[b + 1] : pairs.size();
        g.Run([this, other, &pairs, &results, b, pb, pe] {
          TaskOut& out = results[b];
          PairListSink sink(&out.found);
          for (std::size_t k = pb; k < pe; ++k) {
            LeafJoinScan(other, *pairs[k].first, *pairs[k].second, &sink,
                         &out.stats);
          }
        });
      }
      g.Wait();
    }
    for (TaskOut& out : results) {
      for (const auto& p : out.found) emit.Add(p.first, p.second);
      this->Stats().objects_tested += out.stats.objects_tested;
      this->Stats().bytes_scanned += out.stats.bytes_scanned;
    }
  }

  /// Tombstone count below which compaction is never worth an O(n) rebuild.
  static constexpr std::size_t kMinCompactTombstones = 64;
  /// Slices below this size split via the iterative worklist even when the
  /// scheduler has workers — a scheduling cutoff only, the split sequence
  /// (and so layout and counters) is identical either way.
  static constexpr std::size_t kParallelSplitMin = std::size_t{1} << 14;
  /// Probe work (|a| · |b| row products) batched into one leaf-join task.
  static constexpr std::uint64_t kJoinBatchWork = std::uint64_t{1} << 18;

  Params params_;
  bool initialized_ = false;
  /// Shared structure-of-arrays cracking core (keys, ids, bounds, live).
  CrackArray<D> array_;
  Point<D> half_extent_{};
  std::array<std::size_t, D> threshold_{};
  /// Level-0 slices, ordered by array position (== key order).
  std::vector<Slice> root_;
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
