#ifndef QUASII_SFC_SFCRACKER_INDEX_H_
#define QUASII_SFC_SFCRACKER_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crack_array.h"
#include "common/dataset.h"
#include "common/mutation_overflow.h"
#include "common/query.h"
#include "common/spatial_index.h"
#include "geometry/box.h"
#include "sfc/zentry.h"
#include "zorder/decompose.h"
#include "zorder/zgrid.h"
#include "zorder/zorder.h"

namespace quasii {

/// SFCracker (Section 3.1): database cracking [Idreos et al., 18] applied to
/// spatial data via a Z-order transformation.
///
/// The first query pays the multi-d → 1d transformation (Z-coding every
/// object — the paper measures this at 12.9% of full pre-processing, and the
/// first query at 43% once its cracks are added). Every query is decomposed
/// into Z-intervals (Tropf–Herzog [43]); each interval two-sidedly cracks
/// the code array, exactly like relational cracking on the two interval end
/// points, so one spatial query performs many cracks — the weakness the
/// paper demonstrates (Section 6.3).
///
/// Storage is structure-of-arrays (code column + id column) on the same
/// `CrackPartition` primitive as QUASII's `CrackArray`, so crack comparisons
/// stream through the dense 8-byte code column only.
///
/// Mutations cannot join the cracked code array directly (the boundary map
/// pins every learned position), so inserts overflow into a pending list
/// each query scans exhaustively and erases flip a per-id dead bit the
/// interval scans skip; once either side outgrows its threshold the
/// transformation restarts from the live set (the cracker re-learns its
/// boundaries from subsequent queries, the paper's incremental setting).
template <int D>
class SfcrackerIndex final : public SpatialIndex<D> {
 public:
  struct Params {
    int max_intervals = 256;
  };

  SfcrackerIndex(const Dataset<D>& data, const Box<D>& universe,
                 const Params& params = Params{})
      : SpatialIndex<D>(data), grid_(universe), params_(params) {}
  /// A temporary dataset would be destroyed while the store still reads it.
  SfcrackerIndex(Dataset<D>&&, const Box<D>&, const Params& = {}) = delete;

  std::string_view name() const override { return "SFCracker"; }

  /// Incremental index: `Build()` is a no-op; all work happens inside query
  /// execution.
  void Build() override {}

  /// Rebuild-from-store restore (no structure blob): reset so the next
  /// query re-reads the recovered store wholesale.
  void RebuildFromStore() override { initialized_ = false; }

  /// A box query is converged when its `Read` would not decline: every
  /// Z-interval it decomposes into has both of its crack boundaries
  /// learned. kNN stays conservative: its expanding ring probes regions the
  /// triggering query never names — as do joins, whose nested-loop probes
  /// crack around every partner box.
  bool ConvergedFor(const Query<D>& query) const override {
    if (query.type() == QueryType::kKNearest ||
        query.type() == QueryType::kJoin) {
      return false;
    }
    const Box<D> box = DescentBox(query);
    if (box.IsEmpty()) return initialized_;
    return Read(box, RangePredicate::kIntersects, false, nullptr, nullptr);
  }

 protected:
  void OnInsert(ObjectId id, const Box<D>&) override {
    if (!initialized_) return;  // Initialize() reads the store wholesale
    overflow_.AddPending(id);
    if (overflow_.NeedsRebuild(this->store_.live_count())) Initialize();
  }

  void OnErase(ObjectId id) override {
    if (!initialized_) return;
    overflow_.Erase(id);
    if (overflow_.NeedsRebuild(this->store_.live_count())) Initialize();
  }

  /// The refine pre-pass (`CrackAt` at both boundaries of every interval,
  /// in interval order), then the read, which it leaves nothing to crack.
  void ExecuteBox(const Box<D>& q, RangePredicate predicate, bool count_only,
                  Sink& sink) override {
    if (!initialized_) Initialize();
    for (const zorder::ZInterval& iv : Intervals(q)) {
      CrackAt(iv.lo);
      if (iv.hi != std::numeric_limits<zorder::ZCode>::max()) {
        CrackAt(iv.hi + 1);
      }
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

  /// Expanding-ring kNN over the cracker's own range machinery — each probe
  /// decomposes and cracks, so kNN workloads refine the code array exactly
  /// like range workloads do.
  void ExecuteKNearest(const Point<D>& pt, std::size_t k,
                       Sink& sink) override {
    if (!initialized_) Initialize();
    this->RingKNearest(pt, k, sink);
  }

 public:

  /// Number of crack boundaries learned so far (for tests/analysis).
  std::size_t num_boundaries() const { return boundaries_.size(); }
  /// The cracker index itself (code -> position), for invariant tests.
  const std::map<zorder::ZCode, std::size_t>& boundaries() const {
    return boundaries_;
  }
  const std::vector<zorder::ZCode>& codes() const { return codes_; }
  const std::vector<ObjectId>& ids() const { return ids_; }
  /// AoS view for tests that inspect (code, id) rows together. Materializes
  /// a fresh O(n) copy on every call — named accordingly so nobody holds
  /// pointers or iterators into the temporary.
  std::vector<ZEntry> MaterializeEntries() const {
    std::vector<ZEntry> rows;
    rows.reserve(codes_.size());
    for (std::size_t i = 0; i < codes_.size(); ++i) {
      rows.push_back(ZEntry{codes_[i], ids_[i]});
    }
    return rows;
  }
  bool initialized() const { return initialized_; }

 private:
  /// The Z-intervals `q` decomposes into, after extending it by the
  /// largest half extent (centre-based codes). Thread-local (concurrent
  /// reads must not share an index member) and memoized, so the read after
  /// a refine pre-pass reuses the pre-pass's intervals.
  const std::vector<zorder::ZInterval>& Intervals(const Box<D>& q) const {
    Box<D> extended = q;
    for (int d = 0; d < D; ++d) {
      extended.lo[d] -= half_extent_[d];
      extended.hi[d] += half_extent_[d];
    }
    typename zorder::ZGrid<D>::Cells lo, hi;
    grid_.CellRect(extended, &lo, &hi);
    return zorder::DecomposeCached<D>(lo, hi, params_.max_intervals);
  }

  /// The one read of a box query: plans each interval's row range from the
  /// learned boundaries, then scans the ranges and the pending inserts into
  /// one emitter. Declines (false, nothing counted or emitted) when the
  /// cracker is uninitialized or some boundary is not learned yet. With a
  /// null `sink` it only decides, recording nothing.
  bool Read(const Box<D>& q, RangePredicate predicate, bool count_only,
            Sink* sink, QueryStats* st) const {
    if (!initialized_) return false;
    const std::vector<zorder::ZInterval>& intervals = Intervals(q);
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    ranges.reserve(intervals.size());
    for (const zorder::ZInterval& iv : intervals) {
      const auto begin = boundaries_.find(iv.lo);
      if (begin == boundaries_.end()) return false;
      std::size_t end = codes_.size();
      if (iv.hi != std::numeric_limits<zorder::ZCode>::max()) {
        const auto it = boundaries_.find(iv.hi + 1);
        if (it == boundaries_.end()) return false;
        end = it->second;
      }
      ranges.emplace_back(begin->second, end);
    }
    if (sink == nullptr) return true;
    st->intervals += intervals.size();
    MatchEmitter emit(count_only, sink);
    for (const auto& [begin, end] : ranges) {
      ++st->partitions_visited;
      for (std::size_t k = begin; k < end; ++k) {
        const ObjectId id = ids_[k];
        if (overflow_.dead(id)) continue;
        ++st->objects_tested;
        if (MatchesPredicate(this->store_.box(id), q, predicate)) {
          emit.Add(id);
        }
      }
    }
    // Pending objects are not Z-coded yet.
    overflow_.ScanPending(this->store_, q, predicate, &emit, st);
    emit.Flush();
    return true;
  }

  /// First-query (and mutation-overflow restart) work: the multi- to
  /// one-dimensional transformation over the live set. Learned boundaries
  /// reset; subsequent queries re-crack.
  void Initialize() {
    const ObjectStore<D>& store = this->store_;
    codes_.clear();
    ids_.clear();
    codes_.reserve(store.live_count());
    ids_.reserve(store.live_count());
    half_extent_ = Point<D>{};
    store.ForEachLive([this](ObjectId id, const Box<D>& b) {
      codes_.push_back(grid_.CodeOf(b.Center()));
      ids_.push_back(id);
      for (int d = 0; d < D; ++d) {
        half_extent_[d] = std::max(half_extent_[d], b.Extent(d) / 2);
      }
    });
    boundaries_.clear();
    overflow_.Reset(store.slots());
    initialized_ = true;
  }

  /// Learns the boundary `v`: the position `p` such that `codes_[0, p)`
  /// are < `v` and `codes_[p, n)` are >= `v`, cracking the containing piece
  /// if it is not yet known (incremental quicksort step of [18]).
  void CrackAt(zorder::ZCode v) {
    if (boundaries_.count(v) != 0) return;

    std::size_t piece_lo = 0;
    std::size_t piece_hi = codes_.size();
    const auto next = boundaries_.upper_bound(v);
    if (next != boundaries_.end()) piece_hi = next->second;
    if (next != boundaries_.begin()) piece_lo = std::prev(next)->second;

    const zorder::ZCode* codes = codes_.data();
    const std::size_t pos = CrackPartition(
        [codes](std::size_t i) { return codes[i]; }, piece_lo, piece_hi,
        [v](zorder::ZCode c) { return c < v; },
        [this](std::size_t i, std::size_t j) {
          std::swap(codes_[i], codes_[j]);
          std::swap(ids_[i], ids_[j]);
        });
    boundaries_[v] = pos;
    ++this->Stats().cracks;
    this->Stats().objects_moved += piece_hi - piece_lo;
  }

  zorder::ZGrid<D> grid_;
  Params params_;
  bool initialized_ = false;
  /// Structure-of-arrays cracker storage: Z-code column + id column,
  /// permuted in lockstep by `CrackPartition`.
  std::vector<zorder::ZCode> codes_;
  std::vector<ObjectId> ids_;
  Point<D> half_extent_{};
  /// Cracker index: boundary value -> array position (AVL tree in [18]).
  std::map<zorder::ZCode, std::size_t> boundaries_;
  /// Shared mutation-overflow state (pending inserts + cracked-id
  /// tombstones).
  MutationOverflow<D> overflow_;
};

}  // namespace quasii

#endif  // QUASII_SFC_SFCRACKER_INDEX_H_
