#ifndef QUASII_SFC_SFC_INDEX_H_
#define QUASII_SFC_SFC_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/dataset.h"
#include "common/mutation_overflow.h"
#include "common/query.h"
#include "common/spatial_index.h"
#include "geometry/box.h"
#include "sfc/zentry.h"
#include "zorder/bigmin.h"
#include "zorder/decompose.h"
#include "zorder/zgrid.h"
#include "zorder/zorder.h"

namespace quasii {

/// How the static SFC index evaluates a range query.
enum class SfcQueryStrategy {
  /// Decompose the query into Z-intervals up front (Tropf–Herzog [43], the
  /// paper's choice) and binary-search each interval.
  kDecompose,
  /// Scan `[zmin, zmax]` and skip non-qualifying gaps with BIGMIN — the
  /// UB-tree style alternative, kept as an ablation.
  kBigMinScan,
};

/// Static one-dimensional index (Section 6.1 "SFC"): objects are mapped to
/// 32-bit Z-codes via a uniform grid over the universe and sorted once in
/// the pre-processing phase; queries are converted to Z-intervals and
/// resolved with binary search plus an intersection filter.
///
/// Mutations use the overflow pattern of the static roster indexes: inserts
/// join a pending list every query scans exhaustively (no Z-coding until
/// the next rebuild), erases of sorted entries flip a per-id dead bit the
/// interval scans skip, and a rebuild re-sorts the live set once either
/// side outgrows its threshold.
template <int D>
class SfcIndex final : public SpatialIndex<D> {
 public:
  struct Params {
    /// Interval budget for the query decomposition (the paper reports ~197
    /// intervals per query on its workloads; the budget caps pathological
    /// cases, excess is absorbed as false positives).
    int max_intervals = 256;
    SfcQueryStrategy strategy = SfcQueryStrategy::kDecompose;
  };

  SfcIndex(const Dataset<D>& data, const Box<D>& universe,
           const Params& params = Params{})
      : SpatialIndex<D>(data), grid_(universe), params_(params) {}
  /// A temporary dataset would be destroyed while the store still reads it.
  SfcIndex(Dataset<D>&&, const Box<D>&, const Params& = Params{}) = delete;

  std::string_view name() const override { return "SFC"; }

  /// Pre-processing: Z-code every live object's centre cell and sort.
  void Build() override {
    const ObjectStore<D>& store = this->store_;
    entries_.clear();
    entries_.reserve(store.live_count());
    half_extent_ = Point<D>{};
    store.ForEachLive([this](ObjectId id, const Box<D>& b) {
      entries_.push_back(ZEntry{grid_.CodeOf(b.Center()), id});
      for (int d = 0; d < D; ++d) {
        half_extent_[d] = std::max(half_extent_[d], b.Extent(d) / 2);
      }
    });
    std::sort(entries_.begin(), entries_.end(),
              [](const ZEntry& a, const ZEntry& b) { return a.code < b.code; });
    overflow_.Reset(store.slots());
    built_ = true;
  }

  const std::vector<ZEntry>& entries() const { return entries_; }

 protected:
  /// The sorted code array is immutable at query time (mutations only touch
  /// the overflow lists, under the exclusive lock), so any query is
  /// concurrent-safe once built.
  bool ReadOnly() const override { return built_; }

  void OnInsert(ObjectId id, const Box<D>&) override {
    if (!built_) return;  // Build() reads the store wholesale
    overflow_.AddPending(id);
    if (overflow_.NeedsRebuild(this->store_.live_count())) Build();
  }

  void OnErase(ObjectId id) override {
    if (!built_) return;
    overflow_.Erase(id);
    if (overflow_.NeedsRebuild(this->store_.live_count())) Build();
  }

  void ExecuteBox(const Box<D>& q, RangePredicate predicate, bool count_only,
                  Sink& sink) override {
    if (!built_) Build();
    // Centre-based assignment: extend by half the max extent per dimension
    // so every intersecting object's centre cell is covered (containment
    // predicates imply intersection, so the candidate set stays valid).
    Box<D> extended = q;
    for (int d = 0; d < D; ++d) {
      extended.lo[d] -= half_extent_[d];
      extended.hi[d] += half_extent_[d];
    }
    typename zorder::ZGrid<D>::Cells lo, hi;
    grid_.CellRect(extended, &lo, &hi);
    MatchEmitter emit(count_only, &sink);
    const BoxExec ctx{&q, predicate, &emit};
    if (params_.strategy == SfcQueryStrategy::kDecompose) {
      QueryDecompose(ctx, lo, hi);
    } else {
      QueryBigMinScan(ctx, lo, hi);
    }
    // Pending objects are not Z-coded yet.
    overflow_.ScanPending(this->store_, q, predicate, &emit, &this->Stats());
    emit.Flush();
  }

  void ExecuteKNearest(const Point<D>& pt, std::size_t k,
                       Sink& sink) override {
    if (!built_) Build();
    this->RingKNearest(pt, k, sink);
  }

 private:
  using Cells = typename zorder::ZGrid<D>::Cells;

  /// Box-execution context (see `SpatialIndex::ExecuteBox` for the shared
  /// contract); threaded through the interval walks instead of a descent.
  struct BoxExec {
    const Box<D>* q;
    RangePredicate predicate;
    MatchEmitter* emit;
  };

  void Scan(const BoxExec& ctx, std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const ObjectId id = entries_[k].id;
      if (overflow_.dead(id)) continue;
      ++this->Stats().objects_tested;
      if (MatchesPredicate(this->store_.box(id), *ctx.q, ctx.predicate)) {
        ctx.emit->Add(id);
      }
    }
  }

  std::size_t LowerBound(zorder::ZCode code) const {
    return static_cast<std::size_t>(
        std::lower_bound(entries_.begin(), entries_.end(), code,
                         [](const ZEntry& e, zorder::ZCode c) {
                           return e.code < c;
                         }) -
        entries_.begin());
  }

  void QueryDecompose(const BoxExec& ctx, const Cells& lo, const Cells& hi) {
    // Thread-local (concurrent queries must not share an index member) and
    // memoized, so back-to-back identical rectangles decompose once.
    const std::vector<zorder::ZInterval>& intervals =
        zorder::DecomposeCached<D>(lo, hi, params_.max_intervals);
    this->Stats().intervals += intervals.size();
    for (const zorder::ZInterval& iv : intervals) {
      ++this->Stats().partitions_visited;
      const std::size_t begin = LowerBound(iv.lo);
      std::size_t end = entries_.size();
      if (iv.hi != std::numeric_limits<zorder::ZCode>::max()) {
        end = LowerBound(iv.hi + 1);
      }
      Scan(ctx, begin, end);
    }
  }

  void QueryBigMinScan(const BoxExec& ctx, const Cells& lo, const Cells& hi) {
    const zorder::ZCode zmin = zorder::ZTraits<D>::Encode(lo);
    const zorder::ZCode zmax = zorder::ZTraits<D>::Encode(hi);
    std::size_t pos = LowerBound(zmin);
    while (pos < entries_.size() && entries_[pos].code <= zmax) {
      const auto cell = zorder::ZTraits<D>::Decode(entries_[pos].code);
      bool in_rect = true;
      for (int d = 0; d < D; ++d) {
        if (cell[static_cast<size_t>(d)] < lo[static_cast<size_t>(d)] ||
            cell[static_cast<size_t>(d)] > hi[static_cast<size_t>(d)]) {
          in_rect = false;
          break;
        }
      }
      if (in_rect) {
        const ObjectId id = entries_[pos].id;
        if (!overflow_.dead(id)) {
          ++this->Stats().objects_tested;
          if (MatchesPredicate(this->store_.box(id), *ctx.q,
                               ctx.predicate)) {
            ctx.emit->Add(id);
          }
        }
        ++pos;
        continue;
      }
      // Gap: jump to the next code inside the query rectangle.
      ++this->Stats().partitions_visited;
      const auto next =
          zorder::BigMin<D>(entries_[pos].code, zmin, zmax);
      if (!next.has_value()) break;
      pos = LowerBound(*next);
    }
  }

  zorder::ZGrid<D> grid_;
  Params params_;
  bool built_ = false;
  std::vector<ZEntry> entries_;
  Point<D> half_extent_{};
  /// Shared mutation-overflow state (pending inserts + sorted-id
  /// tombstones).
  MutationOverflow<D> overflow_;
};

}  // namespace quasii

#endif  // QUASII_SFC_SFC_INDEX_H_
