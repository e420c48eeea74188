#ifndef QUASII_GRID_GRID_INDEX_H_
#define QUASII_GRID_GRID_INDEX_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string_view>
#include <vector>

#include "common/dataset.h"
#include "common/mutation_overflow.h"
#include "common/query.h"
#include "common/spatial_index.h"
#include "geometry/box.h"

namespace quasii {

/// How objects are assigned to cells of a space-oriented index (Section 3.2):
/// `kReplication` stores an object in every cell it overlaps (needs
/// de-duplication at query time); `kQueryExtension` stores it only in the
/// cell of its centre and compensates by extending queries with half the
/// maximum object extent [Stefanakis et al., 40].
enum class GridAssignment { kQueryExtension, kReplication };

/// The static uniform grid — the space-oriented counterpart of Mosaic in the
/// paper's evaluation (Section 6.1) and the cheapest-to-build static index.
/// Cells are stored CSR-style: one flat id array plus per-cell offsets.
///
/// Mutations use the overflow pattern shared by the static roster indexes:
/// inserts join a pending list every query scans exhaustively, erases of
/// built objects flip a per-id dead bit the cell scans skip, and once either
/// side outgrows its threshold the CSR directory is rebuilt from the live
/// set.
template <int D>
class GridIndex final : public SpatialIndex<D> {
 public:
  struct Params {
    /// Cells per dimension. The paper sweeps this (100 best for Uniform,
    /// 220 best for Neuro — Fig. 6b shows how data-dependent it is).
    int partitions_per_dim = 100;
    GridAssignment assignment = GridAssignment::kQueryExtension;
  };

  /// Keeps a reference to `data`. `universe` is the box the grid tiles;
  /// objects outside it are clamped into the boundary cells.
  GridIndex(const Dataset<D>& data, const Box<D>& universe,
            const Params& params)
      : SpatialIndex<D>(data), universe_(universe), params_(params) {
    name_ = params.assignment == GridAssignment::kQueryExtension
                ? "GridQueryExt"
                : "GridReplication";
  }
  /// A temporary dataset would be destroyed while the store still reads it.
  GridIndex(Dataset<D>&&, const Box<D>&, const Params&) = delete;

  std::string_view name() const override { return name_; }

  int partitions_per_dim() const { return params_.partitions_per_dim; }

  /// Builds the CSR cell directory from the live object set (the grid's
  /// whole pre-processing cost; also the mutation-overflow rebuild).
  void Build() override {
    const ObjectStore<D>& store = this->store_;
    const int p = params_.partitions_per_dim;
    std::size_t num_cells = 1;
    for (int d = 0; d < D; ++d) {
      inv_cell_width_[d] =
          universe_.Extent(d) > 0
              ? static_cast<double>(p) /
                    static_cast<double>(universe_.Extent(d))
              : 0.0;
      num_cells *= static_cast<std::size_t>(p);
    }
    strides_[0] = 1;
    for (int d = 1; d < D; ++d) {
      strides_[d] = strides_[d - 1] * static_cast<std::size_t>(p);
    }
    half_extent_ = Point<D>{};
    store.ForEachLive([this](ObjectId, const Box<D>& b) {
      for (int d = 0; d < D; ++d) {
        half_extent_[d] = std::max(half_extent_[d], b.Extent(d) / 2);
      }
    });

    // Counting pass, prefix sum, placement pass.
    cell_start_.assign(num_cells + 1, 0);
    if (params_.assignment == GridAssignment::kQueryExtension) {
      store.ForEachLive([this](ObjectId, const Box<D>& b) {
        ++cell_start_[CellIndexOf(b.Center()) + 1];
      });
    } else {
      store.ForEachLive([this](ObjectId, const Box<D>& b) {
        ForEachCell(CellRectOf(b), [this](std::size_t cell) {
          ++cell_start_[cell + 1];
        });
      });
    }
    std::partial_sum(cell_start_.begin(), cell_start_.end(),
                     cell_start_.begin());
    entries_.resize(cell_start_.back());
    std::vector<std::size_t> fill(cell_start_.begin(),
                                  cell_start_.end() - 1);
    store.ForEachLive([&](ObjectId id, const Box<D>& b) {
      if (params_.assignment == GridAssignment::kQueryExtension) {
        entries_[fill[CellIndexOf(b.Center())]++] = id;
      } else {
        ForEachCell(CellRectOf(b),
                    [&](std::size_t cell) { entries_[fill[cell]++] = id; });
      }
    });
    if (params_.assignment == GridAssignment::kReplication) {
      last_seen_.assign(store.slots(), 0);
      epoch_ = 0;
    }
    overflow_.Reset(store.slots());
    built_ = true;
  }

 protected:
  /// Query-extension cells are read-only at query time, so any query is
  /// concurrent-safe once the directory is built. Replication mode
  /// serializes: its per-query de-duplication stamps (`last_seen_`/`epoch_`)
  /// are shared mutable state.
  bool ReadOnly() const override {
    return built_ && params_.assignment == GridAssignment::kQueryExtension;
  }

  /// Inserts overflow into the pending list (scanned exhaustively by every
  /// query, so no grid geometry is consulted for them) until a rebuild
  /// folds them into cells.
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
    const ObjectStore<D>& store = this->store_;
    MatchEmitter emit(count_only, &sink);
    if (params_.assignment == GridAssignment::kQueryExtension) {
      // The query is extended by half the max object extent so that every
      // intersecting object's *centre* cell is covered (both containment
      // predicates imply intersection, so the candidate set stays valid).
      Box<D> extended = q;
      for (int d = 0; d < D; ++d) {
        extended.lo[d] -= half_extent_[d];
        extended.hi[d] += half_extent_[d];
      }
      ForEachCell(CellRectOf(extended), [&](std::size_t cell) {
        ++this->Stats().partitions_visited;
        for (std::size_t k = cell_start_[cell]; k < cell_start_[cell + 1];
             ++k) {
          const ObjectId id = entries_[k];
          if (overflow_.dead(id)) continue;
          ++this->Stats().objects_tested;
          if (MatchesPredicate(store.box(id), q, predicate)) emit.Add(id);
        }
      });
    } else {
      // Replication stores an object in every overlapped cell, so the epoch
      // stamps must de-duplicate for counting as well — a candidate seen
      // twice would otherwise be counted twice.
      ++epoch_;
      if (epoch_ == 0) {  // counter wrapped: restart stamps
        std::fill(last_seen_.begin(), last_seen_.end(), 0);
        epoch_ = 1;
      }
      ForEachCell(CellRectOf(q), [&](std::size_t cell) {
        ++this->Stats().partitions_visited;
        for (std::size_t k = cell_start_[cell]; k < cell_start_[cell + 1];
             ++k) {
          const ObjectId id = entries_[k];
          if (overflow_.dead(id)) continue;
          if (last_seen_[id] == epoch_) {
            ++this->Stats().duplicates_removed;
            continue;
          }
          last_seen_[id] = epoch_;
          ++this->Stats().objects_tested;
          if (MatchesPredicate(store.box(id), q, predicate)) emit.Add(id);
        }
      });
    }
    // Pending objects are not in any cell yet.
    overflow_.ScanPending(store, q, predicate, &emit, &this->Stats());
    emit.Flush();
  }

  void ExecuteKNearest(const Point<D>& pt, std::size_t k,
                       Sink& sink) override {
    if (!built_) Build();
    this->RingKNearest(pt, k, sink);
  }

 private:
  using CellCoords = std::array<int, D>;
  struct CellRect {
    CellCoords lo;
    CellCoords hi;
  };

  int CellCoordOf(Scalar v, int d) const {
    const double c = (static_cast<double>(v) -
                      static_cast<double>(universe_.lo[d])) *
                     inv_cell_width_[d];
    const int p = params_.partitions_per_dim;
    if (c <= 0.0) return 0;
    if (c >= static_cast<double>(p - 1)) return p - 1;
    return static_cast<int>(c);
  }

  std::size_t CellIndexOf(const Point<D>& pt) const {
    std::size_t idx = 0;
    for (int d = 0; d < D; ++d) {
      idx += static_cast<std::size_t>(CellCoordOf(pt[d], d)) * strides_[d];
    }
    return idx;
  }

  CellRect CellRectOf(const Box<D>& b) const {
    CellRect r;
    for (int d = 0; d < D; ++d) {
      r.lo[d] = CellCoordOf(b.lo[d], d);
      r.hi[d] = CellCoordOf(b.hi[d], d);
    }
    return r;
  }

  /// Invokes `fn(linear_cell_index)` for every cell in the rectangle.
  template <typename Fn>
  void ForEachCell(const CellRect& r, Fn&& fn) const {
    CellCoords c = r.lo;
    while (true) {
      std::size_t idx = 0;
      for (int d = 0; d < D; ++d) {
        idx += static_cast<std::size_t>(c[d]) * strides_[d];
      }
      fn(idx);
      int d = 0;
      for (; d < D; ++d) {
        if (++c[d] <= r.hi[d]) break;
        c[d] = r.lo[d];
      }
      if (d == D) return;
    }
  }

  Box<D> universe_;
  Params params_;
  std::string_view name_;
  bool built_ = false;

  std::array<double, D> inv_cell_width_{};
  std::array<std::size_t, D> strides_{};
  Point<D> half_extent_{};
  std::vector<std::size_t> cell_start_;
  std::vector<ObjectId> entries_;
  /// Shared mutation-overflow state (pending inserts + built-id
  /// tombstones).
  MutationOverflow<D> overflow_;

  // Replication de-duplication stamps (one epoch per query).
  std::vector<std::uint32_t> last_seen_;
  std::uint32_t epoch_ = 0;
};

}  // namespace quasii

#endif  // QUASII_GRID_GRID_INDEX_H_
