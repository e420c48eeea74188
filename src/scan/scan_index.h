#ifndef QUASII_SCAN_SCAN_INDEX_H_
#define QUASII_SCAN_SCAN_INDEX_H_

#include <cstdint>
#include <string_view>

#include "common/dataset.h"
#include "common/query.h"
#include "common/spatial_index.h"
#include "geometry/box.h"

namespace quasii {

/// The index-less baseline: answers every query with a full pass over the
/// live object set. This is one of the two options scientists have today
/// (Section 2) and the reference every result set is validated against in
/// the tests — including kNN, where its exhaustive heap pass is the oracle
/// the indexed traversals are compared to. Mutations are free: the store is
/// the entire structure.
template <int D>
class ScanIndex final : public SpatialIndex<D> {
 public:
  /// Keeps a reference to `data`; the caller owns it and must keep it alive.
  explicit ScanIndex(const Dataset<D>& data) : SpatialIndex<D>(data) {}
  /// A temporary dataset would be destroyed while the store still reads it.
  explicit ScanIndex(Dataset<D>&&) = delete;

  std::string_view name() const override { return "Scan"; }

 protected:
  void OnInsert(ObjectId, const Box<D>&) override {}
  void OnErase(ObjectId) override {}

  /// Stateless queries: every execution is a pure read of the store, so
  /// concurrent reads are always safe.
  bool ReadOnly() const override { return true; }

  /// The join oracle reads only the two stores, so it always runs shared.
  bool TryJoinShared(SpatialIndex<D>& other, JoinEmitter& emit) override {
    ExecuteJoin(other, emit);
    return true;
  }

  /// The join oracle: the textbook nested loop over both live sets, every
  /// pair tested. Its canonical output (via `JoinEmitter`) is what every
  /// indexed join strategy is validated against bit-for-bit.
  void ExecuteJoin(SpatialIndex<D>& other, JoinEmitter& emit) override {
    this->Stats().partitions_visited += 1;
    this->Stats().objects_tested +=
        this->store_.live_count() * other.store().live_count();
    this->store_.ForEachLive([&](ObjectId la, const Box<D>& ba) {
      other.store().ForEachLive([&](ObjectId rb, const Box<D>& bb) {
        if (ba.Intersects(bb)) emit.Add(la, rb);
      });
    });
  }

  void ExecuteBox(const Box<D>& q, RangePredicate predicate, bool count_only,
                  Sink& sink) override {
    this->Stats().partitions_visited += 1;
    this->Stats().objects_tested += this->store_.live_count();
    MatchEmitter emit(count_only, &sink);
    this->store_.ForEachLive([&](ObjectId id, const Box<D>& b) {
      if (MatchesPredicate(b, q, predicate)) emit.Add(id);
    });
    emit.Flush();
  }

  /// The kNN oracle: one exhaustive pass offering every live object's MBB
  /// distance to a bounded best-k heap.
  void ExecuteKNearest(const Point<D>& pt, std::size_t k,
                       Sink& sink) override {
    this->Stats().partitions_visited += 1;
    this->Stats().objects_tested += this->store_.live_count();
    TopKSink topk(k);
    this->store_.ForEachLive([&](ObjectId id, const Box<D>& b) {
      topk.Offer(id, b.MinDistSquaredTo(pt));
    });
    DrainTopK(&topk, &sink);
  }
};

}  // namespace quasii

#endif  // QUASII_SCAN_SCAN_INDEX_H_
