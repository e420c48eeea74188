#ifndef QUASII_MOSAIC_MOSAIC_INDEX_H_
#define QUASII_MOSAIC_MOSAIC_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/dataset.h"
#include "common/query.h"
#include "common/spatial_index.h"
#include "geometry/box.h"

namespace quasii {

/// Mosaic (Section 3.2): Space Odyssey's incremental indexing idea [35]
/// adapted to main memory. An octree (2^D-tree) is built top-down as a side
/// effect of queries: every query splits the overlapping partitions into
/// 2^D equal sub-partitions and reassigns their objects, recursively, until
/// partitions are small enough. Frequently queried areas end up fully
/// indexed; untouched areas stay coarse.
///
/// Objects are assigned to partitions by their *centre* (query-extension
/// strategy [40]) — the paper shows replication is far worse for volumetric
/// objects (Fig. 6a) — so queries are extended by half the maximum object
/// extent during traversal and candidates are filtered against the original
/// query box.
///
/// Centre assignment is deterministic, which makes mutations physical and
/// tombstone-free: an insert descends to the one leaf its centre selects
/// and drops the id there (an overflowing leaf splits lazily at the next
/// query that touches it, Mosaic's normal incremental behaviour); an erase
/// descends the same way and removes the id.
template <int D>
class MosaicIndex final : public SpatialIndex<D> {
 public:
  struct Params {
    /// A partition with at most this many objects is final (not split).
    std::size_t leaf_capacity = 1024;
    /// Hard depth cap: guards against duplicate-heavy data where splitting
    /// cannot reduce partition sizes.
    int max_depth = 12;
  };

  struct Node {
    Box<D> bounds;
    std::vector<ObjectId> objects;  // leaves only
    std::vector<Node> children;     // empty or exactly 2^D
    bool is_leaf() const { return children.empty(); }
  };

  MosaicIndex(const Dataset<D>& data, const Box<D>& universe,
              const Params& params = Params{})
      : SpatialIndex<D>(data), universe_(universe), params_(params) {}
  /// A temporary dataset would be destroyed while the store still reads it.
  MosaicIndex(Dataset<D>&&, const Box<D>&, const Params& = Params{}) = delete;

  std::string_view name() const override { return "Mosaic"; }

  /// Incremental index: all structure is built inside query execution.
  void Build() override {}

  /// Rebuild-from-store restore (no structure blob): reset so the next
  /// query re-reads the recovered store wholesale.
  void RebuildFromStore() override { initialized_ = false; }

  const Node& root() const { return root_; }
  bool initialized() const { return initialized_; }

  /// A box query is converged when its `Read` would not decline: no leaf
  /// it touches (under the extended traversal box) is still splittable.
  /// kNN stays conservative: its expanding ring probes regions the
  /// triggering query never names — as do joins, whose nested-loop probes
  /// split around every partner box.
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
  void OnInsert(ObjectId id, const Box<D>& box) override {
    if (!initialized_) return;  // Initialize() reads the store wholesale
    for (int d = 0; d < D; ++d) {
      half_extent_[d] = std::max(half_extent_[d], box.Extent(d) / 2);
    }
    DescendToLeaf(box.Center())->objects.push_back(id);
  }

  void OnErase(ObjectId id) override {
    if (!initialized_) return;
    // The store still holds the erased object's box, and centre assignment
    // is deterministic, so the id sits in exactly the leaf its centre
    // descends to.
    Node* leaf = DescendToLeaf(this->store_.box(id).Center());
    auto& objects = leaf->objects;
    const auto it = std::find(objects.begin(), objects.end(), id);
    if (it != objects.end()) {
      *it = objects.back();
      objects.pop_back();
    }
  }

  /// The refine pre-pass (`SplitTouched`), then the read, which it leaves
  /// nothing to split.
  void ExecuteBox(const Box<D>& q, RangePredicate predicate, bool count_only,
                  Sink& sink) override {
    if (!initialized_) Initialize();
    SplitTouched(&root_, 0, Extended(q));
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

  void ExecuteKNearest(const Point<D>& pt, std::size_t k,
                       Sink& sink) override {
    if (!initialized_) Initialize();
    this->RingKNearest(pt, k, sink);
  }

 private:
  static constexpr std::size_t kChildren = std::size_t{1} << D;

  /// The traversal box of `q`: centre assignment means an object can
  /// intersect `q` only if its centre lies within the largest half extent
  /// of it. The exact filter uses the original `q`.
  Box<D> Extended(const Box<D>& q) const {
    Box<D> extended = q;
    for (int d = 0; d < D; ++d) {
      extended.lo[d] -= half_extent_[d];
      extended.hi[d] += half_extent_[d];
    }
    return extended;
  }

  /// Whether a descent splits leaf `node` at `depth`.
  bool Splittable(const Node& node, int depth) const {
    return node.objects.size() > params_.leaf_capacity &&
           depth < params_.max_depth;
  }

  /// The one read of a box query: plans the leaves the extended box
  /// touches (`PlanLeaves`), then scans them into one emitter. Declines
  /// (false, nothing counted or emitted) when the index is uninitialized or
  /// a touched leaf would still split. With a null `sink` it only decides,
  /// recording nothing.
  bool Read(const Box<D>& q, RangePredicate predicate, bool count_only,
            Sink* sink, QueryStats* st) const {
    if (!initialized_) return false;
    std::vector<const Node*> leaves;
    std::uint64_t visited = 0;
    if (!PlanLeaves(root_, 0, Extended(q), &leaves, &visited)) return false;
    if (sink == nullptr) return true;
    st->partitions_visited += visited;
    MatchEmitter emit(count_only, sink);
    for (const Node* leaf : leaves) {
      st->objects_tested += leaf->objects.size();
      for (const ObjectId id : leaf->objects) {
        if (MatchesPredicate(this->store_.box(id), q, predicate)) emit.Add(id);
      }
    }
    emit.Flush();
    return true;
  }

  /// Collects, depth first, the leaves under `node` that `extended`
  /// touches, counting every node visited; false at the first touched leaf
  /// that would still split.
  bool PlanLeaves(const Node& node, int depth, const Box<D>& extended,
                  std::vector<const Node*>* leaves,
                  std::uint64_t* visited) const {
    ++*visited;
    if (node.is_leaf()) {
      if (Splittable(node, depth)) return false;
      leaves->push_back(&node);
      return true;
    }
    for (const Node& child : node.children) {
      if (child.bounds.Intersects(extended) &&
          !PlanLeaves(child, depth + 1, extended, leaves, visited)) {
        return false;
      }
    }
    return true;
  }

  void Initialize() {
    root_.bounds = universe_;
    root_.objects.clear();
    root_.children.clear();
    half_extent_ = Point<D>{};
    this->store_.ForEachLive([this](ObjectId id, const Box<D>& b) {
      root_.objects.push_back(id);
      for (int d = 0; d < D; ++d) {
        half_extent_[d] = std::max(half_extent_[d], b.Extent(d) / 2);
      }
    });
    initialized_ = true;
  }

  /// The child a centre selects under a node — the one assignment rule
  /// shared by `Split`, insertion, and erasure, so every object is always
  /// findable by descending with its centre.
  static std::size_t ChildOf(const Point<D>& centre, const Point<D>& mid) {
    std::size_t c = 0;
    for (int d = 0; d < D; ++d) {
      if (centre[d] > mid[d]) c |= std::size_t{1} << d;
    }
    return c;
  }

  Node* DescendToLeaf(const Point<D>& centre) {
    Node* node = &root_;
    while (!node->is_leaf()) {
      node = &node->children[ChildOf(centre, node->bounds.Center())];
    }
    return node;
  }

  /// Splits a leaf into 2^D children and reassigns its objects by centre —
  /// the re-partitioning work that makes Mosaic's incremental strategy
  /// expensive in frequently queried areas (Section 6.3).
  void Split(Node* node) {
    const Point<D> mid = node->bounds.Center();
    node->children.resize(kChildren);
    for (std::size_t c = 0; c < kChildren; ++c) {
      Node& child = node->children[c];
      for (int d = 0; d < D; ++d) {
        if ((c >> d) & 1u) {
          child.bounds.lo[d] = mid[d];
          child.bounds.hi[d] = node->bounds.hi[d];
        } else {
          child.bounds.lo[d] = node->bounds.lo[d];
          child.bounds.hi[d] = mid[d];
        }
      }
    }
    for (const ObjectId id : node->objects) {
      const std::size_t c = ChildOf(this->store_.box(id).Center(), mid);
      node->children[c].objects.push_back(id);
    }
    ++this->Stats().cracks;
    this->Stats().objects_moved += node->objects.size();
    node->objects.clear();
    node->objects.shrink_to_fit();
  }

  /// The refine pre-pass: splits, depth first, every touched leaf that is
  /// still splittable, and the touched children of each split in turn.
  void SplitTouched(Node* node, int depth, const Box<D>& extended) {
    if (node->is_leaf()) {
      if (!Splittable(*node, depth)) return;
      Split(node);
    }
    for (Node& child : node->children) {
      if (child.bounds.Intersects(extended)) {
        SplitTouched(&child, depth + 1, extended);
      }
    }
  }

  Box<D> universe_;
  Params params_;
  bool initialized_ = false;
  Node root_;
  Point<D> half_extent_{};
};

}  // namespace quasii

#endif  // QUASII_MOSAIC_MOSAIC_INDEX_H_
