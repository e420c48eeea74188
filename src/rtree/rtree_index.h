#ifndef QUASII_RTREE_RTREE_INDEX_H_
#define QUASII_RTREE_RTREE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/dataset.h"
#include "common/mutation_overflow.h"
#include "common/query.h"
#include "common/spatial_index.h"
#include "geometry/box.h"
#include "rtree/str_pack.h"

namespace quasii {

/// STR bulk-loaded R-Tree — the paper's strongest static comparator
/// (Section 6.1: bulk loading "reduces overlap and decreases pre-processing
/// time compared to the R-Tree built by inserting one object at a time").
///
/// Layout: entries are STR-ordered once at build; every tree level is a
/// plain vector of nodes whose children are a consecutive range of the level
/// below (or of the entry array for leaves). This keeps traversal
/// cache-friendly and makes structural invariants easy to check in tests.
///
/// Per-type fast paths of the query engine:
///  - `kContains` prunes with `node.box ⊇ q` (an object containing the
///    query forces every ancestor MBB to contain it too);
///  - `kContainedBy` bulk-resolves nodes whose MBB lies inside `q` — every
///    entry below matches without a single box test;
///  - `kCount` combines the above with per-node subtree counts, so a node
///    fully inside an intersection/containment count adds its `count`
///    without descending (and never touches an id);
///  - `kKNearest` is classic best-first search over node MBB distances.
///
/// Mutations use the overflow pattern of the static roster indexes: inserts
/// join a pending list every traversal also considers, erases of packed
/// entries flip a per-id dead bit — which disables the bulk-resolve fast
/// paths (node MBBs and subtree counts are stale upper bounds then) — and a
/// rebuild re-packs the live set once either side outgrows its threshold.
template <int D>
class RTreeIndex final : public SpatialIndex<D> {
 public:
  struct Params {
    /// Leaf and internal fan-out. The paper uses 60 (same as QUASII's tau).
    std::size_t node_capacity = 60;
  };

  struct Node {
    Box<D> box;
    /// Child range: indexes `entries()` at level 0, the level below
    /// otherwise.
    std::size_t begin = 0;
    std::size_t end = 0;
    /// Number of entries in the subtree — the `kCount` bulk path.
    std::size_t count = 0;
  };

  RTreeIndex(const Dataset<D>& data, const Params& params = Params{})
      : SpatialIndex<D>(data), params_(params) {}
  /// A temporary dataset would be destroyed while the store still reads it.
  RTreeIndex(Dataset<D>&&, const Params& = Params{}) = delete;

  std::string_view name() const override { return "R-Tree"; }

  /// STR bulk load over the live object set: the R-Tree's whole
  /// pre-processing cost (also the mutation-overflow rebuild).
  void Build() override {
    entries_.clear();
    this->store_.ForEachLive([this](ObjectId id, const Box<D>& b) {
      entries_.push_back(Entry<D>{b, id});
    });
    overflow_.Reset(this->store_.slots());
    levels_.clear();
    const std::size_t cap = params_.node_capacity;
    StrSort<D>(entries_, 0, entries_.size(), /*dim=*/0, cap,
               [](const Entry<D>& e, int d) { return e.box.Center()[d]; });

    // Leaf level over entries.
    std::vector<Node> level;
    for (std::size_t begin = 0; begin < entries_.size(); begin += cap) {
      Node node;
      node.begin = begin;
      node.end = std::min(begin + cap, entries_.size());
      node.count = node.end - node.begin;
      for (std::size_t i = node.begin; i < node.end; ++i) {
        node.box.ExpandToInclude(entries_[i].box);
      }
      level.push_back(node);
    }
    if (level.empty()) level.push_back(Node{});  // empty dataset: empty root
    levels_.push_back(std::move(level));

    // Internal levels until a single root remains.
    while (levels_.back().size() > 1) {
      std::vector<Node>& below = levels_.back();
      StrSort<D>(below, 0, below.size(), /*dim=*/0, cap,
                 [](const Node& n, int d) { return n.box.Center()[d]; });
      std::vector<Node> parents;
      for (std::size_t begin = 0; begin < below.size(); begin += cap) {
        Node node;
        node.begin = begin;
        node.end = std::min(begin + cap, below.size());
        for (std::size_t i = node.begin; i < node.end; ++i) {
          node.box.ExpandToInclude(below[i].box);
          node.count += below[i].count;
        }
        parents.push_back(node);
      }
      // Children of level-0 nodes index `entries_`, which StrSort did not
      // move here, so ranges stay valid; higher levels reference `below`,
      // whose order we just changed — hence parents are built *after* the
      // sort and reference the sorted order.
      levels_.push_back(std::move(parents));
    }
    built_ = true;
  }

  /// Structural accessors for tests and benchmarks.
  const std::vector<Entry<D>>& entries() const { return entries_; }
  const std::vector<std::vector<Node>>& levels() const { return levels_; }
  std::size_t depth() const { return levels_.size(); }

  /// Snapshot structure blob: the STR-ordered entry array, every node
  /// level, and the overflow lists — a recovered tree answers queries
  /// without re-running the bulk load.
  bool SerializeStructure(ByteWriter& w) const override {
    w.U8(built_ ? 1 : 0);
    if (!built_) return true;
    w.U64(entries_.size());
    for (const Entry<D>& e : entries_) {
      PutBox<D>(&w, e.box);
      w.U32(e.id);
    }
    w.U64(levels_.size());
    for (const std::vector<Node>& level : levels_) {
      w.U64(level.size());
      for (const Node& n : level) {
        PutBox<D>(&w, n.box);
        w.U64(n.begin);
        w.U64(n.end);
        w.U64(n.count);
      }
    }
    overflow_.EncodeTo(&w);
    return true;
  }

  bool DeserializeStructure(std::string_view bytes) override {
    ByteReader r(bytes);
    const bool built = r.U8() != 0;
    if (!r.ok()) return false;
    if (!built) {
      RebuildFromStore();
      return r.remaining() == 0;
    }
    entries_.clear();
    levels_.clear();
    built_ = false;
    const std::uint64_t n_entries = r.U64();
    constexpr std::size_t kEntryBytes = 2 * D * sizeof(Scalar) + 4;
    if (!r.ok() || n_entries > r.remaining() / kEntryBytes) return false;
    entries_.reserve(static_cast<std::size_t>(n_entries));
    for (std::uint64_t i = 0; i < n_entries; ++i) {
      Entry<D> e;
      e.box = GetBox<D>(&r);
      e.id = r.U32();
      entries_.push_back(e);
    }
    const std::uint64_t n_levels = r.U64();
    if (!r.ok() || n_levels == 0 || n_levels > 64) return false;
    std::size_t below_size = entries_.size();
    for (std::uint64_t l = 0; l < n_levels; ++l) {
      const std::uint64_t n_nodes = r.U64();
      constexpr std::size_t kNodeBytes = 2 * D * sizeof(Scalar) + 24;
      if (!r.ok() || n_nodes > r.remaining() / kNodeBytes) return false;
      std::vector<Node> level;
      level.reserve(static_cast<std::size_t>(n_nodes));
      for (std::uint64_t i = 0; i < n_nodes; ++i) {
        Node n;
        n.box = GetBox<D>(&r);
        n.begin = static_cast<std::size_t>(r.U64());
        n.end = static_cast<std::size_t>(r.U64());
        n.count = static_cast<std::size_t>(r.U64());
        // Child ranges must stay inside the level below (the empty-dataset
        // root legitimately has begin == end == 0).
        if (n.begin > n.end || n.end > below_size) return false;
        level.push_back(n);
      }
      if (level.empty()) return false;
      below_size = level.size();
      levels_.push_back(std::move(level));
    }
    if (levels_.back().size() != 1) return false;
    if (!overflow_.DecodeFrom(&r) || !r.ok() || r.remaining() != 0) {
      RebuildFromStore();
      return false;
    }
    built_ = true;
    return true;
  }

  void RebuildFromStore() override {
    entries_.clear();
    levels_.clear();
    built_ = false;  // the next query re-packs from the restored store
  }

 protected:
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

  /// The packed tree is immutable at query time (mutations only touch the
  /// overflow lists, under the exclusive lock), so any query is
  /// concurrent-safe once built.
  bool ReadOnly() const override { return built_; }

  void ExecuteBox(const Box<D>& q, RangePredicate predicate, bool count_only,
                  Sink& sink) override {
    if (!built_) Build();
    MatchEmitter emit(count_only, &sink);
    const BoxExec ctx{&q, predicate, &emit};
    QueryNode(ctx, levels_.size() - 1, 0);
    // Pending objects live outside the packed tree until a rebuild.
    overflow_.ScanPending(this->store_, q, predicate, &emit, &this->Stats());
    emit.Flush();
  }

  /// Best-first nearest-neighbor search [Hjaltason & Samet]: a min-heap of
  /// nodes ordered by MBB distance to the query point; leaves offer their
  /// entries to the bounded best-k heap; nodes farther than the current
  /// k-th best distance are pruned (`>` keeps bound-distance ties alive so
  /// the (distance, id) tie-break stays index-independent).
  void ExecuteKNearest(const Point<D>& pt, std::size_t k,
                       Sink& sink) override {
    if (!built_) Build();
    TopKSink topk(k);
    // Offer the pending overflow first: it only tightens the prune bound,
    // and the (distance, id) tie-break keeps results index-independent.
    this->Stats().objects_tested += overflow_.pending().size();
    for (const ObjectId id : overflow_.pending()) {
      topk.Offer(id, this->store_.box(id).MinDistSquaredTo(pt));
    }
    struct QueueItem {
      double dist_sq;
      std::size_t level;
      std::size_t idx;
      bool operator>(const QueueItem& o) const { return dist_sq > o.dist_sq; }
    };
    std::priority_queue<QueueItem, std::vector<QueueItem>,
                        std::greater<QueueItem>>
        frontier;
    frontier.push(QueueItem{
        levels_.back()[0].box.MinDistSquaredTo(pt), levels_.size() - 1, 0});
    while (!frontier.empty()) {
      const QueueItem item = frontier.top();
      frontier.pop();
      if (topk.full() && item.dist_sq > topk.bound()) break;
      const Node& node = levels_[item.level][item.idx];
      ++this->Stats().partitions_visited;
      if (item.level == 0) {
        for (std::size_t i = node.begin; i < node.end; ++i) {
          if (overflow_.dead(entries_[i].id)) continue;
          ++this->Stats().objects_tested;
          topk.Offer(entries_[i].id, entries_[i].box.MinDistSquaredTo(pt));
        }
        continue;
      }
      const std::vector<Node>& below = levels_[item.level - 1];
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const double d = below[i].box.MinDistSquaredTo(pt);
        if (!topk.full() || d <= topk.bound()) {
          frontier.push(QueueItem{d, item.level - 1, i});
        }
      }
    }
    DrainTopK(&topk, &sink);
  }

  /// Synchronized traversal when the partner is an R-Tree too: descend both
  /// packed trees in lockstep, pruning every node pair whose MBBs are
  /// disjoint — the classic tree join over two STR structures. Any other
  /// partner falls back to the generic index-nested-loop of the base class.
  void ExecuteJoin(SpatialIndex<D>& other_base, JoinEmitter& emit) override {
    auto* other = dynamic_cast<RTreeIndex<D>*>(&other_base);
    if (other == nullptr) {
      SpatialIndex<D>::ExecuteJoin(other_base, emit);
      return;
    }
    if (!built_) Build();
    if (!other->built_) other->Build();
    JoinNodes(*other, levels_.size() - 1, 0, other->levels_.size() - 1, 0,
              emit);
    // Pending inserts live outside both packed trees: probe each side's
    // pending rows against the other index wholesale (tree + its pending).
    // The pending × pending overlap is produced by both loops; the
    // emitter's flush dedups it.
    for (const ObjectId lid : overflow_.pending()) {
      other->ProbeJoinRight(this->store_.box(lid), lid, &emit);
    }
    for (const ObjectId rid : other->overflow_.pending()) {
      this->ProbeJoinLeft(other->store().box(rid), rid, &emit);
    }
  }

  /// A join with an R-Tree partner runs shared once both trees are built.
  bool TryJoinShared(SpatialIndex<D>& other_base, JoinEmitter& emit) override {
    auto* other = dynamic_cast<RTreeIndex<D>*>(&other_base);
    if (other == nullptr) {
      return SpatialIndex<D>::TryJoinShared(other_base, emit);
    }
    if (!built_ || !other->built_) return false;
    ExecuteJoin(*other, emit);
    return true;
  }

 private:
  struct BoxExec {
    const Box<D>* q;
    RangePredicate predicate;
    MatchEmitter* emit;
  };

  /// One node pair of the synchronized traversal: prune on MBB disjointness,
  /// test entries pairwise at leaf × leaf, otherwise expand the children of
  /// the deeper side (equal depths expand the left) so both walks reach the
  /// leaves together. An empty dataset's root keeps the default (inverted)
  /// box, which intersects nothing — the traversal exits on the first test.
  void JoinNodes(RTreeIndex<D>& other, std::size_t la, std::size_t ia,
                 std::size_t lb, std::size_t ib, JoinEmitter& emit) {
    const Node& na = levels_[la][ia];
    const Node& nb = other.levels_[lb][ib];
    if (!na.box.Intersects(nb.box)) return;
    ++this->Stats().partitions_visited;
    if (la == 0 && lb == 0) {
      for (std::size_t i = na.begin; i < na.end; ++i) {
        if (overflow_.dead(entries_[i].id)) continue;
        for (std::size_t j = nb.begin; j < nb.end; ++j) {
          if (other.overflow_.dead(other.entries_[j].id)) continue;
          ++this->Stats().objects_tested;
          if (entries_[i].box.Intersects(other.entries_[j].box)) {
            emit.Add(entries_[i].id, other.entries_[j].id);
          }
        }
      }
      return;
    }
    if (lb == 0 || (la != 0 && la >= lb)) {
      for (std::size_t i = na.begin; i < na.end; ++i) {
        JoinNodes(other, la - 1, i, lb, ib, emit);
      }
    } else {
      for (std::size_t j = nb.begin; j < nb.end; ++j) {
        JoinNodes(other, la, ia, lb - 1, j, emit);
      }
    }
  }

  /// Can some object below a node with this MBB still match the predicate?
  static bool SubtreeMayMatch(const Box<D>& node_box, const Box<D>& q,
                              RangePredicate predicate) {
    if (predicate == RangePredicate::kContains) {
      // An object containing q forces its node MBB to contain q as well.
      return node_box.ContainsBox(q);
    }
    return node_box.Intersects(q);
  }

  /// Does every object below a node with this MBB match the predicate?
  static bool SubtreeAllMatch(const Box<D>& node_box, const Box<D>& q,
                              RangePredicate predicate) {
    // A node MBB inside q puts every descendant box inside q: each one both
    // intersects and is contained by the query. No such shortcut exists for
    // kContains (the MBB says nothing about each object covering q).
    return predicate != RangePredicate::kContains && q.ContainsBox(node_box);
  }

  void QueryNode(const BoxExec& ctx, std::size_t level, std::size_t node_idx) {
    const Node& node = levels_[level][node_idx];
    ++this->Stats().partitions_visited;
    // Bulk resolution trusts node MBBs and subtree counts, which erases
    // turn into stale upper bounds — any tombstone disables the shortcuts.
    const bool may_bulk = overflow_.dead_count() == 0;
    if (level == 0) {
      if (may_bulk && SubtreeAllMatch(node.box, *ctx.q, ctx.predicate)) {
        // Whole leaf matches: resolve in bulk without a single box test.
        this->Stats().objects_tested += node.count;
        if (ctx.emit->count_only()) {
          ctx.emit->AddAnonymous(node.count);
        } else {
          for (std::size_t i = node.begin; i < node.end; ++i) {
            ctx.emit->Add(entries_[i].id);
          }
        }
        return;
      }
      for (std::size_t i = node.begin; i < node.end; ++i) {
        if (overflow_.dead(entries_[i].id)) continue;
        ++this->Stats().objects_tested;
        if (MatchesPredicate(entries_[i].box, *ctx.q, ctx.predicate)) {
          ctx.emit->Add(entries_[i].id);
        }
      }
      return;
    }
    const std::vector<Node>& below = levels_[level - 1];
    for (std::size_t i = node.begin; i < node.end; ++i) {
      if (may_bulk && ctx.emit->count_only() &&
          SubtreeAllMatch(below[i].box, *ctx.q, ctx.predicate)) {
        // Count bulk path: the whole subtree matches — add its size without
        // descending or touching ids. The resolved entries still count as
        // tested so `objects_tested >= matches` stays invariant.
        this->Stats().objects_tested += below[i].count;
        ctx.emit->AddAnonymous(below[i].count);
        continue;
      }
      if (SubtreeMayMatch(below[i].box, *ctx.q, ctx.predicate)) {
        QueryNode(ctx, level - 1, i);
      }
    }
  }

  std::vector<Entry<D>> entries_;
  Params params_;
  bool built_ = false;
  /// levels_[0] = leaves ... levels_.back() = root level (size 1).
  std::vector<std::vector<Node>> levels_;
  /// Shared mutation-overflow state (pending inserts + packed-id
  /// tombstones).
  MutationOverflow<D> overflow_;
};

}  // namespace quasii

#endif  // QUASII_RTREE_RTREE_INDEX_H_
