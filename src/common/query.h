#ifndef QUASII_COMMON_QUERY_H_
#define QUASII_COMMON_QUERY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/box.h"

namespace quasii {

template <int D>
class SpatialIndex;

/// The query types of the execution engine (the FESTIval-style query_type ×
/// predicate matrix, adapted to the paper's volumetric setting):
///  - kRange:       all objects whose MBB relates to `box` per `predicate`;
///  - kPoint:       all objects whose MBB contains `point` (a zero-extent
///                  range query — closed boxes make `[p, p]` a valid box);
///  - kCount:       the *number* of `kRange` matches — executed without ever
///                  materializing ids (sinks receive anonymous match counts);
///  - kKNearest:    the `k` objects with smallest MBB distance to `point`,
///                  ties broken by smaller id;
///  - kJoin:        all intersecting (left, right) pairs between this index
///                  and a second set — another index or a box stream —
///                  executed via the `PairSink` overload of `Execute`;
///  - kConjunction: all objects matching *every* term of a conjunctive
///                  range plan (one descent drives, the rest filter).
enum class QueryType { kRange, kPoint, kCount, kKNearest, kJoin, kConjunction };

/// Topological predicate of a range/count query, relating a candidate
/// object's MBB `b` to the query box `q`. Both containment predicates imply
/// intersection, so every index's intersection traversal is a valid
/// candidate generator for all three.
enum class RangePredicate {
  kIntersects,   ///< b ∩ q ≠ ∅ (the paper's only query type)
  kContains,     ///< b ⊇ q: the object covers the whole query box
  kContainedBy,  ///< b ⊆ q: the object lies entirely inside the query box
};

/// One predicate of a conjunctive range plan: a box plus the topological
/// predicate relating candidate MBBs to it. An object matches the plan when
/// it matches every term.
template <int D>
struct ConjunctiveTerm {
  Box<D> box;
  RangePredicate predicate = RangePredicate::kIntersects;
};

/// Aborts with a clear message on an invalid query description or a
/// misrouted execution — construction-time validation instead of silent
/// misbehaviour inside dispatch.
[[noreturn]] inline void QueryApiAbort(const char* msg) {
  std::fprintf(stderr, "quasii query API: %s\n", msg);
  std::abort();
}

/// Whether every coordinate is a finite number — the validation gate every
/// query factory applies to its geometry and `SpatialIndex::Insert`
/// applies to every new object. NaN poisons every
/// comparison-based traversal and infinities are reserved for the sentinel
/// empty box, so neither belongs in a deserialized query or a stored box.
template <int D>
bool IsFinite(const Point<D>& p) {
  for (int d = 0; d < D; ++d) {
    if (!std::isfinite(p[d])) return false;
  }
  return true;
}

template <int D>
bool IsFinite(const Box<D>& b) {
  for (int d = 0; d < D; ++d) {
    if (!std::isfinite(b.lo[d]) || !std::isfinite(b.hi[d])) return false;
  }
  return true;
}

/// The driver of a conjunctive plan: the term whose box has the smallest
/// volume generates the candidates (the first minimal term wins, so the
/// choice is deterministic); every other term filters the candidates
/// exactly. Any term is a sound driver — containment predicates imply
/// intersection and each index executes all three predicates exactly — the
/// volume rule is purely a cost heuristic. Shared by
/// `SpatialIndex::RunBoxQuery` (every box execution and shared-lock read)
/// and `DescentBox` (the adaptive indexes' `ConvergedFor`), so all of them
/// route identically.
template <int D>
std::size_t ConjunctionDriverIndex(
    const std::vector<ConjunctiveTerm<D>>& terms) {
  std::size_t best = 0;
  double best_volume = terms[0].box.Volume();
  for (std::size_t i = 1; i < terms.size(); ++i) {
    const double v = terms[i].box.Volume();
    if (v < best_volume) {
      best = i;
      best_volume = v;
    }
  }
  return best;
}

/// A typed query description, consumed by `SpatialIndex::Execute`.
/// Construction is factory-only: the `Make*`/`Try*` statics (or the free
/// `RangeQuery`/`PointQuery`/`CountQuery`/`KNearestQuery`/`JoinQuery`/
/// `ConjunctiveQuery` wrappers) validate every description up front, so a
/// malformed query — a `k == 0` kNN, a join without a second set, a
/// conjunction without terms, a NaN or infinite coordinate in a range,
/// point, count, kNN or conjunction — fails at construction with a clear
/// error instead of inside dispatch. `Try*` variants return
/// `std::nullopt` instead of aborting, for callers that validate user
/// input.
template <int D>
class Query {
 public:
  /// A default-constructed query is a valid degenerate range: its empty box
  /// matches nothing. Exists so op streams and containers can
  /// default-construct and overwrite; every meaningful query comes from a
  /// factory.
  Query() = default;

  QueryType type() const { return type_; }
  RangePredicate predicate() const { return predicate_; }
  /// kRange / kCount: the query box.
  const Box<D>& box() const { return box_; }
  /// kPoint / kKNearest: the query point.
  const Point<D>& point() const { return point_; }
  /// kKNearest: number of neighbors requested (>= 1 by construction).
  std::size_t k() const { return k_; }
  /// kJoin: the right-hand index (the executing index itself on a
  /// self-join); null on stream joins.
  SpatialIndex<D>* join_other() const { return join_other_; }
  /// kJoin: the right-hand box stream (pair right ids are stream
  /// positions); null on index-vs-index joins.
  const std::vector<Box<D>>* join_stream() const { return join_stream_; }
  /// kConjunction: the ANDed terms (at least one by construction).
  const std::vector<ConjunctiveTerm<D>>& terms() const { return terms_; }

  /// Every factory rejects NaN/infinite coordinates: they poison the
  /// comparison-based traversals and the adaptive indexes' cost estimates.
  /// `Try*` returns `std::nullopt` (for untrusted descriptions: the wire
  /// protocol and other parsers); `Make*` aborts naming the cause.
  static std::optional<Query> TryRange(const Box<D>& box,
                                       RangePredicate predicate) {
    if (!IsFinite(box)) return std::nullopt;
    Query q;
    q.type_ = QueryType::kRange;
    q.predicate_ = predicate;
    q.box_ = box;
    return q;
  }

  static Query MakeRange(const Box<D>& box, RangePredicate predicate) {
    auto q = TryRange(box, predicate);
    if (!q) QueryApiAbort("range query requires a finite box");
    return *std::move(q);
  }

  static std::optional<Query> TryPoint(const Point<D>& point) {
    if (!IsFinite(point)) return std::nullopt;
    Query q;
    q.type_ = QueryType::kPoint;
    q.point_ = point;
    return q;
  }

  static Query MakePoint(const Point<D>& point) {
    auto q = TryPoint(point);
    if (!q) QueryApiAbort("point query requires a finite point");
    return *std::move(q);
  }

  static std::optional<Query> TryCount(const Box<D>& box,
                                       RangePredicate predicate) {
    if (!IsFinite(box)) return std::nullopt;
    Query q;
    q.type_ = QueryType::kCount;
    q.predicate_ = predicate;
    q.box_ = box;
    return q;
  }

  static Query MakeCount(const Box<D>& box, RangePredicate predicate) {
    auto q = TryCount(box, predicate);
    if (!q) QueryApiAbort("count query requires a finite box");
    return *std::move(q);
  }

  static std::optional<Query> TryKNearest(const Point<D>& point,
                                          std::size_t k) {
    if (k == 0 || !IsFinite(point)) return std::nullopt;
    Query q;
    q.type_ = QueryType::kKNearest;
    q.point_ = point;
    q.k_ = k;
    return q;
  }

  static Query MakeKNearest(const Point<D>& point, std::size_t k) {
    if (k == 0) QueryApiAbort("kNearest query requires k >= 1");
    auto q = TryKNearest(point, k);
    if (!q) QueryApiAbort("kNearest query requires a finite point");
    return *std::move(q);
  }

  static std::optional<Query> TryJoin(SpatialIndex<D>* other) {
    if (other == nullptr) return std::nullopt;
    Query q;
    q.type_ = QueryType::kJoin;
    q.join_other_ = other;
    return q;
  }

  /// Index-vs-index join; pass the executing index itself for a self-join.
  static Query MakeJoin(SpatialIndex<D>& other) {
    return *TryJoin(&other);
  }

  static std::optional<Query> TryJoin(const std::vector<Box<D>>* stream) {
    if (stream == nullptr) return std::nullopt;
    Query q;
    q.type_ = QueryType::kJoin;
    q.join_stream_ = stream;
    return q;
  }

  /// Index-vs-stream join: `stream` is borrowed and must outlive every
  /// `Execute` of this query. Empty boxes in the stream match nothing.
  static Query MakeJoin(const std::vector<Box<D>>& stream) {
    return *TryJoin(&stream);
  }

  static std::optional<Query> TryConjunction(
      std::vector<ConjunctiveTerm<D>> terms) {
    if (terms.empty() || !AllFinite(terms)) return std::nullopt;
    Query q;
    q.type_ = QueryType::kConjunction;
    q.terms_ = std::move(terms);
    return q;
  }

  static Query MakeConjunction(std::vector<ConjunctiveTerm<D>> terms) {
    if (terms.empty()) {
      QueryApiAbort("conjunctive query requires at least one term");
    }
    if (!AllFinite(terms)) {
      QueryApiAbort("conjunctive query requires finite term boxes");
    }
    return *TryConjunction(std::move(terms));
  }

 private:
  static bool AllFinite(const std::vector<ConjunctiveTerm<D>>& terms) {
    return std::all_of(terms.begin(), terms.end(),
                       [](const ConjunctiveTerm<D>& t) {
                         return IsFinite(t.box);
                       });
  }

  QueryType type_ = QueryType::kRange;
  RangePredicate predicate_ = RangePredicate::kIntersects;
  Box<D> box_;
  Point<D> point_{};
  std::size_t k_ = 0;
  SpatialIndex<D>* join_other_ = nullptr;
  const std::vector<Box<D>>* join_stream_ = nullptr;
  std::vector<ConjunctiveTerm<D>> terms_;
};

using Query2 = Query<2>;
using Query3 = Query<3>;

template <int D>
Query<D> RangeQuery(const Box<D>& box,
                    RangePredicate predicate = RangePredicate::kIntersects) {
  return Query<D>::MakeRange(box, predicate);
}

template <int D>
Query<D> PointQuery(const Point<D>& point) {
  return Query<D>::MakePoint(point);
}

template <int D>
Query<D> CountQuery(const Box<D>& box,
                    RangePredicate predicate = RangePredicate::kIntersects) {
  return Query<D>::MakeCount(box, predicate);
}

template <int D>
Query<D> KNearestQuery(const Point<D>& point, std::size_t k) {
  return Query<D>::MakeKNearest(point, k);
}

/// All intersecting (left, right) pairs between the executing index and
/// `other` — pass the executing index itself for a self-join (each
/// unordered pair reported once, never `(id, id)`).
template <int D>
Query<D> JoinQuery(SpatialIndex<D>& other) {
  return Query<D>::MakeJoin(other);
}

/// All intersecting (left id, stream position) pairs between the executing
/// index and a borrowed box stream.
template <int D>
Query<D> JoinQuery(const std::vector<Box<D>>& stream) {
  return Query<D>::MakeJoin(stream);
}

template <int D>
Query<D> ConjunctiveQuery(std::vector<ConjunctiveTerm<D>> terms) {
  return Query<D>::MakeConjunction(std::move(terms));
}

/// The box that drives a query's single-index descent — the box the
/// adaptive indexes' `ConvergedFor` runs their read with: the query box for
/// ranges/counts, `[p, p]` for point probes, the driver term's box for
/// conjunctions. Must mirror `SpatialIndex::RunBoxQuery` exactly. Not
/// meaningful for kKNearest or kJoin (their `ConvergedFor` answers before
/// needing a box).
template <int D>
Box<D> DescentBox(const Query<D>& q) {
  switch (q.type()) {
    case QueryType::kPoint:
      return Box<D>(q.point(), q.point());
    case QueryType::kConjunction:
      return q.terms()[ConjunctionDriverIndex(q.terms())].box;
    default:
      return q.box();
  }
}

/// The exact refinement test of a range/count query.
template <int D>
constexpr bool MatchesPredicate(const Box<D>& object, const Box<D>& q,
                                RangePredicate predicate) {
  switch (predicate) {
    case RangePredicate::kIntersects:
      return object.Intersects(q);
    case RangePredicate::kContains:
      return object.ContainsBox(q);
    case RangePredicate::kContainedBy:
      return q.ContainsBox(object);
  }
  return false;
}

/// Result sink of the execution engine. Indexes stream matches into a sink
/// instead of appending to a vector, so aggregate queries never materialize
/// ids and bulk paths (a fully covered slice, a contained R-Tree node) cost
/// one virtual call instead of one per object.
///
/// Contract: `Emit`/`EmitRun` deliver matching object ids (unique within a
/// query); `AddMatches` delivers anonymous matches and is only used by the
/// count-only execution path (`QueryType::kCount`) — an id-collecting sink
/// never sees it for other query types. For `kKNearest`, ids arrive in
/// ascending (distance, id) order.
class Sink {
 public:
  virtual ~Sink() = default;

  /// One matching object.
  virtual void Emit(ObjectId id) = 0;

  /// A contiguous run of matching ids (bulk fast path).
  virtual void EmitRun(const ObjectId* ids, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Emit(ids[i]);
  }

  /// `n` anonymous matches (count-only execution paths).
  virtual void AddMatches(std::uint64_t n) = 0;
};

/// Collects ids into a caller-owned vector — the general-purpose sink of
/// tests and measurement loops.
class VectorSink final : public Sink {
 public:
  explicit VectorSink(std::vector<ObjectId>* out) : out_(out) {}
  void Emit(ObjectId id) override { out_->push_back(id); }
  void EmitRun(const ObjectId* ids, std::size_t n) override {
    out_->insert(out_->end(), ids, ids + n);
  }
  /// Anonymous matches carry no ids; pair count queries with a `CountSink`.
  void AddMatches(std::uint64_t) override {}

 private:
  std::vector<ObjectId>* out_;
};

/// Counts matches without storing anything — the sink for `kCount` queries.
class CountSink final : public Sink {
 public:
  void Emit(ObjectId) override { ++count_; }
  void EmitRun(const ObjectId*, std::size_t n) override { count_ += n; }
  void AddMatches(std::uint64_t n) override { count_ += n; }
  std::uint64_t count() const { return count_; }
  void Reset() { count_ = 0; }

 private:
  std::uint64_t count_ = 0;
};

/// An ordered join result pair: `first` identifies an object of the
/// executing (left) index, `second` an object of the right-hand set — the
/// partner index's object id, or the stream position on stream joins.
using IdPair = std::pair<ObjectId, ObjectId>;

/// Result sink of join execution (`Execute(query, PairSink&)`). Pairs
/// arrive canonicalized: unique, in ascending (left, right) order, and on
/// self-joins normalized to `left < right` — so every implementation
/// reports the bit-identical pair sequence for the same inputs.
class PairSink {
 public:
  virtual ~PairSink() = default;

  /// One qualifying pair.
  virtual void EmitPair(ObjectId left, ObjectId right) = 0;
};

/// Collects pairs into a caller-owned vector.
class VectorPairSink final : public PairSink {
 public:
  explicit VectorPairSink(std::vector<IdPair>* out) : out_(out) {}
  void EmitPair(ObjectId left, ObjectId right) override {
    out_->emplace_back(left, right);
  }

 private:
  std::vector<IdPair>* out_;
};

/// Counts pairs without storing them.
class CountPairSink final : public PairSink {
 public:
  void EmitPair(ObjectId, ObjectId) override { ++count_; }
  std::uint64_t count() const { return count_; }
  void Reset() { count_ = 0; }

 private:
  std::uint64_t count_ = 0;
};

/// Collects the raw candidate pairs of one join execution and
/// canonicalizes them at `Flush` — the single home of the join determinism
/// guarantee. Implementations `Add` pairs in whatever order their traversal
/// produces (including duplicates, and both orientations of a self-join
/// pair); `Flush` normalizes self-join pairs to (min, max) and drops the
/// `(id, id)` diagonal, sorts lexicographically, deduplicates, and streams
/// the survivors to the `PairSink`. Call `Flush` exactly once, at the end
/// of the execution.
class JoinEmitter {
 public:
  JoinEmitter(bool self_join, PairSink* sink)
      : self_join_(self_join), sink_(sink) {}

  /// One candidate pair (already exact — implementations only `Add` pairs
  /// whose boxes truly intersect).
  void Add(ObjectId left, ObjectId right) { pairs_.emplace_back(left, right); }

  void Flush() {
    if (self_join_) {
      std::size_t m = 0;
      for (const IdPair& p : pairs_) {
        if (p.first == p.second) continue;
        pairs_[m++] = {std::min(p.first, p.second),
                       std::max(p.first, p.second)};
      }
      pairs_.resize(m);
    }
    std::sort(pairs_.begin(), pairs_.end());
    pairs_.erase(std::unique(pairs_.begin(), pairs_.end()), pairs_.end());
    for (const IdPair& p : pairs_) sink_->EmitPair(p.first, p.second);
    pairs_.clear();
  }

 private:
  bool self_join_;
  PairSink* sink_;
  std::vector<IdPair> pairs_;
};

/// Streams or counts the matches of one box execution — the single home of
/// the emit-vs-count convention every index's `ExecuteBox` follows: id
/// paths `Add`/`AddRun` straight through to the sink, count-only paths
/// accumulate locally and report one `AddMatches` total at `Flush` (so no
/// id is ever materialized and the sink sees one call per query, not one
/// per partition).
class MatchEmitter {
 public:
  MatchEmitter(bool count_only, Sink* sink)
      : count_only_(count_only), sink_(sink) {}

  bool count_only() const { return count_only_; }

  /// One matching object.
  void Add(ObjectId id) {
    if (count_only_) {
      ++matches_;
    } else {
      sink_->Emit(id);
    }
  }

  /// A contiguous run of matching ids (bulk fast path).
  void AddRun(const ObjectId* ids, std::size_t n) {
    if (count_only_) {
      matches_ += n;
    } else {
      sink_->EmitRun(ids, n);
    }
  }

  /// `n` matches resolved without ids — only legal on count-only
  /// executions (bulk count paths that never touch an id column).
  void AddAnonymous(std::uint64_t n) { matches_ += n; }

  /// Reports the accumulated count to the sink. Call exactly once, at the
  /// end of the execution; a no-op for id-streaming executions.
  void Flush() {
    if (count_only_) {
      sink_->AddMatches(matches_);
      matches_ = 0;
    }
  }

 private:
  bool count_only_;
  Sink* sink_;
  std::uint64_t matches_ = 0;
};

/// One kNN result: an object id and its squared MBB distance to the query
/// point (squared distances order identically and avoid the sqrt).
struct Neighbor {
  ObjectId id = 0;
  double distance_sq = 0;
};

/// Bounded best-k collector for nearest-neighbor execution: a max-heap of at
/// most `k` (distance, id) pairs, ordered by distance with ties broken by
/// smaller id so every index returns bit-identical kNN results.
class TopKSink {
 public:
  explicit TopKSink(std::size_t k) : k_(k) {}

  std::size_t k() const { return k_; }
  std::size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() >= k_; }

  /// Current pruning bound: the squared distance of the worst kept neighbor
  /// once `k` are held, +inf before. A candidate with `distance_sq` strictly
  /// above the bound can never enter; one exactly at the bound still can
  /// (smaller id wins the tie), so prune with `>`, not `>=`.
  double bound() const {
    return full() && k_ > 0 ? heap_.front().distance_sq
                            : std::numeric_limits<double>::infinity();
  }

  void Offer(ObjectId id, double distance_sq) {
    if (k_ == 0) return;
    const Neighbor cand{id, distance_sq};
    if (heap_.size() < k_) {
      heap_.push_back(cand);
      std::push_heap(heap_.begin(), heap_.end(), Before);
      return;
    }
    if (Before(cand, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Before);
      heap_.back() = cand;
      std::push_heap(heap_.begin(), heap_.end(), Before);
    }
  }

  void Clear() { heap_.clear(); }

  /// The kept neighbors in ascending (distance, id) order; empties the sink.
  std::vector<Neighbor> TakeSorted() {
    std::sort(heap_.begin(), heap_.end(), Before);
    return std::move(heap_);
  }

 private:
  /// Strict weak order "a is a better (closer) neighbor than b". Used
  /// directly as the max-heap comparator: the heap root is the *worst* kept
  /// neighbor.
  static bool Before(const Neighbor& a, const Neighbor& b) {
    if (a.distance_sq != b.distance_sq) return a.distance_sq < b.distance_sq;
    return a.id < b.id;
  }

  std::size_t k_;
  std::vector<Neighbor> heap_;
};

/// Streams a TopKSink's results into a generic sink in ascending
/// (distance, id) order — the tail of every `kKNearest` execution.
inline void DrainTopK(TopKSink* topk, Sink* sink) {
  for (const Neighbor& nb : topk->TakeSorted()) sink->Emit(nb.id);
}

/// Generic kNN driver for indexes without a dedicated nearest-neighbor
/// traversal: probes cubes of doubling half-width around `pt` with the
/// index's own range machinery — so incremental indexes (QUASII, SFCracker,
/// Mosaic) keep cracking/refining under kNN workloads — until the current
/// k-th best distance is provably covered by the probed cube.
///
/// Correctness: an object whose MBB distance to `pt` is `m <= r` has its
/// closest point within the closed cube of half-width `r`, so its box
/// intersects the cube and the probe reports it. Each round therefore sees
/// *every* object at distance up to the cube's guaranteed half-width
/// (`r_eff`, computed from the rounded float corners), and the loop stops
/// when k candidates sit at or below it — or when the cube covers `bounds`,
/// the MBB of the whole dataset, and everything has been probed.
///
/// `probe(box, &out)` must append all ids whose MBB intersects `box`
/// (duplicates within one probe are not allowed); `data` maps ids back to
/// boxes for the exact distance — only ids the probe emits are ever
/// dereferenced, so slots of erased objects may hold stale boxes.
/// `population` is the number of *live* objects (the density input of the
/// initial radius; under mutation it differs from `data.size()`). The TopK
/// set is rebuilt from scratch each round (probes are nested, so later
/// rounds re-find earlier candidates).
template <int D, typename Probe>
void ExpandingRingKNearest(const std::vector<Box<D>>& data,
                           std::size_t population, const Box<D>& bounds,
                           const Point<D>& pt, std::size_t k, TopKSink* topk,
                           Probe&& probe) {
  if (k == 0 || population == 0 || bounds.IsEmpty()) return;
  double max_extent = 0;
  for (int d = 0; d < D; ++d) {
    max_extent = std::max(max_extent, static_cast<double>(bounds.Extent(d)));
  }
  // Initial half-width sized to the expected k-neighborhood, but at least
  // the distance to the data region (a far-away query point would otherwise
  // waste rounds on empty cubes) and strictly positive (degenerate bounds).
  double r = 0.5 * max_extent *
             std::pow((static_cast<double>(k) + 1.0) /
                          static_cast<double>(population),
                      1.0 / D);
  r = std::max(r, std::sqrt(bounds.MinDistSquaredTo(pt)));
  if (!(r > 0)) r = 1;

  std::vector<ObjectId> candidates;
  while (true) {
    Box<D> cube;
    bool covers_all = true;
    double r_eff = std::numeric_limits<double>::infinity();
    for (int d = 0; d < D; ++d) {
      cube.lo[d] = static_cast<Scalar>(static_cast<double>(pt[d]) - r);
      cube.hi[d] = static_cast<Scalar>(static_cast<double>(pt[d]) + r);
      covers_all = covers_all && cube.lo[d] <= bounds.lo[d] &&
                   cube.hi[d] >= bounds.hi[d];
      r_eff = std::min(r_eff, static_cast<double>(pt[d]) -
                                  static_cast<double>(cube.lo[d]));
      r_eff = std::min(r_eff, static_cast<double>(cube.hi[d]) -
                                  static_cast<double>(pt[d]));
    }
    // Probe the part of the cube that can hold objects: every object box
    // lies inside `bounds`, so clamping loses nothing and keeps probe
    // coordinates finite for grid/Z-order arithmetic.
    const Box<D> probe_box = cube.IntersectionWith(bounds);
    candidates.clear();
    if (!probe_box.IsEmpty()) probe(probe_box, &candidates);
    topk->Clear();
    for (const ObjectId id : candidates) {
      topk->Offer(id, data[id].MinDistSquaredTo(pt));
    }
    if (covers_all) return;
    if (topk->full() && topk->bound() <= r_eff * r_eff) return;
    r *= 2;
  }
}

}  // namespace quasii

#endif  // QUASII_COMMON_QUERY_H_
