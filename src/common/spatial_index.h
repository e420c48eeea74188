#ifndef QUASII_COMMON_SPATIAL_INDEX_H_
#define QUASII_COMMON_SPATIAL_INDEX_H_

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/object_store.h"
#include "common/query.h"
#include "common/query_stats.h"
#include "geometry/box.h"

namespace quasii {

/// An object as stored inside reorganizable index arrays: its MBB plus the
/// identifier pointing back into the object store.
template <int D>
struct Entry {
  Box<D> box;
  ObjectId id = 0;
};

using Entry2 = Entry<2>;
using Entry3 = Entry<3>;

/// Common interface of every index in the evaluation (Section 6.1 list:
/// Scan, SFC, SFCracker, Grid, Mosaic, R-Tree, QUASII).
///
/// Usage protocol:
///   1. construct with the dataset (ids are dataset positions); the base
///      class wraps it in a copy-on-write `ObjectStore`, so the caller's
///      vector is never mutated;
///   2. call `Build()` once — static indexes pay their pre-processing cost
///      here, incremental ones return immediately;
///   3. call `Execute()` repeatedly with typed queries (range with a
///      topological predicate, point, count, k-nearest, conjunctive plans),
///      streaming results into a `Sink` — or, for joins, into a `PairSink`
///      via the pair overload. Incremental indexes reorganize internal
///      state as a side effect, which is why `Execute` is non-const;
///   4. interleave `Insert(id, box)` / `Erase(id)` freely with queries —
///      the store enforces the roster-wide mutation semantics (insert only
///      non-live ids, erase only live ones, reinsert-after-erase allowed)
///      and each index maintains its structure via `OnInsert`/`OnErase`.
///
/// Concurrency contract: `Execute`, `Insert`, and `Erase` may be called
/// from any number of threads at once (each concurrently executing thread
/// must hold a distinct stats slot — every `TaskScheduler` worker holds
/// one). A reader-writer lock in this base class arbitrates: mutations
/// and reorganizing executions take the exclusive side; every execution
/// first makes one attempt under the shared side (`TryExecuteShared`),
/// which either runs the query without changing index state or declines
/// before anything reaches the sink, and a declined query runs again under
/// the exclusive side. Static indexes are read-safe as soon as they are
/// built. An adaptive index (QUASII, SFCracker, Mosaic) splits each box
/// execution in two: a refine pre-pass that cracks/splits what the query
/// touches, run only under the exclusive side, then one `const`
/// plan-then-scan read. The shared attempt runs that same read, which
/// declines, with no counts and no emits, while the query would still
/// crack/split. An index-vs-index join locks BOTH indexes (in a global
/// address order, so concurrent A⋈B and B⋈A cannot deadlock) and runs
/// shared only when both sides' `ConvergedFor` agree. `Build()` and the
/// stats accessors are NOT thread-safe — call them while no query is in
/// flight.
///
/// `Execute` normalizes the query — empty boxes short-circuit (an inverted
/// box matches nothing and must not trigger reorganization), a point query
/// becomes the zero-extent closed range `[p, p]`, a conjunctive plan routes
/// its smallest-volume term as the driver descent — and dispatches to the
/// two per-index primitives: `ExecuteBox` (range/point/count/conjunction;
/// `count_only` switches the leaf paths to anonymous `Sink::AddMatches` so
/// no id is ever materialized) and `ExecuteKNearest` (results emitted in
/// ascending (distance, id) order). Joins dispatch to `ExecuteJoin` /
/// `ExecuteStreamJoin`, which default to index-nested-loop probes through
/// `ExecuteBox` — so every index joins correctly out of the box, and
/// adaptive ones crack from the probe traffic.
template <int D>
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Human-readable name used by the experiment harness ("R-Tree", ...).
  virtual std::string_view name() const = 0;

  /// One-off pre-processing. No-op for incremental indexes. Not
  /// thread-safe: call before queries start flowing.
  virtual void Build() {}

  /// Whether executing `query` right now is guaranteed not to change any
  /// index state (beyond the caller's own stats shard). The default
  /// `TryExecuteShared` asks it before a shared-lock read, and joins ask it
  /// of both participants.
  /// Static indexes answer true once built; adaptive indexes answer with
  /// their `const` read run with nothing recorded, so true means the
  /// query's descent would touch only converged structure. For `kJoin` the
  /// answer covers only this side's structure. Only meaningful under at
  /// least the shared lock (i.e. from inside `Execute`) or while no other
  /// thread is mutating; conservative `false` is always correct.
  virtual bool ConvergedFor(const Query<D>& query) const {
    (void)query;
    return false;
  }

  /// Adds object `id` with MBB `box`. Fails (returns false, no state
  /// change) when `id` is currently live or `box` is empty or has a NaN or
  /// infinite coordinate; an id erased earlier may be re-inserted, with any
  /// valid box. Takes the exclusive side of the index lock.
  bool Insert(ObjectId id, const Box<D>& box) {
    if (!IsFinite(box) || box.IsEmpty()) return false;
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (!store_.Insert(id, box)) return false;
    OnInsert(id, box);
    return true;
  }

  /// Removes object `id`. Fails (returns false) when `id` is not live —
  /// including ids that were never inserted. Takes the exclusive side of
  /// the index lock.
  bool Erase(ObjectId id) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (!store_.Erase(id)) return false;
    OnErase(id);
    return true;
  }

  /// The index's view of the object population (live set, boxes, bounds).
  const ObjectStore<D>& store() const { return store_; }

  /// --- Persistence surface (used by `src/persist/`) ---
  ///
  /// Serializes the index's internal structure (everything beyond the
  /// store: crack columns, slice trees, packed nodes) by appending to
  /// `out` and returns true. The default returns false: the index declares
  /// *rebuild-from-store* and a snapshot carries only the object table.
  /// Not thread-safe — call while no query is in flight.
  virtual bool SerializeStructure(ByteWriter& out) const {
    (void)out;
    return false;
  }

  /// Restores structure previously produced by `SerializeStructure`, after
  /// the store has been restored via `RestoreSlots`. Returns false when the
  /// blob is inconsistent — the caller must treat the index as unusable
  /// (recovery surfaces this as a typed error). Not thread-safe.
  virtual bool DeserializeStructure(std::string_view bytes) {
    (void)bytes;
    return false;
  }

  /// Store-only restore path: re-derives the structure from the restored
  /// store. Static indexes rebuild eagerly; lazily-initialized ones reset
  /// so their next query re-reads the store. Not thread-safe.
  virtual void RebuildFromStore() { Build(); }

  /// Structural self-check for recovery validation and test teardown:
  /// true when the index's invariants hold against its store. Overrides
  /// extend the base (store-only) check with index-specific structure
  /// validation. False fills `why` (when non-null) with the first
  /// violation. Not thread-safe, potentially O(n).
  virtual bool CheckInvariants(std::string* why = nullptr) const {
    return store_.CheckInvariants(why);
  }

  /// Mutable store access for recovery's `RestoreSlots` — the one caller
  /// allowed to bypass the `Insert`/`Erase` protocol. Single-threaded.
  ObjectStore<D>& MutableStoreForRecovery() { return store_; }

  /// Per-row column footprint of the index's scan structures:
  /// `resident_bytes` is the bytes its per-row columns (and any per-id
  /// lookup map it currently holds) occupy; indexes without per-row
  /// columns report zero. A gauge, not a `QueryStats` counter, because
  /// summing sharded slots would multiply it. Not thread-safe: read between
  /// batches like the persistence surface.
  struct ColumnMemory {
    std::uint64_t resident_bytes = 0;
    /// Always 0; kept only because `qbench/` reads it, goes in the next
    /// benchmark change.
    std::uint64_t packed_rows = 0;
  };
  virtual ColumnMemory column_memory() const { return {}; }

  /// Typed query execution: the one entry point every id-producing query
  /// funnels through (joins produce pairs — use the `PairSink` overload).
  /// Thread-safe (see the class comment): attempts the query under the
  /// shared lock (`TryExecuteShared`) and runs it under the exclusive lock
  /// when the attempt declines.
  virtual void Execute(const Query<D>& query, Sink& sink) {
    // Degenerate queries resolve to nothing without touching (or locking)
    // any structure: an inverted box matches nothing and must not trigger
    // reorganization. (Malformed descriptions — k == 0, empty plans — are
    // unrepresentable: Query construction is factory-validated.)
    switch (query.type()) {
      case QueryType::kRange:
      case QueryType::kCount:
        if (query.box().IsEmpty()) return;
        break;
      case QueryType::kConjunction:
        for (const ConjunctiveTerm<D>& term : query.terms()) {
          if (term.box.IsEmpty()) return;
        }
        break;
      case QueryType::kJoin:
        QueryApiAbort(
            "joins emit pairs; use the Execute(query, PairSink&) overload");
      case QueryType::kPoint:
      case QueryType::kKNearest:
        break;
    }
    {
      std::shared_lock<std::shared_mutex> lock(mutex_);
      if (TryExecuteShared(query, sink)) return;
    }
    std::unique_lock<std::shared_mutex> lock(mutex_);
    Dispatch(query, sink);
  }

  /// Join execution: streams every qualifying pair into `sink` in canonical
  /// order (unique, ascending (left, right); self-joins report each
  /// unordered pair once and never `(id, id)` — see `JoinEmitter`).
  /// Thread-safe: an index-vs-index join locks both participants in global
  /// address order and runs shared only when both sides' `ConvergedFor`
  /// approve; otherwise both are locked exclusively so the adaptive
  /// implementations may crack either side.
  virtual void Execute(const Query<D>& query, PairSink& sink) {
    if (query.type() != QueryType::kJoin) {
      QueryApiAbort(
          "only joins emit pairs; use the Execute(query, Sink&) overload");
    }
    if (const std::vector<Box<D>>* stream = query.join_stream()) {
      JoinEmitter emit(/*self_join=*/false, &sink);
      {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        if (ConvergedFor(query)) {
          ExecuteStreamJoin(*stream, emit);
          emit.Flush();
          return;
        }
      }
      std::unique_lock<std::shared_mutex> lock(mutex_);
      ExecuteStreamJoin(*stream, emit);
      emit.Flush();
      return;
    }
    SpatialIndex<D>* other = query.join_other();
    const bool self = (other == this);
    JoinEmitter emit(self, &sink);
    // Global address order makes concurrent A⋈B and B⋈A acquire the two
    // locks in the same sequence — no deadlock.
    SpatialIndex<D>* first = this;
    SpatialIndex<D>* second = other;
    if (std::less<SpatialIndex<D>*>{}(second, first)) std::swap(first, second);
    {
      std::shared_lock<std::shared_mutex> lock1(first->mutex_);
      std::shared_lock<std::shared_mutex> lock2;
      if (!self) lock2 = std::shared_lock<std::shared_mutex>(second->mutex_);
      if (ConvergedFor(query) && (self || other->ConvergedFor(query))) {
#ifndef NDEBUG
        const std::uint64_t cracks_before = stats_.Local().cracks;
        const std::uint64_t moved_before = stats_.Local().objects_moved;
        const std::uint64_t other_cracks_before = other->stats_.Local().cracks;
        const std::uint64_t other_moved_before =
            other->stats_.Local().objects_moved;
#endif
        ExecuteJoin(*other, emit);
        emit.Flush();
#ifndef NDEBUG
        assert(stats_.Local().cracks == cracks_before &&
               stats_.Local().objects_moved == moved_before &&
               other->stats_.Local().cracks == other_cracks_before &&
               other->stats_.Local().objects_moved == other_moved_before &&
               "ConvergedFor approved a join that reorganized");
#endif
        return;
      }
    }
    std::unique_lock<std::shared_mutex> lock1(first->mutex_);
    std::unique_lock<std::shared_mutex> lock2;
    if (!self) lock2 = std::unique_lock<std::shared_mutex>(second->mutex_);
    ExecuteJoin(*other, emit);
    emit.Flush();
  }

  /// Cumulative work counters since construction, merged over every
  /// thread's shard. Not thread-safe: read between batches, not mid-batch.
  QueryStats stats() const { return stats_.Merged(); }
  void ResetStats() { stats_.Reset(); }

  /// The calling thread's shard alone — the per-op delta source for
  /// sequential measurement loops, where it equals the merged view's delta
  /// without folding all `kStatsSlots` slots around every timed op.
  const QueryStats& thread_stats() const { return stats_.Local(); }

 protected:
  explicit SpatialIndex(const std::vector<Box<D>>& data) : store_(data) {}

  /// Structure maintenance after a successful store insert/erase. Called
  /// exactly once per accepted mutation (under the exclusive lock), after
  /// the store reflects it (so `store().box(id)` is the new box in
  /// `OnInsert`, and still the erased object's box in `OnErase`).
  virtual void OnInsert(ObjectId id, const Box<D>& box) = 0;
  virtual void OnErase(ObjectId id) = 0;

  /// Range/point/count execution over a non-empty (possibly zero-extent)
  /// box. Implementations stream ids via `Emit`/`EmitRun` — or, when
  /// `count_only`, report anonymous totals via `AddMatches` and never touch
  /// ids.
  ///
  /// Traversal contract (shared by every index): the implementation builds
  /// one `MatchEmitter` for the execution and threads a small per-call
  /// context — the ORIGINAL query box for the exact predicate filter, the
  /// predicate, the emitter, plus whatever the index's traversal needs
  /// (e.g. a pre-extended probe box for centre-assigned structures) —
  /// through its walk, then calls `Flush` exactly once at the end. The
  /// context lives on the caller's stack, never in index members, so
  /// concurrent shared-mode executions cannot interfere; per-index `BoxExec`
  /// comments below document only their deltas from this contract. An
  /// adaptive index runs its refine pre-pass, then the `const` read its
  /// `TryExecuteShared` runs, which must not decline (`AbortDeclinedRead`).
  virtual void ExecuteBox(const Box<D>& q, RangePredicate predicate,
                          bool count_only, Sink& sink) = 0;

  /// k-nearest-neighbor execution (`k >= 1`): emit the ids of the `k`
  /// objects with smallest `Box::MinDistSquaredTo(pt)` in ascending
  /// (distance, id) order (fewer when the dataset is smaller than `k`).
  virtual void ExecuteKNearest(const Point<D>& pt, std::size_t k,
                               Sink& sink) = 0;

  /// The shared-lock attempt of `Execute` (the caller holds the shared
  /// lock): either runs `query` into `sink` without changing any index
  /// state and returns true, or returns false having touched neither the
  /// sink nor the stats, and `Execute` runs the query under the exclusive
  /// lock instead. The default, for indexes that never reorganize, asks
  /// `ConvergedFor` and then dispatches. An adaptive index overrides it to
  /// run its `const` read through `RunBoxQuery`, declining kNN.
  virtual bool TryExecuteShared(const Query<D>& query, Sink& sink) {
    // Holding the shared lock excludes writers, so a true answer stays
    // true for the whole dispatch.
    if (!ConvergedFor(query)) return false;
    Dispatch(query, sink);
    return true;
  }

  /// The one query-type switch of a box query (range, point, count or
  /// conjunction): calls `run(box, predicate, count_only, sink)` with the
  /// box the query descends with, and returns what it returns. A point
  /// probes `[p, p]`; a conjunctive plan runs its driver term (the
  /// smallest-volume one: sound for any driver, since containment implies
  /// intersection and every index executes all three predicates exactly)
  /// and, with several terms, filters the driver's candidates through the
  /// rest. A conjunction is never count-only: the filter needs ids, so
  /// count consumers count the emitted stream. kNN and joins are not box
  /// queries: false, `run` never called. `Dispatch` runs `ExecuteBox`
  /// through it, and adaptive indexes their shared-lock read.
  template <typename Run>
  bool RunBoxQuery(const Query<D>& query, Sink& sink, Run&& run) {
    switch (query.type()) {
      case QueryType::kRange:
      case QueryType::kCount:
        return run(query.box(), query.predicate(),
                   query.type() == QueryType::kCount, sink);
      case QueryType::kPoint:
        return run(Box<D>(query.point(), query.point()),
                   RangePredicate::kIntersects, false, sink);
      case QueryType::kConjunction: {
        const std::vector<ConjunctiveTerm<D>>& terms = query.terms();
        const std::size_t driver = ConjunctionDriverIndex(terms);
        const ConjunctiveTerm<D>& term = terms[driver];
        if (terms.size() == 1) {
          return run(term.box, term.predicate, false, sink);
        }
        ConjunctionFilterSink filter(&store_, &terms, driver, &sink);
        return run(term.box, term.predicate, false, filter);
      }
      case QueryType::kKNearest:
      case QueryType::kJoin:
        return false;
    }
    return false;
  }

  /// The end of an adaptive index's exclusive box execution: its read just
  /// declined although the refine pre-pass before it left nothing to
  /// crack/split. That is a bug, and a partial or empty answer would hide
  /// it, so the program stops in every build type.
  [[noreturn]] void AbortDeclinedRead() const {
    const std::string_view index = name();
    std::fprintf(stderr, "%.*s: a read declined after its refine pre-pass\n",
                 static_cast<int>(index.size()), index.data());
    std::abort();
  }

  /// Index-vs-index join body: `Add` every pair (left id from this index,
  /// right id from `other`) whose MBBs intersect. `other` may be `*this`
  /// (self-join); canonicalization — ordering, dedup, diagonal removal —
  /// happens in the emitter's `Flush`, which the caller owns. Default is
  /// the generic index-nested-loop: probe this index with every live box of
  /// `other`, so any index pair joins correctly and adaptive left sides
  /// crack from the probe traffic. Overrides provide the synchronized
  /// traversals (R-Tree node-pair descent, QUASII's both-sides crack-driven
  /// descent) when `other` is of their own type.
  virtual void ExecuteJoin(SpatialIndex<D>& other, JoinEmitter& emit) {
    other.store_.ForEachLive([&](ObjectId rid, const Box<D>& b) {
      ProbeJoinLeft(b, rid, &emit);
    });
  }

  /// Index-vs-stream join body: `Add` every pair (left id from this index,
  /// stream position) whose MBBs intersect. Empty stream boxes match
  /// nothing. Default: one probe per stream box.
  virtual void ExecuteStreamJoin(const std::vector<Box<D>>& stream,
                                 JoinEmitter& emit) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ProbeJoinLeft(stream[i], static_cast<ObjectId>(i), &emit);
    }
  }

  /// Probes this index with `box` and records each hit as the pair
  /// (hit, right_id) — the building block of nested-loop joins where this
  /// index is the left side.
  void ProbeJoinLeft(const Box<D>& box, ObjectId right_id, JoinEmitter* emit) {
    if (box.IsEmpty()) return;
    ProbePairSink probe(emit, right_id, /*hit_is_left=*/true);
    ExecuteBox(box, RangePredicate::kIntersects, /*count_only=*/false, probe);
  }

  /// Probes this index with `box` and records each hit as the pair
  /// (left_id, hit) — for nested-loop legs where this index is the right
  /// side (e.g. a partner's overflow rows probed against this structure).
  void ProbeJoinRight(const Box<D>& box, ObjectId left_id, JoinEmitter* emit) {
    if (box.IsEmpty()) return;
    ProbePairSink probe(emit, left_id, /*hit_is_left=*/false);
    ExecuteBox(box, RangePredicate::kIntersects, /*count_only=*/false, probe);
  }

  /// Shared `ExecuteKNearest` body for indexes without a dedicated
  /// nearest-neighbor traversal: expanding-ring range probes through this
  /// index's own `ExecuteBox` (so incremental indexes keep reorganizing
  /// under kNN workloads), drained into `sink` in (distance, id) order.
  /// Boxes and the live bounds come from the object store, so the ring
  /// tracks inserts and erases automatically.
  void RingKNearest(const Point<D>& pt, std::size_t k, Sink& sink) {
    TopKSink topk(k);
    ExpandingRingKNearest<D>(
        store_.boxes(), store_.live_count(), store_.bounds(), pt, k, &topk,
        [this](const Box<D>& cube, std::vector<ObjectId>* out) {
          VectorSink probe_sink(out);
          ExecuteBox(cube, RangePredicate::kIntersects, /*count_only=*/false,
                     probe_sink);
        });
    DrainTopK(&topk, &sink);
  }

  /// Work counters of the calling thread — the only stats view execution
  /// paths may write. Each concurrent thread owns one shard; `stats()`
  /// merges them.
  QueryStats& Stats() { return stats_.Local(); }

  ObjectStore<D> store_;
  ShardedQueryStats stats_;

 private:
  /// Filters a driver descent's candidates through the remaining terms of a
  /// conjunctive plan — the exact refinement the driver's own predicate
  /// check does not cover.
  class ConjunctionFilterSink final : public Sink {
   public:
    ConjunctionFilterSink(const ObjectStore<D>* store,
                          const std::vector<ConjunctiveTerm<D>>* terms,
                          std::size_t driver, Sink* out)
        : store_(store), terms_(terms), driver_(driver), out_(out) {}
    void Emit(ObjectId id) override {
      const Box<D>& b = store_->box(id);
      for (std::size_t t = 0; t < terms_->size(); ++t) {
        if (t == driver_) continue;
        if (!MatchesPredicate(b, (*terms_)[t].box, (*terms_)[t].predicate)) {
          return;
        }
      }
      out_->Emit(id);
    }
    void AddMatches(std::uint64_t n) override { out_->AddMatches(n); }

   private:
    const ObjectStore<D>* store_;
    const std::vector<ConjunctiveTerm<D>>* terms_;
    std::size_t driver_;
    Sink* out_;
  };

  /// Adapts a box execution into join pairs: each emitted id pairs with the
  /// fixed partner id, on the side `hit_is_left` selects.
  class ProbePairSink final : public Sink {
   public:
    ProbePairSink(JoinEmitter* emit, ObjectId fixed, bool hit_is_left)
        : emit_(emit), fixed_(fixed), hit_is_left_(hit_is_left) {}
    void Emit(ObjectId id) override {
      if (hit_is_left_) {
        emit_->Add(id, fixed_);
      } else {
        emit_->Add(fixed_, id);
      }
    }
    void AddMatches(std::uint64_t) override {}

   private:
    JoinEmitter* emit_;
    ObjectId fixed_;
    bool hit_is_left_;
  };

  /// The locked body of `Execute`: kNN to `ExecuteKNearest`, every box
  /// query to `ExecuteBox` through `RunBoxQuery`. The caller holds the
  /// exclusive lock, or the shared one when `ConvergedFor` approved the
  /// query (indexes that never reorganize only).
  void Dispatch(const Query<D>& query, Sink& sink) {
    if (query.type() == QueryType::kKNearest) {
      ExecuteKNearest(query.point(), query.k(), sink);
      return;
    }
    RunBoxQuery(query, sink,
                [this](const Box<D>& q, RangePredicate predicate,
                       bool count_only, Sink& s) {
                  ExecuteBox(q, predicate, count_only, s);
                  return true;
                });
  }

  /// Reader-writer arbitration between concurrent converged/static reads
  /// (shared) and mutations or reorganizing executions (exclusive).
  mutable std::shared_mutex mutex_;
};

}  // namespace quasii

#endif  // QUASII_COMMON_SPATIAL_INDEX_H_
