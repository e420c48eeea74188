#ifndef QUASII_COMMON_OBJECT_STORE_H_
#define QUASII_COMMON_OBJECT_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/query.h"
#include "geometry/box.h"

namespace quasii {

/// The mutable id → MBB table behind every index's dynamic-data support.
///
/// Construction wraps the caller's dataset as a zero-copy *view* (the
/// bulk-load setting of the paper: ids are dataset positions, everything is
/// alive). The first `Insert`/`Erase` switches to copy-on-write: the boxes
/// are copied into an owned table with a per-slot liveness byte, and the
/// original dataset is never touched again — so several indexes sharing one
/// dataset each mutate their own store independently.
///
/// Semantics (the roster-wide mutation contract):
///  - `Insert(id, box)` succeeds iff `id` is not currently alive; ids past
///    the current slot range grow the table, and erased slots may be
///    re-inserted (possibly with a different box).
///  - `Erase(id)` succeeds iff `id` is alive; the slot's box stays readable
///    until a reinsert overwrites it (indexes use it to locate stale
///    copies), but `alive(id)` turns false immediately.
///  - `box(id)` may only be called for ids that are (or were) stored;
///    `boxes()` exposes the full slot table for id-indexed lookups (kNN
///    drivers) — only live ids may be dereferenced through it.
///
/// Concurrency: every accessor is a plain read with no hidden cache fills
/// (the live MBB is maintained eagerly by the mutations), so any number of
/// threads may read concurrently as long as mutations are excluded — the
/// locking discipline `SpatialIndex` enforces. `version()` is the mutation
/// epoch: it ticks once per accepted `Insert`/`Erase` (atomically, so it may
/// be polled without holding the index lock), letting a reader detect that
/// the population changed between two looks at the store.
template <int D>
class ObjectStore {
 public:
  /// Wraps `data` as the initial population. Every box must be finite: a
  /// NaN or infinite coordinate would poison every comparison-based
  /// traversal, so it is trusted-caller misuse and aborts naming the
  /// offending id, the way `QueryApiAbort` treats misuse of the query API.
  explicit ObjectStore(const std::vector<Box<D>>& data)
      : view_(&data), live_count_(data.size()) {
    bounds_ = Box<D>::Empty();
    for (std::size_t id = 0; id < data.size(); ++id) {
      if (!IsFinite(data[id])) AbortNonFinite(id);
      bounds_.ExpandToInclude(data[id]);
    }
  }
  /// The store keeps a view of `data` until the first mutation, so a
  /// temporary would dangle.
  explicit ObjectStore(std::vector<Box<D>>&&) = delete;

  /// Upper bound (exclusive) of ids ever stored.
  std::size_t slots() const { return view_ ? view_->size() : boxes_.size(); }
  std::size_t live_count() const { return live_count_; }
  /// True once any `Insert`/`Erase` succeeded (the store owns its boxes).
  bool mutated() const { return view_ == nullptr; }

  /// Mutation epoch: incremented by every accepted `Insert`/`Erase`. Two
  /// equal reads bracket a span with no population change.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  bool alive(ObjectId id) const {
    if (view_) return id < view_->size();
    return id < alive_.size() && alive_[id] != 0;
  }

  const Box<D>& box(ObjectId id) const {
    return view_ ? (*view_)[id] : boxes_[id];
  }

  /// The id-indexed slot table (view or owned copy). Slots of erased ids
  /// hold their last box; only live ids may be dereferenced.
  const std::vector<Box<D>>& boxes() const {
    return view_ ? *view_ : boxes_;
  }

  bool Insert(ObjectId id, const Box<D>& b) {
    if (alive(id)) return false;
    Materialize();
    if (id >= boxes_.size()) {
      boxes_.resize(static_cast<std::size_t>(id) + 1);
      alive_.resize(static_cast<std::size_t>(id) + 1, 0);
    }
    boxes_[id] = b;
    alive_[id] = 1;
    ++live_count_;
    bounds_.ExpandToInclude(b);
    version_.fetch_add(1, std::memory_order_release);
    return true;
  }

  bool Erase(ObjectId id) {
    if (!alive(id)) return false;
    Materialize();
    alive_[id] = 0;
    --live_count_;
    // The live MBB only shrinks when a boundary-touching box leaves; it is
    // recomputed here, eagerly, so `bounds()` stays a plain read that any
    // number of concurrent query threads may share. The trade: such an
    // erase costs O(live). Interior erases (the common case — uniform
    // victims rarely attain the hull) stay O(1), but data whose boxes all
    // touch one bounding plane pays the recompute per erase; if such an
    // erase-heavy workload ever matters, batch the shrink under the
    // exclusive lock rather than reintroducing a lazily-filled cache the
    // shared readers would race on.
    if (!StrictlyInside(boxes_[id], bounds_)) RecomputeBounds();
    version_.fetch_add(1, std::memory_order_release);
    return true;
  }

  /// MBB of the live objects — the kNN termination bound. Maintained
  /// eagerly: inserts expand it in place, erases of boundary boxes
  /// recompute it on the spot.
  const Box<D>& bounds() const { return bounds_; }

  /// Recovery entry point (`src/persist/`): replaces the whole population
  /// with snapshot state — the slot table, the liveness column, and the
  /// mutation epoch (the snapshot's LSN, so WAL replay continues exactly
  /// where the snapshot left off). Always lands in owned mode, even when
  /// the snapshot was taken from an unmutated view: recovery severs any
  /// tie to a caller's dataset vector. Live count and bounds are
  /// re-derived. Not thread-safe (nothing may query during recovery).
  void RestoreSlots(std::vector<Box<D>> boxes, std::vector<std::uint8_t> alive,
                    std::uint64_t version) {
    boxes_ = std::move(boxes);
    alive_ = std::move(alive);
    alive_.resize(boxes_.size(), 0);
    view_ = nullptr;
    live_count_ = 0;
    for (const std::uint8_t a : alive_) live_count_ += a != 0;
    RecomputeBounds();
    version_.store(version, std::memory_order_release);
  }

  /// Structural self-check: the liveness column, live count, and
  /// eagerly-maintained bounds agree. False fills `why` (when non-null)
  /// with the first violation. Debug/recovery validation — O(live).
  bool CheckInvariants(std::string* why) const {
    if (!view_ && alive_.size() != boxes_.size()) {
      if (why) *why = "object store: alive column size != slot count";
      return false;
    }
    std::size_t live = 0;
    Box<D> mbb = Box<D>::Empty();
    ForEachLive([&](ObjectId, const Box<D>& b) {
      ++live;
      mbb.ExpandToInclude(b);
    });
    if (live != live_count_) {
      if (why) *why = "object store: live_count disagrees with live column";
      return false;
    }
    if (live > 0 && !(mbb == bounds_)) {
      if (why) *why = "object store: bounds are not the exact live MBB";
      return false;
    }
    return true;
  }

  /// Invokes `fn(id, box)` for every live object, in ascending id order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    if (view_) {
      for (ObjectId id = 0; id < view_->size(); ++id) fn(id, (*view_)[id]);
      return;
    }
    for (ObjectId id = 0; id < boxes_.size(); ++id) {
      if (alive_[id]) fn(id, boxes_[id]);
    }
  }

 private:
  [[noreturn]] static void AbortNonFinite(std::size_t id) {
    std::fprintf(stderr,
                 "quasii object store: object %zu has a NaN or infinite "
                 "coordinate\n",
                 id);
    std::abort();
  }

  /// Copy-on-write switch: copies the viewed dataset into the owned table.
  void Materialize() {
    if (!view_) return;
    boxes_ = *view_;
    alive_.assign(boxes_.size(), 1);
    view_ = nullptr;
  }

  void RecomputeBounds() {
    bounds_ = Box<D>::Empty();
    ForEachLive([this](ObjectId, const Box<D>& b) {
      bounds_.ExpandToInclude(b);
    });
  }

  static bool StrictlyInside(const Box<D>& b, const Box<D>& outer) {
    for (int d = 0; d < D; ++d) {
      if (b.lo[d] <= outer.lo[d] || b.hi[d] >= outer.hi[d]) return false;
    }
    return true;
  }

  const std::vector<Box<D>>* view_;
  std::vector<Box<D>> boxes_;
  std::vector<std::uint8_t> alive_;
  std::size_t live_count_ = 0;
  Box<D> bounds_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace quasii

#endif  // QUASII_COMMON_OBJECT_STORE_H_
