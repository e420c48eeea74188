#ifndef QUASII_ZORDER_DECOMPOSE_H_
#define QUASII_ZORDER_DECOMPOSE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "zorder/zorder.h"

namespace quasii::zorder {

/// An inclusive range `[lo, hi]` of Z-codes.
struct ZInterval {
  ZCode lo = 0;
  ZCode hi = 0;

  friend constexpr bool operator==(const ZInterval& a, const ZInterval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// Decomposes a cell-aligned query rectangle into sorted, disjoint Z-code
/// intervals — the technique the paper adopts from Tropf & Herzog [43] to
/// avoid the false-positive blow-up of naive 1d query transformation
/// (Section 3.1, Figure 1).
///
/// The recursion walks the implicit quad/octree of Z-code prefixes: a node
/// entirely inside the rectangle contributes one maximal interval, a node
/// entirely outside contributes nothing, and partial overlap recurses into
/// the node's 2^D children in Z order, so emitted intervals arrive already
/// sorted; adjacent intervals are merged on the fly.
///
/// `max_intervals > 0` bounds the output size: once the budget is reached,
/// partially-overlapping nodes emit their full (superset) range instead of
/// recursing. Every user filters candidates against the real query box, so
/// supersets only cost false positives, never correctness.
template <int D>
class ZRangeDecomposer {
 public:
  using Cells = std::array<std::uint32_t, D>;

  static void Decompose(const Cells& rect_lo, const Cells& rect_hi,
                        int max_intervals, std::vector<ZInterval>* out) {
    Context ctx{rect_lo, rect_hi, max_intervals, out};
    Recurse(ctx, Cells{}, 0);
  }

 private:
  static constexpr int kBits = ZTraits<D>::kBitsPerDim;

  struct Context {
    const Cells& rect_lo;
    const Cells& rect_hi;
    int max_intervals;
    std::vector<ZInterval>* out;
  };

  static void Emit(const Context& ctx, ZCode lo, ZCode hi) {
    std::vector<ZInterval>& v = *ctx.out;
    if (!v.empty() && v.back().hi + 1 == lo) {
      v.back().hi = hi;  // merge adjacent ranges
    } else {
      v.push_back(ZInterval{lo, hi});
    }
  }

  // `c` holds the node's cell coordinates in units of the node's side
  // (2^(kBits-level) base cells); `level` counts refined bits per dim.
  static void Recurse(const Context& ctx, const Cells& c, int level) {
    const int shift = kBits - level;
    bool contained = true;
    Cells full_lo;  // node bounds in base-cell units
    for (int d = 0; d < D; ++d) {
      const std::uint32_t lo = c[static_cast<size_t>(d)] << shift;
      const std::uint32_t hi = lo + ((std::uint32_t{1} << shift) - 1);
      if (lo > ctx.rect_hi[static_cast<size_t>(d)] ||
          hi < ctx.rect_lo[static_cast<size_t>(d)]) {
        return;  // disjoint
      }
      if (lo < ctx.rect_lo[static_cast<size_t>(d)] ||
          hi > ctx.rect_hi[static_cast<size_t>(d)]) {
        contained = false;
      }
      full_lo[static_cast<size_t>(d)] = lo;
    }
    const bool budget_exhausted =
        ctx.max_intervals > 0 &&
        static_cast<int>(ctx.out->size()) >= ctx.max_intervals;
    if (contained || level == kBits || budget_exhausted) {
      const ZCode base = ZTraits<D>::Encode(full_lo);
      const ZCode span =
          shift == 0 ? 0 : ((ZCode{1} << (D * shift)) - 1);
      Emit(ctx, base, base + span);
      return;
    }
    for (std::uint32_t child = 0; child < (std::uint32_t{1} << D); ++child) {
      Cells cc;
      for (int d = 0; d < D; ++d) {
        cc[static_cast<size_t>(d)] =
            (c[static_cast<size_t>(d)] << 1) | ((child >> d) & 1u);
      }
      Recurse(ctx, cc, level + 1);
    }
  }
};

/// Per-thread decomposition scratch shared by the SFC-based indexes:
/// returns the interval list for `(rect_lo, rect_hi, max_intervals)`,
/// reusing the previous result when the arguments repeat — decomposition
/// is a pure function of them, so SFCracker's refine pre-pass followed by
/// the read of the same query costs one decomposition, and repeated calls
/// on one thread never reallocate. Thread-local, so concurrent queries
/// never share a buffer; the reference stays valid until the calling
/// thread's next call.
template <int D>
const std::vector<ZInterval>& DecomposeCached(
    const typename ZRangeDecomposer<D>::Cells& rect_lo,
    const typename ZRangeDecomposer<D>::Cells& rect_hi, int max_intervals) {
  struct Scratch {
    typename ZRangeDecomposer<D>::Cells lo{};
    typename ZRangeDecomposer<D>::Cells hi{};
    int max_intervals = -1;  // never matches a real (positive) budget
    std::vector<ZInterval> intervals;
  };
  static thread_local Scratch scratch;
  if (scratch.max_intervals != max_intervals || scratch.lo != rect_lo ||
      scratch.hi != rect_hi) {
    scratch.lo = rect_lo;
    scratch.hi = rect_hi;
    scratch.max_intervals = max_intervals;
    scratch.intervals.clear();
    ZRangeDecomposer<D>::Decompose(rect_lo, rect_hi, max_intervals,
                                   &scratch.intervals);
  }
  return scratch.intervals;
}

}  // namespace quasii::zorder

#endif  // QUASII_ZORDER_DECOMPOSE_H_
