#ifndef QUASII_COMMON_SIMD_H_
#define QUASII_COMMON_SIMD_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "geometry/point.h"

#if defined(__x86_64__) || defined(__i386__)
#define QUASII_SIMD_X86 1
#include <immintrin.h>
#endif

// The explicit SIMD kernel of the leaf-scan hot path.
//
// The kernel exists in a portable scalar form plus (where the target
// supports it) a vector form: AVX2 on x86-64, compiled via function-level
// `target` attributes so the rest of the binary stays baseline. Other
// targets run the scalar reference tier. Which form runs is decided
// once at startup from cpuid — `__builtin_cpu_supports("avx2")` — and cached;
// `QUASII_FORCE_SCALAR=1` in the environment pins the scalar tier, and
// `ForceTier()` lets tests and the microbench A/B harness flip tiers at
// runtime. All tiers are bit-identical: the vector kernel uses ordered-quiet
// float compares, which agree with the scalar `<=`/`>=` on every non-NaN
// input, and its compress-store preserves id order exactly.
//
// The kernel is the one shape `CrackArray::StreamScan` needs: `FilterRows`
// tests a run of rows against up to D (le, ge) column pairs and the live
// bytes in one pass, and counts the matches or compacts their ids.

namespace quasii::simd {

enum class Tier : int { kScalar = 0, kAvx2 = 1 };

inline const char* TierName(Tier t) {
  switch (t) {
    case Tier::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

inline std::ostream& operator<<(std::ostream& os, Tier t) {
  return os << TierName(t);
}

/// Best tier the hardware supports, ignoring overrides.
inline Tier DetectTier() {
#if defined(QUASII_SIMD_X86)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? Tier::kAvx2 : Tier::kScalar;
#else
  return Tier::kScalar;
#endif
}

namespace internal {
inline std::atomic<Tier>& TierState() {
  static std::atomic<Tier> tier = [] {
    const char* force = std::getenv("QUASII_FORCE_SCALAR");
    if (force != nullptr && force[0] == '1' && force[1] == '\0') {
      return Tier::kScalar;
    }
    return DetectTier();
  }();
  return tier;
}
}  // namespace internal

/// The tier every kernel dispatches on. Resolved once from
/// `QUASII_FORCE_SCALAR` + cpuid, then cached; cheap to read per scan.
inline Tier ActiveTier() {
  return internal::TierState().load(std::memory_order_relaxed);
}

/// Overrides the active tier (microbench A/B, tests). Requests for a tier
/// the hardware cannot run are clamped to the detected one; `kScalar` is
/// always honored. Returns the tier actually installed.
inline Tier ForceTier(Tier t) {
  if (t != Tier::kScalar && t != DetectTier()) t = DetectTier();
  internal::TierState().store(t, std::memory_order_relaxed);
  return t;
}

/// One per-dimension bound test of the fused filter: a row passes when
/// `le[i] <= le_bound` and `ge[i] >= ge_bound`. Every range predicate is one
/// such pair per dimension; only the column/bound pairing differs.
struct ColumnTest {
  const Scalar* le = nullptr;
  Scalar le_bound = 0;
  const Scalar* ge = nullptr;
  Scalar ge_bound = 0;
};

/// Up to `N` column tests, of which the first `k` apply.
template <std::size_t N>
using ColumnTests = std::array<ColumnTest, N>;

// ---------------------------------------------------------------------------
// Scalar reference kernel. This is the semantics; vector tiers must match it
// bit-for-bit.

namespace internal {

/// Rows `[i, n)` of the fused filter, appending to `out` from `m` on; returns
/// the new match count. Shared by the scalar tier and the vector tails. The
/// tests are taken by value, so the id stores cannot alias them and the
/// columns and bounds stay in registers.
template <std::size_t N>
std::size_t FilterRowsFrom(const ColumnTests<N> tests, std::size_t k,
                           const std::uint8_t* live, const ObjectId* ids,
                           std::size_t i, std::size_t n, ObjectId* out,
                           std::size_t m) {
  for (; i < n; ++i) {
    unsigned hit = live == nullptr || live[i] != 0;
    for (std::size_t t = 0; t < k; ++t) {
      const ColumnTest& c = tests[t];
      hit &= static_cast<unsigned>((c.le[i] <= c.le_bound) &
                                   (c.ge[i] >= c.ge_bound));
    }
    if (out != nullptr) out[m] = ids[i];
    m += hit;
  }
  return m;
}

}  // namespace internal

/// The fused leaf-scan filter over rows `[0, n)`: a row matches when it is
/// live (`live == nullptr` means every row is) and passes each of the first
/// `k` column tests. Returns the number of matches; with `out != nullptr` it
/// also writes their ids, in row order, to `out`, which must hold `n` ids
/// (the tail past the returned count is scratch). With `out == nullptr`
/// `ids` is never read.
template <std::size_t N>
std::size_t FilterRowsScalar(const ColumnTests<N>& tests, std::size_t k,
                             const std::uint8_t* live, const ObjectId* ids,
                             std::size_t n, ObjectId* out) {
  return internal::FilterRowsFrom(tests, k, live, ids, 0, n, out, 0);
}

// ---------------------------------------------------------------------------
// AVX2 tier. Each function carries its own `target("avx2")` so the
// translation unit can stay baseline x86-64; they are only ever called after
// the cpuid check in ActiveTier().

#if defined(QUASII_SIMD_X86)

namespace internal {

/// Shuffle table for the 8-lane compress: entry `m` lists, in order, the lane
/// indices whose mask bit is set (padding is irrelevant — padded lanes land
/// past the survivor count and are overwritten by the next block).
inline constexpr auto kCompressIdx = [] {
  std::array<std::array<std::uint8_t, 8>, 256> t{};
  for (int m = 0; m < 256; ++m) {
    int k = 0;
    for (int j = 0; j < 8; ++j) {
      if ((m >> j) & 1) t[static_cast<std::size_t>(m)]
                         [static_cast<std::size_t>(k++)] =
            static_cast<std::uint8_t>(j);
    }
  }
  return t;
}();

}  // namespace internal

/// `FilterRowsScalar` on AVX2, one pass per block of 8 rows: the block's
/// lanes AND both compares of every column test, its match bits (one
/// movemask) AND the live bytes when there are any, and then the block
/// either only advances the count or compress-stores the matching ids
/// (8-lane permute). Bounds are broadcast and column pointers hoisted once
/// per call.
template <std::size_t N>
__attribute__((target("avx2"))) std::size_t FilterRowsAvx2(
    const ColumnTests<N>& tests, std::size_t k, const std::uint8_t* live,
    const ObjectId* ids, std::size_t n, ObjectId* out) {
  static_assert(sizeof(Scalar) == 4, "AVX2 kernels assume float columns");
  static_assert(sizeof(ObjectId) == 4, "compress kernel assumes 32-bit ids");
  const Scalar* le_col[N];
  const Scalar* ge_col[N];
  __m256 le_bound[N];
  __m256 ge_bound[N];
  for (std::size_t t = 0; t < k; ++t) {
    le_col[t] = tests[t].le;
    ge_col[t] = tests[t].ge;
    le_bound[t] = _mm256_set1_ps(tests[t].le_bound);
    ge_bound[t] = _mm256_set1_ps(tests[t].ge_bound);
  }
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 hit = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    for (std::size_t t = 0; t < k; ++t) {
      const __m256 le = _mm256_cmp_ps(_mm256_loadu_ps(le_col[t] + i),
                                      le_bound[t], _CMP_LE_OQ);
      const __m256 ge = _mm256_cmp_ps(_mm256_loadu_ps(ge_col[t] + i),
                                      ge_bound[t], _CMP_GE_OQ);
      hit = _mm256_and_ps(hit, _mm256_and_ps(le, ge));
    }
    unsigned bits = static_cast<unsigned>(_mm256_movemask_ps(hit));
    if (live != nullptr) {
      const __m128i dead = _mm_cmpeq_epi8(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(live + i)),
          _mm_setzero_si128());
      bits &= ~static_cast<unsigned>(_mm_movemask_epi8(dead));
    }
    if (out != nullptr) {
      const __m256i idx = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              internal::kCompressIdx[bits].data())));
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
      // The store writes a full 8-lane block at out+m; because m <= i, it
      // stays inside an `out` buffer sized n, and the tail lanes are
      // overwritten by the next block (or are past the returned count).
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + m),
                          _mm256_permutevar8x32_epi32(v, idx));
    }
    m += static_cast<std::size_t>(std::popcount(bits));
  }
  return internal::FilterRowsFrom(tests, k, live, ids, i, n, out, m);
}

#endif  // QUASII_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatching entry point. One relaxed atomic load and a predictable branch
// per kernel call — noise against the O(n) body.

template <std::size_t N>
std::size_t FilterRows(const ColumnTests<N>& tests, std::size_t k,
                       const std::uint8_t* live, const ObjectId* ids,
                       std::size_t n, ObjectId* out) {
#if defined(QUASII_SIMD_X86)
  if (ActiveTier() == Tier::kAvx2) {
    return FilterRowsAvx2(tests, k, live, ids, n, out);
  }
#endif
  return FilterRowsScalar(tests, k, live, ids, n, out);
}

}  // namespace quasii::simd

#endif  // QUASII_COMMON_SIMD_H_
