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

// Explicit SIMD kernels for the leaf-scan hot path.
//
// Every kernel exists in a portable scalar form plus (where the target
// supports it) a vector form: AVX2 on x86-64, compiled via function-level
// `target` attributes so the rest of the binary stays baseline. Other
// targets run the scalar reference tier. Which form runs is decided
// once at startup from cpuid — `__builtin_cpu_supports("avx2")` — and cached;
// `QUASII_FORCE_SCALAR=1` in the environment pins the scalar tier, and
// `ForceTier()` lets tests and the microbench A/B harness flip tiers at
// runtime. All tiers are bit-identical: the vector kernels use ordered-quiet
// float compares, which agree with the scalar `<=`/`>=` on every non-NaN
// input, and the compaction kernel preserves id order exactly.
//
// The kernels deliberately mirror the three shapes `CrackArray::StreamScan`
// needs and nothing more:
//   MaskLeGe    mask[i] &= (le_col[i] <= le_bound) & (ge_col[i] >= ge_bound)
//   MaskCount   sum of 0/1 mask bytes
//   CompactIds  order-preserving gather of ids[i] where mask[i] != 0

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

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the semantics; vector tiers must match
// them bit-for-bit.

inline void MaskLeGeScalar(const Scalar* le_col, Scalar le_bound,
                           const Scalar* ge_col, Scalar ge_bound,
                           std::uint8_t* mask, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<std::uint8_t>((le_col[i] <= le_bound) &
                                         (ge_col[i] >= ge_bound));
  }
}

inline std::uint64_t MaskCountScalar(const std::uint8_t* mask, std::size_t n) {
  std::uint64_t matches = 0;
  for (std::size_t i = 0; i < n; ++i) matches += mask[i];
  return matches;
}

inline std::size_t CompactIdsScalar(const ObjectId* ids,
                                    const std::uint8_t* mask, std::size_t n,
                                    ObjectId* out) {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[m] = ids[i];
    m += mask[i];
  }
  return m;
}

// ---------------------------------------------------------------------------
// AVX2 tier. Each function carries its own `target("avx2")` so the
// translation unit can stay baseline x86-64; they are only ever called after
// the cpuid check in ActiveTier().

#if defined(QUASII_SIMD_X86)

namespace internal {

/// Packs the eight 32-bit lane masks of `m32` (0 / 0xFFFFFFFF) into eight
/// bytes of 0 / 1, in lane order.
__attribute__((target("avx2"))) inline __m128i PackLaneMaskToBytes(
    __m256i m32) {
  const __m128i lo = _mm256_castsi256_si128(m32);
  const __m128i hi = _mm256_extracti128_si256(m32, 1);
  const __m128i p16 = _mm_packs_epi32(lo, hi);
  const __m128i p8 = _mm_packs_epi16(p16, _mm_setzero_si128());
  return _mm_and_si128(p8, _mm_set1_epi8(1));
}

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

__attribute__((target("avx2"))) inline void MaskLeGeAvx2(
    const Scalar* le_col, Scalar le_bound, const Scalar* ge_col,
    Scalar ge_bound, std::uint8_t* mask, std::size_t n) {
  static_assert(sizeof(Scalar) == 4, "AVX2 kernels assume float columns");
  const __m256 le_b = _mm256_set1_ps(le_bound);
  const __m256 ge_b = _mm256_set1_ps(ge_bound);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_loadu_ps(le_col + i);
    const __m256 b = _mm256_loadu_ps(ge_col + i);
    const __m256 ca = _mm256_cmp_ps(a, le_b, _CMP_LE_OQ);
    const __m256 cb = _mm256_cmp_ps(b, ge_b, _CMP_GE_OQ);
    const __m256i m32 = _mm256_castps_si256(_mm256_and_ps(ca, cb));
    const __m128i hit = internal::PackLaneMaskToBytes(m32);
    const __m128i old =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + i));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(mask + i),
                     _mm_and_si128(old, hit));
  }
  MaskLeGeScalar(le_col + i, le_bound, ge_col + i, ge_bound, mask + i, n - i);
}

__attribute__((target("avx2"))) inline std::uint64_t MaskCountAvx2(
    const std::uint8_t* mask, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         MaskCountScalar(mask + i, n - i);
}

__attribute__((target("avx2"))) inline std::size_t CompactIdsAvx2(
    const ObjectId* ids, const std::uint8_t* mask, std::size_t n,
    ObjectId* out) {
  static_assert(sizeof(ObjectId) == 4, "compress kernel assumes 32-bit ids");
  std::size_t m = 0;
  std::size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 8 <= n; i += 8) {
    const __m128i mb =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + i));
    const unsigned bits =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpgt_epi8(mb, zero))) &
        0xFFu;
    const __m128i idx8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
        internal::kCompressIdx[bits].data()));
    const __m256i idx = _mm256_cvtepu8_epi32(idx8);
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    // The store writes a full 8-lane block at out+m; because m <= i, it stays
    // inside an `out` buffer sized n, and the tail lanes are overwritten by
    // the next block (or are past the returned count).
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + m),
                        _mm256_permutevar8x32_epi32(v, idx));
    m += static_cast<std::size_t>(std::popcount(bits));
  }
  return m + CompactIdsScalar(ids + i, mask + i, n - i, out + m);
}

#endif  // QUASII_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatching entry points. One relaxed atomic load and a predictable branch
// per kernel call — noise against the O(n) body.

inline void MaskLeGe(const Scalar* le_col, Scalar le_bound,
                     const Scalar* ge_col, Scalar ge_bound, std::uint8_t* mask,
                     std::size_t n) {
  switch (ActiveTier()) {
#if defined(QUASII_SIMD_X86)
    case Tier::kAvx2:
      MaskLeGeAvx2(le_col, le_bound, ge_col, ge_bound, mask, n);
      return;
#endif
    default:
      MaskLeGeScalar(le_col, le_bound, ge_col, ge_bound, mask, n);
      return;
  }
}

inline std::uint64_t MaskCount(const std::uint8_t* mask, std::size_t n) {
#if defined(QUASII_SIMD_X86)
  if (ActiveTier() == Tier::kAvx2) return MaskCountAvx2(mask, n);
#endif
  return MaskCountScalar(mask, n);
}

inline std::size_t CompactIds(const ObjectId* ids, const std::uint8_t* mask,
                              std::size_t n, ObjectId* out) {
#if defined(QUASII_SIMD_X86)
  if (ActiveTier() == Tier::kAvx2) return CompactIdsAvx2(ids, mask, n, out);
#endif
  return CompactIdsScalar(ids, mask, n, out);
}

}  // namespace quasii::simd

#endif  // QUASII_COMMON_SIMD_H_
