#ifndef QUASII_PERSIST_CRC32C_H_
#define QUASII_PERSIST_CRC32C_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#define QUASII_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace quasii::persist {

// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78): the checksum
// framing every WAL record, snapshot payload, workload-log record and wire
// frame. It is on the served hot path: every reply is checksummed by the
// server when framed and again by the client when read, and a converged read
// reply runs to kilobytes.
//
// Two implementations compute the same function. The byte-at-a-time table
// loop is the portable reference and the fallback; on x86-64 with SSE4.2 the
// `crc32` instruction takes 8 bytes per step. Which one `Crc32c` runs is
// decided once from cpuid, like the leaf-scan kernels in common/simd.h, and
// `QUASII_FORCE_SCALAR=1` pins the table loop. The on-disk and on-wire bytes
// do not depend on which one ran.

namespace internal {

inline std::uint32_t Crc32cTableUpdate(std::uint32_t crc,
                                       const unsigned char* p,
                                       std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(QUASII_CRC32C_X86)
__attribute__((target("sse4.2"))) inline std::uint32_t Crc32cSse42Update(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  std::uint64_t c = crc;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return c32;
}
#endif

using Crc32cUpdateFn = std::uint32_t (*)(std::uint32_t, const unsigned char*,
                                         std::size_t);

inline Crc32cUpdateFn ResolveCrc32c() {
  const char* force = std::getenv("QUASII_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1' && force[1] == '\0') {
    return &Crc32cTableUpdate;
  }
#if defined(QUASII_CRC32C_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42Update;
#endif
  return &Crc32cTableUpdate;
}

}  // namespace internal

/// The table loop: the reference every other implementation must equal.
inline std::uint32_t Crc32cTable(const void* data, std::size_t n) {
  return ~internal::Crc32cTableUpdate(
      0xFFFFFFFFu, static_cast<const unsigned char*>(data), n);
}

/// CRC-32C of `n` bytes at `data`, on the implementation chosen at startup.
inline std::uint32_t Crc32c(const void* data, std::size_t n) {
  static const internal::Crc32cUpdateFn update = internal::ResolveCrc32c();
  return ~update(0xFFFFFFFFu, static_cast<const unsigned char*>(data), n);
}

}  // namespace quasii::persist

#endif  // QUASII_PERSIST_CRC32C_H_
