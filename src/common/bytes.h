#ifndef QUASII_COMMON_BYTES_H_
#define QUASII_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "geometry/box.h"
#include "geometry/point.h"

namespace quasii {

/// Append-only binary encoder into a caller-owned string. Fixed-width
/// little-endian integers and raw `Scalar` bits — the codec behind every
/// persisted artifact (snapshot payloads, WAL records, per-index structure
/// blobs), so readers and writers cannot drift apart on framing.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void U32(std::uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out_->append(buf, 4);
  }

  void U64(std::uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out_->append(buf, 8);
  }

  void F(Scalar v) {
    char buf[sizeof(Scalar)];
    std::memcpy(buf, &v, sizeof(Scalar));
    out_->append(buf, sizeof(Scalar));
  }

  void Bytes(const void* data, std::size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }

  /// Length-prefixed string (u64 length + raw bytes).
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

  std::string* out() { return out_; }

 private:
  std::string* out_;
};

/// Bounds-checked binary decoder over a byte span. Every read past the end
/// sets a sticky failure flag and returns zeros instead of touching memory —
/// callers decode an entire section and test `ok()` once, so truncated or
/// corrupt input degrades to a typed error, never UB.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : p_(data), end_(data + size) {}
  explicit ByteReader(std::string_view s) : ByteReader(s.data(), s.size()) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<std::uint8_t>(*p_++);
  }

  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t v;
    std::memcpy(&v, p_, 4);
    p_ += 4;
    return v;
  }

  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t v;
    std::memcpy(&v, p_, 8);
    p_ += 8;
    return v;
  }

  Scalar F() {
    if (!Need(sizeof(Scalar))) return 0;
    Scalar v;
    std::memcpy(&v, p_, sizeof(Scalar));
    p_ += sizeof(Scalar);
    return v;
  }

  bool Bytes(void* dst, std::size_t n) {
    if (!Need(n)) return false;
    if (n > 0) std::memcpy(dst, p_, n);  // an empty vector's data() is null
    p_ += n;
    return true;
  }

  /// Counterpart of `ByteWriter::Str`; empty (and `ok() == false`) on a
  /// length that overruns the remaining input.
  std::string Str() {
    const std::uint64_t n = U64();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return std::string();
    }
    std::string s(p_, static_cast<std::size_t>(n));
    p_ += n;
    return s;
  }

 private:
  bool Need(std::size_t n) {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

template <int D>
void PutBox(ByteWriter* w, const Box<D>& b) {
  for (int d = 0; d < D; ++d) w->F(b.lo[d]);
  for (int d = 0; d < D; ++d) w->F(b.hi[d]);
}

template <int D>
Box<D> GetBox(ByteReader* r) {
  Box<D> b;
  for (int d = 0; d < D; ++d) b.lo[d] = r->F();
  for (int d = 0; d < D; ++d) b.hi[d] = r->F();
  return b;
}

}  // namespace quasii

#endif  // QUASII_COMMON_BYTES_H_
