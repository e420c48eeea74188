#ifndef QUASII_SERVER_PROTOCOL_H_
#define QUASII_SERVER_PROTOCOL_H_

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "geometry/point.h"
#include "persist/crc32c.h"

namespace quasii::server {

/// Wire framing of the query protocol, shared by server and client. Every
/// message is one frame:
///
///   [u32 len] [u32 crc32c(payload)] [payload, `len` bytes]
///
/// — the WAL's proven self-verifying frame (src/persist/wal.h), applied to
/// a socket: a reader always knows whether it holds an intact payload, and
/// every damaged input maps to a typed `WireError`, never UB. `len` is
/// capped; an oversized header is treated as a protocol violation and the
/// connection is dropped (the stream cannot be resynchronized).
///
/// The first frame in each direction is a hello with payload
///
///   [u32 magic "QSWP"] [u32 wire format] [u32 D] [u32 sizeof(Scalar)]
///
/// so dimension/scalar/format mismatches die in the handshake with a typed
/// error instead of as garbage query results.
///
/// After the handshake, client→server payloads are request envelopes
///
///   [u64 seq] [u8 target index] [Request<D> bytes]
///
/// and server→client payloads are response envelopes
///
///   [u64 seq] [Response<D> bytes]
///
/// `seq` is chosen by the client (unique per connection) and echoed
/// verbatim, which is what makes pipelining safe; the response body
/// excludes it, so response checksums compare across transports.

inline constexpr std::uint32_t kHelloMagic = 0x50575351u;  // "QSWP"
inline constexpr std::uint32_t kWireFormatVersion = 1;

/// Generous payload cap (16 MiB): large enough for any in-cap request or
/// response, small enough that a hostile length field cannot drive an
/// allocation storm.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 24;

/// Typed outcome of reading one frame. Everything except `kNone` ends the
/// connection: after a framing-level failure the byte stream has no
/// trustworthy resynchronization point.
enum class WireError {
  kNone = 0,
  kClosed,     ///< clean EOF between frames (orderly shutdown)
  kTorn,       ///< EOF inside a frame (peer died mid-write)
  kIo,         ///< read/write syscall failure
  kOversized,  ///< header length exceeds `kMaxFramePayload`
  kBadCrc,     ///< payload present but checksum disagrees
};

inline const char* WireErrorName(WireError e) {
  switch (e) {
    case WireError::kNone:
      return "none";
    case WireError::kClosed:
      return "closed";
    case WireError::kTorn:
      return "torn";
    case WireError::kIo:
      return "io";
    case WireError::kOversized:
      return "oversized";
    case WireError::kBadCrc:
      return "bad_crc";
  }
  return "?";
}

/// Writes all `n` bytes, retrying on EINTR/short writes. MSG_NOSIGNAL keeps
/// a dead peer an error return instead of a SIGPIPE.
inline bool WriteFull(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// How a `ReadFull` concluded: all bytes read, EOF before the first byte,
/// EOF mid-span, or a syscall failure.
enum class ReadOutcome { kOk, kEofAtStart, kEofMidway, kError };

/// Reads exactly `n` bytes, retrying on EINTR.
inline ReadOutcome ReadFull(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadOutcome::kError;
    }
    if (r == 0) {
      return got == 0 ? ReadOutcome::kEofAtStart : ReadOutcome::kEofMidway;
    }
    got += static_cast<std::size_t>(r);
  }
  return ReadOutcome::kOk;
}

/// Reads one frame into `payload` (replaced, not appended).
inline WireError ReadFrame(int fd, std::string* payload) {
  char header[8];
  switch (ReadFull(fd, header, sizeof(header))) {
    case ReadOutcome::kOk:
      break;
    case ReadOutcome::kEofAtStart:
      return WireError::kClosed;
    case ReadOutcome::kEofMidway:
      return WireError::kTorn;
    case ReadOutcome::kError:
      return WireError::kIo;
  }
  ByteReader hr(header, sizeof(header));
  const std::uint32_t len = hr.U32();
  const std::uint32_t crc = hr.U32();
  if (len > kMaxFramePayload) return WireError::kOversized;
  payload->resize(len);
  if (len > 0) {
    switch (ReadFull(fd, payload->data(), len)) {
      case ReadOutcome::kOk:
        break;
      case ReadOutcome::kEofAtStart:
      case ReadOutcome::kEofMidway:
        return WireError::kTorn;  // EOF inside a frame is torn either way
      case ReadOutcome::kError:
        return WireError::kIo;
    }
  }
  if (persist::Crc32c(payload->data(), payload->size()) != crc) {
    return WireError::kBadCrc;
  }
  return WireError::kNone;
}

/// Bytes of a frame header: `[u32 len] [u32 crc32c(payload)]`.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Opens a frame at the end of `buf`: reserves its header and returns the
/// frame's offset. The caller appends the payload in place, then
/// `EndFrame` fills the header, so a frame is built with no payload copy.
inline std::size_t BeginFrame(std::string* buf) {
  const std::size_t at = buf->size();
  buf->append(kFrameHeaderBytes, '\0');
  return at;
}

/// Closes the frame `BeginFrame` opened at `at`: everything appended since
/// is its payload. The header is written host-order, as `ByteWriter::U32`
/// would.
inline void EndFrame(std::string* buf, std::size_t at) {
  const char* payload = buf->data() + at + kFrameHeaderBytes;
  const std::size_t len = buf->size() - at - kFrameHeaderBytes;
  const std::uint32_t header[2] = {static_cast<std::uint32_t>(len),
                                   persist::Crc32c(payload, len)};
  std::memcpy(buf->data() + at, header, kFrameHeaderBytes);
}

/// Frames and writes `payload`. False on any write failure (peer gone).
inline bool WriteFrame(int fd, std::string_view payload) {
  std::string frame;
  const std::size_t at = BeginFrame(&frame);
  frame.append(payload);
  EndFrame(&frame, at);
  return WriteFull(fd, frame.data(), frame.size());
}

/// Reads the frames of one stream with one `recv` per burst: whatever the
/// peer has sent lands in one buffer, and `Next` hands the frames out one at
/// a time with `ReadFrame`'s typed outcomes. `Buffered` says whether the
/// next `Next` can answer without a syscall, which lets the server admit a
/// burst of requests at once. A reader may hold bytes past the frame it
/// returned, so nothing else may read its fd. `ReadFrame` stays for callers
/// that wait on the fd between frames (the clients poll it).
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  /// Reads the next frame. On `kNone`, `*payload` views its bytes, valid
  /// until the next call. Every other outcome ends the stream.
  WireError Next(std::string_view* payload) {
    while (true) {
      std::size_t need = kFrameHeaderBytes;
      const std::size_t have = end_ - pos_;
      if (have >= kFrameHeaderBytes) {
        std::uint32_t header[2];
        std::memcpy(header, buf_.data() + pos_, kFrameHeaderBytes);
        const std::uint32_t len = header[0];
        if (len > kMaxFramePayload) return WireError::kOversized;
        need = kFrameHeaderBytes + len;
        if (have >= need) {
          const char* p = buf_.data() + pos_ + kFrameHeaderBytes;
          pos_ += need;
          if (persist::Crc32c(p, len) != header[1]) return WireError::kBadCrc;
          *payload = std::string_view(p, len);
          return WireError::kNone;
        }
      }
      const WireError err = Fill(need);
      if (err != WireError::kNone) return err;
    }
  }

  /// Whether the buffer holds a whole frame (or a header `Next` will refuse
  /// as oversized), so the next `Next` returns without reading.
  bool Buffered() const {
    const std::size_t have = end_ - pos_;
    if (have < kFrameHeaderBytes) return false;
    std::uint32_t len;
    std::memcpy(&len, buf_.data() + pos_, 4);
    return len > kMaxFramePayload || have - kFrameHeaderBytes >= len;
  }

 private:
  /// Bytes asked of each `recv`: a burst of pipelined requests or replies.
  static constexpr std::size_t kChunk = std::size_t{1} << 16;

  /// Moves the unread bytes to the front, makes room for a `need`-byte
  /// frame, and receives once.
  WireError Fill(std::size_t need) {
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    const std::size_t size = need > kChunk ? need : kChunk;
    if (buf_.size() < size) buf_.resize(size);
    while (true) {
      const ssize_t r = ::recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        return WireError::kIo;
      }
      if (r == 0) return end_ == 0 ? WireError::kClosed : WireError::kTorn;
      end_ += static_cast<std::size_t>(r);
      return WireError::kNone;
    }
  }

  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;  ///< first unread byte
  std::size_t end_ = 0;  ///< one past the last received byte
};

/// The hello payload this build emits.
inline std::string HelloPayload() {
  std::string out;
  ByteWriter w(&out);
  w.U32(kHelloMagic);
  w.U32(kWireFormatVersion);
  w.U32(3);  // the served dimensionality (the roster is Box3-based)
  w.U32(static_cast<std::uint32_t>(sizeof(Scalar)));
  return out;
}

/// Validates a peer's hello payload against this build.
inline bool CheckHelloPayload(std::string_view payload) {
  if (payload.size() != 16) return false;
  ByteReader r(payload);
  return r.U32() == kHelloMagic && r.U32() == kWireFormatVersion &&
         r.U32() == 3 && r.U32() == static_cast<std::uint32_t>(sizeof(Scalar));
}

}  // namespace quasii::server

#endif  // QUASII_SERVER_PROTOCOL_H_
