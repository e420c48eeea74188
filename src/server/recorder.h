#ifndef QUASII_SERVER_RECORDER_H_
#define QUASII_SERVER_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/request.h"
#include "common/spatial_index.h"
#include "geometry/point.h"
#include "persist/crc32c.h"
#include "persist/errors.h"
#include "persist/io.h"
#include "server/protocol.h"

namespace quasii::server {

/// Framed workload log — the durable record of every request the server
/// ACCEPTED, in execution order, that makes a run reproducible. Layout
/// mirrors the WAL (src/persist/wal.h), so the same torn-tail-vs-corruption
/// discipline applies:
///
///   header: [u32 magic "QWKL"] [u32 format] [u32 D] [u32 sizeof(Scalar)]
///   frame:  [u32 len] [u32 crc32c(payload)] [payload]
///   payload: [u64 client] [u8 target index] [Request<D> bytes]
///
/// A truncated final frame is a crash artifact (`truncated_tail`), not
/// corruption: replay uses the intact prefix. A checksum failure anywhere
/// before the tail is refused with a typed error.
inline constexpr std::uint32_t kWorkloadLogMagic = 0x4C4B5751u;  // "QWKL"
inline constexpr std::uint32_t kWorkloadLogFormatVersion = 1;

/// One accepted request as logged: which client sent it, which roster index
/// it targeted, and the request itself.
template <int D>
struct WorkloadRecord {
  std::uint64_t client = 0;
  std::uint8_t target = 0;
  Request<D> request;
};

/// Append-side of the workload log. Not thread-safe: the server's exec loop
/// is the single writer, which is exactly what makes the log order the
/// execution order.
template <int D>
class WorkloadRecorder {
 public:
  ~WorkloadRecorder() { Close(); }

  /// Creates/truncates the log and writes the header.
  persist::PersistError Open(const std::string& path) {
    if (!fh_.OpenWrite(path, /*truncate=*/true)) {
      return persist::PersistError::kIo;
    }
    std::string header;
    ByteWriter w(&header);
    w.U32(kWorkloadLogMagic);
    w.U32(kWorkloadLogFormatVersion);
    w.U32(static_cast<std::uint32_t>(D));
    w.U32(static_cast<std::uint32_t>(sizeof(Scalar)));
    const persist::PersistError err =
        fh_.WriteAll(header.data(), header.size(), "workload_short_write");
    if (err != persist::PersistError::kNone) return err;
    open_ = true;
    bytes_ = header.size();
    return persist::PersistError::kNone;
  }

  bool is_open() const { return open_; }
  std::uint64_t records() const { return records_; }
  std::uint64_t bytes() const { return bytes_; }

  /// Appends one record's frame to `frames` without I/O; `AppendFrames`
  /// then writes a run of such frames at once.
  static void EncodeRecord(std::string* frames, std::uint64_t client,
                           std::uint8_t target, const Request<D>& request) {
    const std::size_t at = BeginFrame(frames);
    ByteWriter w(frames);
    w.U64(client);
    w.U8(target);
    request.Serialize(&w);
    EndFrame(frames, at);
  }

  /// Writes `records` frames built by `EncodeRecord` with one write.
  persist::PersistError AppendFrames(std::string_view frames,
                                     std::uint64_t records) {
    if (!open_) return persist::PersistError::kIo;
    const persist::PersistError err =
        fh_.WriteAll(frames.data(), frames.size(), "workload_short_write");
    if (err != persist::PersistError::kNone) return err;
    records_ += records;
    bytes_ += frames.size();
    return persist::PersistError::kNone;
  }

  persist::PersistError Append(std::uint64_t client, std::uint8_t target,
                               const Request<D>& request) {
    std::string frame;
    EncodeRecord(&frame, client, target, request);
    return AppendFrames(frame, 1);
  }

  persist::PersistError Sync() {
    if (!open_) return persist::PersistError::kNone;
    return fh_.Sync("workload_fsync_fail");
  }

  void Close() {
    if (!open_) return;
    fh_.Sync("workload_fsync_fail");
    fh_.Close();
    open_ = false;
  }

 private:
  persist::FileHandle fh_;
  bool open_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

template <int D>
struct WorkloadLogContents {
  bool exists = false;
  persist::PersistError error = persist::PersistError::kNone;
  std::vector<WorkloadRecord<D>> records;
  /// True when the file ends in a partial frame (crash mid-append); the
  /// intact prefix in `records` is still authoritative.
  bool truncated_tail = false;
};

/// Parses and validates a workload log. Refuses (typed error) headers for
/// the wrong dimensionality/scalar width and any checksum-damaged frame;
/// tolerates a torn tail.
template <int D>
WorkloadLogContents<D> ReadWorkloadLog(const std::string& path) {
  WorkloadLogContents<D> out;
  std::string raw;
  const persist::ReadFileResult r = persist::ReadFile(path, &raw);
  if (r == persist::ReadFileResult::kNotFound) return out;
  if (r == persist::ReadFileResult::kError) {
    out.error = persist::PersistError::kIo;
    return out;
  }
  out.exists = true;
  if (raw.empty()) return out;
  if (raw.size() < 16) {
    // Crash while writing the header itself, as in `ReadWal`: no records.
    out.truncated_tail = true;
    return out;
  }
  ByteReader hr(raw.data(), raw.size());
  if (hr.U32() != kWorkloadLogMagic) {
    out.error = persist::PersistError::kBadMagic;
    return out;
  }
  if (hr.U32() != kWorkloadLogFormatVersion) {
    out.error = persist::PersistError::kBadFormatVersion;
    return out;
  }
  if (hr.U32() != static_cast<std::uint32_t>(D) ||
      hr.U32() != static_cast<std::uint32_t>(sizeof(Scalar))) {
    out.error = persist::PersistError::kDimensionMismatch;
    return out;
  }
  std::size_t pos = 16;
  while (pos < raw.size()) {
    if (raw.size() - pos < 8) {
      out.truncated_tail = true;
      return out;
    }
    ByteReader fr(raw.data() + pos, 8);
    const std::uint32_t len = fr.U32();
    const std::uint32_t crc = fr.U32();
    if (len > kMaxFramePayload) {
      // An impossible length is corruption, not a torn tail: no writer
      // emits frames past the cap.
      out.error = persist::PersistError::kWalRecordCorrupt;
      return out;
    }
    if (raw.size() - pos - 8 < len) {
      out.truncated_tail = true;
      return out;
    }
    const char* payload = raw.data() + pos + 8;
    if (persist::Crc32c(payload, len) != crc) {
      out.error = persist::PersistError::kWalRecordCorrupt;
      return out;
    }
    ByteReader pr(payload, len);
    WorkloadRecord<D> rec;
    rec.client = pr.U64();
    rec.target = pr.U8();
    auto req = Request<D>::TryParse(&pr);
    if (!req || !pr.ok() || pr.remaining() != 0) {
      // The frame checksummed clean but carries an unparseable request —
      // a recorder bug or version skew, either way a typed refusal.
      out.error = persist::PersistError::kWalRecordCorrupt;
      return out;
    }
    rec.request = *std::move(req);
    out.records.push_back(std::move(rec));
    pos += 8 + len;
  }
  return out;
}

/// Outcome of an in-process replay: the response-stream checksum (FNV-1a
/// over every serialized response body, in log order) plus the final
/// content checksum of every roster index — the two artifacts the replay
/// determinism gate compares across runs and transports.
struct ReplayResult {
  bool ok = false;
  persist::PersistError error = persist::PersistError::kNone;
  std::uint64_t requests = 0;
  std::uint64_t response_checksum = kFnvBasis;
  std::vector<std::uint64_t> index_checksums;
};

/// Replays a recorded workload directly against a roster — no sockets, no
/// threads: the log order IS the execution order, so this is the reference
/// execution the served run must match bit-for-bit.
template <int D>
ReplayResult ReplayWorkload(std::span<SpatialIndex<D>* const> roster,
                            const std::vector<WorkloadRecord<D>>& records,
                            const RequestHooks<D>* hooks = nullptr) {
  ReplayResult out;
  std::string bytes;
  for (const WorkloadRecord<D>& rec : records) {
    if (rec.target >= roster.size()) {
      out.error = persist::PersistError::kReplayRejected;
      return out;
    }
    const Response<D> resp =
        ExecuteRequest(roster[rec.target], rec.request, hooks);
    bytes.clear();
    ByteWriter w(&bytes);
    resp.Serialize(&w);
    out.response_checksum = FnvBytes(out.response_checksum, bytes);
    ++out.requests;
  }
  out.index_checksums.reserve(roster.size());
  for (SpatialIndex<D>* index : roster) {
    out.index_checksums.push_back(IndexContentChecksum(*index));
  }
  out.ok = true;
  return out;
}

}  // namespace quasii::server

#endif  // QUASII_SERVER_RECORDER_H_
