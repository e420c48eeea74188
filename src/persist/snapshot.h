#ifndef QUASII_PERSIST_SNAPSHOT_H_
#define QUASII_PERSIST_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/spatial_index.h"
#include "geometry/box.h"
#include "persist/crc32c.h"
#include "persist/failpoint.h"
#include "persist/io.h"

namespace quasii::persist {

/// On-disk snapshot layout:
///
///   [u32 magic "QSNP"] [u32 format] [u64 payload_len] [payload]
///   [u32 crc32c(payload)]
///
///   payload: [u32 D] [u32 sizeof(Scalar)] [u64 lsn] [str index kind]
///            [u64 slots] [u64 live_count]
///            slots × [box (2*D Scalars)] slots × [u8 alive]
///            [u8 has_structure] { [str structure blob] }
///
/// `lsn` is `ObjectStore::version()` at capture time, which ties the
/// snapshot to its place in the WAL: recovery replays exactly the records
/// with larger LSNs. The structure blob is the index's own
/// `SerializeStructure` serialization (QUASII's crack columns + slice
/// tree, R-Tree's packed levels); indexes without one are restored by
/// `RebuildFromStore`. A restored QUASII index resumes with the same
/// slices and so replays converged workloads with zero cracks.
///
/// Writes are atomic: the file is assembled under `path + ".tmp"`, synced,
/// and renamed over `path` — a crash mid-snapshot leaves the previous valid
/// snapshot in place, which is how "load the newest valid snapshot" stays
/// trivially true.

inline constexpr std::uint32_t kSnapshotMagic = 0x504E5351u;  // "QSNP"
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

template <int D>
PersistError WriteSnapshot(const SpatialIndex<D>& index,
                           const std::string& path,
                           std::uint64_t* bytes_out = nullptr) {
  const ObjectStore<D>& store = index.store();
  std::string payload;
  ByteWriter w(&payload);
  w.U32(static_cast<std::uint32_t>(D));
  w.U32(static_cast<std::uint32_t>(sizeof(Scalar)));
  w.U64(store.version());
  w.Str(index.name());
  const std::size_t slots = store.slots();
  w.U64(slots);
  w.U64(store.live_count());
  const std::vector<Box<D>>& boxes = store.boxes();
  for (std::size_t i = 0; i < slots; ++i) PutBox<D>(&w, boxes[i]);
  for (std::size_t i = 0; i < slots; ++i) {
    w.U8(store.alive(static_cast<ObjectId>(i)) ? 1 : 0);
  }
  std::string structure;
  ByteWriter sw(&structure);
  const bool has_structure = index.SerializeStructure(sw);
  w.U8(has_structure ? 1 : 0);
  if (has_structure) w.Str(structure);

  std::string file;
  ByteWriter fw(&file);
  fw.U32(kSnapshotMagic);
  fw.U32(kSnapshotFormatVersion);
  fw.U64(payload.size());
  const std::uint32_t crc = Crc32c(payload.data(), payload.size());
  if (FailPoints::Hit("snapshot_bitflip")) payload[payload.size() / 2] ^= 0x04;
  fw.Bytes(payload.data(), payload.size());
  fw.U32(crc);

  const std::string tmp = path + ".tmp";
  FileHandle fh;
  if (!fh.OpenWrite(tmp, /*truncate=*/true)) return PersistError::kIo;
  PersistError err =
      fh.WriteAll(file.data(), file.size(), "snapshot_short_write");
  if (err != PersistError::kNone) return err;
  err = fh.Sync("snapshot_fsync_fail");
  if (err != PersistError::kNone) return err;
  fh.Close();
  if (FailPoints::Hit("snapshot_crash_before_rename")) CrashNow();
  err = AtomicReplace(tmp, path);
  if (err != PersistError::kNone) return err;
  if (bytes_out != nullptr) *bytes_out = file.size();
  return PersistError::kNone;
}

template <int D>
struct SnapshotContents {
  bool exists = false;
  PersistError error = PersistError::kNone;
  std::uint64_t lsn = 0;
  std::string kind;
  std::vector<Box<D>> boxes;
  std::vector<std::uint8_t> alive;
  std::uint64_t live_count = 0;
  bool has_structure = false;
  std::string structure;
};

/// Parses and validates a snapshot file; refuses (typed error) anything
/// that is truncated, checksum-damaged, or written for a different
/// dimensionality/scalar width. Does not touch any index.
template <int D>
SnapshotContents<D> ReadSnapshot(const std::string& path) {
  SnapshotContents<D> out;
  std::string raw;
  const ReadFileResult r = ReadFile(path, &raw);
  if (r == ReadFileResult::kNotFound) return out;
  if (r == ReadFileResult::kError) {
    out.error = PersistError::kIo;
    return out;
  }
  out.exists = true;
  if (raw.size() < 4) {
    out.error = PersistError::kSnapshotTruncated;
    return out;
  }
  ByteReader hr(raw.data(), raw.size());
  if (hr.U32() != kSnapshotMagic) {
    out.error = PersistError::kBadMagic;
    return out;
  }
  if (raw.size() < 16) {
    out.error = PersistError::kSnapshotTruncated;
    return out;
  }
  if (hr.U32() != kSnapshotFormatVersion) {
    out.error = PersistError::kBadFormatVersion;
    return out;
  }
  const std::uint64_t payload_len = hr.U64();
  if (!hr.ok() || raw.size() < 16 + payload_len + 4) {
    out.error = PersistError::kSnapshotTruncated;
    return out;
  }
  const char* payload = raw.data() + 16;
  std::uint32_t crc;
  std::memcpy(&crc, raw.data() + 16 + payload_len, 4);
  if (Crc32c(payload, static_cast<std::size_t>(payload_len)) != crc) {
    out.error = PersistError::kSnapshotCorrupt;
    return out;
  }
  ByteReader pr(payload, static_cast<std::size_t>(payload_len));
  if (pr.U32() != static_cast<std::uint32_t>(D) ||
      pr.U32() != static_cast<std::uint32_t>(sizeof(Scalar))) {
    out.error = PersistError::kDimensionMismatch;
    return out;
  }
  out.lsn = pr.U64();
  out.kind = pr.Str();
  const std::uint64_t slots = pr.U64();
  out.live_count = pr.U64();
  // A slot is one box + one alive byte; an impossible count is framing
  // corruption that survived the CRC only if the writer was broken.
  if (!pr.ok() || slots > pr.remaining() / (2 * D * sizeof(Scalar) + 1)) {
    out.error = PersistError::kSnapshotCorrupt;
    return out;
  }
  out.boxes.resize(static_cast<std::size_t>(slots));
  for (std::uint64_t i = 0; i < slots; ++i) {
    out.boxes[static_cast<std::size_t>(i)] = GetBox<D>(&pr);
  }
  out.alive.resize(static_cast<std::size_t>(slots));
  for (std::uint64_t i = 0; i < slots; ++i) {
    out.alive[static_cast<std::size_t>(i)] = pr.U8();
  }
  out.has_structure = pr.U8() != 0;
  if (out.has_structure) out.structure = pr.Str();
  if (!pr.ok()) {
    out.error = PersistError::kSnapshotCorrupt;
    return out;
  }
  std::uint64_t live = 0;
  for (const std::uint8_t a : out.alive) live += a != 0;
  if (live != out.live_count) {
    out.error = PersistError::kSnapshotCorrupt;
    return out;
  }
  return out;
}

}  // namespace quasii::persist

#endif  // QUASII_PERSIST_SNAPSHOT_H_
