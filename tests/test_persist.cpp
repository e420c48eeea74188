// Crash-safe durability suite (src/persist/): snapshot + WAL round trips
// for every roster index, the deterministic fault-injection crash matrix
// (fork a child, arm a counted failpoint, let the process die mid-write,
// recover, and compare bit-identically against an uninterrupted prefix
// run), typed-error refusal of every corruption class — torn tails,
// bit flips, truncation, wrong magic/format/kind/dimension, LSN gaps — and
// the CRC-32C under all of it, on every implementation this CPU can run.
//
// Artifacts land in $QUASII_PERSIST_ARTIFACTS when set (CI uploads the
// directory on failure), else in a fresh mkdtemp under /tmp. Passing tests
// clean up after themselves; an aborting CHECK leaves the evidence behind.

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/spatial_index.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "grid/grid_index.h"
#include "mosaic/mosaic_index.h"
#include "persist/crc32c.h"
#include "persist/failpoint.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "quasii/quasii_index.h"
#include "rtree/rtree_index.h"
#include "scan/scan_index.h"
#include "sfc/sfc_index.h"
#include "sfc/sfcracker_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box;
using quasii::ByteWriter;
using quasii::Box3;
using quasii::Dataset;
using quasii::Dataset3;
using quasii::GridAssignment;
using quasii::GridIndex;
using quasii::MosaicIndex;
using quasii::ObjectId;
using quasii::QuasiiIndex;
using quasii::Rng;
using quasii::RTreeIndex;
using quasii::Scalar;
using quasii::ScanIndex;
using quasii::SfcIndex;
using quasii::SfcrackerIndex;
using quasii::SpatialIndex;
using quasii::persist::FailPoints;
using quasii::persist::PersistError;
using quasii::persist::PersistErrorName;
using quasii::persist::RecoverIndex;
using quasii::persist::RecoveryResult;
using quasii::persist::WalOp;
using quasii::persist::WalRecord;
using quasii::persist::WalWriter;
using quasii::persist::WriteSnapshot;

// ---------------------------------------------------------------------------
// Artifacts directory

std::string ArtifactsDir() {
  static std::string dir = [] {
    if (const char* env = std::getenv("QUASII_PERSIST_ARTIFACTS")) {
      ::mkdir(env, 0755);  // best-effort; may already exist
      return std::string(env);
    }
    char tmpl[] = "/tmp/quasii_persist_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    CHECK(made != nullptr);
    return std::string(made);
  }();
  return dir;
}

std::string ArtifactPath(const std::string& name) {
  return ArtifactsDir() + "/" + name;
}

void RemoveArtifact(const std::string& path) { std::remove(path.c_str()); }

// ---------------------------------------------------------------------------
// Deterministic inputs

Box3 UnitCube(Scalar lo, Scalar hi) {
  Box3 b;
  for (int d = 0; d < 3; ++d) {
    b.lo[d] = lo;
    b.hi[d] = hi;
  }
  return b;
}

Box3 RandomBox(Rng* rng, const Box3& universe, double max_extent_frac) {
  Box3 b;
  for (int d = 0; d < 3; ++d) {
    const double lo = static_cast<double>(universe.lo[d]);
    const double hi = static_cast<double>(universe.hi[d]);
    const double centre = rng->Uniform(lo, hi);
    const double half = (hi - lo) * rng->Uniform(0, max_extent_frac) / 2;
    b.lo[d] = static_cast<Scalar>(centre - half);
    b.hi[d] = static_cast<Scalar>(centre + half);
  }
  return b;
}

Dataset3 RandomDataset(Rng* rng, const Box3& universe, std::size_t n) {
  Dataset3 data;
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.push_back(RandomBox(rng, universe, 0.03));
  }
  return data;
}

struct Mutation {
  bool is_insert = false;
  ObjectId id = 0;
  Box3 box;
};

/// The recorded mutation workload: deterministic in (seed, data_size,
/// count), every mutation accepted by construction — inserts use fresh
/// ids, erases pick a currently-live victim.
std::vector<Mutation> MakeMutationScript(std::uint64_t seed,
                                         std::size_t data_size, int count,
                                         const Box3& universe) {
  Rng rng(seed);
  std::vector<ObjectId> live(data_size);
  for (ObjectId i = 0; i < data_size; ++i) live[i] = i;
  ObjectId next_id = static_cast<ObjectId>(data_size);
  std::vector<Mutation> script;
  script.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Mutation m;
    if (live.empty() || rng.Uniform(0, 1) < 0.6) {
      m.is_insert = true;
      m.id = next_id++;
      m.box = RandomBox(&rng, universe, 0.05);
      live.push_back(m.id);
    } else {
      const std::size_t victim = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      m.id = live[victim];
      live[victim] = live.back();
      live.pop_back();
    }
    script.push_back(m);
  }
  return script;
}

/// Applies the first `count` script mutations directly (no logging) — the
/// uninterrupted prefix oracle the crash matrix compares against.
void ApplyScript(SpatialIndex<3>* index, const std::vector<Mutation>& script,
                 std::size_t count) {
  CHECK_LE(count, script.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Mutation& m = script[i];
    const bool ok = m.is_insert ? index->Insert(m.id, m.box)
                                : index->Erase(m.id);
    CHECK(ok);
  }
}

/// Applies the script with WAL logging (and optional periodic snapshots) —
/// the durability path under test. Returns the first persistence error.
PersistError RunLoggedWorkload(SpatialIndex<3>* index,
                               const std::vector<Mutation>& script,
                               const std::string& wal_path,
                               const std::string& snapshot_path,
                               std::size_t snapshot_every) {
  WalWriter<3> wal;
  PersistError err = wal.Open(wal_path, quasii::persist::FsyncPolicy::kEveryOp,
                              /*every_n=*/1);
  if (err != PersistError::kNone) return err;
  std::size_t accepted = 0;
  for (const Mutation& m : script) {
    const bool ok = m.is_insert ? index->Insert(m.id, m.box)
                                : index->Erase(m.id);
    CHECK(ok);
    WalRecord<3> rec;
    rec.lsn = index->store().version();
    rec.id = m.id;
    if (m.is_insert) {
      rec.op = WalOp::kInsert;
      rec.box = m.box;
    } else {
      rec.op = WalOp::kErase;
    }
    err = wal.Append(rec);
    if (err != PersistError::kNone) return err;
    ++accepted;
    if (snapshot_every > 0 && accepted % snapshot_every == 0) {
      err = WriteSnapshot<3>(*index, snapshot_path);
      if (err != PersistError::kNone) return err;
    }
  }
  return wal.Sync();
}

/// Bit-identical comparison: both indexes answer the same deterministic
/// range-query set with exactly the same sorted id lists.
void CheckSameResults(SpatialIndex<3>* a, SpatialIndex<3>* b,
                      const Box3& universe, std::uint64_t seed) {
  CHECK_EQ(a->store().live_count(), b->store().live_count());
  Rng rng(seed);
  std::vector<ObjectId> got_a, got_b;
  for (int i = 0; i < 40; ++i) {
    const Box3 q =
        i == 0 ? universe : RandomBox(&rng, universe, 0.3);
    got_a.clear();
    got_b.clear();
    RangeQueryInto(*a, q, &got_a);
    RangeQueryInto(*b, q, &got_b);
    std::sort(got_a.begin(), got_a.end());
    std::sort(got_b.begin(), got_b.end());
    CHECK(got_a == got_b);
  }
}

QuasiiIndex<3>::Params SmallQuasiiParams() {
  QuasiiIndex<3>::Params p;
  p.leaf_threshold = 64;
  return p;
}

/// Converges the index on a deterministic query workload (two passes, so
/// the second finds everything already refined).
void Converge(SpatialIndex<3>* index, const Box3& universe,
              std::uint64_t seed) {
  std::vector<ObjectId> got;
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(seed);
    for (int i = 0; i < 50; ++i) {
      got.clear();
      RangeQueryInto(*index, RandomBox(&rng, universe, 0.3), &got);
    }
  }
}

void CheckInvariantsOrDie(SpatialIndex<3>* index) {
  std::string why;
  if (!index->CheckInvariants(&why)) {
    std::fprintf(stderr, "CheckInvariants: %s\n", why.c_str());
    CHECK(false);
  }
}

// ---------------------------------------------------------------------------
// Round trips

/// WAL-only replay: the recovered index starts from the same initial
/// dataset and replays every logged mutation.
// ---------------------------------------------------------------------------
// CRC-32C: every frame, WAL record and snapshot payload rests on it

/// The implementations a test can call on this machine: the table reference,
/// the dispatched entry point, and the SSE4.2 loop when the CPU has it (run
/// directly, so a `QUASII_FORCE_SCALAR=1` run still checks it).
std::vector<std::uint32_t (*)(const void*, std::size_t)> CrcImplementations() {
  std::vector<std::uint32_t (*)(const void*, std::size_t)> out = {
      &quasii::persist::Crc32cTable, &quasii::persist::Crc32c};
#if defined(QUASII_CRC32C_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    out.push_back([](const void* data, std::size_t n) {
      return ~quasii::persist::internal::Crc32cSse42Update(
          0xFFFFFFFFu, static_cast<const unsigned char*>(data), n);
    });
  }
#endif
  return out;
}

void TestCrc32cKnownAnswers() {
  // RFC 3720 (iSCSI), appendix B.4.
  const std::string digits = "123456789";
  const std::string zeros(32, '\0');
  for (const auto crc : CrcImplementations()) {
    CHECK_EQ(crc(digits.data(), digits.size()), 0xE3069283u);
    CHECK_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu);
    CHECK_EQ(crc(nullptr, 0), 0u);
  }
}

void TestCrc32cMatchesTableEverywhere() {
  // Every length up to 4096 at every alignment: the 8-byte steps, the byte
  // tail and unaligned loads all agree with the reference.
  Rng rng(0xC3C);
  std::string bytes(4096 + 8, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(static_cast<int>(rng.Uniform(0.0, 256.0)));
  }
  const auto impls = CrcImplementations();
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 4096; ++n) {
      const char* p = bytes.data() + offset;
      const std::uint32_t want = quasii::persist::Crc32cTable(p, n);
      for (const auto crc : impls) CHECK_EQ(crc(p, n), want);
    }
  }
}

void TestWalOnlyReplay() {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(21);
  const Dataset3 data = RandomDataset(&rng, universe, 600);
  const auto script = MakeMutationScript(22, data.size(), 120, universe);
  const std::string wal = ArtifactPath("wal_only.wal");
  RemoveArtifact(wal);

  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  CHECK_EQ(RunLoggedWorkload(&primary, script, wal, "", 0),
           PersistError::kNone);

  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  const RecoveryResult rec = RecoverIndex<3>(&recovered, "", wal);
  CHECK(rec.ok());
  CHECK(!rec.snapshot_loaded);
  CHECK_EQ(rec.wal_replayed, script.size());
  CHECK_EQ(rec.recovered_lsn, script.size());
  CheckSameResults(&primary, &recovered, universe, 23);
  CheckInvariantsOrDie(&recovered);
  RemoveArtifact(wal);
}

/// Snapshot round trip of a converged QUASII: the structure blob restores
/// the crack columns and slice hierarchy, so the recovered index answers
/// the very workload that converged it with ZERO cracks.
void TestQuasiiSnapshotConvergedZeroCracks() {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(31);
  const Dataset3 data = RandomDataset(&rng, universe, 900);
  const std::string snap = ArtifactPath("quasii_converged.snapshot");
  RemoveArtifact(snap);

  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  Converge(&primary, universe, 32);
  const std::uint64_t cracks_before = primary.stats().cracks;
  CHECK_GT(cracks_before, 0u);
  CHECK_EQ(WriteSnapshot<3>(primary, snap), PersistError::kNone);

  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  const RecoveryResult rec = RecoverIndex<3>(&recovered, snap, "");
  CHECK(rec.ok());
  CHECK(rec.snapshot_loaded);
  CHECK(rec.structure_restored);
  CheckInvariantsOrDie(&recovered);

  // Replaying the converging workload performs no cracking at all.
  recovered.ResetStats();
  Converge(&recovered, universe, 32);
  CHECK_EQ(recovered.stats().cracks, 0u);
  CHECK_EQ(recovered.stats().objects_moved, 0u);
  CheckSameResults(&primary, &recovered, universe, 33);
  CheckInvariantsOrDie(&recovered);
  RemoveArtifact(snap);
}

/// R-Tree snapshots restore the packed node hierarchy; rebuild-from-store
/// indexes (SFCracker, Mosaic, Grid, SFC, Scan) recover by re-deriving
/// their structure from the restored store. All answer identically.
void TestRosterSnapshotRoundTrips() {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(41);
  const Dataset3 data = RandomDataset(&rng, universe, 500);
  const auto script = MakeMutationScript(42, data.size(), 80, universe);

  const auto check_round_trip = [&](SpatialIndex<3>* primary,
                                    SpatialIndex<3>* fresh,
                                    bool expect_structure) {
    ApplyScript(primary, script, script.size());
    Converge(primary, universe, 43);
    const std::string snap = ArtifactPath(
        "roster_" + std::string(primary->name()) + ".snapshot");
    RemoveArtifact(snap);
    CHECK_EQ(WriteSnapshot<3>(*primary, snap), PersistError::kNone);
    const RecoveryResult rec = RecoverIndex<3>(fresh, snap, "");
    CHECK(rec.ok());
    CHECK(rec.snapshot_loaded);
    CHECK_EQ(rec.structure_restored, expect_structure);
    CheckSameResults(primary, fresh, universe, 44);
    CheckInvariantsOrDie(fresh);
    RemoveArtifact(snap);
  };

  {
    RTreeIndex<3> a(data), b(data);
    a.Build();
    check_round_trip(&a, &b, /*expect_structure=*/true);
  }
  {
    SfcrackerIndex<3> a(data, universe), b(data, universe);
    check_round_trip(&a, &b, /*expect_structure=*/false);
  }
  {
    MosaicIndex<3> a(data, universe), b(data, universe);
    check_round_trip(&a, &b, /*expect_structure=*/false);
  }
  {
    GridIndex<3>::Params p;
    p.assignment = GridAssignment::kQueryExtension;
    GridIndex<3> a(data, universe, p), b(data, universe, p);
    a.Build();
    check_round_trip(&a, &b, /*expect_structure=*/false);
  }
  {
    SfcIndex<3> a(data, universe), b(data, universe);
    a.Build();
    check_round_trip(&a, &b, /*expect_structure=*/false);
  }
  {
    ScanIndex<3> a(data), b(data);
    check_round_trip(&a, &b, /*expect_structure=*/false);
  }
}

/// Snapshot + WAL tail: recovery loads the snapshot and replays only the
/// records past its LSN.
void TestSnapshotPlusWalTail() {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(51);
  const Dataset3 data = RandomDataset(&rng, universe, 600);
  const auto script = MakeMutationScript(52, data.size(), 100, universe);
  const std::string wal = ArtifactPath("tail.wal");
  const std::string snap = ArtifactPath("tail.snapshot");
  RemoveArtifact(wal);
  RemoveArtifact(snap);

  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  Converge(&primary, universe, 53);
  CHECK_EQ(RunLoggedWorkload(&primary, script, wal, snap,
                             /*snapshot_every=*/32),
           PersistError::kNone);

  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  const RecoveryResult rec = RecoverIndex<3>(&recovered, snap, wal);
  CHECK(rec.ok());
  CHECK(rec.snapshot_loaded);
  CHECK_EQ(rec.snapshot_lsn, 96u);  // the last multiple of 32
  CHECK_EQ(rec.wal_records, script.size());
  CHECK_EQ(rec.wal_replayed, script.size() - 96);
  CHECK_EQ(rec.recovered_lsn, script.size());
  CheckSameResults(&primary, &recovered, universe, 54);
  CheckInvariantsOrDie(&recovered);

  // The recovered log accepts further appends at the next LSN.
  WalWriter<3> more;
  CHECK_EQ(more.Open(wal, quasii::persist::FsyncPolicy::kNone, 1),
           PersistError::kNone);
  WalRecord<3> next;
  next.lsn = rec.recovered_lsn + 1;
  next.op = WalOp::kInsert;
  next.id = 999000;
  next.box = UnitCube(1, 2);
  CHECK_EQ(more.Append(next), PersistError::kNone);
  const auto reread = quasii::persist::ReadWal<3>(wal);
  CHECK_EQ(reread.error, PersistError::kNone);
  CHECK_EQ(reread.records.size(), script.size() + 1);
  RemoveArtifact(wal);
  RemoveArtifact(snap);
}

// ---------------------------------------------------------------------------
// Corruption: every damage class yields a typed error (satellite 3)

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CHECK(in.good());
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return raw;
}

void DumpFile(const std::string& path, const std::string& raw) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CHECK(out.good());
  out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
}

void TestWalTornTailTruncatedAndRecovered() {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(61);
  const Dataset3 data = RandomDataset(&rng, universe, 400);
  const auto script = MakeMutationScript(62, data.size(), 40, universe);
  const std::string wal = ArtifactPath("torn.wal");
  RemoveArtifact(wal);

  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  CHECK_EQ(RunLoggedWorkload(&primary, script, wal, "", 0),
           PersistError::kNone);

  // Tear the final record in half — the residue of a crash mid-append.
  std::string raw = SlurpFile(wal);
  DumpFile(wal, raw.substr(0, raw.size() - 10));

  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  const RecoveryResult rec = RecoverIndex<3>(&recovered, "", wal);
  CHECK(rec.ok());
  CHECK(rec.wal_tail_truncated);
  CHECK_EQ(rec.wal_replayed, script.size() - 1);
  CheckInvariantsOrDie(&recovered);

  // Recovery physically truncated the tear: a re-read is torn no more.
  const auto reread = quasii::persist::ReadWal<3>(wal);
  CHECK_EQ(reread.error, PersistError::kNone);
  CHECK(!reread.truncated_tail);
  CHECK_EQ(reread.records.size(), script.size() - 1);
  RemoveArtifact(wal);
}

void TestWalCorruptRecordRefused() {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(71);
  const Dataset3 data = RandomDataset(&rng, universe, 300);
  const auto script = MakeMutationScript(72, data.size(), 30, universe);
  const std::string wal = ArtifactPath("bitflip.wal");
  RemoveArtifact(wal);

  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  CHECK_EQ(RunLoggedWorkload(&primary, script, wal, "", 0),
           PersistError::kNone);

  // Flip one bit inside the final record's payload: the frame is complete
  // (so this is provably corruption, not a torn tail) and its CRC no
  // longer matches.
  std::string raw = SlurpFile(wal);
  raw[raw.size() - 1] = static_cast<char>(raw[raw.size() - 1] ^ 0x10);
  DumpFile(wal, raw);

  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  const RecoveryResult rec = RecoverIndex<3>(&recovered, "", wal);
  CHECK_EQ(rec.error, PersistError::kWalRecordCorrupt);
  RemoveArtifact(wal);
}

void TestWalLsnGapRefused() {
  const std::string wal = ArtifactPath("gap.wal");
  RemoveArtifact(wal);
  WalWriter<3> writer;
  CHECK_EQ(writer.Open(wal, quasii::persist::FsyncPolicy::kNone, 1),
           PersistError::kNone);
  WalRecord<3> rec;
  rec.op = WalOp::kInsert;
  rec.box = UnitCube(1, 2);
  rec.lsn = 1;
  rec.id = 10;
  CHECK_EQ(writer.Append(rec), PersistError::kNone);
  rec.lsn = 3;  // skips 2
  rec.id = 11;
  CHECK_EQ(writer.Append(rec), PersistError::kNone);
  const auto contents = quasii::persist::ReadWal<3>(wal);
  CHECK_EQ(contents.error, PersistError::kWalLsnGap);
  RemoveArtifact(wal);
}

void TestWalDimensionMismatchRefused() {
  const std::string wal = ArtifactPath("dim.wal");
  RemoveArtifact(wal);
  WalWriter<2> writer;  // a 2-D log...
  CHECK_EQ(writer.Open(wal, quasii::persist::FsyncPolicy::kNone, 1),
           PersistError::kNone);
  WalRecord<2> rec;
  rec.op = WalOp::kErase;
  rec.lsn = 1;
  rec.id = 1;
  CHECK_EQ(writer.Append(rec), PersistError::kNone);
  const auto contents = quasii::persist::ReadWal<3>(wal);  // ...read as 3-D
  CHECK_EQ(contents.error, PersistError::kDimensionMismatch);
  RemoveArtifact(wal);
}

void TestWalReplayRejectedRefused() {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(81);
  const Dataset3 data = RandomDataset(&rng, universe, 100);
  const std::string wal = ArtifactPath("rejected.wal");
  RemoveArtifact(wal);
  WalWriter<3> writer;
  CHECK_EQ(writer.Open(wal, quasii::persist::FsyncPolicy::kNone, 1),
           PersistError::kNone);
  WalRecord<3> rec;
  rec.op = WalOp::kErase;
  rec.lsn = 1;
  rec.id = 5000000;  // never lived
  CHECK_EQ(writer.Append(rec), PersistError::kNone);

  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  const RecoveryResult recres = RecoverIndex<3>(&recovered, "", wal);
  CHECK_EQ(recres.error, PersistError::kReplayRejected);
  RemoveArtifact(wal);
}

void TestSnapshotCorruptionClassesRefused() {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(91);
  const Dataset3 data = RandomDataset(&rng, universe, 300);
  const std::string snap = ArtifactPath("corrupt.snapshot");
  RemoveArtifact(snap);

  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  Converge(&primary, universe, 92);
  CHECK_EQ(WriteSnapshot<3>(primary, snap), PersistError::kNone);
  const std::string good = SlurpFile(snap);

  const auto recover_expecting = [&](PersistError want) {
    QuasiiIndex<3> fresh(data, SmallQuasiiParams());
    const RecoveryResult rec = RecoverIndex<3>(&fresh, snap, "");
    if (rec.error != want) {
      std::fprintf(stderr, "expected %s, got %s (%s)\n",
                   PersistErrorName(want), PersistErrorName(rec.error),
                   rec.detail.c_str());
      CHECK(false);
    }
  };

  // Truncated mid-payload.
  DumpFile(snap, good.substr(0, good.size() / 2));
  recover_expecting(PersistError::kSnapshotTruncated);

  // Truncated inside the fixed header.
  DumpFile(snap, good.substr(0, 9));
  recover_expecting(PersistError::kSnapshotTruncated);

  // One flipped payload bit.
  {
    std::string bad = good;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
    DumpFile(snap, bad);
    recover_expecting(PersistError::kSnapshotCorrupt);
  }

  // Wrong magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    DumpFile(snap, bad);
    recover_expecting(PersistError::kBadMagic);
  }

  // Unknown format version, version 1 (written before the crack keys left
  // QUASII's structure blob) and version 2 (before the extent-class table
  // entered it): refused, never misparsed.
  for (const int version : {0x7F, 1, 2}) {
    std::string bad = good;
    bad[4] = static_cast<char>(version);
    DumpFile(snap, bad);
    recover_expecting(PersistError::kBadFormatVersion);
  }

  // A valid snapshot of a different index kind.
  {
    ScanIndex<3> scan(data);
    CHECK_EQ(WriteSnapshot<3>(scan, snap), PersistError::kNone);
    recover_expecting(PersistError::kIndexKindMismatch);
  }
  RemoveArtifact(snap);
}

// ---------------------------------------------------------------------------
// Extent classes in the snapshot

/// The paper's synthetic data at test size: 1% large objects, so QUASII
/// derives two extent classes.
Dataset3 TwoClassData(std::size_t n) {
  quasii::datagen::UniformDatasetParams p;
  p.count = n;
  p.universe_size = 2000;
  p.seed = 17;
  return quasii::datagen::MakeUniformDataset(p);
}

/// Snapshot file surgery: the payload's offset (after magic, format and
/// length) and a rebuild that re-frames and re-CRCs an edited payload, so
/// the edit reaches the decoder instead of failing the checksum.
constexpr std::size_t kPayloadOffset = 16;

std::string Reframe(const std::string& file, const std::string& payload) {
  std::string out = file.substr(0, 8);
  ByteWriter w(&out);
  w.U64(payload.size());
  w.Bytes(payload.data(), payload.size());
  w.U32(quasii::persist::Crc32c(payload.data(), payload.size()));
  return out;
}

/// A converged two-class QUASII recovers with its class table and replays
/// its converging workload without a single crack.
void TestTwoClassSnapshotConvergedZeroCracks() {
  const Dataset3 data = TwoClassData(3000);
  const Box3 universe = UnitCube(0, 2000);
  const std::string snap = ArtifactPath("two_class.snapshot");
  RemoveArtifact(snap);

  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  Converge(&primary, universe, 51);
  CHECK_EQ(primary.class_count(), 2u);
  CHECK_GT(primary.stats().cracks, 0u);
  CHECK_EQ(WriteSnapshot<3>(primary, snap), PersistError::kNone);

  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  const RecoveryResult rec = RecoverIndex<3>(&recovered, snap, "");
  CHECK(rec.ok());
  CHECK(rec.structure_restored);
  CHECK_EQ(recovered.class_count(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto& want = primary.extent_class(c);
    const auto& got = recovered.extent_class(c);
    CHECK_EQ(got.bound, want.bound);
    CHECK_EQ(got.live, want.live);
    CHECK(recovered.LeafThresholds(got, Box3::Infinite()) ==
          primary.LeafThresholds(want, Box3::Infinite()));
    CHECK_EQ(got.root.size(), want.root.size());
    for (int d = 0; d < 3; ++d) {
      CHECK_EQ(got.half_extent[d], want.half_extent[d]);
    }
  }
  CheckInvariantsOrDie(&recovered);

  recovered.ResetStats();
  Converge(&recovered, universe, 51);
  CHECK_EQ(recovered.stats().cracks, 0u);
  CHECK_EQ(recovered.stats().objects_moved, 0u);
  CheckSameResults(&primary, &recovered, universe, 52);
  RemoveArtifact(snap);
}

/// QUASII's structure blob is [u8 initialized] [crack array] [u64 K] and
/// per class [bound] [D half extents] [slice list]; the crack array is two
/// u64 counts plus per row 2·D Scalars, a u32 id and a live byte. Returns
/// the offset of class 0's first half extent.
std::size_t FirstHalfExtentOffset(std::size_t rows) {
  const std::size_t array_bytes = 16 + rows * (2 * 3 * sizeof(Scalar) + 5);
  return 1 + array_bytes + 8 + sizeof(Scalar);
}

/// The blob validator: a CRC only proves the bytes were written, so each
/// inconsistent class table is refused — by `DeserializeStructure` itself
/// and, through a re-CRC'd snapshot, by recovery as a corrupt structure.
void TestClassTableValidatorRefusesBlobs() {
  const Dataset3 data = TwoClassData(2000);
  const Box3 universe = UnitCube(0, 2000);
  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  Converge(&primary, universe, 61);
  CHECK_EQ(primary.class_count(), 2u);
  std::string good;
  ByteWriter gw(&good);
  CHECK(primary.SerializeStructure(gw));
  {
    QuasiiIndex<3> fresh(data, SmallQuasiiParams());
    CHECK(fresh.DeserializeStructure(good));
    CheckInvariantsOrDie(&fresh);
  }
  const std::size_t half0 = FirstHalfExtentOffset(data.size());
  const auto with_scalar = [&good](std::size_t offset, Scalar v) {
    std::string bad = good;
    std::memcpy(&bad[offset], &v, sizeof(Scalar));
    return bad;
  };
  // Class 0's root list starts right after its half extents: the first
  // root slice's `begin` (after the u64 slice count) moved off row 0
  // leaves row 0 outside every class.
  std::string untiled = good;
  const std::uint64_t one = 1;
  std::memcpy(&untiled[half0 + 3 * sizeof(Scalar) + 8], &one, 8);
  const std::vector<std::pair<const char*, std::string>> bad_blobs = {
      {"NaN half extent",
       with_scalar(half0, std::numeric_limits<Scalar>::quiet_NaN())},
      {"infinite half extent",
       with_scalar(half0 + sizeof(Scalar),
                   std::numeric_limits<Scalar>::infinity())},
      {"negative half extent", with_scalar(half0 + 2 * sizeof(Scalar), -1)},
      {"class ranges do not tile", untiled},
      // Class 0 holds objects with sides >= 1: a zero half extent puts its
      // live rows outside their class, which would drop answers.
      {"live row beyond its class's half extent", with_scalar(half0, 0)},
  };

  const std::string snap = ArtifactPath("class_table.snapshot");
  RemoveArtifact(snap);
  CHECK_EQ(WriteSnapshot<3>(primary, snap), PersistError::kNone);
  const std::string file = SlurpFile(snap);
  const std::string payload = file.substr(kPayloadOffset, file.size() - 20);
  // The structure blob is the payload's tail: [u64 length] [blob].
  CHECK_EQ(payload.substr(payload.size() - good.size()), good);
  const std::string head = payload.substr(0, payload.size() - good.size());
  for (const auto& [what, blob] : bad_blobs) {
    std::fprintf(stderr, "  refusing: %s\n", what);
    QuasiiIndex<3> fresh(data, SmallQuasiiParams());
    CHECK(!fresh.DeserializeStructure(blob));
    CHECK(!fresh.initialized());

    DumpFile(snap, Reframe(file, head + blob));
    QuasiiIndex<3> recovered(data, SmallQuasiiParams());
    CHECK_EQ(RecoverIndex<3>(&recovered, snap, "").error,
             PersistError::kStructureCorrupt);
  }
  RemoveArtifact(snap);
}

/// A live slot whose box has a NaN or infinite coordinate is refused as
/// corrupt even when the CRC matches, like `Insert` refuses such a box.
void TestNonFiniteLiveBoxRefused() {
  Rng rng(71);
  const Dataset3 data = RandomDataset(&rng, UnitCube(0, 100), 50);
  const std::string snap = ArtifactPath("non_finite.snapshot");
  RemoveArtifact(snap);
  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  CHECK_EQ(WriteSnapshot<3>(primary, snap), PersistError::kNone);
  const std::string file = SlurpFile(snap);
  std::string payload = file.substr(kPayloadOffset, file.size() - 20);
  // Payload: u32 D, u32 scalar width, u64 lsn, str kind ("QUASII"),
  // u64 slots, u64 live count, then slot 0's box (lo[0] first).
  const std::size_t box0 = 4 + 4 + 8 + (8 + 6) + 8 + 8;
  for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                           std::numeric_limits<Scalar>::infinity(),
                           -std::numeric_limits<Scalar>::infinity()}) {
    std::string edited = payload;
    std::memcpy(&edited[box0 + sizeof(Scalar)], &bad, sizeof(Scalar));
    DumpFile(snap, Reframe(file, edited));
    QuasiiIndex<3> recovered(data, SmallQuasiiParams());
    CHECK_EQ(RecoverIndex<3>(&recovered, snap, "").error,
             PersistError::kSnapshotCorrupt);
  }
  // The untouched payload, re-framed the same way, still recovers.
  DumpFile(snap, Reframe(file, payload));
  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  CHECK(RecoverIndex<3>(&recovered, snap, "").ok());
  RemoveArtifact(snap);
}

/// Constructing an index over a dataset with a non-finite box is caller
/// misuse and aborts, naming the id — checked in a forked child.
void TestNonFiniteDatasetAborts() {
  for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                           std::numeric_limits<Scalar>::infinity()}) {
    const pid_t pid = fork();
    CHECK_GE(pid, 0);
    if (pid == 0) {
      ::close(STDERR_FILENO);  // keep the expected diagnostic out of the log
      Dataset3 data(4, UnitCube(1, 2));
      data[2].hi[1] = bad;
      ScanIndex<3> scan(data);
      std::_Exit(0);  // constructed: the check is missing
    }
    int status = 0;
    CHECK_EQ(waitpid(pid, &status, 0), pid);
    CHECK(WIFSIGNALED(status));
    CHECK_EQ(WTERMSIG(status), SIGABRT);
  }
}

// ---------------------------------------------------------------------------
// Fault injection

void TestFailPointRegistry() {
  FailPoints& fp = FailPoints::Instance();
  fp.Clear();
  CHECK(!FailPoints::Hit("nothing_armed"));

  // Counted trigger: fires on exactly the N-th hit, once.
  CHECK(fp.Arm("site_a=3"));
  CHECK(!FailPoints::Hit("site_a"));
  CHECK(!FailPoints::Hit("site_a"));
  CHECK(FailPoints::Hit("site_a"));
  CHECK(!FailPoints::Hit("site_a"));

  // Bare name means =1; other sites unaffected.
  CHECK(fp.Arm("site_b,site_c=2"));
  CHECK(FailPoints::Hit("site_b"));
  CHECK(!FailPoints::Hit("site_c"));
  CHECK(FailPoints::Hit("site_c"));

  // Malformed specs are rejected.
  CHECK(!fp.Arm("site_d=0"));
  CHECK(!fp.Arm("site_d=-1"));
  CHECK(!fp.Arm("site_d=7x"));
  CHECK(!fp.Arm("=4"));
  fp.Clear();
}

/// Armed fsync failure surfaces as a typed error, not a crash.
void TestFsyncFailureIsTypedError() {
  const std::string wal = ArtifactPath("fsync_fail.wal");
  RemoveArtifact(wal);
  FailPoints::Instance().Clear();
  CHECK(FailPoints::Instance().Arm("wal_fsync_fail=1"));
  WalWriter<3> writer;
  CHECK_EQ(writer.Open(wal, quasii::persist::FsyncPolicy::kEveryOp, 1),
           PersistError::kNone);
  WalRecord<3> rec;
  rec.op = WalOp::kErase;
  rec.lsn = 1;
  rec.id = 1;
  CHECK_EQ(writer.Append(rec), PersistError::kIo);
  FailPoints::Instance().Clear();
  RemoveArtifact(wal);
}

/// The armed bit flip lands a corrupt record on disk, which recovery then
/// refuses with the same typed error as hand-made corruption.
void TestInjectedBitFlipRefused() {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(101);
  const Dataset3 data = RandomDataset(&rng, universe, 200);
  const auto script = MakeMutationScript(102, data.size(), 20, universe);
  const std::string wal = ArtifactPath("injected_flip.wal");
  RemoveArtifact(wal);

  FailPoints::Instance().Clear();
  CHECK(FailPoints::Instance().Arm("wal_bitflip=7"));
  QuasiiIndex<3> primary(data, SmallQuasiiParams());
  CHECK_EQ(RunLoggedWorkload(&primary, script, wal, "", 0),
           PersistError::kNone);
  FailPoints::Instance().Clear();

  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  const RecoveryResult rec = RecoverIndex<3>(&recovered, "", wal);
  CHECK_EQ(rec.error, PersistError::kWalRecordCorrupt);
  RemoveArtifact(wal);
}

/// The crash matrix: fork a child that arms one counted crash site and
/// runs the logged workload until the injected `_Exit`. The parent
/// recovers from whatever reached disk and checks the result is EXACTLY
/// some prefix of the mutation script — bit-identical query results
/// against an uninterrupted run of that prefix.
struct CrashCase {
  const char* site;
  int trigger;
  std::size_t snapshot_every;
};

void RunCrashCase(const CrashCase& c, int case_index) {
  const Box3 universe = UnitCube(0, 100);
  Rng rng(111);
  const Dataset3 data = RandomDataset(&rng, universe, 500);
  const auto script = MakeMutationScript(112, data.size(), 60, universe);
  const std::string tag = "crash_" + std::to_string(case_index);
  const std::string wal = ArtifactPath(tag + ".wal");
  const std::string snap = ArtifactPath(tag + ".snapshot");
  RemoveArtifact(wal);
  RemoveArtifact(snap);
  RemoveArtifact(snap + ".tmp");

  const pid_t pid = fork();
  CHECK_GE(pid, 0);
  if (pid == 0) {
    // Child: arm the crash site, run until the plug gets pulled. `_Exit`
    // everywhere — the child must not run the parent's atexit state.
    const std::string spec =
        std::string(c.site) + "=" + std::to_string(c.trigger);
    if (!FailPoints::Instance().Arm(spec)) std::_Exit(3);
    QuasiiIndex<3> index(data, SmallQuasiiParams());
    Converge(&index, universe, 113);
    RunLoggedWorkload(&index, script, wal, snap, c.snapshot_every);
    std::_Exit(4);  // reached the end without crashing: the case is broken
  }
  int status = 0;
  CHECK_EQ(waitpid(pid, &status, 0), pid);
  CHECK(WIFEXITED(status));
  CHECK_EQ(WEXITSTATUS(status), quasii::persist::kCrashExitCode);

  // Recover from the debris.
  QuasiiIndex<3> recovered(data, SmallQuasiiParams());
  const RecoveryResult rec = RecoverIndex<3>(&recovered, snap, wal);
  if (!rec.ok()) {
    std::fprintf(stderr, "[%s=%d] recovery failed: %s (%s)\n", c.site,
                 c.trigger, PersistErrorName(rec.error), rec.detail.c_str());
    CHECK(false);
  }
  CheckInvariantsOrDie(&recovered);

  // The recovered LSN names the surviving prefix; an uninterrupted run of
  // exactly that prefix must agree bit-identically.
  const std::size_t prefix = static_cast<std::size_t>(rec.recovered_lsn);
  CHECK_LE(prefix, script.size());
  QuasiiIndex<3> oracle(data, SmallQuasiiParams());
  Converge(&oracle, universe, 113);
  ApplyScript(&oracle, script, prefix);
  CheckSameResults(&oracle, &recovered, universe, 114);

  RemoveArtifact(wal);
  RemoveArtifact(snap);
  RemoveArtifact(snap + ".tmp");
}

void TestCrashMatrix() {
  const CrashCase cases[] = {
      {"wal_crash_before_append", 1, 0},
      {"wal_crash_before_append", 17, 0},
      {"wal_crash_after_append", 1, 0},
      {"wal_crash_after_append", 33, 0},
      {"wal_short_write", 1, 0},
      {"wal_short_write", 25, 0},
      {"wal_short_write", 60, 0},
      {"wal_crash_before_append", 9, 16},
      {"wal_crash_after_append", 40, 16},
      {"snapshot_short_write", 1, 16},
      {"snapshot_short_write", 2, 16},
      {"snapshot_crash_before_rename", 1, 16},
      {"snapshot_crash_before_rename", 3, 16},
  };
  int i = 0;
  for (const CrashCase& c : cases) {
    RunCrashCase(c, i++);
  }
}

}  // namespace

int main() {
  RUN_TEST(TestCrc32cKnownAnswers);
  RUN_TEST(TestCrc32cMatchesTableEverywhere);
  RUN_TEST(TestWalOnlyReplay);
  RUN_TEST(TestQuasiiSnapshotConvergedZeroCracks);
  RUN_TEST(TestRosterSnapshotRoundTrips);
  RUN_TEST(TestSnapshotPlusWalTail);
  RUN_TEST(TestWalTornTailTruncatedAndRecovered);
  RUN_TEST(TestWalCorruptRecordRefused);
  RUN_TEST(TestWalLsnGapRefused);
  RUN_TEST(TestWalDimensionMismatchRefused);
  RUN_TEST(TestWalReplayRejectedRefused);
  RUN_TEST(TestSnapshotCorruptionClassesRefused);
  RUN_TEST(TestTwoClassSnapshotConvergedZeroCracks);
  RUN_TEST(TestClassTableValidatorRefusesBlobs);
  RUN_TEST(TestNonFiniteLiveBoxRefused);
  RUN_TEST(TestNonFiniteDatasetAborts);
  RUN_TEST(TestFailPointRegistry);
  RUN_TEST(TestFsyncFailureIsTypedError);
  RUN_TEST(TestInjectedBitFlipRefused);
  RUN_TEST(TestCrashMatrix);
  return 0;
}
