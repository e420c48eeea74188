// CrackArray tests: the structure-of-arrays cracking core must keep its id,
// box, and live columns (and the keys derived from the boxes) consistent
// under arbitrary crack / median-split sequences, handle duplicate-key-heavy
// data via the frozen path, and carry the SoA QuasiiIndex to Scan-identical
// results on every dataset family.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crack_array.h"
#include "common/dataset.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "datagen/neuro.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "quasii/quasii_index.h"
#include "scan/scan_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box3;
using quasii::CrackArray;
using quasii::CrackPartition;
using quasii::Dataset3;
using quasii::ObjectId;
using quasii::QuasiiIndex;
using quasii::Rng;
using quasii::Scalar;
using quasii::ScanIndex;

Box3 TestUniverse() {
  Box3 u;
  for (int d = 0; d < 3; ++d) {
    u.lo[d] = 0;
    u.hi[d] = 1000;
  }
  return u;
}

/// Every column must describe the same permutation of the original dataset:
/// ids are a permutation, and row i's keys/box are exactly the source
/// object's centre keys/box.
void CheckColumnsConsistent(const CrackArray<3>& a, const Dataset3& data) {
  CHECK_EQ(a.size(), data.size());
  std::vector<bool> seen(data.size(), false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ObjectId id = a.id(i);
    CHECK_LT(id, data.size());
    CHECK(!seen[id]);
    seen[id] = true;
    CHECK(a.box(i) == data[id]);
    for (int d = 0; d < 3; ++d) {
      CHECK_EQ(a.key(d, i), CrackArray<3>::CenterKey(data[id], d));
    }
  }
}

void TestPermutationIntegrityUnderRandomOps() {
  Rng rng(71);
  const Box3 universe = TestUniverse();
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(8000, universe, 9.0f, &rng);
  CrackArray<3> a(data);
  CheckColumnsConsistent(a, data);

  // Arbitrary interleaved crack / median-split sequence over random ranges.
  for (int step = 0; step < 200; ++step) {
    const std::size_t x =
        static_cast<std::size_t>(rng.UniformInt(0, 7999));
    const std::size_t y =
        static_cast<std::size_t>(rng.UniformInt(0, 7999));
    const std::size_t begin = std::min(x, y);
    const std::size_t end = std::max(x, y) + 1;
    const int d = static_cast<int>(rng.UniformInt(0, 2));
    if (step % 2 == 0) {
      const Scalar v = rng.UniformScalar(universe.lo[d], universe.hi[d]);
      const std::size_t pos = a.CrackOnAxis(begin, end, d, v);
      CHECK_GE(pos, begin);
      CHECK_LE(pos, end);
      for (std::size_t i = begin; i < pos; ++i) CHECK_LT(a.key(d, i), v);
      for (std::size_t i = pos; i < end; ++i) CHECK_GE(a.key(d, i), v);
    } else {
      const auto split = a.MedianSplit(begin, end, d);
      CHECK_GE(split.pos, begin);
      CHECK_LE(split.pos, end);
      CHECK(!split.frozen || split.pos == end);
      for (std::size_t i = begin; i < split.pos; ++i) {
        CHECK_LT(a.key(d, i), split.bound);
      }
      for (std::size_t i = split.pos; i < end; ++i) {
        CHECK_GE(a.key(d, i), split.bound);
      }
      if (!split.frozen) {
        // A successful split must make progress on both sides.
        CHECK_GT(split.pos, begin);
        CHECK_LT(split.pos, end);
      }
    }
    CheckColumnsConsistent(a, data);
  }
}

void TestMedianSplitBalanceAndBounds() {
  Rng rng(5);
  const Box3 universe = TestUniverse();
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(4096, universe, 2.0f, &rng);
  CrackArray<3> a(data);
  const auto split = a.MedianSplit(0, a.size(), 1);
  CHECK(!split.frozen);
  // With (near-)distinct keys the split lands near the middle.
  CHECK_GT(split.pos, a.size() / 4);
  CHECK_LT(split.pos, 3 * a.size() / 4);
  CheckColumnsConsistent(a, data);
}

void TestDuplicateHeavyFrozenPath() {
  // 90% of the dataset is one identical box: median splits along any axis
  // keep running into the duplicate run at scale.
  Rng rng(23);
  const Box3 universe = TestUniverse();
  Dataset3 data;
  Box3 dup;
  for (int d = 0; d < 3; ++d) {
    dup.lo[d] = 500;
    dup.hi[d] = 502;
  }
  for (int i = 0; i < 18000; ++i) data.push_back(dup);
  const Dataset3 extra =
      quasii::datagen::MakeRandomBoxes<3>(2000, universe, 4.0f, &rng);
  data.insert(data.end(), extra.begin(), extra.end());

  CrackArray<3> a(data);
  // Repeated median splits must terminate at the frozen duplicate run, with
  // columns intact throughout.
  std::size_t begin = 0;
  std::size_t end = a.size();
  bool froze = false;
  for (int i = 0; i < 64 && !froze; ++i) {
    const auto split = a.MedianSplit(begin, end, 0);
    if (split.frozen) {
      froze = true;
      break;
    }
    // Keep descending into the half that contains the duplicate run.
    const Scalar dup_key = CrackArray<3>::CenterKey(dup, 0);
    if (dup_key < split.bound) {
      end = split.pos;
    } else {
      begin = split.pos;
    }
    CHECK_LT(begin, end);
  }
  CHECK(froze);
  CheckColumnsConsistent(a, data);

  // The full QUASII stack over the same data: duplicate-heavy slices freeze
  // instead of splitting forever, and results still match Scan.
  QuasiiIndex<3>::Params params;
  params.leaf_threshold = 128;
  QuasiiIndex<3> index(data, params);
  ScanIndex<3> scan(data);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 40;
  qp.selectivity = 1e-2;
  qp.seed = 6;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);
  std::vector<ObjectId> got, want;
  for (const Box3& q : queries) {
    got.clear();
    want.clear();
    RangeQueryInto(index, q, &got);
    RangeQueryInto(scan, q, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    CHECK(got == want);
  }
}

void TestCrackPartitionPrimitive() {
  // The shared primitive on a plain int column with a companion payload.
  std::vector<int> keys = {5, 1, 9, 3, 7, 3, 0, 8, 2, 6};
  std::vector<int> payload = keys;  // co-moves; must stay equal to keys
  const auto key = [&keys](std::size_t i) { return keys[i]; };
  const std::size_t pos = quasii::CrackPartition(
      key, 0, keys.size(), [](int k) { return k < 5; },
      [&](std::size_t i, std::size_t j) {
        std::swap(keys[i], keys[j]);
        std::swap(payload[i], payload[j]);
      });
  CHECK_EQ(pos, 5u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    CHECK_EQ(keys[i], payload[i]);
    if (i < pos) {
      CHECK_LT(keys[i], 5);
    } else {
      CHECK_GE(keys[i], 5);
    }
  }

  // Degenerate ranges: empty, all-pass, all-fail.
  const auto one = [](std::size_t) { return 4; };
  const auto pass = [](int) { return true; };
  const auto fail = [](int) { return false; };
  auto noswap = [](std::size_t, std::size_t) { CHECK(false); };
  CHECK_EQ(quasii::CrackPartition(one, 0, 0, pass, noswap), 0u);
  CHECK_EQ(quasii::CrackPartition(one, 0, 1, pass, noswap), 1u);
  CHECK_EQ(quasii::CrackPartition(one, 0, 1, fail, noswap), 0u);
}

/// The SoA QuasiiIndex must agree with Scan on every dataset family the
/// equivalence suite exercises: uniform, neuro, 2d random boxes, and the
/// duplicate-heavy degenerate case (covered above).
template <int D>
void CheckQuasiiAgainstScan(const quasii::Dataset<D>& data,
                            const quasii::Box<D>& universe,
                            std::uint64_t seed) {
  typename QuasiiIndex<D>::Params params;
  params.leaf_threshold = 256;
  QuasiiIndex<D> index(data, params);
  ScanIndex<D> scan(data);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 40;
  qp.selectivity = 1e-3;
  qp.seed = seed;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);
  std::vector<ObjectId> got, want;
  for (const auto& q : queries) {
    got.clear();
    want.clear();
    RangeQueryInto(index, q, &got);
    RangeQueryInto(scan, q, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    CHECK(got == want);
  }
}

void TestSoaQuasiiEquivalence() {
  {
    quasii::datagen::UniformDatasetParams p;
    p.count = 15000;
    CheckQuasiiAgainstScan<3>(quasii::datagen::MakeUniformDataset(p),
                              quasii::datagen::UniformUniverse(p), 11);
  }
  {
    quasii::datagen::NeuroDatasetParams p;
    p.count = 15000;
    CheckQuasiiAgainstScan<3>(quasii::datagen::MakeNeuroDataset(p),
                              quasii::datagen::NeuroUniverse(p), 12);
  }
  {
    Rng rng(13);
    quasii::Box2 universe;
    for (int d = 0; d < 2; ++d) {
      universe.lo[d] = -250;
      universe.hi[d] = 250;
    }
    CheckQuasiiAgainstScan<2>(
        quasii::datagen::MakeRandomBoxes<2>(12000, universe, 6.0f, &rng),
        universe, 14);
  }
}

/// Append / EraseId / pending-tail bookkeeping, and the id → row map's
/// integrity under cracks that shuffle live and dead rows together.
void TestAppendEraseAndPendingTail() {
  Rng rng(31);
  const Box3 universe = TestUniverse();
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(2000, universe, 9.0f, &rng);
  CrackArray<3> a(data);
  CHECK_EQ(a.pending_count(), 0u);
  CHECK_EQ(a.tombstones(), 0u);

  // Appends land behind the pending marker; sealing absorbs them.
  Dataset3 extra =
      quasii::datagen::MakeRandomBoxes<3>(500, universe, 9.0f, &rng);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    a.Append(static_cast<ObjectId>(5000 + i), extra[i]);
  }
  CHECK_EQ(a.pending_count(), 500u);
  CHECK_EQ(a.size(), 2500u);
  CHECK(a.box(2000) == extra[0]);
  a.SealPending();
  CHECK_EQ(a.pending_count(), 0u);

  // Erases tombstone in place, O(1) by id, and reject dead/unknown ids.
  CHECK(a.EraseId(7));
  CHECK(!a.EraseId(7));
  CHECK(a.EraseId(5003));
  CHECK(!a.EraseId(99999));
  CHECK_EQ(a.tombstones(), 2u);
  CHECK_EQ(a.size(), 2500u);  // rows keep their positions

  // Cracks co-permute the live column and keep the id map accurate: every
  // live id must still be erasable afterwards, dead ones must stay dead.
  for (int step = 0; step < 50; ++step) {
    const int d = static_cast<int>(rng.UniformInt(0, 2));
    const Scalar v = rng.UniformScalar(universe.lo[d], universe.hi[d]);
    a.CrackOnAxis(0, a.size(), d, v);
  }
  CHECK(!a.EraseId(7));
  CHECK(a.EraseId(8));
  CHECK(a.EraseId(5004));
  CHECK_EQ(a.tombstones(), 4u);

  // Re-append an erased id: a fresh live row; the corpse stays dead even
  // when later cracks move it around.
  a.Append(7, extra[1]);
  for (int step = 0; step < 20; ++step) {
    const int d = static_cast<int>(rng.UniformInt(0, 2));
    const Scalar v = rng.UniformScalar(universe.lo[d], universe.hi[d]);
    a.CrackOnAxis(0, a.pending_begin(), d, v);
  }
  CHECK(a.EraseId(7));  // erases the fresh row, not the corpse
  CHECK(!a.EraseId(7));
}

/// Test-side id → row lookup, recomputed from the id column (so it is
/// independent of the array's own map).
std::vector<std::size_t> LiveRowOf(const CrackArray<3>& a, std::size_t slots) {
  std::vector<std::size_t> row(slots, CrackArray<3>::kNoRow);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.live(i)) row[a.id(i)] = i;
  }
  return row;
}

void CheckArrayColumns(const CrackArray<3>& a) {
  std::string why;
  if (!a.CheckColumns(&why)) {
    std::fprintf(stderr, "CheckColumns: %s\n", why.c_str());
    CHECK(false);
  }
}

/// Cracks the whole array and some sub-ranges, long enough that the
/// chunked parallel partition runs.
void CrackMany(CrackArray<3>* a, Rng* rng, const Box3& universe, int steps) {
  for (int step = 0; step < steps; ++step) {
    const int d = static_cast<int>(rng->UniformInt(0, 2));
    const std::size_t n = a->pending_begin();
    std::size_t begin = 0;
    if (step % 3 != 0) {
      begin = static_cast<std::size_t>(
          rng->UniformInt(0, static_cast<std::int64_t>(n / 2)));
    }
    if (step % 2 == 0) {
      a->MedianSplit(begin, n, d);
    } else {
      a->CrackOnAxis(begin, n, d,
                     rng->UniformScalar(universe.lo[d], universe.hi[d]));
    }
  }
}

/// Erases every id `≡ residue (mod 7)` below `slots` that is still live,
/// checking each erase kills exactly the row holding that id.
void EraseResidue(CrackArray<3>* a, std::size_t slots, ObjectId residue) {
  const std::vector<std::size_t> row = LiveRowOf(*a, slots);
  for (ObjectId id = residue; id < slots; id += 7) {
    if (row[id] == CrackArray<3>::kNoRow) continue;
    const std::size_t dead_before = a->tombstones();
    CHECK(a->live(row[id]));
    CHECK(a->EraseId(id));
    CHECK(!a->live(row[id]));
    CHECK_EQ(a->id(row[id]), id);
    CHECK_EQ(a->tombstones(), dead_before + 1);
    CHECK(!a->EraseId(id));
  }
}

/// The id → row map is built by the first erase, after arbitrary cracking
/// (including chunked partitions) has permuted the rows without it, and is
/// maintained exactly from then on. Runs at 4 intra-query threads so the
/// chunked partitions' parallel fixup swaps write map entries concurrently.
void TestLazyRowMapAfterHeavyCracking() {
  const int prev_threads = quasii::IntraQueryThreads();
  quasii::SetIntraQueryThreads(4);
  Rng rng(43);
  const Box3 universe = TestUniverse();
  const std::size_t n = std::size_t{1} << 17;
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(n, universe, 9.0f, &rng);
  CrackArray<3> a(data);
  CHECK(!a.has_row_map());
  CHECK_EQ(a.row_map_bytes(), 0u);

  // Heavy cracking with no map: swaps must not create one.
  CrackMany(&a, &rng, universe, 40);
  CHECK(!a.has_row_map());
  CheckArrayColumns(a);
  CheckColumnsConsistent(a, data);

  // First erase builds the map; every 7th id then dies, row-exactly.
  EraseResidue(&a, n, 0);
  CHECK(a.has_row_map());
  CHECK_EQ(a.row_map_bytes(), n * sizeof(std::size_t));
  CheckArrayColumns(a);

  // More cracking now maintains the map (dead rows move too), then more
  // erases must still hit exactly their rows.
  CrackMany(&a, &rng, universe, 40);
  CheckArrayColumns(a);
  EraseResidue(&a, n, 3);
  CheckArrayColumns(a);
  CHECK_EQ(a.tombstones(), (n + 6) / 7 + (n + 3) / 7);

  // Re-append an erased id once the map exists: the fresh row dies, the
  // corpse (moved around by later cracks) stays as it was.
  const Box3 fresh = data[1];
  a.Append(0, fresh);
  a.SealPending();
  CrackMany(&a, &rng, universe, 10);
  CheckArrayColumns(a);
  const std::size_t dead_before = a.tombstones();
  CHECK(a.EraseId(0));
  CHECK(!a.EraseId(0));
  CHECK_EQ(a.tombstones(), dead_before + 1);
  std::size_t corpses = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.id(i) != 0) continue;
    ++corpses;
    CHECK(!a.live(i));
  }
  CHECK_EQ(corpses, 2u);
  CheckArrayColumns(a);

  // After Reset the map is gone (memory included) and erases still work.
  a.Reset(data);
  CHECK(!a.has_row_map());
  CHECK_EQ(a.row_map_bytes(), 0u);
  CrackMany(&a, &rng, universe, 5);
  CHECK(a.EraseId(5));
  CHECK(!a.EraseId(5));
  CheckArrayColumns(a);

  // After Clear, ids appended without a map are found by the first erase.
  a.Clear();
  CHECK(!a.has_row_map());
  CheckArrayColumns(a);
  CHECK(!a.EraseId(0));  // builds an empty map over no rows
  a.Clear();
  for (ObjectId id = 0; id < 100; ++id) a.Append(id, data[id]);
  CHECK(!a.has_row_map());
  CHECK(a.EraseId(42));
  CHECK(!a.live(42));
  CHECK_EQ(a.tombstones(), 1u);
  CheckArrayColumns(a);
  quasii::SetIntraQueryThreads(prev_threads);
}

/// Re-appending an erased id where the map must be built over a corpse:
/// `DecodeFrom` restores a dead and a live row for one id, and the erase
/// after it must kill the live one.
void TestRowMapOverCorpseAfterDecode() {
  Rng rng(47);
  const Box3 universe = TestUniverse();
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(3000, universe, 9.0f, &rng);
  CrackArray<3> a(data);
  CHECK(a.EraseId(11));
  a.Append(11, data[12]);
  a.SealPending();
  CrackMany(&a, &rng, universe, 10);

  std::string blob;
  quasii::ByteWriter w(&blob);
  a.EncodeTo(&w);
  CrackArray<3> b;
  quasii::ByteReader r(blob);
  CHECK(b.DecodeFrom(&r));
  CHECK(b.has_row_map());
  CheckArrayColumns(b);
  CHECK_EQ(b.tombstones(), 1u);
  CHECK(b.EraseId(11));
  CHECK(!b.EraseId(11));
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b.id(i) == 11) CHECK(!b.live(i));
  }
  CheckArrayColumns(b);
}

/// `EncodeTo` → `DecodeFrom` restores every column exactly and consumes the
/// blob to its last byte; the same blob one byte short fails the row-count
/// pre-check.
void TestEncodeDecodeRoundTripAndSizeBound() {
  Rng rng(59);
  const Box3 universe = TestUniverse();
  const std::size_t n = 4000;
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(n, universe, 9.0f, &rng);
  CrackArray<3> a(data);
  CrackMany(&a, &rng, universe, 20);
  EraseResidue(&a, n, 2);
  CrackMany(&a, &rng, universe, 10);
  a.Append(2, data[3]);  // a fresh row for an erased id, left pending
  a.Append(static_cast<ObjectId>(n), data[4]);

  std::string blob;
  quasii::ByteWriter w(&blob);
  a.EncodeTo(&w);
  CrackArray<3> b;
  quasii::ByteReader r(blob);
  CHECK(b.DecodeFrom(&r));
  CHECK_EQ(r.remaining(), 0u);
  CheckArrayColumns(b);
  CHECK_EQ(b.size(), a.size());
  CHECK_EQ(b.pending_begin(), a.pending_begin());
  CHECK_EQ(b.tombstones(), a.tombstones());
  CHECK(b.ids() == a.ids());
  for (int d = 0; d < 3; ++d) {
    CHECK(b.lo_col(d) == a.lo_col(d));
    CHECK(b.hi_col(d) == a.hi_col(d));
  }
  for (std::size_t i = 0; i < a.size(); ++i) CHECK_EQ(b.live(i), a.live(i));

  CrackArray<3> c;
  quasii::ByteReader short_r(blob.data(), blob.size() - 1);
  CHECK(!c.DecodeFrom(&short_r));
}

/// A blob whose two live rows share one id is refused, and the map its
/// decode left half-built fails the validator.
void TestDecodeRejectsDuplicateLiveIds() {
  Rng rng(53);
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(2, TestUniverse(), 9.0f, &rng);
  CrackArray<3> two;
  two.Append(9, data[0]);
  two.Append(10, data[1]);
  std::string blob;
  quasii::ByteWriter w(&blob);
  two.EncodeTo(&w);
  // The second id's low byte: the last 4 id bytes precede 2 live bytes.
  blob[blob.size() - 2 - 4] = 9;
  CrackArray<3> dup;
  quasii::ByteReader r(blob);
  CHECK(!dup.DecodeFrom(&r));
  CHECK(!dup.CheckColumns(nullptr));
}

/// StreamScan must skip tombstones on every path: masked scans, covered
/// dimensions, and count-only execution.
void TestStreamScanSkipsTombstones() {
  Rng rng(37);
  const Box3 universe = TestUniverse();
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(4000, universe, 9.0f, &rng);
  CrackArray<3> a(data);

  const Box3 q = universe;  // full coverage: every live row matches
  const auto scan_ids = [&](unsigned covered) {
    std::vector<ObjectId> ids;
    quasii::VectorSink sink(&ids);
    quasii::MatchEmitter emit(false, &sink);
    a.StreamScan(0, a.size(), q, quasii::RangePredicate::kIntersects,
                 covered, &emit);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto scan_count = [&](unsigned covered) {
    quasii::CountSink sink;
    quasii::MatchEmitter emit(true, &sink);
    a.StreamScan(0, a.size(), q, quasii::RangePredicate::kIntersects,
                 covered, &emit);
    emit.Flush();
    return sink.count();
  };

  CHECK_EQ(scan_ids(0).size(), 4000u);
  CHECK_EQ(scan_count(7u), 4000u);

  for (ObjectId id = 100; id < 150; ++id) CHECK(a.EraseId(id));
  const std::vector<ObjectId> ids = scan_ids(0);
  CHECK_EQ(ids.size(), 3950u);
  for (const ObjectId id : ids) {
    CHECK(id < 100 || id >= 150);
  }
  // The fully-covered bulk path must also honor tombstones...
  CHECK_EQ(scan_ids(7u).size(), 3950u);
  // ...as must count-only execution, which never reads the id column.
  CHECK_EQ(scan_count(7u), 3950u);

  // PartitionLiveFirst sweeps the dead rows to the back of the range, and
  // scanning just the live prefix afterwards yields the same result set.
  const std::size_t live_end = a.PartitionLiveFirst(0, a.size());
  CHECK_EQ(live_end, 3950u);
  for (std::size_t i = 0; i < live_end; ++i) CHECK(a.live(i));
  for (std::size_t i = live_end; i < a.size(); ++i) CHECK(!a.live(i));
  std::vector<ObjectId> prefix_ids;
  quasii::VectorSink prefix_sink(&prefix_ids);
  quasii::MatchEmitter emit(false, &prefix_sink);
  a.StreamScan(0, live_end, q, quasii::RangePredicate::kIntersects, 0, &emit);
  std::sort(prefix_ids.begin(), prefix_ids.end());
  CHECK(prefix_ids == ids);
}

}  // namespace

int main() {
  RUN_TEST(TestCrackPartitionPrimitive);
  RUN_TEST(TestPermutationIntegrityUnderRandomOps);
  RUN_TEST(TestMedianSplitBalanceAndBounds);
  RUN_TEST(TestDuplicateHeavyFrozenPath);
  RUN_TEST(TestSoaQuasiiEquivalence);
  RUN_TEST(TestAppendEraseAndPendingTail);
  RUN_TEST(TestStreamScanSkipsTombstones);
  RUN_TEST(TestLazyRowMapAfterHeavyCracking);
  RUN_TEST(TestRowMapOverCorpseAfterDecode);
  RUN_TEST(TestDecodeRejectsDuplicateLiveIds);
  RUN_TEST(TestEncodeDecodeRoundTripAndSizeBound);
  return 0;
}
