// SIMD kernel tests: every vector tier must match the scalar reference
// bit-for-bit at boundary lengths (0, 1, lane-width +/- 1), `StreamScan` must
// return exactly the rows a brute-force `Box` predicate loop accepts for all
// predicates and covered-dimension masks (2D and 3D, duplicate-heavy and
// all-dead rows included), and the thread-local scan scratch must shrink
// back after a burst of large scans.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/crack_array.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/simd.h"
#include "geometry/box.h"
#include "tests/test_util.h"

namespace {

using quasii::Box;
using quasii::CountSink;
using quasii::CrackArray;
using quasii::Dataset;
using quasii::MatchEmitter;
using quasii::ObjectId;
using quasii::RangePredicate;
using quasii::Rng;
using quasii::Scalar;
using quasii::VectorSink;

namespace simd = quasii::simd;

constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();

// Lengths straddling every lane boundary of the 8-wide kernels (and the
// 16-wide mask passes inside CompactIds).
const std::vector<std::size_t> kLens = {0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};

/// Random column with duplicates, signed zeros and infinities sprinkled in.
std::vector<Scalar> RandomColumn(std::size_t n, Rng* rng) {
  std::vector<Scalar> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng->UniformInt(0, 9)) {
      case 0:
        v[i] = Scalar{0};
        break;
      case 1:
        v[i] = Scalar{-0.0};
        break;
      case 2:
        v[i] = i > 0 ? v[rng->UniformInt(0, static_cast<std::int64_t>(i) - 1)]
                     : Scalar{1};
        break;
      case 3:
        v[i] = rng->UniformInt(0, 1) ? kInf : -kInf;
        break;
      default:
        v[i] = rng->UniformScalar(-100, 100);
    }
  }
  return v;
}

std::vector<std::uint8_t> RandomMask(std::size_t n, Rng* rng) {
  std::vector<std::uint8_t> m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = static_cast<std::uint8_t>(rng->UniformInt(0, 1));
  }
  return m;
}

/// Runs `fn` once under the machine's native tier and once forced scalar.
template <typename Fn>
void ForEachTier(Fn fn) {
  const simd::Tier native = simd::DetectTier();
  simd::ForceTier(native);
  fn();
  simd::ForceTier(simd::Tier::kScalar);
  fn();
  simd::ForceTier(native);
}

void TestTierControls() {
  const simd::Tier native = simd::DetectTier();
  CHECK_EQ(simd::DetectTier(), native);  // stable across calls
  CHECK_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  CHECK_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  // Forcing a vector tier the machine lacks clamps to what it has.
  CHECK_EQ(simd::ForceTier(simd::Tier::kAvx2), native);
  CHECK_EQ(simd::ForceTier(native), native);
  CHECK_EQ(simd::ActiveTier(), native);
}

void TestMaskLeGeMatchesScalar() {
  Rng rng(11);
  for (std::size_t n : kLens) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<Scalar> le_col = RandomColumn(n, &rng);
      const std::vector<Scalar> ge_col = RandomColumn(n, &rng);
      const Scalar le_b = rng.UniformScalar(-120, 120);
      const Scalar ge_b = rng.UniformScalar(-120, 120);
      const std::vector<std::uint8_t> init = RandomMask(n, &rng);
      std::vector<std::uint8_t> want = init;
      simd::MaskLeGeScalar(le_col.data(), le_b, ge_col.data(), ge_b,
                           want.data(), n);
      ForEachTier([&] {
        std::vector<std::uint8_t> got = init;
        simd::MaskLeGe(le_col.data(), le_b, ge_col.data(), ge_b, got.data(),
                       n);
        CHECK(got == want);
      });
    }
  }
}

void TestMaskCountAndCompactMatchScalar() {
  Rng rng(12);
  for (std::size_t n : kLens) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<std::uint8_t> mask = RandomMask(n, &rng);
      std::vector<ObjectId> ids(n);
      for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<ObjectId>(rng.UniformInt(0, 1 << 20));
      }
      const std::uint64_t want_count = simd::MaskCountScalar(mask.data(), n);
      std::vector<ObjectId> want_ids(n + 1, 0xdeadbeef);
      const std::size_t want_m =
          simd::CompactIdsScalar(ids.data(), mask.data(), n, want_ids.data());
      CHECK_EQ(want_count, want_m);
      ForEachTier([&] {
        CHECK_EQ(simd::MaskCount(mask.data(), n), want_count);
        std::vector<ObjectId> got_ids(n + 1, 0xdeadbeef);
        const std::size_t got_m =
            simd::CompactIds(ids.data(), mask.data(), n, got_ids.data());
        CHECK_EQ(got_m, want_m);
        CHECK(std::equal(got_ids.begin(), got_ids.begin() + got_m,
                         want_ids.begin()));
      });
      // All-set and all-clear masks.
      const std::vector<std::uint8_t> ones(n, 1);
      const std::vector<std::uint8_t> zeros(n, 0);
      ForEachTier([&] {
        CHECK_EQ(simd::MaskCount(ones.data(), n), n);
        CHECK_EQ(simd::MaskCount(zeros.data(), n), 0u);
        std::vector<ObjectId> out(n + 1);
        CHECK_EQ(simd::CompactIds(ids.data(), ones.data(), n, out.data()), n);
        CHECK(std::equal(out.begin(), out.begin() + n, ids.begin()));
        CHECK_EQ(simd::CompactIds(ids.data(), zeros.data(), n, out.data()),
                 0u);
      });
    }
  }
}

template <int D>
Dataset<D> MakeScanDataset(std::size_t n, Rng* rng, bool duplicate_heavy) {
  Dataset<D> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < D; ++d) {
      Scalar lo;
      if (duplicate_heavy && rng->UniformInt(0, 2) != 0) {
        lo = Scalar(10 * rng->UniformInt(0, 4));  // few distinct values
      } else {
        lo = rng->UniformScalar(0, 100);
      }
      data[i].lo[d] = lo;
      data[i].hi[d] = lo + rng->UniformScalar(0, 5);
    }
  }
  return data;
}

/// The rows of `[0, n)` a `StreamScan` must emit, in row order: live rows
/// whose box passes `pred` against `q`. For `kIntersects` the dimensions in
/// `covered` are taken as proven by the caller and not tested.
template <int D>
std::vector<ObjectId> BruteForceScan(const CrackArray<D>& array,
                                     const Box<D>& q, RangePredicate pred,
                                     unsigned covered) {
  std::vector<ObjectId> out;
  for (std::size_t i = 0; i < array.size(); ++i) {
    if (!array.live(i)) continue;
    const Box<D> b = array.box(i);
    bool match = true;
    switch (pred) {
      case RangePredicate::kIntersects:
        for (int d = 0; d < D; ++d) {
          if (!(covered & (1u << d)) && !b.IntersectsInDim(q, d)) match = false;
        }
        break;
      case RangePredicate::kContains:
        match = b.ContainsBox(q);
        break;
      case RangePredicate::kContainedBy:
        match = q.ContainsBox(b);
        break;
    }
    if (match) out.push_back(array.id(i));
  }
  return out;
}

/// StreamScan over `[0, n)` against the brute-force reference, at every
/// tier, for every predicate and every covered-dimension mask: ids must be
/// identical (order included — both emit in row order), and the count-only
/// path must report their number.
template <int D>
void CheckStreamScanVsBruteForce(const CrackArray<D>& array, const Box<D>& q) {
  const std::size_t n = array.size();
  for (const RangePredicate pred :
       {RangePredicate::kIntersects, RangePredicate::kContains,
        RangePredicate::kContainedBy}) {
    for (unsigned covered = 0; covered < (1u << D); ++covered) {
      const std::vector<ObjectId> want = BruteForceScan(array, q, pred, covered);
      ForEachTier([&] {
        std::vector<ObjectId> got;
        VectorSink sink(&got);
        MatchEmitter emit(false, &sink);
        array.StreamScan(0, n, q, pred, covered, &emit);
        CHECK(got == want);
        CountSink counter;
        MatchEmitter count_emit(true, &counter);
        array.StreamScan(0, n, q, pred, covered, &count_emit);
        count_emit.Flush();
        CHECK_EQ(counter.count(), want.size());
      });
    }
  }
}

template <int D>
void RunStreamScanTest(bool duplicate_heavy, bool kill_all) {
  Rng rng(15 + D + (duplicate_heavy ? 1 : 0));
  for (std::size_t n : kLens) {
    if (n == 0) continue;
    const Dataset<D> data = MakeScanDataset<D>(n, &rng, duplicate_heavy);
    CrackArray<D> array(data);
    if (kill_all) {
      for (ObjectId id = 0; id < n; ++id) CHECK(array.EraseId(id));
    } else if (n >= 4) {
      // Tombstone a few rows so the live-mask seed path runs too.
      for (int k = 0; k < 3; ++k) {
        array.EraseId(static_cast<ObjectId>(
            rng.UniformInt(0, static_cast<std::int64_t>(n) - 1)));
      }
    }
    for (int rep = 0; rep < 4; ++rep) {
      Box<D> q;
      for (int d = 0; d < D; ++d) {
        const Scalar a = rng.UniformScalar(0, 100);
        const Scalar b = rng.UniformScalar(0, 100);
        q.lo[d] = std::min(a, b);
        q.hi[d] = std::max(a, b);
      }
      CheckStreamScanVsBruteForce<D>(array, q);
    }
    // A query covering everything and one hitting nothing.
    Box<D> all, none;
    for (int d = 0; d < D; ++d) {
      all.lo[d] = -kInf;
      all.hi[d] = kInf;
      none.lo[d] = Scalar{-500};
      none.hi[d] = Scalar{-400};
    }
    CheckStreamScanVsBruteForce<D>(array, all);
    CheckStreamScanVsBruteForce<D>(array, none);
  }
}

void TestStreamScanVsBruteForce2D() { RunStreamScanTest<2>(false, false); }
void TestStreamScanVsBruteForce3D() { RunStreamScanTest<3>(false, false); }
void TestStreamScanDuplicateHeavy() { RunStreamScanTest<3>(true, false); }
void TestStreamScanAllDead() { RunStreamScanTest<3>(false, true); }

void TestScanScratchShrinks() {
  using quasii::internal::ScanScratch;
  ScanScratch s;
  // Grow far past the cap, then report a burst of small scans: capacity
  // must fall back to roughly the working size after kShrinkStreak scans.
  s.mask.assign(4u << 20, 1);
  s.ids.assign(1u << 21, 0);
  CHECK_GT(s.mask.capacity(), ScanScratch::kCapBytes);
  CHECK_GT(s.ids.capacity() * sizeof(ObjectId), ScanScratch::kCapBytes);
  for (int i = 0; i < ScanScratch::kShrinkStreak - 1; ++i) {
    s.Release(1024, 256);
    CHECK_GT(s.mask.capacity(), ScanScratch::kCapBytes);  // not yet
  }
  // One big scan resets the streak...
  s.Release(s.mask.capacity(), s.ids.capacity());
  for (int i = 0; i < ScanScratch::kShrinkStreak - 1; ++i) {
    s.Release(1024, 256);
    CHECK_GT(s.mask.capacity(), ScanScratch::kCapBytes);
  }
  // ...and the streak's final small scan triggers the shrink.
  s.Release(1024, 256);
  CHECK_LE(s.mask.capacity(), ScanScratch::kCapBytes);
  CHECK_LE(s.ids.capacity() * sizeof(ObjectId), ScanScratch::kCapBytes);
  // Below-cap scratch is left alone no matter the streak.
  const std::size_t cap_before = s.mask.capacity();
  for (int i = 0; i < 2 * ScanScratch::kShrinkStreak; ++i) s.Release(1, 1);
  CHECK_EQ(s.mask.capacity(), cap_before);
}

}  // namespace

int main() {
  RUN_TEST(TestTierControls);
  RUN_TEST(TestMaskLeGeMatchesScalar);
  RUN_TEST(TestMaskCountAndCompactMatchScalar);
  RUN_TEST(TestStreamScanVsBruteForce2D);
  RUN_TEST(TestStreamScanVsBruteForce3D);
  RUN_TEST(TestStreamScanDuplicateHeavy);
  RUN_TEST(TestStreamScanAllDead);
  RUN_TEST(TestScanScratchShrinks);
  std::printf("test_simd: all tests passed\n");
  return 0;
}
