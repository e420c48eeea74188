// SIMD kernel tests: the fused leaf-scan filter's vector tier must match
// the scalar reference bit-for-bit, and both must match a per-row box
// predicate, at boundary lengths around the 8-row block, for every
// predicate, covered-dimension mask and tombstone pattern, on the id and the
// count-only path; `StreamScan` must return exactly the rows a brute-force
// `Box` predicate loop accepts for all predicates and covered-dimension masks
// (2D and 3D, duplicate-heavy and all-dead rows included), and the
// thread-local scan scratch must shrink back after a burst of large scans.

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

// Row counts of the fused kernel test: around the vector kernel's 8-row
// block and around a 256-row leaf.
const std::vector<std::size_t> kKernelLens = {0,  1,  7,   8,   9,  15,
                                              16, 17, 255, 256, 257};
// Row counts of the StreamScan brute-force tests.
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

/// The fused filter's inputs for one predicate over `D` random bound
/// columns: the (le, ge) column pairs of the dimensions not in `covered`,
/// paired exactly as `StreamScan` pairs them.
template <int D>
simd::ColumnTests<D> ColumnTestsFor(const std::vector<std::vector<Scalar>>& los,
                                    const std::vector<std::vector<Scalar>>& his,
                                    const Box<D>& q, RangePredicate pred,
                                    unsigned covered, std::size_t* k) {
  simd::ColumnTests<D> tests;
  *k = 0;
  for (int d = 0; d < D; ++d) {
    if (covered & (1u << d)) continue;
    const std::size_t dd = static_cast<std::size_t>(d);
    switch (pred) {
      case RangePredicate::kIntersects:
        tests[(*k)++] = {los[dd].data(), q.hi[d], his[dd].data(), q.lo[d]};
        break;
      case RangePredicate::kContains:
        tests[(*k)++] = {los[dd].data(), q.lo[d], his[dd].data(), q.hi[d]};
        break;
      case RangePredicate::kContainedBy:
        tests[(*k)++] = {his[dd].data(), q.hi[d], los[dd].data(), q.lo[d]};
        break;
    }
  }
  return tests;
}

/// One random draw of the fused kernel test at `n` rows: every tier must
/// emit exactly the ids a per-row predicate accepts, for every predicate,
/// covered-dimension mask and tombstone pattern, and count them alike.
void CheckFilterRows(std::size_t n, Rng* rng) {
  constexpr int D = 3;
  std::vector<std::vector<Scalar>> los(D), his(D);
  for (int d = 0; d < D; ++d) {
    los[static_cast<std::size_t>(d)] = RandomColumn(n, rng);
    his[static_cast<std::size_t>(d)] = RandomColumn(n, rng);
  }
  std::vector<ObjectId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<ObjectId>(rng->UniformInt(0, 1 << 20));
  }
  // No dead rows (no live bytes passed), some dead rows, all rows dead.
  std::vector<std::uint8_t> some(n), none(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    some[i] = static_cast<std::uint8_t>(rng->UniformInt(0, 3) != 0);
  }
  // Bounds taken from the columns, so rows equal to a bound test the
  // closed ends of every compare.
  Box<D> q;
  for (int d = 0; d < D; ++d) {
    const std::size_t dd = static_cast<std::size_t>(d);
    const auto pick = [&](const std::vector<Scalar>& col) {
      return n == 0 ? rng->UniformScalar(-120, 120)
                    : col[static_cast<std::size_t>(rng->UniformInt(
                          0, static_cast<std::int64_t>(n) - 1))];
    };
    const Scalar a = pick(los[dd]);
    const Scalar b = pick(his[dd]);
    q.lo[d] = std::min(a, b);
    q.hi[d] = std::max(a, b);
  }
  for (const std::uint8_t* live :
       {static_cast<const std::uint8_t*>(nullptr),
        static_cast<const std::uint8_t*>(some.data()),
        static_cast<const std::uint8_t*>(none.data())}) {
    for (const RangePredicate pred :
         {RangePredicate::kIntersects, RangePredicate::kContains,
          RangePredicate::kContainedBy}) {
      for (unsigned covered = 0; covered < (1u << D); ++covered) {
        std::size_t k = 0;
        const simd::ColumnTests<D> tests =
            ColumnTestsFor<D>(los, his, q, pred, covered, &k);
        // The reference: each row's own per-dimension predicate.
        std::vector<ObjectId> want;
        for (std::size_t i = 0; i < n; ++i) {
          if (live != nullptr && live[i] == 0) continue;
          bool match = true;
          for (int d = 0; d < D; ++d) {
            if (covered & (1u << d)) continue;
            const Scalar lo = los[static_cast<std::size_t>(d)][i];
            const Scalar hi = his[static_cast<std::size_t>(d)][i];
            switch (pred) {
              case RangePredicate::kIntersects:
                match &= lo <= q.hi[d] && hi >= q.lo[d];
                break;
              case RangePredicate::kContains:
                match &= lo <= q.lo[d] && hi >= q.hi[d];
                break;
              case RangePredicate::kContainedBy:
                match &= lo >= q.lo[d] && hi <= q.hi[d];
                break;
            }
          }
          if (match) want.push_back(ids[i]);
        }
        ForEachTier([&] {
          std::vector<ObjectId> got(n + 1, 0xdeadbeef);
          const std::size_t m =
              simd::FilterRows(tests, k, live, ids.data(), n, got.data());
          CHECK_EQ(m, want.size());
          CHECK(std::equal(want.begin(), want.end(), got.begin()));
          CHECK_EQ(got[n], ObjectId{0xdeadbeef});  // never writes past n
          // Count-only: no id column and no output buffer.
          CHECK_EQ(simd::FilterRows(tests, k, live, nullptr, n, nullptr),
                   want.size());
        });
      }
    }
  }
}

void TestFilterRowsMatchesReference() {
  Rng rng(11);
  for (const std::size_t n : kKernelLens) {
    for (int rep = 0; rep < 4; ++rep) CheckFilterRows(n, &rng);
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
  s.ids.assign(1u << 21, 0);
  CHECK_GT(s.ids.capacity() * sizeof(ObjectId), ScanScratch::kCapBytes);
  for (int i = 0; i < ScanScratch::kShrinkStreak - 1; ++i) {
    s.Release(256);
    CHECK_GT(s.ids.capacity() * sizeof(ObjectId),
             ScanScratch::kCapBytes);  // not yet
  }
  // One big scan resets the streak...
  s.Release(s.ids.capacity());
  for (int i = 0; i < ScanScratch::kShrinkStreak - 1; ++i) {
    s.Release(256);
    CHECK_GT(s.ids.capacity() * sizeof(ObjectId), ScanScratch::kCapBytes);
  }
  // ...and the streak's final small scan triggers the shrink.
  s.Release(256);
  CHECK_LE(s.ids.capacity() * sizeof(ObjectId), ScanScratch::kCapBytes);
  // Below-cap scratch is left alone no matter the streak.
  const std::size_t cap_before = s.ids.capacity();
  for (int i = 0; i < 2 * ScanScratch::kShrinkStreak; ++i) s.Release(1);
  CHECK_EQ(s.ids.capacity(), cap_before);
}

}  // namespace

int main() {
  RUN_TEST(TestTierControls);
  RUN_TEST(TestFilterRowsMatchesReference);
  RUN_TEST(TestStreamScanVsBruteForce2D);
  RUN_TEST(TestStreamScanVsBruteForce3D);
  RUN_TEST(TestStreamScanDuplicateHeavy);
  RUN_TEST(TestStreamScanAllDead);
  RUN_TEST(TestScanScratchShrinks);
  std::printf("test_simd: all tests passed\n");
  return 0;
}
