// Arithmetic of the benchmark's reported numbers, kept free of any index or
// socket code so `selftest.cpp` can pin it down on hand-made inputs:
// percentiles and the ten-samples-beyond rule, span self time, open-loop
// due-time latency and generator lateness, the rate-ladder verdict and
// block completion rates.
#ifndef QBENCH_METRICS_H_
#define QBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qbench {

/// The 1-based nearest rank of the p-th percentile among `n` samples. The
/// tolerance keeps decimal percentiles exact: 99.9% of 10000 is rank 9990,
/// not the 9991 that floating-point rounding would give.
inline std::size_t PercentileRank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, std::max<std::size_t>(n, 1));
}

/// Nearest-rank percentile (p in (0, 100]) of `v`; 0 for an empty sample.
/// The sample is copied so callers can keep their arrival order.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const std::size_t rank = PercentileRank(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// How many samples lie strictly beyond the nearest-rank p-th percentile of
/// a sample of `n`.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n - std::min(PercentileRank(n, p), n);
}

/// The highest of the reported tail percentiles (99.9, 99, 90, 50) that
/// leaves at least ten samples beyond it; 0 when not even the median does.
/// A tail is only reported where the sample supports it.
inline double SupportedTailPercentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

/// One recorded span: a layer call seen from outside, in nanoseconds of
/// one steady clock. `parent` indexes the enclosing span (-1 for a root).
struct Span {
  int name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, parts
/// of a child outside the parent count not at all).
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

/// One open-loop operation: when the schedule said to send it, when the
/// generator actually sent it, and when its reply arrived (`done_ns` < 0:
/// never). `ok` is the reply's verdict (status, acceptance, content).
struct OpenLoopOp {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = -1;
  bool ok = false;
};

/// Send time of op `i` on a fixed schedule of `rate` ops/s from `start_ns`.
inline std::int64_t DueNs(std::int64_t start_ns, double rate, std::size_t i) {
  return start_ns +
         static_cast<std::int64_t>(std::llround(static_cast<double>(i) * 1e9 /
                                                rate));
}

/// Latency of a completed op, measured from when it was due — so a stall
/// also charges the wait it imposed on every op queued behind it.
inline double LatencyFromDueMs(const OpenLoopOp& op) {
  return static_cast<double>(op.done_ns - op.due_ns) / 1e6;
}

/// How late the generator sent an op against its schedule (never negative).
inline double LatenessMs(const OpenLoopOp& op) {
  return static_cast<double>(std::max<std::int64_t>(0, op.sent_ns - op.due_ns)) /
         1e6;
}

/// Verdict on one rate of the ladder.
struct StepVerdict {
  double rate = 0;
  std::size_t ops = 0;
  std::size_t failed = 0;
  double p99_ms = 0;
  bool backlog_growing = false;
  bool passes = false;
};

/// Judges one ladder step. A failed or unanswered op counts as missing the
/// limit (its latency is taken as infinite). The backlog grows when the
/// median latency of the step's last tenth exceeds that of its first tenth
/// by more than half the limit: a queue the server cannot drain at this
/// rate lengthens for the whole step.
inline StepVerdict JudgeStep(const std::vector<OpenLoopOp>& ops, double rate,
                             double limit_ms) {
  StepVerdict v;
  v.rate = rate;
  v.ops = ops.size();
  if (ops.empty()) return v;
  std::vector<double> lat;
  lat.reserve(ops.size());
  for (const OpenLoopOp& op : ops) {
    if (!op.ok || op.done_ns < 0) {
      ++v.failed;
      lat.push_back(INFINITY);
    } else {
      lat.push_back(LatencyFromDueMs(op));
    }
  }
  v.p99_ms = Percentile(lat, 99);
  const std::size_t tenth = std::max<std::size_t>(1, ops.size() / 10);
  const std::vector<double> head(lat.begin(),
                                 lat.begin() + static_cast<std::ptrdiff_t>(tenth));
  const std::vector<double> tail(lat.end() - static_cast<std::ptrdiff_t>(tenth),
                                 lat.end());
  v.backlog_growing = Median(tail) > Median(head) + limit_ms / 2;
  v.passes = v.failed == 0 && v.p99_ms <= limit_ms && !v.backlog_growing;
  return v;
}

/// Completion rates, in ops/s, of consecutive blocks of `block` ops:
/// `done_ns` holds ascending completion times, the first block runs from
/// `start_ns`. A trailing partial block is dropped.
inline std::vector<double> BlockRates(const std::vector<std::int64_t>& done_ns,
                                      std::int64_t start_ns,
                                      std::size_t block) {
  std::vector<double> rates;
  if (block == 0) return rates;
  std::int64_t from = start_ns;
  for (std::size_t end = block; end <= done_ns.size(); end += block) {
    const std::int64_t to = done_ns[end - 1];
    if (to > from) {
      rates.push_back(static_cast<double>(block) * 1e9 /
                      static_cast<double>(to - from));
    }
    from = to;
  }
  return rates;
}

/// The highest ladder rate that passed; 0 when none did.
inline double MaxPassingRate(const std::vector<StepVerdict>& steps) {
  double best = 0;
  for (const StepVerdict& s : steps) {
    if (s.passes) best = std::max(best, s.rate);
  }
  return best;
}

}  // namespace qbench

#endif  // QBENCH_METRICS_H_
