// Self-test of the benchmark's own arithmetic (metrics.h): the percentile
// rule, span self time, open-loop due-time latency and generator lateness,
// the rate ladder's verdict on a growing backlog, and block rates. Exits
// nonzero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "metrics.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "qbench_selftest: FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// A FIFO server with fixed service time fed on a fixed schedule; a stall
/// of `stall_ns` before op `stall_at` delays it and everything behind it.
std::vector<qbench::OpenLoopOp> SimulateQueue(std::size_t n, double rate,
                                              std::int64_t service_ns,
                                              std::size_t stall_at = 0,
                                              std::int64_t stall_ns = 0) {
  std::vector<qbench::OpenLoopOp> ops(n);
  std::int64_t free_at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ops[i].due_ns = qbench::DueNs(0, rate, i);
    ops[i].sent_ns = ops[i].due_ns;
    std::int64_t begin = std::max(ops[i].due_ns, free_at);
    if (stall_ns > 0 && i == stall_at) begin += stall_ns;
    ops[i].done_ns = begin + service_ns;
    ops[i].ok = true;
    free_at = ops[i].done_ns;
  }
  return ops;
}

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(qbench::Percentile(v, 99) == 990, "p99 of 1..1000 is 990");
  Expect(qbench::Percentile(v, 50) == 500, "p50 of 1..1000 is 500");
  Expect(qbench::SamplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  std::size_t beyond = 0;
  for (const double x : v) beyond += x > qbench::Percentile(v, 99) ? 1 : 0;
  Expect(beyond == 10, "exactly ten samples lie beyond the reported p99");
  Expect(qbench::SupportedTailPercentile(1000) == 99, "1000 samples support p99");
  Expect(qbench::SupportedTailPercentile(999) == 90, "999 samples stop at p90");
  Expect(qbench::SupportedTailPercentile(10000) == 99.9,
         "10000 samples support p99.9");
  Expect(qbench::SupportedTailPercentile(100) == 90, "100 samples support p90");
  Expect(qbench::SupportedTailPercentile(20) == 50, "20 samples support p50");
  Expect(qbench::SupportedTailPercentile(19) == 0, "19 samples support nothing");
  Expect(qbench::Percentile({}, 50) == 0, "empty sample reads 0");
  Expect(qbench::Median({3, 1, 2}) == 2, "median of three");
}

void TestSelfTime() {
  // root [0,100] with children a [10,30] and b [20,50] (overlapping), and c
  // [90,120] (sticking out); a has its own child [12,15].
  std::vector<qbench::Span> s(5);
  s[0] = {0, 0, 100, -1, 0};
  s[1] = {1, 10, 30, 0, 0};
  s[2] = {1, 20, 50, 0, 0};
  s[3] = {1, 90, 120, 0, 0};
  s[4] = {2, 12, 15, 1, 0};
  const std::vector<std::int64_t> self = qbench::SelfTimes(s);
  Expect(self[0] == 100 - 40 - 10, "root self time counts overlap once, clips");
  Expect(self[1] == 20 - 3, "a child's own child is subtracted from it");
  Expect(self[2] == 30, "leaf self time is its duration");
  Expect(self[4] == 3, "grandchild self time");
}

void TestOpenLoop() {
  Expect(qbench::DueNs(1000, 1000, 5) == 1000 + 5'000'000, "due times");
  qbench::OpenLoopOp op;
  op.due_ns = 5'000'000;
  op.sent_ns = 7'000'000;
  op.done_ns = 9'000'000;
  Expect(Near(qbench::LatencyFromDueMs(op), 4), "latency runs from due time");
  Expect(Near(qbench::LatenessMs(op), 2), "lateness is send minus due");
  op.sent_ns = 4'000'000;
  Expect(qbench::LatenessMs(op) == 0, "an early send is not late");
  // A 50 ms stall at op 10 of a 1000 ops/s schedule: op 10 and the ops
  // queued behind it are charged the wait from their due times.
  const auto ops = SimulateQueue(200, 1000, 100'000, 10, 50'000'000);
  Expect(Near(qbench::LatencyFromDueMs(ops[9]), 0.1), "before the stall");
  Expect(Near(qbench::LatencyFromDueMs(ops[10]), 50.1), "the stalled op");
  Expect(Near(qbench::LatencyFromDueMs(ops[11]), 50.2 - 1),
         "the next op waits for the stall too");
  Expect(qbench::LatencyFromDueMs(ops[40]) > 10,
         "ops due during the stall still pay for it");
}

void TestLadder() {
  // Capacity 800 ops/s (1.25 ms service).
  const double limit = 10;
  const auto fine = SimulateQueue(2000, 500, 1'250'000);
  const qbench::StepVerdict v500 = qbench::JudgeStep(fine, 500, limit);
  Expect(v500.passes && !v500.backlog_growing, "500 ops/s is sustained");
  const auto over = SimulateQueue(2000, 1000, 1'250'000);
  const qbench::StepVerdict v1000 = qbench::JudgeStep(over, 1000, limit);
  Expect(v1000.backlog_growing && !v1000.passes,
         "1000 ops/s grows a backlog and fails");
  // Slightly over capacity (1.1 ms service at 1 ms spacing) the queue
  // lengthens by 0.1 ms per op: over 50 ops the last tenth waits ~4.5 ms
  // longer than the first, within half the limit; over 400 ops ~36 ms.
  const auto brief = SimulateQueue(50, 1000, 1'100'000);
  const qbench::StepVerdict vb = qbench::JudgeStep(brief, 1000, limit);
  Expect(vb.passes && !vb.backlog_growing,
         "a backlog growth within half the limit passes");
  const auto longer = SimulateQueue(400, 1000, 1'100'000);
  const qbench::StepVerdict vl = qbench::JudgeStep(longer, 1000, limit);
  Expect(vl.backlog_growing && !vl.passes, "a longer growth fails");
  auto refused = fine;
  refused[7].ok = false;
  refused[8].done_ns = -1;
  const qbench::StepVerdict vr = qbench::JudgeStep(refused, 500, limit);
  Expect(vr.failed == 2 && !vr.passes, "refused or unanswered ops fail a step");
  const auto stalled = SimulateQueue(2000, 500, 1'250'000, 1000, 30'000'000);
  Expect(!qbench::JudgeStep(stalled, 500, limit).passes,
         "a stall longer than the limit fails on p99");
  Expect(qbench::MaxPassingRate({v500, v1000}) == 500,
         "a failing higher rate does not count");
  qbench::StepVerdict a{500, 1, 0, 1, false, true};
  qbench::StepVerdict b{700, 1, 0, 2, false, true};
  qbench::StepVerdict c{1000, 1, 0, 50, true, false};
  Expect(qbench::MaxPassingRate({a, b, c}) == 700, "highest passing rate");
  Expect(qbench::MaxPassingRate({c}) == 0, "no passing rate reads 0");
}

void TestBlockRates() {
  // Four ops done at 1, 2, 4 and 8 ms after a start at 0: blocks of two
  // span 2 ms and 6 ms.
  const std::vector<std::int64_t> done = {1'000'000, 2'000'000, 4'000'000,
                                          8'000'000, 9'000'000};
  const std::vector<double> r = qbench::BlockRates(done, 0, 2);
  Expect(r.size() == 2, "a trailing partial block is dropped");
  Expect(Near(r[0], 1000) && Near(r[1], 2.0 / 6e-3),
         "each block's rate runs from the previous block's last completion");
  Expect(qbench::BlockRates(done, 0, 6).empty(), "too few ops: no block");
  Expect(qbench::BlockRates(done, 0, 0).empty(), "zero block size: no block");
  // A closed loop at capacity 800 ops/s (1.25 ms service, always queued)
  // completes 800 ops/s in every block.
  const auto ops = SimulateQueue(400, 1e6, 1'250'000);
  std::vector<std::int64_t> t;
  for (const qbench::OpenLoopOp& op : ops) t.push_back(op.done_ns);
  for (const double rate : qbench::BlockRates(t, 0, 100)) {
    Expect(std::fabs(rate - 800) < 1, "a saturated queue runs at capacity");
  }
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestOpenLoop();
  TestLadder();
  TestBlockRates();
  if (failures == 0) std::printf("qbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
