// The in-process workload explore_cold (fresh-index sessions of clustered
// range queries), timed from outside by calls into the library, and the
// reporting helpers the served workload shares with it.
#ifndef QBENCH_LOCAL_H_
#define QBENCH_LOCAL_H_

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "scan/scan_index.h"

namespace qbench {

using quasii::QuasiiIndex;
using quasii::QueryStats;
using quasii::TaskScheduler;

/// Interleaved traced/untraced units give the tracing overhead; the share
/// of a traced unit's wall time that its child spans cover says how much of
/// the run the layer spans account for.
inline void ReportTraceCost(const Tracer& tracer, int unit_name,
                            const std::vector<double>& traced_cost,
                            const std::vector<double>& untraced_cost,
                            Report* r) {
  if (!traced_cost.empty() && !untraced_cost.empty()) {
    r->Set("trace.overhead_pct",
           (Median(traced_cost) / Median(untraced_cost) - 1) * 100);
  }
  const std::vector<Span>& spans = tracer.spans();
  std::vector<bool> is_unit(spans.size(), false);
  double unit_ns = 0;
  double covered_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == unit_name) {
      is_unit[i] = true;
      unit_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  const std::vector<std::int64_t> self = SelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (is_unit[i]) {
      covered_ns +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns - self[i]);
    }
  }
  if (unit_ns > 0) r->Set("trace.span_cover_share", covered_ns / unit_ns);
  r->Set("trace.spans", static_cast<double>(spans.size()));
}

inline void ReportColumns(const QuasiiIndex<3>& index, Tracer& tracer,
                          Report* r) {
  SpanScope s(tracer, kSpanColumnMemory);
  const auto m = index.column_memory();
  r->Set("packed_column.resident_mb",
         static_cast<double>(m.resident_bytes) / (1024.0 * 1024.0));
  r->Set("packed_column.packed_row_share",
         m.packed_rows == 0 ? 0
                            : static_cast<double>(m.packed_rows) /
                                  static_cast<double>(index.array().size()));
}

inline void CheckIndex(const QuasiiIndex<3>& index, Tracer& tracer,
                       const char* when, Report* r) {
  SpanScope s(tracer, kSpanCheckInvariants);
  std::string why;
  if (!index.CheckInvariants(&why)) {
    r->Fail(std::string("CheckInvariants after ") + when + ": " + why);
  }
}

// --- explore_cold -------------------------------------------------------------

/// Mean over variants of each variant's median: the median keeps one slow
/// session from moving a variant, the mean over 8 query placements keeps
/// the seed's particular placement from moving the run.
inline double MeanOfMedians(const std::vector<std::vector<double>>& per_variant) {
  double sum = 0;
  int n = 0;
  for (const std::vector<double>& v : per_variant) {
    if (v.empty()) continue;
    sum += Median(v);
    ++n;
  }
  return n == 0 ? 0 : sum / n;
}

/// The paper's exploration scenario: sessions of 1000 clustered range
/// queries (5 clusters, sigma 2%, selectivity 1e-4), each on a fresh QUASII
/// with no up-front build, at 2 intra-query threads. The seed yields 8
/// query sets (variants); sessions run them round-robin, so every variant
/// runs in every round and its answers must repeat exactly. After each
/// untraced session the same queries run once more, as one converged pass
/// whose answers must match the session's.
inline void RunExploreCold(const Args& a, Tracer& tracer, Report* r) {
  constexpr int kQueries = 1000;
  constexpr int kVariants = 8;
  constexpr int kMinRounds = 3;
  constexpr int kOracleStride = 200;
  quasii::SetIntraQueryThreads(2);

  // Setup: the dataset and the variants' query sets.
  Dataset3 data;
  std::vector<std::vector<Box3>> queries(kVariants);
  {
    SpanScope setup(tracer, kSpanSetup);
    const std::int64_t t0 = NowNs();
    {
      SpanScope s(tracer, kSpanDataset, setup.handle());
      data = quasii::datagen::MakeUniformDataset(DatasetParams(a.seed));
    }
    const std::int64_t t1 = NowNs();
    {
      SpanScope s(tracer, kSpanFootprints, setup.handle());
      for (int v = 0; v < kVariants; ++v) {
        quasii::datagen::ClusteredQueryParams qp;
        qp.clusters = 5;
        qp.queries_per_cluster = kQueries / 5;
        qp.selectivity = 1e-4;
        qp.sigma_fraction = 0.02;
        qp.seed = Rng::SplitMix64(a.seed ^ (0xC100u + static_cast<unsigned>(v)));
        queries[static_cast<std::size_t>(v)] = quasii::datagen::MakeClusteredQueries(
            quasii::datagen::UniformUniverse(DatasetParams(a.seed)), data, qp);
      }
    }
    const std::int64_t t2 = NowNs();
    r->Set("setup_s", static_cast<double>(t2 - t0) / 1e9);
    r->Set("datagen.dataset_ms", static_cast<double>(t1 - t0) / 1e6);
    r->Set("datagen.footprints_ms", static_cast<double>(t2 - t1) / 1e6);
  }

  using PerVariant = std::vector<std::vector<double>>;
  PerVariant session_ms(kVariants), first_ms(kVariants), p50_ms(kVariants),
      p99_ms(kVariants), crack_ms(kVariants), read_us(kVariants),
      scan_gb_s(kVariants), read_rate(kVariants), pass_rate(kVariants);
  std::vector<std::vector<std::uint64_t>> ref_hash(
      kVariants, std::vector<std::uint64_t>(kQueries, 0));
  std::vector<QueryStats> ref_stats(kVariants);
  std::vector<std::uint64_t> ref_crack_queries(kVariants, 0);
  std::vector<std::uint64_t> ref_results(kVariants, 0);
  std::vector<std::uint64_t> first_moved(kVariants, 0);
  std::vector<double> descent_us, traced_cost, untraced_cost;
  TaskScheduler::Stats sched_total;
  std::vector<std::tuple<int, int, ReadResult>> oracle_samples;
  std::vector<double> lat_ms(kQueries);
  std::vector<std::uint8_t> cracked(kQueries);
  std::vector<std::uint64_t> bytes(kQueries);
  ReadResult result;
  std::unique_ptr<QuasiiIndex<3>> index;

  const std::int64_t start = NowNs();
  int rounds = 0;
  for (;; ++rounds) {
    if (rounds >= kMinRounds &&
        static_cast<double>(NowNs() - start) / 1e9 >= a.seconds) {
      break;
    }
    const bool traced = a.trace && rounds % 2 == 1;
    tracer.set_enabled(traced);
    for (int v = 0; v < kVariants; ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      const std::vector<Box3>& qs = queries[vi];
      index.reset();
      index = std::make_unique<QuasiiIndex<3>>(data);
      const TaskScheduler::Stats sched0 = quasii::IntraQueryScheduler().stats();
      const int session_span = tracer.Begin(kSpanSession);
      std::uint64_t session_results = 0;
      const std::int64_t s0 = NowNs();
      for (int q = 0; q < kQueries; ++q) {
        const std::size_t qi = static_cast<std::size_t>(q);
        Op op;
        op.box = qs[qi];
        const QueryStats before = index->thread_stats();
        const std::int64_t t0 = NowNs();
        ExecuteRead(*index, op, &result);
        const std::int64_t t1 = NowNs();
        const QueryStats& after = index->thread_stats();
        tracer.Add(kSpanExecute, t0, t1, session_span, qi);
        lat_ms[qi] = static_cast<double>(t1 - t0) / 1e6;
        cracked[qi] = after.cracks > before.cracks;
        bytes[qi] = after.bytes_scanned - before.bytes_scanned;
        if (q == 0) first_moved[vi] = after.objects_moved - before.objects_moved;
        session_results += result.count;
        const std::uint64_t h = HashResult(result);
        if (rounds == 0) {
          ref_hash[vi][qi] = h;
          if (q % kOracleStride == 0) oracle_samples.emplace_back(v, q, result);
        } else if (h != ref_hash[vi][qi]) {
          r->Fail("variant " + std::to_string(v) + " query " +
                  std::to_string(q) + " differs from its first session");
        }
      }
      const std::int64_t s1 = NowNs();
      tracer.End(session_span);
      r->Attempt(kQueries);

      QueryStats st;
      {
        SpanScope s(tracer, kSpanIndexStats);
        st = index->stats();
      }
      TaskScheduler::Stats sched1;
      {
        SpanScope s(tracer, kSpanSchedulerStats);
        sched1 = quasii::IntraQueryScheduler().stats();
      }
      CheckIndex(*index, tracer, "session", r);

      const double ms = static_cast<double>(s1 - s0) / 1e6;
      (traced ? traced_cost : untraced_cost).push_back(ms);
      double cms = 0;
      std::uint64_t crack_queries = 0;
      std::vector<double> reads;
      double read_ns = 0;
      std::uint64_t read_bytes = 0;
      for (std::size_t q = 0; q < kQueries; ++q) {
        if (cracked[q]) {
          cms += lat_ms[q];
          ++crack_queries;
        } else {
          reads.push_back(lat_ms[q] * 1e3);
          read_ns += lat_ms[q] * 1e6;
          read_bytes += bytes[q];
        }
      }
      if (!traced) {
        session_ms[vi].push_back(ms);
        first_ms[vi].push_back(lat_ms[0]);
        p50_ms[vi].push_back(Percentile(lat_ms, 50));
        p99_ms[vi].push_back(Percentile(lat_ms, 99));
        crack_ms[vi].push_back(cms);
        if (!reads.empty()) read_us[vi].push_back(Median(reads));
        if (read_ns > 0) {
          scan_gb_s[vi].push_back(static_cast<double>(read_bytes) / read_ns);
          read_rate[vi].push_back(static_cast<double>(reads.size()) * 1e9 /
                                  read_ns);
        }
        // The converged pass: the whole query set again, timed as one
        // block. 1000 queries average out what a short block would catch
        // of the host.
        const std::int64_t p0 = NowNs();
        for (int q = 0; q < kQueries; ++q) {
          const std::size_t qi = static_cast<std::size_t>(q);
          Op op;
          op.box = qs[qi];
          ExecuteRead(*index, op, &result);
          if (HashResult(result) != ref_hash[vi][qi]) {
            r->Fail("variant " + std::to_string(v) + " query " +
                    std::to_string(q) + " differs in the converged pass");
          }
        }
        const std::int64_t p1 = NowNs();
        r->Attempt(kQueries);
        pass_rate[vi].push_back(kQueries * 1e9 / static_cast<double>(p1 - p0));
      }
      if (rounds == 0) {
        ref_stats[vi] = st;
        ref_crack_queries[vi] = crack_queries;
        ref_results[vi] = session_results;
        sched_total.executed += sched1.executed - sched0.executed;
        sched_total.helped += sched1.helped - sched0.helped;
        sched_total.inlined += sched1.inlined - sched0.inlined;
        sched_total.stolen += sched1.stolen - sched0.stolen;
      } else if (st.cracks != ref_stats[vi].cracks ||
                 st.objects_moved != ref_stats[vi].objects_moved ||
                 st.objects_tested != ref_stats[vi].objects_tested) {
        r->Fail("variant " + std::to_string(v) +
                " work counters differ from its first session");
      }
      if (traced) {
        // Descent cost, sampled after the session so it cannot warm the
        // timed executions.
        for (std::size_t q = 0; q < kQueries; q += 10) {
          const quasii::Query<3> query = quasii::RangeQuery(qs[q]);
          const std::int64_t t0 = NowNs();
          const bool conv = index->ConvergedFor(query);
          const std::int64_t t1 = NowNs();
          tracer.Add(kSpanConvergedFor, t0, t1, -1, q);
          if (conv) descent_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        }
      }
    }
  }
  tracer.set_enabled(a.trace);

  // Oracle: a deterministic sample of the first round's answers against
  // Scan.
  {
    SpanScope s(tracer, kSpanOracle);
    quasii::ScanIndex<3> scan(data);
    ReadResult expect;
    for (auto& [v, q, got] : oracle_samples) {
      Op op;
      op.box = queries[static_cast<std::size_t>(v)][static_cast<std::size_t>(q)];
      ExecuteRead(scan, op, &expect);
      if (!SameResult(op.type, got, expect)) {
        r->Fail("variant " + std::to_string(v) + " query " + std::to_string(q) +
                " disagrees with Scan");
      }
    }
  }
  ReportColumns(*index, tracer, r);
  index.reset();

  r->Set("session_ms", MeanOfMedians(session_ms));
  r->Set("first_query_ms", MeanOfMedians(first_ms));
  r->Set("latency_p50_ms", MeanOfMedians(p50_ms));
  r->Set("latency_p99_ms", MeanOfMedians(p99_ms));
  // The closed loop's throughput over the session's queries that crack
  // nothing, and the rate of the converged pass: every query of the
  // session, the ones that cracked too, once the index has converged.
  r->Set("throughput_ops_s", MeanOfMedians(read_rate));
  r->Set("max_rate_ops_s", MeanOfMedians(pass_rate));
  r->Set("peak_rss_mb", PeakRssMb());

  // Work counts: per session, averaged over the variants (exact).
  QueryStats work;
  std::uint64_t crack_queries = 0, results = 0, moved_first = 0;
  for (std::size_t v = 0; v < kVariants; ++v) {
    work += ref_stats[v];
    crack_queries += ref_crack_queries[v];
    results += ref_results[v];
    moved_first += first_moved[v];
  }
  const double nv = kVariants;
  const double crack = MeanOfMedians(crack_ms);
  r->Set("quasii.crack_query_ms", crack);
  r->Set("quasii.crack_queries", static_cast<double>(crack_queries) / nv);
  r->Set("quasii.cracks", static_cast<double>(work.cracks) / nv);
  r->Set("quasii.objects_moved", static_cast<double>(work.objects_moved) / nv);
  r->Set("quasii.first_query_moved", static_cast<double>(moved_first) / nv);
  r->Set("quasii.read_query_us", MeanOfMedians(read_us));
  if (!descent_us.empty()) r->Set("quasii.descent_us", Median(descent_us));
  r->Set("quasii.partitions_per_query",
         static_cast<double>(work.partitions_visited) / (nv * kQueries));
  r->Set("quasii.tested_per_result",
         static_cast<double>(work.objects_tested) /
             static_cast<double>(std::max<std::uint64_t>(results, 1)));
  r->Set("crack_array.scan_bytes_per_result",
         static_cast<double>(work.bytes_scanned) /
             static_cast<double>(std::max<std::uint64_t>(results, 1)));
  r->Set("crack_array.moved_rows_per_ms",
         static_cast<double>(work.objects_moved) / nv / crack);
  r->Set("crack_array.scan_gb_s", MeanOfMedians(scan_gb_s));
  r->Set("task_scheduler.tasks",
         static_cast<double>(sched_total.executed + sched_total.helped +
                             sched_total.inlined) / nv);
  if (sched_total.executed + sched_total.helped > 0) {
    r->Set("task_scheduler.worker_share",
           static_cast<double>(sched_total.executed) /
               static_cast<double>(sched_total.executed + sched_total.helped));
  }
  r->Set("task_scheduler.steals", static_cast<double>(sched_total.stolen) / nv);
  ReportTraceCost(tracer, kSpanSession, traced_cost, untraced_cost, r);
}

}  // namespace qbench

#endif  // QBENCH_LOCAL_H_
