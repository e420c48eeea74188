// Benchmark driver tests: the emitted report must be syntactically valid
// JSON and contain a result entry per index with latency percentiles and
// cumulative stats, and a matrix report must be its single runs in a row.

#include <unistd.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench.h"
#include "bench/cli.h"
#include "bench/json.h"
#include "bench/workload.h"
#include "tests/test_util.h"

namespace {

using quasii::bench::BenchConfig;
using quasii::bench::JsonWriter;
using quasii::bench::ParseWorkloadMix;
using quasii::bench::RunBenchmark;
using quasii::bench::WorkloadMix;

/// Minimal recursive-descent JSON syntax checker (objects, arrays, strings,
/// numbers, literals). Returns true iff `s` is one valid JSON value.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return Eat('"');
  }

  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  bool Object() {
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      if (!Value()) return false;
      SkipWs();
      if (Eat('}')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool Array() {
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (Eat(']')) return true;
      if (!Eat(',')) return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::size_t CountOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

void TestJsonWriterEscaping() {
  JsonWriter w;
  w.BeginObject();
  w.Key("text").String("a\"b\\c\nd");
  w.Key("num").Double(1.5);
  w.Key("arr").BeginArray().Uint(1).Uint(2).EndArray();
  w.EndObject();
  const std::string s = w.str();
  CHECK(JsonValidator(s).Valid());
  CHECK_EQ(s, "{\"text\":\"a\\\"b\\\\c\\nd\",\"num\":1.5,\"arr\":[1,2]}");
}

void TestReportIsValidJson() {
  BenchConfig config;
  config.n = 3000;
  config.queries = 25;
  const std::string report = RunBenchmark({config});
  CHECK(JsonValidator(report).Valid());
  // One result object per roster index, each with latencies and stats.
  CHECK_EQ(CountOccurrences(report, "\"index\":"), 7u);
  CHECK(report.find("\"QUASII\"") != std::string::npos);
  CHECK(report.find("\"Scan\"") != std::string::npos);
  CHECK_EQ(CountOccurrences(report, "\"latencies_ms\":"), 0u);
  CHECK_EQ(CountOccurrences(report, "\"p99_ms\":"), 7u);
  CHECK_EQ(CountOccurrences(report, "\"cumulative_stats\":"), 7u);
  // The per-type breakdown: one object per index, all six op-type sections.
  CHECK_EQ(CountOccurrences(report, "\"per_type\":"), 7u);
  CHECK_EQ(CountOccurrences(report, "\"range\":"), 7u + 1u);  // + config mix
  CHECK_EQ(CountOccurrences(report, "\"point\":"), 7u + 1u);
  CHECK_EQ(CountOccurrences(report, "\"count\":"), 7u + 1u);
  CHECK_EQ(CountOccurrences(report, "\"knn\":"), 7u + 1u);
  CHECK_EQ(CountOccurrences(report, "\"insert\":"), 7u + 1u);
  CHECK_EQ(CountOccurrences(report, "\"erase\":"), 7u + 1u);
}

void TestIndexFilterAndWorkloads() {
  BenchConfig config;
  config.n = 2000;
  config.queries = 13;  // not a multiple of the cluster count
  config.dataset = "neuro";
  config.workload = "clustered";
  config.indexes = {"QUASII", "Scan"};
  const std::string report = RunBenchmark({config});
  CHECK(JsonValidator(report).Valid());
  CHECK_EQ(CountOccurrences(report, "\"index\":"), 2u);
  CHECK(report.find("\"R-Tree\"") == std::string::npos);
  CHECK(report.find("\"dataset\":\"neuro\"") != std::string::npos);
  CHECK(report.find("\"workload\":\"clustered\"") != std::string::npos);
  // The clustered workload must honor the exact requested query count.
  CHECK(report.find("\"queries\":13") != std::string::npos);
}

/// Every value of `key` in a report, in emission order, as raw text: a
/// number, or an object without nested objects (a stats block).
std::vector<std::string> ExtractValues(const std::string& report,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::vector<std::string> values;
  std::size_t pos = 0;
  while ((pos = report.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const std::size_t end = report[pos] == '{'
                                ? report.find('}', pos) + 1
                                : report.find_first_of(",}]", pos);
    values.push_back(report.substr(pos, end - pos));
    pos = end;
  }
  return values;
}

/// Every roster index sees the same queries, so its result counts — the
/// total, every per-type section and the post-workload pass — must agree
/// with every other index's: the bench-level restatement of the
/// equivalence suite.
void CheckResultCountsAgree(const std::string& report, std::size_t indexes) {
  const std::vector<std::string> values =
      ExtractValues(report, "result_objects");
  // Per index: one total, one value per op-type section, one post-workload.
  const std::size_t per_index = 1 + quasii::bench::kNumOpTypes + 1;
  CHECK_EQ(values.size(), indexes * per_index);
  for (std::size_t i = 0; i < values.size(); ++i) {
    CHECK_EQ(values[i], values[i % per_index]);
  }
}

void TestRosterResultCountsAgree() {
  BenchConfig config;
  config.n = 4000;
  config.queries = 30;
  const std::string report = RunBenchmark({config});
  CHECK(JsonValidator(report).Valid());
  CheckResultCountsAgree(report, 7);
}

/// A mixed workload routes every query type through the typed engine; the
/// report must stay valid JSON, cover all four types, and agree across the
/// roster per type.
void TestMixedWorkloadReport() {
  BenchConfig config;
  config.n = 3000;
  config.queries = 40;
  config.mix = quasii::bench::DefaultMixedWorkloadMix();
  config.knn_k = 5;
  const std::string report = RunBenchmark({config});
  CHECK(JsonValidator(report).Valid());
  CheckResultCountsAgree(report, 7);
  // The mix is recorded in the config block, and at this size the
  // deterministic interleave exercises every type (non-zero query counts
  // would all be "\"queries\":0" otherwise).
  CHECK(report.find("\"mix\":{\"range\":0.7") != std::string::npos);
  // Only the write and join sections idle under this read-only mix:
  // exactly the insert + erase + join section of each of the 7 indexes
  // reports zero ops.
  CHECK_EQ(CountOccurrences(report, "\"queries\":0"), 3u * 7u);
}

/// A read/write mix interleaves mutations with the queries; the report must
/// stay valid, every op type must run, and acceptance/result counts must
/// agree across the roster — the bench-level restatement of the dynamic
/// equivalence suite.
void TestReadWriteWorkloadReport() {
  BenchConfig config;
  config.n = 3000;
  config.queries = 60;
  config.mix = quasii::bench::DefaultReadWriteMix();
  config.knn_k = 5;
  const std::string report = RunBenchmark({config});
  CHECK(JsonValidator(report).Valid());
  CheckResultCountsAgree(report, 7);
  CHECK(report.find("\"insert\":0.15") != std::string::npos);
  // At this size the deterministic interleave exercises every op type in
  // the mix; only the (unweighted) join section of each index idles.
  CHECK_EQ(CountOccurrences(report, "\"queries\":0"), 1u * 7u);
}

void TestTailLatencyReport() {
  // Every index section carries a p50/p90/p99 summary, and a threaded mixed
  // read/write run additionally carries one per thread — the per-client
  // tail-latency metric of the serving work. The raw per-op latencies are
  // not reported.
  BenchConfig config;
  config.n = 2000;
  config.queries = 48;
  config.threads = 4;
  config.indexes = {"QUASII"};
  config.mix = quasii::bench::DefaultReadWriteMix();
  const std::string report = RunBenchmark({config});
  CHECK(JsonValidator(report).Valid());
  CHECK_EQ(CountOccurrences(report, "\"per_thread\":"), 1u);
  // One index-level summary plus one per thread.
  CHECK_EQ(CountOccurrences(report, "\"p99_ms\":"), 1u + 4u);
  CHECK_EQ(CountOccurrences(report, "\"p50_ms\":"), 1u + 4u);
  CHECK_EQ(CountOccurrences(report, "\"p90_ms\":"), 1u + 4u);
  CHECK_EQ(CountOccurrences(report, "\"latencies_ms\":"), 0u);
  const std::vector<std::string> p50 = ExtractValues(report, "p50_ms");
  const std::vector<std::string> p90 = ExtractValues(report, "p90_ms");
  const std::vector<std::string> p99 = ExtractValues(report, "p99_ms");
  for (std::size_t i = 0; i < p50.size(); ++i) {
    CHECK_GT(std::stod(p50[i]), 0.0);
    CHECK_LE(std::stod(p50[i]), std::stod(p90[i]));
    CHECK_LE(std::stod(p90[i]), std::stod(p99[i]));
  }

  // The percentile helper itself: exact order statistics on a known sample.
  std::vector<double> sample = {4.0, 1.0, 3.0, 2.0, 5.0};
  CHECK_EQ(quasii::bench::Percentile(sample, 0.0), 1.0);
  CHECK_EQ(quasii::bench::Percentile(sample, 0.5), 3.0);
  CHECK_EQ(quasii::bench::Percentile(sample, 1.0), 5.0);
  CHECK_EQ(quasii::bench::Percentile(sample, 0.75), 4.0);
  CHECK_EQ(quasii::bench::Percentile({}, 0.99), 0.0);
  CHECK_EQ(quasii::bench::Percentile({7.5}, 0.99), 7.5);
}

void TestParseWorkloadMix() {
  WorkloadMix mix;
  CHECK(ParseWorkloadMix("range:0.7,point:0.2,count:0.05,knn:0.05", &mix));
  CHECK_EQ(mix.range, 0.7);
  CHECK_EQ(mix.point, 0.2);
  CHECK_EQ(mix.count, 0.05);
  CHECK_EQ(mix.knn, 0.05);
  CHECK(!mix.IsPureRange());

  CHECK(ParseWorkloadMix("range:0.6,insert:0.3,erase:0.1", &mix));
  CHECK_EQ(mix.insert, 0.3);
  CHECK_EQ(mix.erase, 0.1);
  CHECK(!mix.IsReadOnly());

  CHECK(ParseWorkloadMix("range:0.8,join:0.2", &mix));
  CHECK_EQ(mix.join, 0.2);
  CHECK(mix.IsReadOnly());
  CHECK(!mix.IsPureRange());

  CHECK(ParseWorkloadMix("point:1", &mix));
  CHECK_EQ(mix.range, 0.0);
  CHECK_EQ(mix.point, 1.0);
  CHECK(mix.IsReadOnly());

  // Unknown types, malformed pairs, non-numeric or trailing-garbage
  // weights, and all-zero mixes are rejected (and must not clobber the
  // previous value) — a typo must never silently become weight 0.
  CHECK(!ParseWorkloadMix("warp:0.5", &mix));
  CHECK(!ParseWorkloadMix("range", &mix));
  CHECK(!ParseWorkloadMix("range:0,point:0", &mix));
  CHECK(!ParseWorkloadMix("range:0.7,point:o.2", &mix));
  CHECK(!ParseWorkloadMix("range:", &mix));
  CHECK(!ParseWorkloadMix("range:0.5x", &mix));
  CHECK(!ParseWorkloadMix("range:-0.5", &mix));
  CHECK(!ParseWorkloadMix("range:nan", &mix));
  CHECK(!ParseWorkloadMix("", &mix));
  CHECK_EQ(mix.point, 1.0);

  // A type with weight 0 must never be emitted, even at the roulette
  // wheel's floating-point drift fallback.
  quasii::bench::WorkloadSpec spec;
  CHECK(ParseWorkloadMix("range:0.1,point:0.1,count:0.1", &spec.mix));
  std::vector<quasii::Box3> boxes(500);
  for (auto& b : boxes) {
    for (int d = 0; d < 3; ++d) {
      b.lo[d] = 0;
      b.hi[d] = 1;
    }
  }
  for (const auto& q : quasii::bench::MakeTypedWorkload<3>(boxes, spec)) {
    CHECK(q.type() != quasii::QueryType::kKNearest);
  }
}

/// The strict CLI parsers behind both drivers: whole-value-or-fail, never
/// an atoi()-style silent prefix parse.
void TestCliParsers() {
  namespace cli = quasii::bench::cli;
  std::uint64_t u = 99;
  CHECK(cli::ParseU64("0", &u));
  CHECK_EQ(u, 0u);
  CHECK(cli::ParseU64("18446744073709551615", &u));
  CHECK_EQ(u, 18446744073709551615ull);
  CHECK(!cli::ParseU64("", &u));
  CHECK(!cli::ParseU64("12abc", &u));
  CHECK(!cli::ParseU64("-3", &u));
  CHECK(!cli::ParseU64("+3", &u));
  CHECK(!cli::ParseU64(" 3", &u));
  CHECK(!cli::ParseU64("18446744073709551616", &u));  // overflow

  std::int64_t i = 99;
  CHECK(cli::ParseI64("-17", &i));
  CHECK_EQ(i, -17);
  CHECK(!cli::ParseI64("17.5", &i));
  CHECK(!cli::ParseI64("9223372036854775808", &i));  // overflow

  double d = 99;
  CHECK(cli::ParseDouble("1e-3", &d));
  CHECK_EQ(d, 1e-3);
  CHECK(cli::ParseDouble("-0.5", &d));
  CHECK_EQ(d, -0.5);
  CHECK(!cli::ParseDouble("", &d));
  CHECK(!cli::ParseDouble("0.5x", &d));
  CHECK(!cli::ParseDouble("nan", &d));
  CHECK(!cli::ParseDouble("inf", &d));

  std::vector<std::string> parts;
  CHECK(cli::SplitCommas("a,b,c", &parts));
  CHECK_EQ(parts.size(), 3u);
  CHECK_EQ(parts[0], "a");
  CHECK_EQ(parts[2], "c");
  CHECK(cli::SplitCommas("uniform", &parts));
  CHECK_EQ(parts.size(), 1u);
  // An empty item anywhere is an error, never a shorter list.
  for (const char* bad : {"", ",", "a,,b", "a,b,", ",a"}) {
    CHECK(!cli::SplitCommas(bad, &parts));
  }

  // The roster selector of the bench driver and the server.
  std::vector<std::string> names;
  std::string why;
  CHECK(quasii::bench::ParseIndexList("Scan,QUASII", &names, &why));
  CHECK_EQ(names.size(), 2u);
  CHECK_EQ(names[1], "QUASII");
  for (const char* bad : {"Quasii", "Scan,Typo", "Scan,,QUASII", ""}) {
    why.clear();
    CHECK(!quasii::bench::ParseIndexList(bad, &names, &why));
    CHECK(why.find("R-Tree") != std::string::npos);
  }
  CHECK_EQ(names.size(), 2u);  // a rejected list leaves the old one

  cli::FlagArg f = cli::SplitFlag("--knn-k=10");
  CHECK(f.is_flag);
  CHECK(f.has_value);
  CHECK_EQ(f.key, "knn-k");
  CHECK_EQ(f.value, "10");
  f = cli::SplitFlag("--recover");
  CHECK(f.is_flag);
  CHECK(!f.has_value);
  CHECK_EQ(f.key, "recover");
  f = cli::SplitFlag("--out=");
  CHECK(f.has_value);
  CHECK_EQ(f.value, "");
  f = cli::SplitFlag("recover");
  CHECK(!f.is_flag);
  f = cli::SplitFlag("-n=3");
  CHECK(!f.is_flag);
}

/// A durability-enabled run emits the durability section, a second run on
/// the same log without `recover` is refused (its fresh LSN history would
/// make the log unrecoverable), and a recover-from-WAL run starts from the
/// logged mutation history.
void TestDurableBenchReport() {
  char dir_tmpl[] = "/tmp/quasii_bench_wal_XXXXXX";
  const char* dir = ::mkdtemp(dir_tmpl);
  CHECK(dir != nullptr);
  const std::string wal = std::string(dir) + "/run.wal";

  BenchConfig config;
  config.n = 2000;
  config.queries = 40;
  config.indexes = {"QUASII"};
  CHECK(ParseWorkloadMix("range:0.7,insert:0.2,erase:0.1", &config.mix));
  config.durability.wal_path = wal;
  config.durability.snapshot_every = 4;
  config.durability.fsync = quasii::persist::FsyncPolicy::kNone;

  std::string error;
  const std::string report = RunBenchmark({config}, &error);
  CHECK_EQ(error, "");
  CHECK(JsonValidator(report).Valid());
  // CHECK_EQ on the extracted value so a schema bump failure prints the
  // found-vs-expected versions instead of a bare substring miss.
  const std::string schema_key = "\"schema\":\"";
  const std::size_t schema_at = report.find(schema_key);
  CHECK(schema_at != std::string::npos);
  const std::size_t schema_begin = schema_at + schema_key.size();
  const std::string found_schema =
      report.substr(schema_begin, report.find('"', schema_begin) - schema_begin);
  CHECK_EQ(found_schema, "quasii-bench-v10");
  CHECK(report.find("\"durability\":") != std::string::npos);
  CHECK(report.find("\"wal_records\":") != std::string::npos);
  CHECK(report.find("\"snapshots_written\":") != std::string::npos);

  // A second plain run must not touch the log.
  const std::string wal_before = ReadFile(wal);
  CHECK_GT(wal_before.size(), 0u);
  CHECK_EQ(RunBenchmark({config}, &error), "");
  CHECK(error.find("--recover") != std::string::npos);
  CHECK(ReadFile(wal) == wal_before);

  // Recover from the first run's WAL + snapshot, then rerun.
  config.durability.recover = true;
  const std::string report2 = RunBenchmark({config}, &error);
  CHECK_EQ(error, "");
  CHECK(JsonValidator(report2).Valid());
  CHECK(report2.find("\"recovery\":") != std::string::npos);
  CHECK(report2.find("\"snapshot_loaded\":true") != std::string::npos);

  std::remove(wal.c_str());
  std::remove((wal + ".snapshot").c_str());
  ::rmdir(dir);
}

/// A matrix report is its single-config runs in a row: every config's
/// counters, result counts and post-workload checksums equal those of the
/// config run alone.
void TestMatrixIsLoopOfSingleRuns() {
  BenchConfig uniform;
  uniform.n = 3000;
  uniform.queries = 60;
  uniform.indexes = {"Scan", "QUASII"};
  BenchConfig readwrite = uniform;
  readwrite.workload = "readwrite";
  readwrite.mix = quasii::bench::DefaultReadWriteMix();
  const std::string matrix = RunBenchmark({uniform, readwrite});
  CHECK(JsonValidator(matrix).Valid());
  CHECK_EQ(CountOccurrences(matrix, "\"workload\":"), 2u);
  // The converged-QUASII extras ride on the pure-range uniform config only.
  CHECK_EQ(CountOccurrences(matrix, "\"scaling\":"), 1u);
  const std::string singles[] = {RunBenchmark({uniform}),
                                 RunBenchmark({readwrite})};
  for (const char* key : {"cumulative_stats", "result_objects", "checksum"}) {
    std::vector<std::string> expected;
    for (const std::string& single : singles) {
      const std::vector<std::string> v = ExtractValues(single, key);
      expected.insert(expected.end(), v.begin(), v.end());
    }
    CHECK_GT(expected.size(), 0u);
    CHECK(ExtractValues(matrix, key) == expected);
  }
}

/// `MakeBenchInputs` must never pad the workload with default-constructed
/// (empty) query boxes: the clustered generator's rounded-up output is
/// clamped down to the requested count, never blindly resized up.
void TestBenchInputsEmitNoEmptyQueries() {
  for (const int requested : {1, 7, 13, 100, 101}) {
    BenchConfig config;
    config.n = 1000;
    config.queries = requested;
    config.workload = "clustered";
    quasii::Dataset3 data;
    quasii::Box3 universe;
    std::vector<quasii::Box3> queries;
    quasii::bench::MakeBenchInputs(config, &data, &universe, &queries);
    CHECK_GT(queries.size(), 0u);
    CHECK_LE(queries.size(), static_cast<std::size_t>(requested));
    for (const quasii::Box3& q : queries) CHECK(!q.IsEmpty());
  }
}

}  // namespace

int main() {
  RUN_TEST(TestJsonWriterEscaping);
  RUN_TEST(TestReportIsValidJson);
  RUN_TEST(TestIndexFilterAndWorkloads);
  RUN_TEST(TestRosterResultCountsAgree);
  RUN_TEST(TestMixedWorkloadReport);
  RUN_TEST(TestReadWriteWorkloadReport);
  RUN_TEST(TestTailLatencyReport);
  RUN_TEST(TestParseWorkloadMix);
  RUN_TEST(TestCliParsers);
  RUN_TEST(TestDurableBenchReport);
  RUN_TEST(TestMatrixIsLoopOfSingleRuns);
  RUN_TEST(TestBenchInputsEmitNoEmptyQueries);
  return 0;
}
