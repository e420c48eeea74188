// In-memory span recorder for the traced mode. Spans stay in memory and
// are written once, when the run ends. A disabled tracer records nothing
// and costs one branch. Not thread-safe: only the driver's main thread
// records.
#ifndef QBENCH_TRACE_H_
#define QBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "metrics.h"

namespace qbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names, fixed so every tracer shares one numbering.
enum SpanName : int {
  kSpanSetup,
  kSpanSession,
  kSpanBlock,
  kSpanLadderStep,
  kSpanCapacity,
  kSpanDataset,
  kSpanFootprints,
  kSpanExecute,
  kSpanConvergedFor,
  kSpanIndexStats,
  kSpanColumnMemory,
  kSpanCheckInvariants,
  kSpanSchedulerStats,
  kSpanServerStart,
  kSpanEncode,
  kSpanSend,
  kSpanRecv,
  kSpanDecode,
  kSpanReplay,
  kSpanOracle,
  kSpanWarmPass,
  kSpanNameCount
};

inline const char* SpanNameText(int name) {
  static const char* const kNames[kSpanNameCount] = {
      "setup",         "session",        "block",
      "ladder_step",   "capacity",       "datagen.dataset",
      "datagen.footprints",
      "quasii.execute", "quasii.converged_for", "quasii.stats",
      "quasii.column_memory", "quasii.check_invariants",
      "task_scheduler.stats", "server.start", "request.encode",
      "wire.send",     "wire.recv",      "request.decode",
      "recorder.replay", "scan.oracle",  "quasii.warm_pass"};
  return name >= 0 && name < kSpanNameCount ? kNames[name] : "?";
}

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its handle (-1 when disabled).
  int Begin(int name, int parent = -1, std::uint64_t op = 0) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.op = op;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
  }

  void End(int handle) {
    if (handle >= 0) spans_[static_cast<std::size_t>(handle)].end_ns = NowNs();
  }

  /// Records an already-timed interval (a caller that needs the clock
  /// readings anyway takes them once).
  int Add(int name, std::int64_t start_ns, std::int64_t end_ns, int parent,
          std::uint64_t op) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start_ns, end_ns, parent, op});
    return static_cast<int>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span (with its self time) to `path`.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    const std::vector<std::int64_t> self = SelfTimes(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":\"" << SpanNameText(s.name) << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op
          << ",\"self_ns\":" << self[i] << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Scoped span.
class SpanScope {
 public:
  SpanScope(Tracer& t, int name, int parent = -1, std::uint64_t op = 0)
      : t_(t), h_(t.Begin(name, parent, op)) {}
  ~SpanScope() { t_.End(h_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int handle() const { return h_; }

 private:
  Tracer& t_;
  int h_;
};

}  // namespace qbench

#endif  // QBENCH_TRACE_H_
