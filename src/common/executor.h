#ifndef QUASII_COMMON_EXECUTOR_H_
#define QUASII_COMMON_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/query.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"

namespace quasii {

/// Result of one query of a batch: ids for id-producing types (`kKNearest`
/// ids arrive in (distance, id) order), `count` for everything (`kCount`
/// never materializes ids, so there `ids` stays empty).
struct BatchResult {
  std::vector<ObjectId> ids;
  std::uint64_t count = 0;
};

/// Runs a batch of queries against ONE index on a `TaskScheduler`, with
/// per-thread sinks and deterministic result merging: the batch is cut into
/// one contiguous chunk per scheduler thread (its workers plus the helping
/// caller — a pure function of batch size and thread count), each chunk's
/// queries execute in order on one thread with that thread's reused sinks,
/// and every result lands in its query's own slot. With no interleaving
/// mutation, every query's result *set* (and kNN's canonical (distance, id)
/// order) equals the sequential loop's whatever the scheduling; only the
/// emission order inside a range result can vary on a still-cracking
/// adaptive index, since it follows the physical array order the warm-up
/// races to produce.
///
/// Thread safety is the index's own: `SpatialIndex::Execute` serializes
/// reorganizing executions and runs converged/static ones concurrently
/// under the shared lock. The executor adds none of its own locking around
/// the index.
template <int D>
class BatchExecutor {
 public:
  explicit BatchExecutor(TaskScheduler* scheduler) : scheduler_(scheduler) {}

  /// Executes `queries` against `index`, returning per-query results in
  /// query order.
  std::vector<BatchResult> Run(SpatialIndex<D>* index,
                               std::span<const Query<D>> queries) {
    std::vector<BatchResult> results(queries.size());
    const std::uint64_t version_before = index->store().version();
    const std::size_t threads =
        static_cast<std::size_t>(scheduler_->workers()) + 1;
    const std::size_t chunk = (queries.size() + threads - 1) / threads;
    const auto run_chunk = [index, queries, &results](std::size_t begin,
                                                      std::size_t end) {
      CountSink count_sink;
      for (std::size_t i = begin; i < end; ++i) {
        BatchResult& out = results[i];
        if (queries[i].type() == QueryType::kCount) {
          count_sink.Reset();
          index->Execute(queries[i], count_sink);
          out.count = count_sink.count();
        } else {
          // Sink straight into the result slot (a VectorSink is one pointer
          // store) — copying through a scratch vector would fold pure
          // memcpy into every throughput measurement on this path.
          VectorSink sink(&out.ids);
          index->Execute(queries[i], sink);
          out.count = out.ids.size();
        }
      }
    };
    ParallelFor(scheduler_, 0, queries.size(), chunk, run_chunk);
    store_mutated_ = index->store().version() != version_before;
    return results;
  }

  /// Whether the store's mutation epoch moved while the last `Run` was in
  /// flight — i.e. some other thread inserted or erased, so the batch did
  /// not observe one population snapshot.
  bool store_mutated() const { return store_mutated_; }

 private:
  TaskScheduler* scheduler_;
  bool store_mutated_ = false;
};

}  // namespace quasii

#endif  // QUASII_COMMON_EXECUTOR_H_
