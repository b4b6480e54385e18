#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve.h"
#include "trace.h"
#include "workloads.h"

namespace servebench {

/// One in-process replay of a timed phase's ops, calling each layer's
/// public entry in the order QueryService does: ParseQuery; then
/// CrossQueryReuse::Prepare, or with reuse off CachedPlan::Resolve and a
/// TrieJoinSubstrate; MakeEngine(...)->Count or ->Evaluate;
/// FormatResponse, then ParseResponse; Database::ApplyDelta for writes.
/// The replay starts from fresh state (dataset, reuse layers, warm-up pass)
/// and runs one thread per client, like the timed phase.
struct Replay {
  std::vector<double> request_ms;  ///< per replayed op, client by client
  std::vector<SpanRecord> spans;   ///< empty unless traced
  std::size_t runs = 0;
  std::size_t deltas = 0;
  std::size_t wrong = 0;
  /// Per replayed op (same order as request_ms): operation class and shape.
  std::vector<std::pair<int, std::string>> info;
  clftj::ExecStats engine_stats;  ///< summed engine RunResult counters
  clftj::ExecStats reuse_stats;   ///< summed CrossQueryReuse::Prepare charges
  std::uint64_t trie_bytes = 0;   ///< summed bytes of the tries runs used
  std::uint64_t tuples = 0;       ///< eval tuples formatted
  /// Persistent-cache hits and misses over the replay, from
  /// StripedCacheManager::AggregatedStats (plus lock-free hot-slot hits).
  std::uint64_t shared_hits = 0;
  std::uint64_t shared_misses = 0;
  std::vector<double> evicted_per_delta;
  std::uint64_t shape_cache_bytes = 0;
  std::uint64_t shape_cache_entries = 0;
  std::uint64_t substrate_bytes = 0;
  std::uint64_t compactions = 0;
};

/// `served` holds the timed phase's samples (answers to cross-check the
/// read-write reads, which have no stored answer).
Replay RunReplay(const WorkloadSpec& spec,
                 const std::vector<std::vector<Op>>& ops,
                 const std::vector<Sample>& served,
                 const ExpectedMap& expected, bool traced);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every per-layer metric, from the timed phase's wire counters and the two
/// replays. Layers a workload does not exercise read 0.
std::vector<Metric> LayerMetrics(const WorkloadSpec& spec, const Timed& timed,
                                 const Replay& untraced, const Replay& traced);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
