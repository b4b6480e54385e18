#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/database.h"
#include "engine/engine.h"
#include "server/service.h"

namespace servebench {

using clftj::Tuple;
using clftj::Value;

/// The dataset every workload runs on (data/snap_profiles.h).
inline constexpr const char* kProfile = "wiki-Vote";

/// Anchored 4-cycles in warm-mix draw their anchor from this many of the
/// highest-degree vertices: twice ReuseOptions::max_shape_caches (32), so
/// the anchored tail churns the persistent-cache LRU while hot shapes fit.
inline constexpr int kAnchors = 64;

/// Server-side deadline and client-side response wait of every request:
/// ten times the slowest request any workload sends (a cold 5-cycle,
/// about 2 s), so only a stall reaches it, and a stall then fails the
/// request instead of dropping out of the sample.
inline constexpr std::uint64_t kDeadlineMs = 20000;

/// One request of a workload's seeded sequence.
struct Op {
  int cls = 0;      ///< index into WorkloadSpec::classes
  int service = 0;  ///< index into WorkloadSpec::services
  std::string shape;  ///< shape name ("4-cycle", "anchor:17", "delta")
  clftj::QueryRequest request;
  /// Delta ops: tuples the delta must apply (adds of absent edges plus
  /// deletes of present ones); re-adds of present edges apply nothing.
  std::uint64_t expect_applied = 0;
};

/// One QueryService (and its QueryServer) of a workload.
struct ServiceSpec {
  std::string name;
  std::string engine = "CLFTJ";
  clftj::EngineOptions engine_options;
  bool reuse = true;
  int workers = 2;
};

/// A latency metric: percentile `pct` of class `cls`'s client latencies,
/// printed as end-to-end metric `metric` and labelled `label` in the run
/// record.
struct LatencySlot {
  std::string metric;
  std::string label;
  int cls = 0;
  double pct = 50.0;
};

struct WorkloadSpec {
  std::string name;
  int clients = 1;
  /// Read-write workloads serve a mutable database and check their reads
  /// after the run against a rebuild with the same deltas applied.
  bool writes = false;
  std::vector<ServiceSpec> services;
  std::vector<std::string> classes;
  std::vector<LatencySlot> slots;
  /// Untimed pass before the timed phase (part of setup).
  std::vector<Op> warmup;
};

/// Returns false if `name` is not a workload.
bool MakeSpec(const std::string& name, int nproc, WorkloadSpec* spec);

/// The seeded request sequence of one client.
class OpStream {
 public:
  virtual ~OpStream() = default;
  virtual Op Next() = 0;
  /// True when the ops drawn so far end a whole unit of the draw (a
  /// cold-count round, a read-write cycle): stopping there keeps the run's
  /// mix of shapes exact, which is what keeps its medians comparable
  /// across seeds.
  virtual bool AtBoundary() const = 0;
};

std::unique_ptr<OpStream> MakeStream(const WorkloadSpec& spec,
                                     const clftj::Database& db,
                                     const std::vector<Value>& anchors,
                                     std::uint64_t seed, int client);

/// The `k` vertices of highest total degree in relation E (ties by id).
std::vector<Value> TopDegreeVertices(const clftj::Database& db, int k);

/// Order-independent checksum of a result's tuples.
std::uint64_t Checksum(const std::vector<Tuple>& tuples);

/// Expected answer of one (mode, shape): result count and, for eval, the
/// tuple checksum. Keys are "count:<shape>" and "eval:<shape>".
struct Expected {
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;
};
using ExpectedMap = std::map<std::string, Expected>;

std::string ExpectedKey(const Op& op);

/// Reads the stored answers; false with *error on a missing file, a
/// malformed line, or a dataset fingerprint that differs from `db`'s.
bool LoadExpected(const std::string& path, const clftj::Database& db,
                  ExpectedMap* out, std::string* error);

/// Computes every stored answer with YTD (an engine other than CLFTJ, so
/// the check is independent of the code under test) and writes the file.
bool WriteExpected(const std::string& path, const clftj::Database& db,
                   const std::vector<Value>& anchors, std::string* error);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
