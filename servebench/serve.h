#ifndef SERVEBENCH_SERVE_H_
#define SERVEBENCH_SERVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "server/service.h"
#include "workloads.h"

namespace servebench {

/// Everything a workload serves from: a freshly generated dataset, one
/// QueryService per ServiceSpec and a QueryServer in front of each on its
/// own AF_UNIX socket. Destruction stops the servers before the services.
class Harness {
 public:
  /// Returns null with *error set when a server cannot start.
  static std::unique_ptr<Harness> Start(const WorkloadSpec& spec,
                                        const std::string& socket_prefix,
                                        std::string* error);

  const std::string& socket(int service) const { return sockets_[service]; }

 private:
  Harness() = default;

  std::unique_ptr<clftj::Database> db_;
  std::vector<std::unique_ptr<clftj::QueryService>> services_;
  std::vector<std::unique_ptr<clftj::QueryServer>> servers_;
  std::vector<std::string> sockets_;
};

/// The client's view of one request.
struct Sample {
  int client = 0;
  std::size_t index = 0;  ///< position in the client's sequence
  double latency_ms = 0.0;
  bool transport_ok = false;
  clftj::RunStatus status = clftj::RunStatus::kOk;
  /// Answer checked and wrong. Read-write reads are checked after the run.
  bool wrong = false;
  std::uint64_t count = 0;
  std::uint64_t tuples = 0;
  clftj::ExecStats stats;
  std::string error;

  bool ok() const {
    return transport_ok && status == clftj::RunStatus::kOk && !wrong;
  }
};

/// Closed-loop timed phase: one thread per client, each sending its seeded
/// sequence back to back until about `seconds` have passed, stopping only
/// at a boundary of its draw.
struct Timed {
  std::vector<std::vector<Op>> ops;  ///< per client, in sending order
  std::vector<Sample> samples;
  double seconds = 0.0;
};
Timed RunTimed(const WorkloadSpec& spec, const Harness& harness,
               const clftj::Database& reference,
               const std::vector<Value>& anchors, std::uint64_t seed,
               double seconds, const ExpectedMap& expected);

/// Sends the warm-up ops once through client 0; returns the samples.
std::vector<Sample> RunWarmup(const WorkloadSpec& spec, const Harness& harness,
                              const ExpectedMap& expected);

/// Read-write check: replays the run's deltas in order on a fresh
/// database and compares every read against a reuse-off CLFTJ count of
/// the state it ran on. Marks wrong samples; returns how many were wrong.
/// Counts run on up to `threads` threads.
std::size_t VerifyReadWrite(const std::vector<Op>& ops,
                            std::vector<Sample>* samples, int threads);

/// Percentile `pct` (linear interpolation between closest ranks) of the
/// values; 0 for an empty sample.
double Percentile(std::vector<double> values, double pct);

/// The profile's dataset, generated as every setup generates it.
std::unique_ptr<clftj::Database> MakeDataset();

}  // namespace servebench

#endif  // SERVEBENCH_SERVE_H_
