#include "serve.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "data/snap_profiles.h"
#include "query/parser.h"
#include "server/client.h"
#include "trace.h"

namespace servebench {

using clftj::Database;
using clftj::QueryClient;
using clftj::QueryServer;
using clftj::QueryService;

std::unique_ptr<Database> MakeDataset() {
  return std::make_unique<Database>(
      clftj::MakeSnapDatabase(clftj::SnapProfileByLabel(kProfile)));
}

std::unique_ptr<Harness> Harness::Start(const WorkloadSpec& spec,
                                        const std::string& socket_prefix,
                                        std::string* error) {
  std::unique_ptr<Harness> h(new Harness());
  h->db_ = MakeDataset();
  for (std::size_t i = 0; i < spec.services.size(); ++i) {
    const ServiceSpec& s = spec.services[i];
    clftj::ServiceOptions options;
    options.workers = s.workers;
    options.engine = s.engine;
    options.engine_options = s.engine_options;
    options.reuse.enabled = s.reuse;
    h->services_.push_back(
        spec.writes
            ? std::make_unique<QueryService>(h->db_.get(), options)
            : std::make_unique<QueryService>(
                  static_cast<const Database&>(*h->db_), options));
    h->servers_.push_back(
        std::make_unique<QueryServer>(h->services_.back().get()));
    h->sockets_.push_back(socket_prefix + "-" + std::to_string(i) + ".sock");
    if (!h->servers_.back()->Start(h->sockets_.back(), error)) return nullptr;
  }
  return h;
}

namespace {

clftj::ClientOptions MakeClientOptions() {
  clftj::ClientOptions options;
  // One attempt: a retried failure would hide the failure and its latency.
  options.max_attempts = 1;
  options.request_timeout_ms = kDeadlineMs;
  return options;
}

/// Sends `op` through `client` and checks the answer where it is known up
/// front: stored answers, and delta applied counts.
Sample Drive(QueryClient& client, const Op& op,
             const ExpectedMap& expected) {
  Sample s;
  const std::int64_t start = NowNs();
  const clftj::ClientResult r = client.Run(op.request);
  s.latency_ms = static_cast<double>(NowNs() - start) / 1e6;
  s.transport_ok = r.transport_ok;
  s.status = r.response.status;
  s.count = r.response.count;
  s.tuples = r.response.tuples.size();
  s.stats = r.response.stats;
  if (!r.transport_ok) {
    s.error = r.transport_error;
    return s;
  }
  if (s.status != clftj::RunStatus::kOk) {
    s.error = r.response.message;
    return s;
  }
  if (op.request.kind == "delta") {
    s.wrong = s.count != op.expect_applied;
  } else if (op.request.mode == "eval") {
    const auto it = expected.find(ExpectedKey(op));
    s.wrong = it == expected.end() || s.count != it->second.count ||
              s.tuples != it->second.count ||
              Checksum(r.response.tuples) != it->second.checksum;
  } else {
    // Without a stored answer (read-write reads, whose counts depend on the
    // deltas before them) the check comes after the run: VerifyReadWrite.
    const auto it = expected.find(ExpectedKey(op));
    if (it != expected.end()) s.wrong = s.count != it->second.count;
  }
  if (s.wrong) s.error = "wrong answer for " + op.shape;
  return s;
}

}  // namespace

std::vector<Sample> RunWarmup(const WorkloadSpec& spec, const Harness& harness,
                              const ExpectedMap& expected) {
  std::vector<Sample> out;
  for (const Op& op : spec.warmup) {
    QueryClient client(harness.socket(op.service), MakeClientOptions());
    out.push_back(Drive(client, op, expected));
  }
  return out;
}

Timed RunTimed(const WorkloadSpec& spec, const Harness& harness,
               const Database& reference, const std::vector<Value>& anchors,
               std::uint64_t seed, double seconds,
               const ExpectedMap& expected) {
  // Stored answers hold for the unmodified dataset only.
  const ExpectedMap none;
  const ExpectedMap& stored = spec.writes ? none : expected;
  Timed out;
  out.ops.resize(spec.clients);
  std::vector<std::vector<Sample>> per_client(spec.clients);
  const std::int64_t start = NowNs();
  const auto elapsed_s = [start] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<OpStream> stream =
          MakeStream(spec, reference, anchors, seed, c);
      std::vector<QueryClient> clients;
      for (std::size_t i = 0; i < spec.services.size(); ++i) {
        clients.emplace_back(harness.socket(static_cast<int>(i)),
                             MakeClientOptions());
      }
      // Stop at the first boundary from which one more unit of the draw
      // would end further past the deadline than stopping falls short.
      int units = 0;
      for (;;) {
        if (stream->AtBoundary() && units > 0) {
          const double now = elapsed_s();
          if (now + now / units / 2 >= seconds) break;
        }
        const Op op = stream->Next();
        Sample s = Drive(clients[op.service], op, stored);
        s.client = c;
        s.index = out.ops[c].size();
        out.ops[c].push_back(op);
        per_client[c].push_back(std::move(s));
        if (stream->AtBoundary()) ++units;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.seconds = elapsed_s();
  for (std::vector<Sample>& samples : per_client) {
    for (Sample& s : samples) out.samples.push_back(std::move(s));
  }
  return out;
}

std::size_t VerifyReadWrite(const std::vector<Op>& ops,
                            std::vector<Sample>* samples, int threads) {
  // Database state each read ran on: the snapshot after the deltas before
  // it. Deltas are re-applied to a fresh copy of the dataset, and a delta
  // whose applied count differs from the served one is itself wrong.
  std::vector<std::unique_ptr<Database>> states;
  states.push_back(MakeDataset());
  std::vector<int> state_of(ops.size(), 0);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].request.kind != "delta") {
      state_of[i] = static_cast<int>(states.size()) - 1;
      continue;
    }
    auto next = std::make_unique<Database>(*states.back());
    clftj::DeltaResult result;
    const bool applied = next->ApplyDelta(ops[i].request.delta, nullptr,
                                          &result);
    Sample& s = (*samples)[i];
    if (s.ok() && (!applied || result.applied_adds + result.applied_deletes !=
                                   s.count)) {
      s.wrong = true;
      s.error = "delta applied count differs from the rebuild";
      ++wrong;
    }
    states.push_back(std::move(next));
  }
  std::map<std::pair<int, std::string>, std::uint64_t> truth;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].request.kind != "delta") truth[{state_of[i], ops[i].shape}] = 0;
  }
  std::vector<std::pair<const std::pair<int, std::string>, std::uint64_t>*>
      work;
  for (auto& entry : truth) work.push_back(&entry);
  std::map<std::string, std::string> text_of;
  for (const Op& op : ops) text_of[op.shape] = op.request.query_text;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      const std::unique_ptr<clftj::JoinEngine> engine =
          clftj::MakeEngine("CLFTJ");
      for (std::size_t w; (w = next.fetch_add(1)) < work.size();) {
        const auto& [state, shape] = work[w]->first;
        const std::optional<clftj::Query> q =
            clftj::ParseQuery(text_of.at(shape));
        const clftj::RunResult r =
            engine->Count(*q, *states[state], clftj::RunLimits{});
        if (!r.ok()) failed = true;
        work[w]->second = r.count;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Sample& s = (*samples)[i];
    if (ops[i].request.kind == "delta" || !s.ok()) continue;
    if (failed || s.count != truth.at({state_of[i], ops[i].shape})) {
      s.wrong = true;
      s.error = "wrong answer for " + ops[i].shape;
      ++wrong;
    }
  }
  return wrong;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace servebench
