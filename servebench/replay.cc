#include "replay.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "clftj/plan.h"
#include "engine/reuse.h"
#include "lftj/trie_join.h"
#include "query/parser.h"
#include "server/protocol.h"

namespace servebench {

namespace {

using clftj::CrossQueryReuse;
using clftj::Database;
using clftj::ExecStats;
using clftj::ShapeCaches;

std::uint64_t ViewBytes(const clftj::TrieJoinSubstrate& substrate) {
  std::uint64_t bytes = 0;
  for (const clftj::AtomView& view : substrate.views()) {
    for (const auto* trie : {&view.trie, &view.delta_add, &view.delta_del}) {
      if (*trie != nullptr) bytes += (*trie)->MemoryBytes();
    }
  }
  return bytes;
}

/// Every persistent shape cache a replay has been handed by Prepare, kept
/// alive so their counters survive LRU eviction. Read only while no replay
/// thread is running, except from the single client of a write workload.
class CacheCollector {
 public:
  void Note(const std::shared_ptr<ShapeCaches>& caches) {
    std::lock_guard<std::mutex> lock(mu_);
    caches_.emplace(caches.get(), caches);
  }

  std::vector<std::shared_ptr<ShapeCaches>> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::shared_ptr<ShapeCaches>> out;
    for (const auto& entry : caches_) out.push_back(entry.second);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<const ShapeCaches*, std::shared_ptr<ShapeCaches>> caches_;
};

std::uint64_t Entries(const std::vector<std::shared_ptr<ShapeCaches>>& all) {
  std::uint64_t n = 0;
  for (const auto& c : all) n += c->count.size() + c->eval.size();
  return n;
}

std::pair<std::uint64_t, std::uint64_t> HitsMisses(
    const std::vector<std::shared_ptr<ShapeCaches>>& all) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& c : all) {
    const ExecStats count = c->count.AggregatedStats();
    const ExecStats eval = c->eval.AggregatedStats();
    hits += count.cache_hits + eval.cache_hits + c->count.HotHits() +
            c->eval.HotHits();
    misses += count.cache_misses + eval.cache_misses;
  }
  return {hits, misses};
}

/// Per-thread sums, merged in client order after the threads join.
struct Acc {
  std::vector<double> request_ms;
  std::vector<std::uint64_t> counts;
  ExecStats engine;
  ExecStats reuse;
  std::uint64_t trie_bytes = 0;
  std::uint64_t tuples = 0;
  std::size_t runs = 0;
  std::size_t deltas = 0;
  std::vector<double> evicted_per_delta;
};

/// At most `n` holders at once: a service's worker pool, so the replay runs
/// no more requests side by side than the service did.
class Slots {
 public:
  explicit Slots(int n) : free_(std::max(1, n)) {}

  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    freed_.wait(lock, [this] { return free_ > 0; });
    --free_;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++free_;
    }
    freed_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable freed_;
  int free_;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, Database* db) : spec_(spec), db_(db) {
    for (const ServiceSpec& s : spec.services) {
      slots_.push_back(std::make_unique<Slots>(s.workers));
      if (!s.reuse) {
        reuse_.push_back(nullptr);
        continue;
      }
      // Same construction as QueryService's reuse layer.
      clftj::ReuseOptions options;
      const int probers =
          std::max(1, s.workers) * std::max(1, s.engine_options.threads);
      reuse_.push_back(std::make_unique<CrossQueryReuse>(
          options, clftj::PlannerOptions{}, s.engine_options.cache, probers));
    }
  }

  const CacheCollector& collector() const { return collector_; }
  const Database& db() const { return *db_; }

  std::uint64_t SubstrateBytes() const {
    std::uint64_t bytes = 0;
    for (const auto& r : reuse_) {
      if (r != nullptr) bytes += r->registry().CachedBytes();
    }
    return bytes;
  }

  /// Runs one op; appends its time and answer to *acc.
  void Run(const Op& op, std::int64_t rid, ThreadTrace* trace, Acc* acc) {
    Slots& slots = *slots_[op.service];
    slots.Acquire();
    const std::int64_t start = NowNs();
    clftj::QueryResponse response;
    {
      Span root(trace, "request", rid);
      if (op.request.kind == "delta") {
        ApplyDelta(op, rid, trace, &response);
        ++acc->deltas;
      } else {
        Execute(op, rid, trace, acc, &response);
        ++acc->runs;
      }
      std::vector<std::string> lines;
      {
        Span s(trace, "server.FormatResponse", rid);
        lines = clftj::FormatResponse(response);
      }
      clftj::QueryResponse parsed;
      {
        Span s(trace, "server.ParseResponse", rid);
        if (!clftj::ParseResponse(lines, &parsed, nullptr)) {
          parsed.status = clftj::RunStatus::kInternal;
        }
      }
      response = std::move(parsed);
    }
    acc->request_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    slots.Release();
    acc->counts.push_back(response.status == clftj::RunStatus::kOk
                              ? response.count
                              : ~std::uint64_t{0});
    if (op.request.mode == "eval" && op.request.kind == "run") {
      // Eval answers are compared by count and checksum: fold the checksum
      // into the recorded answer.
      acc->counts.back() ^= Checksum(response.tuples);
    }
  }

 private:
  void ApplyDelta(const Op& op, std::int64_t rid, ThreadTrace* trace,
                  clftj::QueryResponse* response) {
    if (spec_.writes) {
      tracked_ = collector_.All();
      entries_before_delta_ = Entries(tracked_);
    }
    clftj::DeltaResult result;
    bool ok;
    {
      Span s(trace, "data.ApplyDelta", rid);
      ok = db_->ApplyDelta(op.request.delta, nullptr, &result);
    }
    response->status = ok ? clftj::RunStatus::kOk : clftj::RunStatus::kBadQuery;
    response->count = result.applied_adds + result.applied_deletes;
    delta_pending_ = true;
  }

  void Execute(const Op& op, std::int64_t rid, ThreadTrace* trace, Acc* acc,
               clftj::QueryResponse* response) {
    std::optional<clftj::Query> q;
    {
      Span s(trace, "query.ParseQuery", rid);
      q = clftj::ParseQuery(op.request.query_text);
    }
    const ServiceSpec& svc = spec_.services[op.service];
    clftj::EngineOptions options = svc.engine_options;
    CrossQueryReuse* reuse = reuse_[op.service].get();
    CrossQueryReuse::Prepared prepared;
    if (reuse != nullptr) {
      {
        Span s(trace, "engine.Prepare", rid);
        prepared = reuse->Prepare(*q, *db_, &acc->reuse);
      }
      if (prepared.caches != nullptr) {
        collector_.Note(prepared.caches);
        if (op.request.mode == "count") {
          options.shared_count_cache = &prepared.caches->count;
        } else {
          options.shared_eval_cache = &prepared.caches->eval;
        }
      }
      if (delta_pending_ && spec_.writes) {
        // The first Prepare after a delta runs the reuse layer's targeted
        // invalidation; what it removed from the caches resident before
        // the delta is that delta's eviction.
        acc->evicted_per_delta.push_back(
            static_cast<double>(entries_before_delta_ - Entries(tracked_)));
        delta_pending_ = false;
      }
    } else {
      {
        Span s(trace, "td.CachedPlan::Resolve", rid);
        prepared.plan = std::make_shared<const clftj::CachedPlan>(
            clftj::CachedPlan::Resolve(*q, *db_, std::nullopt,
                                       clftj::PlannerOptions{}, options.cache));
      }
      {
        Span s(trace, "trie.TrieJoinSubstrate", rid);
        prepared.substrate = std::make_shared<const clftj::TrieJoinSubstrate>(
            *q, *db_, prepared.plan->order);
      }
    }
    options.prepared_plan = prepared.plan;
    options.prepared_substrate = prepared.substrate;
    acc->trie_bytes += ViewBytes(*prepared.substrate);
    clftj::RunLimits limits;
    limits.timeout_seconds = static_cast<double>(kDeadlineMs) / 1000.0;
    clftj::RunResult result;
    {
      Span s(trace, "clftj.join", rid);
      const std::unique_ptr<clftj::JoinEngine> engine =
          clftj::MakeEngine(svc.engine, options);
      if (op.request.mode == "count") {
        result = engine->Count(*q, *db_, limits);
      } else {
        result = engine->Evaluate(
            *q, *db_,
            [response](const Tuple& t) { response->tuples.push_back(t); },
            limits);
      }
    }
    response->status = result.status;
    response->message = result.message;
    response->count = result.count;
    response->stats = result.stats;
    acc->engine.Merge(result.stats);
    acc->tuples += response->tuples.size();
  }

  const WorkloadSpec& spec_;
  Database* db_;
  std::vector<std::unique_ptr<CrossQueryReuse>> reuse_;
  std::vector<std::unique_ptr<Slots>> slots_;
  CacheCollector collector_;
  // Write workloads have one client, so these need no lock.
  bool delta_pending_ = false;
  std::uint64_t entries_before_delta_ = 0;
  std::vector<std::shared_ptr<ShapeCaches>> tracked_;
};

double Mean(double total, std::size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double NsToMs(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Ratio(double part, double whole) {
  return whole <= 0.0 ? 0.0 : part / whole;
}

}  // namespace

Replay RunReplay(const WorkloadSpec& spec,
                 const std::vector<std::vector<Op>>& ops,
                 const std::vector<Sample>& served,
                 const ExpectedMap& expected, bool traced) {
  const std::unique_ptr<Database> db = MakeDataset();
  Runner runner(spec, db.get());
  {
    Acc scratch;
    for (const Op& op : spec.warmup) runner.Run(op, -1, nullptr, &scratch);
  }
  const auto base = HitsMisses(runner.collector().All());

  const std::int64_t epoch = NowNs();
  std::vector<Acc> accs(ops.size());
  std::vector<std::unique_ptr<ThreadTrace>> traces(ops.size());
  std::vector<std::int64_t> offset(ops.size(), 0);
  for (std::size_t c = 1; c < ops.size(); ++c) {
    offset[c] = offset[c - 1] + static_cast<std::int64_t>(ops[c - 1].size());
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < ops.size(); ++c) {
    if (traced) {
      traces[c] = std::make_unique<ThreadTrace>(static_cast<int>(c), epoch);
    }
    threads.emplace_back([&, c] {
      for (std::size_t i = 0; i < ops[c].size(); ++i) {
        runner.Run(ops[c][i], offset[c] + static_cast<std::int64_t>(i),
                   traces[c].get(), &accs[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Replay out;
  std::size_t k = 0;
  for (std::size_t c = 0; c < ops.size(); ++c) {
    const Acc& a = accs[c];
    for (std::size_t i = 0; i < ops[c].size(); ++i, ++k) {
      const Op& op = ops[c][i];
      out.info.emplace_back(op.cls, op.shape);
      // The answer the replay must reproduce: the stored one, or for
      // read-write (no stored answer) the verified served one.
      std::uint64_t want;
      const auto it = expected.find(ExpectedKey(op));
      if (op.request.kind == "delta") {
        want = op.expect_applied;
      } else if (it != expected.end() && !spec.writes) {
        want = it->second.count;
        if (op.request.mode == "eval") want ^= it->second.checksum;
      } else if (k < served.size() && served[k].ok()) {
        want = served[k].count;
      } else {
        continue;
      }
      if (a.counts[i] != want) ++out.wrong;
    }
    out.request_ms.insert(out.request_ms.end(), a.request_ms.begin(),
                          a.request_ms.end());
    out.engine_stats.Merge(a.engine);
    out.reuse_stats.Merge(a.reuse);
    out.trie_bytes += a.trie_bytes;
    out.tuples += a.tuples;
    out.runs += a.runs;
    out.deltas += a.deltas;
    out.evicted_per_delta.insert(out.evicted_per_delta.end(),
                                 a.evicted_per_delta.begin(),
                                 a.evicted_per_delta.end());
    if (traces[c] != nullptr) {
      out.spans.insert(out.spans.end(), traces[c]->spans().begin(),
                       traces[c]->spans().end());
    }
  }
  const std::vector<std::shared_ptr<ShapeCaches>> all =
      runner.collector().All();
  const auto end = HitsMisses(all);
  out.shared_hits = end.first - base.first;
  out.shared_misses = end.second - base.second;
  for (const auto& c : all) {
    // Held by the collector and, while resident, by the reuse layer.
    if (c.use_count() < 2) continue;
    out.shape_cache_bytes += c->count.payload_bytes() + c->eval.payload_bytes();
    out.shape_cache_entries += c->count.size() + c->eval.size();
  }
  out.substrate_bytes = runner.SubstrateBytes();
  out.compactions = runner.db().Get("E").compactions();
  return out;
}

std::vector<Metric> LayerMetrics(const WorkloadSpec& spec, const Timed& timed,
                                 const Replay& untraced, const Replay& traced) {
  const std::map<std::string, SelfTime> self = SelfTimes(traced.spans);
  const auto self_ms = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.self_ms;
  };
  const bool reuse = spec.services.front().reuse;

  // Wire counters of the timed phase's answered runs.
  ExecStats wire;
  std::size_t wire_runs = 0;
  std::uint64_t peak = 0;
  double batched = 0.0;
  double batch_members = 0.0;
  double shared_execs = 0.0;
  double latency_sum = 0.0;
  for (std::size_t i = 0; i < timed.samples.size(); ++i) {
    const Sample& s = timed.samples[i];
    latency_sum += s.latency_ms;
    if (!s.ok() || traced.info[i].second == "delta") continue;
    ++wire_runs;
    wire.Merge(s.stats);
    peak = std::max(peak, s.stats.cache_entries_peak);
    if (s.stats.batch_size > 0) {
      ++batched;
      batch_members += static_cast<double>(s.stats.batch_size);
    }
    shared_execs += static_cast<double>(s.stats.batch_shared_execs);
  }

  // Join time per (class, shape), for the serial/parallel comparison.
  std::map<std::pair<int, std::string>, std::pair<double, int>> join;
  for (const SpanRecord& s : traced.spans) {
    if (std::string(s.name) != "clftj.join") continue;
    auto& slot = join[traced.info[static_cast<std::size_t>(s.request)]];
    slot.first += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++slot.second;
  }
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  for (const auto& [key, total] : join) {
    if (spec.name != "cold-count" || key.first != 0) continue;
    const auto par = join.find({1, key.second});
    if (par == join.end()) continue;
    serial_ms += total.first / total.second;
    parallel_ms += par->second.first / par->second.second;
  }

  double evicted = 0.0;
  for (const double e : traced.evicted_per_delta) evicted += e;
  // Tracing overhead per request: both replays ran the same requests, so
  // the per-request differences pair equal work.
  std::vector<double> paired;
  for (std::size_t i = 0; i < traced.request_ms.size() &&
                          i < untraced.request_ms.size();
       ++i) {
    paired.push_back(traced.request_ms[i] - untraced.request_ms[i]);
  }
  // In-process time of the traced requests: their root spans.
  double request_ms = 0.0;
  for (const SpanRecord& s : traced.spans) {
    if (s.parent < 0) {
      request_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  const double tuples = static_cast<double>(traced.tuples);

  const double join_ms = self_ms("clftj.join");
  const double cache_hits = reuse
      ? static_cast<double>(traced.shared_hits)
      : static_cast<double>(traced.engine_stats.cache_hits);
  const double cache_misses = reuse
      ? static_cast<double>(traced.shared_misses)
      : static_cast<double>(traced.engine_stats.cache_misses);
  return {
      {"td.plan_ms", "ms",
       reuse ? Mean(NsToMs(traced.reuse_stats.plan_resolve_ns), traced.runs)
             : Mean(self_ms("td.CachedPlan::Resolve"), traced.runs)},
      {"trie.build_ms", "ms",
       reuse ? Mean(NsToMs(traced.reuse_stats.substrate_build_ns), traced.runs)
             : Mean(self_ms("trie.TrieJoinSubstrate"), traced.runs)},
      {"trie.bytes", "B", Mean(static_cast<double>(traced.trie_bytes),
                               traced.runs)},
      {"clftj.join_ms", "ms", Mean(join_ms, traced.runs)},
      {"clftj.memory_accesses", "count",
       Mean(static_cast<double>(wire.memory_accesses), wire_runs)},
      {"clftj.ns_per_access", "ns",
       Ratio(join_ms * 1e6,
             static_cast<double>(traced.engine_stats.memory_accesses))},
      {"clftj.cache_hit_ratio", "ratio",
       Ratio(cache_hits, cache_hits + cache_misses)},
      {"clftj.cache_evictions", "count",
       Mean(static_cast<double>(wire.cache_evictions), wire_runs)},
      {"clftj.cache_entries_peak", "count", static_cast<double>(peak)},
      {"engine.parallel_speedup", "x", Ratio(serial_ms, parallel_ms)},
      {"engine.prepare_ms", "ms", Mean(self_ms("engine.Prepare"), traced.runs)},
      {"engine.plan_hit_ratio", "ratio",
       Ratio(static_cast<double>(wire.plan_cache_hits),
             static_cast<double>(wire.plan_cache_hits) +
                 static_cast<double>(wire.plan_cache_misses))},
      {"engine.substrate_reuse_ratio", "ratio",
       Ratio(static_cast<double>(wire.substrate_reuses),
             static_cast<double>(wire.substrate_reuses) +
                 static_cast<double>(wire.substrate_builds))},
      {"engine.shape_cache_bytes", "B",
       static_cast<double>(traced.shape_cache_bytes)},
      {"engine.shape_cache_entries", "count",
       static_cast<double>(traced.shape_cache_entries)},
      {"engine.substrate_bytes", "B",
       static_cast<double>(traced.substrate_bytes)},
      {"engine.entries_evicted_per_delta", "count",
       Mean(evicted, traced.evicted_per_delta.size())},
      {"server.format_us_per_tuple", "us",
       Ratio(self_ms("server.FormatResponse") * 1e3, tuples)},
      {"server.parse_us_per_tuple", "us",
       Ratio(self_ms("server.ParseResponse") * 1e3, tuples)},
      {"server.overhead_ms", "ms",
       Mean(latency_sum, timed.samples.size()) -
           Mean(request_ms, traced.request_ms.size())},
      {"server.batch_size_mean", "count", Ratio(batch_members, batched)},
      {"server.batch_shared_ratio", "ratio",
       Ratio(shared_execs, static_cast<double>(wire_runs))},
      {"query.parse_us", "us", Mean(self_ms("query.ParseQuery") * 1e3,
                                    traced.runs)},
      {"data.apply_delta_ms", "ms",
       Mean(self_ms("data.ApplyDelta"), traced.deltas)},
      {"data.compactions", "count", static_cast<double>(traced.compactions)},
      {"trace.overhead_ms", "ms", Percentile(paired, 50.0)},
  };
}

}  // namespace servebench
