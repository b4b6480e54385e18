// Serving benchmark driver: runs one workload against an in-process
// QueryService behind a QueryServer on an AF_UNIX socket, driven by
// QueryClient connections from this process, checks every answer and
// prints the metrics. See README.md for the workloads and metrics.
//
//   servebench --workload <cold-count|warm-mix|read-write> --seed <n>
//              --seconds <s> --trace <0|1> --out-dir <dir> --expected <file>
//   servebench --write-expected <file>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit code 0 on a run whose
// answers were all correct, 1 on a wrong answer, 2 on a usage or setup
// error (no result printed).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "replay.h"
#include "serve.h"
#include "trace.h"
#include "util/simd.h"
#include "workloads.h"

namespace servebench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string out_dir;
  std::string expected;
  std::string write_expected;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--expected") {
      args->expected = value;
    } else if (flag == "--write-expected") {
      args->write_expected = value;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0) return false;
  if (!args->write_expected.empty()) return true;
  return !args->workload.empty() && have_seed && args->seconds > 0.0 &&
         !args->out_dir.empty() && !args->expected.empty();
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

/// Returns the memory the torn-down setups freed to the OS and restarts the
/// peak-RSS mark (Linux clear_refs), so that the peak read after the timed
/// phase covers the served state and the timed phase, not the setups before
/// it. False where the kernel does not allow the reset.
bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident memory: VmHWM, or the process-lifetime ru_maxrss when
/// /proc is unavailable.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintRunRecord(const Args& args, const WorkloadSpec& spec, int nproc,
                    const clftj::Database& db) {
  std::printf("# servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("# host nproc=%d simd=%s build=%s\n", nproc,
              clftj::simd::Describe().c_str(), SERVEBENCH_BUILD_TYPE);
  std::printf("# dataset profile=%s edges=%zu\n", kProfile,
              db.Get("E").size());
  std::printf("# loop=closed clients=%d\n", spec.clients);
  for (const ServiceSpec& s : spec.services) {
    const clftj::CacheOptions& cache = s.engine_options.cache;
    std::printf(
        "# service %s engine=%s workers=%d threads=%d reuse=%s batch=%s "
        "cache_capacity=%llu sharing=%s\n",
        s.name.c_str(), s.engine.c_str(), s.workers,
        s.engine == "CLFTJ-P" ? s.engine_options.threads : 1,
        s.reuse ? "on" : "off", s.reuse ? "on" : "off",
        static_cast<unsigned long long>(cache.capacity),
        cache.sharing == clftj::CacheOptions::Sharing::kStriped ? "striped"
                                                                : "private");
  }
}

struct Counts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
};

Counts Tally(const std::vector<Sample>& samples) {
  Counts c;
  for (const Sample& s : samples) {
    ++c.attempted;
    if (!s.ok()) ++c.failed;
    if (s.wrong) ++c.wrong;
  }
  return c;
}

void PrintFailures(const std::vector<Sample>& samples) {
  std::size_t shown = 0;
  for (const Sample& s : samples) {
    if (s.ok() || shown++ >= 10) continue;
    std::printf("# failed client=%d request=%zu status=%s: %s\n", s.client,
                s.index, s.transport_ok ? clftj::RunStatusName(s.status)
                                        : "TRANSPORT",
                s.error.c_str());
  }
}

/// Median client latency per (class, shape), anchored 4-cycles pooled.
void PrintShapes(const WorkloadSpec& spec, const Timed& timed) {
  std::map<std::string, std::vector<double>> by_shape;
  for (const Sample& s : timed.samples) {
    if (!s.ok()) continue;
    const Op& op = timed.ops[s.client][s.index];
    const std::string shape =
        op.shape.rfind("anchor:", 0) == 0 ? "anchor:*" : op.shape;
    by_shape[spec.classes[op.cls] + " " + shape].push_back(s.latency_ms);
  }
  for (const auto& [key, latencies] : by_shape) {
    std::printf("# shape %-28s n=%-5zu p50=%.3f ms\n", key.c_str(),
                latencies.size(), Percentile(latencies, 50.0));
  }
}

void PrintResult(const Counts& counts, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              counts.wrong == 0 ? "true" : "false", counts.attempted,
              counts.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// End-to-end run: set up several times (median reported), then the timed
/// closed loop, then the answer checks.
int RunEndToEnd(const Args& args, const WorkloadSpec& spec, int nproc,
                const clftj::Database& reference,
                const std::vector<Value>& anchors,
                const ExpectedMap& expected, const std::string& sockets) {
  // At least three setups; cheap ones repeat until they add up to two
  // seconds (at most 25), so that their median is steady.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  std::size_t warmup_wrong = 0;
  std::unique_ptr<Harness> harness;
  while (setup_s.size() < 3 || (setup_total_s < 2.0 && setup_s.size() < 25)) {
    harness.reset();
    const std::int64_t start = NowNs();
    std::string error;
    harness = Harness::Start(spec, sockets, &error);
    if (harness == nullptr) {
      std::fprintf(stderr, "servebench: %s\n", error.c_str());
      return 2;
    }
    warmup_wrong += Tally(RunWarmup(spec, *harness, expected)).wrong;
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_total_s += setup_s.back();
  }
  const bool peak_reset = ResetPeakRss();
  Timed timed = RunTimed(spec, *harness, reference, anchors, args.seed,
                         args.seconds, expected);
  const double peak_rss_mb = PeakRssMb();
  harness.reset();
  if (spec.writes) VerifyReadWrite(timed.ops[0], &timed.samples, nproc);

  Counts counts = Tally(timed.samples);
  counts.wrong += warmup_wrong;
  std::size_t ok = 0;
  for (const Sample& s : timed.samples) ok += s.ok();

  std::vector<Metric> metrics = {
      {"setup_s", "s", Percentile(setup_s, 50.0)},
      {"qps", "1/s", static_cast<double>(ok) / timed.seconds},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
  std::printf("# timed %.3f s, %zu attempted, %zu failed, %zu wrong, "
              "fail_ratio=%.6g\n",
              timed.seconds, counts.attempted, counts.failed, counts.wrong,
              counts.attempted == 0
                  ? 0.0
                  : static_cast<double>(counts.failed) /
                        static_cast<double>(counts.attempted));
  std::printf("# peak_rss_mb covers %s\n",
              peak_reset ? "the served state and the timed phase"
                         : "the whole process (peak reset unavailable)");
  std::printf("# setup_s runs:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  for (const LatencySlot& slot : spec.slots) {
    // A failed request keeps its place in the sample at the deadline.
    std::vector<double> latencies;
    for (const Sample& s : timed.samples) {
      if (timed.ops[s.client][s.index].cls != slot.cls) continue;
      latencies.push_back(s.ok() ? s.latency_ms
                                 : static_cast<double>(kDeadlineMs));
    }
    const double value = Percentile(latencies, slot.pct);
    const std::size_t beyond = static_cast<std::size_t>(
        static_cast<double>(latencies.size()) * (100.0 - slot.pct) / 100.0);
    std::printf("# %s = %s = %.4f ms (n=%zu, %zu beyond)\n",
                slot.metric.c_str(), slot.label.c_str(), value,
                latencies.size(), beyond);
    metrics.push_back({slot.metric, "ms", value});
  }
  PrintShapes(spec, timed);
  PrintFailures(timed.samples);
  PrintResult(counts, metrics);
  return counts.wrong == 0 ? 0 : 1;
}

/// Traced run: a shorter socket phase (for client latencies and wire
/// counters), then the same ops replayed in process twice, untraced and
/// traced, for the per-layer split and the tracing overhead.
int RunTraced(const Args& args, const WorkloadSpec& spec, int nproc,
              const clftj::Database& reference,
              const std::vector<Value>& anchors, const ExpectedMap& expected,
              const std::string& sockets) {
  std::string error;
  std::unique_ptr<Harness> harness = Harness::Start(spec, sockets, &error);
  if (harness == nullptr) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 2;
  }
  const Counts warm = Tally(RunWarmup(spec, *harness, expected));
  Timed timed = RunTimed(spec, *harness, reference, anchors, args.seed,
                         args.seconds / 3.0, expected);
  harness.reset();
  if (spec.writes) VerifyReadWrite(timed.ops[0], &timed.samples, nproc);

  const Replay untraced =
      RunReplay(spec, timed.ops, timed.samples, expected, /*traced=*/false);
  const Replay traced =
      RunReplay(spec, timed.ops, timed.samples, expected, /*traced=*/true);

  const std::string spans_path = args.out_dir + "/spans-" + spec.name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
  if (!WriteSpans(spans_path, traced.spans)) {
    std::fprintf(stderr, "servebench: cannot write %s\n", spans_path.c_str());
    return 2;
  }
  std::printf("# spans: %zu written to %s\n", traced.spans.size(),
              spans_path.c_str());
  std::printf("# self time per layer call (traced replay of %zu requests):\n",
              traced.request_ms.size());
  for (const auto& [name, t] : SelfTimes(traced.spans)) {
    std::printf("#   %-24s %8llu spans %12.3f ms self  %10.4f ms/span\n",
                name.c_str(), static_cast<unsigned long long>(t.spans),
                t.self_ms, t.self_ms / static_cast<double>(t.spans));
  }
  std::printf(
      "# omitted: seek vs subtree-cache probe vs factorized expansion inside "
      "clftj.join, shard merge, and service queue wait - they need spans "
      "inside the program\n");

  // Attempts: the socket phase's requests and both replays of them.
  Counts counts = Tally(timed.samples);
  counts.attempted += untraced.request_ms.size() + traced.request_ms.size();
  counts.wrong += warm.wrong + untraced.wrong + traced.wrong;
  counts.failed += untraced.wrong + traced.wrong;
  PrintFailures(timed.samples);
  PrintResult(counts, LayerMetrics(spec, timed, untraced, traced));
  return counts.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --out-dir <dir> --expected <file>\n"
                 "       servebench --write-expected <file>\n");
    return 2;
  }
  const int nproc = Nproc();
  const std::unique_ptr<clftj::Database> reference = MakeDataset();
  const std::vector<Value> anchors = TopDegreeVertices(*reference, kAnchors);
  std::string error;
  if (!args.write_expected.empty()) {
    if (!WriteExpected(args.write_expected, *reference, anchors, &error)) {
      std::fprintf(stderr, "servebench: %s\n", error.c_str());
      return 2;
    }
    return 0;
  }
  WorkloadSpec spec;
  if (!MakeSpec(args.workload, nproc, &spec)) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  ExpectedMap expected;
  if (!LoadExpected(args.expected, *reference, &expected, &error)) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 2;
  }
  PrintRunRecord(args, spec, nproc, *reference);
  const std::string sockets =
      args.out_dir + "/s" + std::to_string(static_cast<long>(getpid()));
  return args.trace ? RunTraced(args, spec, nproc, *reference, anchors,
                                expected, sockets)
                    : RunEndToEnd(args, spec, nproc, *reference, anchors,
                                  expected, sockets);
}
