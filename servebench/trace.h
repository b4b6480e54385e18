#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

/// One timed call into a layer. Times are steady-clock nanoseconds since the
/// trace's epoch; `parent` is the id of the enclosing span (-1 for a
/// request's root span). Spans of one request share `request`.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t request = 0;
};

/// Span buffer of one replay thread. Spans stay in memory until the run
/// ends; nothing is written while the replay is timed. Not thread-safe:
/// each replay thread owns one.
class ThreadTrace {
 public:
  /// `thread` keeps span ids unique across the threads of one replay.
  ThreadTrace(int thread, std::int64_t epoch_ns);

  /// Opens a span nested in the innermost open one; returns its slot.
  std::size_t Begin(const char* name, std::int64_t request);
  void End(std::size_t slot);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int64_t epoch_ns_;
  std::int64_t next_id_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  // slots of the open spans, innermost last
};

/// RAII span. A null trace records nothing, which is how the untraced
/// replay runs the identical code path.
class Span {
 public:
  Span(ThreadTrace* trace, const char* name, std::int64_t request)
      : trace_(trace), slot_(trace ? trace->Begin(name, request) : 0) {}
  ~Span() {
    if (trace_ != nullptr) trace_->End(slot_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_;
  std::size_t slot_;
};

/// Steady-clock now in nanoseconds (the epoch every ThreadTrace shares).
std::int64_t NowNs();

/// Per span name: number of spans and summed self time. Self time is a
/// span's duration minus the time its child spans cover.
struct SelfTime {
  std::uint64_t spans = 0;
  double self_ms = 0.0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<SpanRecord>& spans);

/// Writes one JSON object per span per line. Returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
