#include "trace.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace servebench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadTrace::ThreadTrace(int thread, std::int64_t epoch_ns)
    : epoch_ns_(epoch_ns), next_id_(static_cast<std::int64_t>(thread) << 40) {
  spans_.reserve(1 << 14);
}

std::size_t ThreadTrace::Begin(const char* name, std::int64_t request) {
  SpanRecord span;
  span.name = name;
  span.id = next_id_++;
  span.parent = open_.empty() ? -1 : spans_[open_.back()].id;
  span.request = request;
  span.start_ns = NowNs() - epoch_ns_;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void ThreadTrace::End(std::size_t slot) {
  spans_[slot].end_ns = NowNs() - epoch_ns_;
  open_.pop_back();
}

std::map<std::string, SelfTime> SelfTimes(
    const std::vector<SpanRecord>& spans) {
  // Children of one span run sequentially on its thread, so the time they
  // cover is the sum of their durations.
  std::unordered_map<std::int64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const SpanRecord& s : spans) {
    const auto it = child_ns.find(s.id);
    const std::int64_t self =
        (s.end_ns - s.start_ns) - (it == child_ns.end() ? 0 : it->second);
    SelfTime& t = out[s.name];
    ++t.spans;
    t.self_ms += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%lld,\"parent\":%lld,\"request\":%lld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
