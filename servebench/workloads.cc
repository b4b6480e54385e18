#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "query/parser.h"
#include "util/rng.h"

namespace servebench {

namespace {

using clftj::Database;
using clftj::Rng;

struct ShapeText {
  const char* name;
  const char* text;
};

constexpr ShapeText kShapes[] = {
    {"triangle", "E(a,b), E(b,c), E(c,a)"},
    {"4-cycle", "E(a,b), E(b,c), E(c,d), E(d,a)"},
    {"5-cycle", "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)"},
    // A 4-cycle and a triangle sharing vertex a.
    {"4-cycle+triangle",
     "E(a,b), E(b,c), E(c,d), E(d,a), E(a,e), E(e,f), E(f,a)"},
    // LollipopQuery(3, 2): triangle a-b-c with the tail c-d-e.
    {"lollipop", "E(a,b), E(a,c), E(b,c), E(c,d), E(d,e)"},
    // A 4-cycle with the chord a-c.
    {"diamond", "E(a,b), E(b,c), E(c,d), E(d,a), E(a,c)"},
};

constexpr const char* kAnchorPrefix = "anchor:";

std::string TextFor(const std::string& shape) {
  for (const ShapeText& s : kShapes) {
    if (shape == s.name) return s.text;
  }
  const std::string v = shape.substr(std::string(kAnchorPrefix).size());
  return "E(" + v + ",b), E(b,c), E(c,d), E(d," + v + ")";
}

std::string AnchorShape(Value v) { return kAnchorPrefix + std::to_string(v); }

Op MakeRun(int cls, int service, const std::string& shape, const char* mode) {
  Op op;
  op.cls = cls;
  op.service = service;
  op.shape = shape;
  op.request.kind = "run";
  op.request.mode = mode;
  op.request.query_text = TextFor(shape);
  op.request.timeout_ms = kDeadlineMs;
  return op;
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Rng ClientRng(std::uint64_t seed, int client) {
  return Rng(Mix(seed) ^ Mix(static_cast<std::uint64_t>(client) + 1));
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng& rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

// cold-count: each round is every (operation type, shape) pair of the draw
// once, in seeded order. The 4-cycle is drawn four times per operation type
// so that each type's median is a 4-cycle latency (rather than a midpoint
// between two shapes) taken over enough samples to be steady. Bounded
// requests skip the 5-cycle (5.8 s at that cache budget).
class ColdCountStream : public OpStream {
 public:
  ColdCountStream(std::uint64_t seed, int client)
      : rng_(ClientRng(seed, client)) {}

  Op Next() override {
    if (pos_ == round_.size()) {
      round_.clear();
      for (int service = 0; service < 3; ++service) {
        for (const char* shape :
             {"diamond", "lollipop", "4-cycle", "4-cycle", "4-cycle",
              "4-cycle", "4-cycle+triangle", "5-cycle"}) {
          if (service == 2 && std::string(shape) == "5-cycle") continue;
          round_.push_back(MakeRun(service, service, shape, "count"));
        }
      }
      Shuffle(&round_, rng_);
      pos_ = 0;
    }
    return round_[pos_++];
  }

  bool AtBoundary() const override { return pos_ == round_.size(); }

 private:
  Rng rng_;
  std::vector<Op> round_;
  std::size_t pos_ = 0;
};

// A Zipf draw (s = 1) over ranks [0, n) whose uniforms are the golden-ratio
// sequence from a seeded start instead of independent draws: every run's
// mix of ranks then matches the Zipf weights to within a few requests, so
// run-to-run differences come from the system, not from the mix. The seed
// still sets each client's sequence.
class GoldenZipf {
 public:
  GoldenZipf(std::size_t n, Rng& rng) : u_(rng.UniformReal()) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t Next() {
    u_ += 0.6180339887498949;
    u_ -= static_cast<double>(static_cast<int>(u_));
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u_);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
  double u_;
};

// warm-mix: a Zipf draw over six request kinds, ranked so that the 4-cycle
// count dominates the count class and the anchored 4-cycle the eval class;
// anchors are themselves Zipf-drawn over the 64 top-degree vertices.
class WarmMixStream : public OpStream {
 public:
  WarmMixStream(std::vector<Value> anchors, std::uint64_t seed, int client)
      : WarmMixStream(std::move(anchors), ClientRng(seed, client)) {}

  Op Next() override {
    switch (kinds_.Next()) {
      case 0:
        return MakeRun(0, 0, "4-cycle", "count");
      case 1:
        return MakeRun(1, 0, AnchorShape(anchors_[anchor_rank_.Next()]),
                       "eval");
      case 2:
        return MakeRun(0, 0, "triangle", "count");
      case 3:
        return MakeRun(1, 0, "triangle", "eval");
      case 4:
        return MakeRun(0, 0, "lollipop", "count");
      default:
        return MakeRun(0, 0, "5-cycle", "count");
    }
  }

  bool AtBoundary() const override { return true; }

 private:
  WarmMixStream(std::vector<Value> anchors, Rng rng)
      : anchors_(std::move(anchors)),
        kinds_(6, rng),
        anchor_rank_(anchors_.size(), rng) {}

  std::vector<Value> anchors_;
  GoldenZipf kinds_;
  GoldenZipf anchor_rank_;
};

// read-write: cycles of nine reads (three each of the 4-cycle, triangle and
// lollipop counts, in seeded order) followed by one 4-edge DELTA. The edge
// set is simulated alongside, so every delta knows which of its edges are
// new, deleted or re-added and how many tuples it must apply.
class ReadWriteStream : public OpStream {
 public:
  ReadWriteStream(const Database& db, std::uint64_t seed, int client)
      : rng_(ClientRng(seed, client)) {
    const clftj::Relation& e = db.Get("E");
    const clftj::ColumnSpan src = e.Column(0);
    const clftj::ColumnSpan dst = e.Column(1);
    for (std::size_t i = 0; i < e.size(); ++i) {
      AddEdge({src[i], dst[i]});
      vertices_.push_back(src[i]);
      vertices_.push_back(dst[i]);
    }
    std::sort(vertices_.begin(), vertices_.end());
    vertices_.erase(std::unique(vertices_.begin(), vertices_.end()),
                    vertices_.end());
  }

  Op Next() override {
    if (pos_ == cycle_.size()) {
      cycle_.clear();
      for (const char* shape : {"4-cycle", "triangle", "lollipop"}) {
        for (int i = 0; i < 3; ++i) {
          cycle_.push_back(MakeRun(0, 0, shape, "count"));
        }
      }
      Shuffle(&cycle_, rng_);
      cycle_.push_back(MakeDelta());
      pos_ = 0;
    }
    return cycle_[pos_++];
  }

  bool AtBoundary() const override { return pos_ == cycle_.size(); }

 private:
  using Edge = std::pair<Value, Value>;
  struct EdgeHash {
    std::size_t operator()(const Edge& e) const {
      return static_cast<std::size_t>(
          Mix(static_cast<std::uint64_t>(e.first) * 1000003u +
              static_cast<std::uint64_t>(e.second)));
    }
  };

  void AddEdge(const Edge& e) {
    index_[e] = edges_.size();
    edges_.push_back(e);
  }

  void RemoveEdge(const Edge& e) {
    const std::size_t i = index_.at(e);
    index_[edges_.back()] = i;
    edges_[i] = edges_.back();
    edges_.pop_back();
    index_.erase(e);
  }

  // Each of the four edges is a new edge (4 in 10), a delete of an
  // existing edge (3 in 10) or a re-add of an existing edge (3 in 10),
  // all distinct within the delta.
  Op MakeDelta() {
    Op op;
    op.cls = 1;
    op.shape = "delta";
    op.request.kind = "delta";
    op.request.timeout_ms = kDeadlineMs;
    op.request.delta.relation = "E";
    std::vector<Edge> used;
    const auto fresh = [&used](const Edge& e) {
      return std::find(used.begin(), used.end(), e) == used.end();
    };
    std::vector<Edge> adds;
    std::vector<Edge> deletes;
    while (used.size() < 4) {
      const std::uint64_t kind = rng_.Uniform(10);
      if (kind < 4) {
        const Edge e{vertices_[rng_.Uniform(vertices_.size())],
                     vertices_[rng_.Uniform(vertices_.size())]};
        if (e.first == e.second || index_.count(e) > 0 || !fresh(e)) continue;
        adds.push_back(e);
        used.push_back(e);
        ++op.expect_applied;
      } else {
        const Edge e = edges_[rng_.Uniform(edges_.size())];
        if (!fresh(e)) continue;
        used.push_back(e);
        if (kind < 7) {
          deletes.push_back(e);
          ++op.expect_applied;
        } else {
          adds.push_back(e);  // already present: applies nothing
        }
      }
    }
    for (const Edge& e : deletes) {
      RemoveEdge(e);
      op.request.delta.deletes.push_back({e.first, e.second});
    }
    for (const Edge& e : adds) {
      if (index_.count(e) == 0) AddEdge(e);
      op.request.delta.adds.push_back({e.first, e.second});
    }
    return op;
  }

  Rng rng_;
  std::vector<Edge> edges_;
  std::unordered_map<Edge, std::size_t, EdgeHash> index_;
  std::vector<Value> vertices_;
  std::vector<Op> cycle_;
  std::size_t pos_ = 0;
};

std::uint64_t TupleHash(const Tuple& t) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const Value v : t) h = Mix(h ^ static_cast<std::uint64_t>(v));
  return h;
}

std::uint64_t Fingerprint(const Database& db) {
  const clftj::Relation& e = db.Get("E");
  std::vector<Tuple> tuples;
  tuples.reserve(e.size());
  for (std::size_t i = 0; i < e.size(); ++i) {
    tuples.push_back({e.Column(0)[i], e.Column(1)[i]});
  }
  return Checksum(tuples);
}

}  // namespace

bool MakeSpec(const std::string& name, int nproc, WorkloadSpec* spec) {
  *spec = WorkloadSpec();
  spec->name = name;
  if (name == "cold-count") {
    ServiceSpec serial;
    serial.name = "serial";
    serial.reuse = false;
    serial.workers = 1;
    ServiceSpec parallel = serial;
    parallel.name = "parallel";
    parallel.engine = "CLFTJ-P";
    parallel.engine_options.threads = nproc;
    parallel.engine_options.cache.sharing =
        clftj::CacheOptions::Sharing::kStriped;
    ServiceSpec bounded = serial;
    bounded.name = "bounded";
    // About a third of the 4-cycle's 181,498-entry peak.
    bounded.engine_options.cache.capacity = 65536;
    spec->services = {serial, parallel, bounded};
    spec->classes = {"serial", "parallel", "bounded"};
    spec->slots = {{"lat1_ms", "serial_p50_ms", 0, 50.0},
                   {"lat2_ms", "parallel_p50_ms", 1, 50.0},
                   {"lat3_ms", "bounded_p50_ms", 2, 50.0}};
    return true;
  }
  ServiceSpec main;
  main.name = "main";
  spec->services = {main};
  if (name == "warm-mix") {
    spec->clients = 4;
    spec->classes = {"count", "eval"};
    spec->slots = {{"lat1_ms", "count_p50_ms", 0, 50.0},
                   {"lat2_ms", "count_p95_ms", 0, 95.0},
                   {"lat3_ms", "eval_p50_ms", 1, 50.0}};
    for (const char* shape : {"4-cycle", "5-cycle", "lollipop", "triangle"}) {
      spec->warmup.push_back(MakeRun(0, 0, shape, "count"));
    }
    spec->warmup.push_back(MakeRun(1, 0, "triangle", "eval"));
    return true;
  }
  if (name == "read-write") {
    spec->writes = true;
    spec->classes = {"read", "write"};
    spec->slots = {{"lat1_ms", "read_p50_ms", 0, 50.0},
                   {"lat2_ms", "read_p95_ms", 0, 95.0},
                   {"lat3_ms", "write_p50_ms", 1, 50.0}};
    for (const char* shape : {"4-cycle", "triangle", "lollipop"}) {
      spec->warmup.push_back(MakeRun(0, 0, shape, "count"));
    }
    return true;
  }
  return false;
}

std::unique_ptr<OpStream> MakeStream(const WorkloadSpec& spec,
                                     const Database& db,
                                     const std::vector<Value>& anchors,
                                     std::uint64_t seed, int client) {
  if (spec.name == "cold-count") {
    return std::make_unique<ColdCountStream>(seed, client);
  }
  if (spec.name == "warm-mix") {
    return std::make_unique<WarmMixStream>(anchors, seed, client);
  }
  return std::make_unique<ReadWriteStream>(db, seed, client);
}

std::vector<Value> TopDegreeVertices(const Database& db, int k) {
  const clftj::Relation& e = db.Get("E");
  std::unordered_map<Value, std::uint64_t> degree;
  for (int col = 0; col < 2; ++col) {
    for (const Value v : e.Column(col)) ++degree[v];
  }
  std::vector<std::pair<Value, std::uint64_t>> ranked(degree.begin(),
                                                      degree.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<Value> out;
  for (int i = 0; i < k && i < static_cast<int>(ranked.size()); ++i) {
    out.push_back(ranked[i].first);
  }
  return out;
}

std::uint64_t Checksum(const std::vector<Tuple>& tuples) {
  std::uint64_t sum = 0;
  for (const Tuple& t : tuples) sum += TupleHash(t);
  return sum;
}

std::string ExpectedKey(const Op& op) {
  return op.request.mode + ":" + op.shape;
}

bool LoadExpected(const std::string& path, const Database& db,
                  ExpectedMap* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  out->clear();
  std::string line;
  bool fingerprint_ok = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "profile") {
      std::string label;
      std::uint64_t tuples = 0;
      std::uint64_t fingerprint = 0;
      fields >> label >> tuples >> fingerprint;
      fingerprint_ok = label == kProfile && tuples == db.Get("E").size() &&
                       fingerprint == Fingerprint(db);
      if (!fingerprint_ok) {
        *error = path + ": answers were computed for another dataset";
        return false;
      }
      continue;
    }
    Expected e;
    if (!(fields >> e.count >> e.checksum)) {
      *error = path + ": malformed line: " + line;
      return false;
    }
    (*out)[key] = e;
  }
  if (!fingerprint_ok) {
    *error = path + ": no profile line";
    return false;
  }
  return true;
}

bool WriteExpected(const std::string& path, const Database& db,
                   const std::vector<Value>& anchors, std::string* error) {
  std::vector<std::pair<std::string, std::string>> work;  // (key, text)
  for (const ShapeText& s : kShapes) {
    work.emplace_back(std::string("count:") + s.name, s.text);
  }
  work.emplace_back("eval:triangle", TextFor("triangle"));
  for (const Value v : anchors) {
    work.emplace_back("eval:" + AnchorShape(v), TextFor(AnchorShape(v)));
  }
  std::ostringstream body;
  body << "# servebench expected answers: result count and order-independent\n"
          "# tuple checksum per (mode, shape), computed with YTD by\n"
          "# `python3 servebench/run.py --write-expected`.\n";
  body << "profile " << kProfile << ' ' << db.Get("E").size() << ' '
       << Fingerprint(db) << '\n';
  const std::unique_ptr<clftj::JoinEngine> engine = clftj::MakeEngine("YTD");
  for (const auto& [key, text] : work) {
    const std::optional<clftj::Query> q = clftj::ParseQuery(text, error);
    if (!q.has_value()) return false;
    std::vector<Tuple> tuples;
    clftj::RunResult r;
    if (key.rfind("eval:", 0) == 0) {
      r = engine->Evaluate(*q, db, [&](const Tuple& t) { tuples.push_back(t); },
                           clftj::RunLimits{});
    } else {
      r = engine->Count(*q, db, clftj::RunLimits{});
    }
    if (!r.ok()) {
      *error = key + ": YTD failed: " + r.message;
      return false;
    }
    body << key << ' ' << r.count << ' ' << Checksum(tuples) << '\n';
    std::fprintf(stderr, "%s %llu\n", key.c_str(),
                 static_cast<unsigned long long>(r.count));
  }
  std::ofstream out(path);
  out << body.str();
  if (!out.flush()) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace servebench
