// The four workloads: input generators, the repetition loops that time
// the engine's public calls, and the independent oracles that check
// every answer.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/idlog_engine.h"
#include "parser/parser.h"
#include "storage/csv.h"
#include "storage/tid_assigner.h"

namespace idlogbench {
namespace {

using idlog::IdlogEngine;
using idlog::Status;

// ------------------------------------------------------------------
// Inputs.

/// splitmix64: a portable stream (std:: distributions differ between
/// standard libraries, so the same seed would not give the same inputs).
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

using Edge = std::pair<int64_t, int64_t>;

struct EdgeHash {
  size_t operator()(const Edge& e) const {
    return std::hash<int64_t>()(e.first * 1000003 + e.second);
  }
};

/// A set of directed edges with O(1) membership, insertion and removal
/// of a random member.
class EdgeSet {
 public:
  bool Add(Edge e) {
    if (!index_.emplace(e, edges_.size()).second) return false;
    edges_.push_back(e);
    return true;
  }
  Edge RemoveAt(size_t i) {
    Edge e = edges_[i];
    index_[edges_.back()] = i;
    edges_[i] = edges_.back();
    edges_.pop_back();
    index_.erase(e);
    return e;
  }
  bool Contains(const Edge& e) const { return index_.count(e) > 0; }
  const std::vector<Edge>& edges() const { return edges_; }
  size_t size() const { return edges_.size(); }

 private:
  std::vector<Edge> edges_;
  std::unordered_map<Edge, size_t, EdgeHash> index_;
};

/// A random directed graph on nodes 0..n-1 with m distinct edges and
/// no self-loops.
EdgeSet RandomGraph(Rng* rng, int64_t n, size_t m) {
  EdgeSet g;
  while (g.size() < m) {
    const int64_t a = static_cast<int64_t>(rng->Below(n));
    const int64_t b = static_cast<int64_t>(rng->Below(n));
    if (a != b) g.Add({a, b});
  }
  return g;
}

std::string EdgesCsv(const EdgeSet& g) {
  std::string out;
  for (const Edge& e : g.edges()) {
    out += std::to_string(e.first) + "," + std::to_string(e.second) + "\n";
  }
  return out;
}

/// The oracle for transitive closure: BFS from every node.
std::set<Edge> Closure(const EdgeSet& g, int64_t n) {
  std::vector<std::vector<int64_t>> adj(n);
  for (const Edge& e : g.edges()) adj[e.first].push_back(e.second);
  std::set<Edge> out;
  std::vector<char> seen(n);
  std::vector<int64_t> queue;
  for (int64_t s = 0; s < n; ++s) {
    std::fill(seen.begin(), seen.end(), 0);
    queue.assign(adj[s].begin(), adj[s].end());
    for (int64_t v : queue) seen[v] = 1;
    for (size_t i = 0; i < queue.size(); ++i) {
      for (int64_t w : adj[queue[i]]) {
        if (!seen[w]) {
          seen[w] = 1;
          queue.push_back(w);
        }
      }
    }
    for (int64_t v = 0; v < n; ++v) {
      if (seen[v]) out.insert({s, v});
    }
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------------
// Answers as the CLI prints them, and their parse for the oracles.

std::string Render(const idlog::Relation& rel,
                   const idlog::SymbolTable& symbols) {
  std::string out;
  for (const idlog::Tuple& t : rel.SortedTuples()) {
    out += "  ";
    out += idlog::TupleToString(t, symbols);
    out += '\n';
  }
  out += "(" + std::to_string(rel.size()) + " tuples)\n";
  return out;
}

using Row = std::vector<std::string>;

/// Splits rendered lines "  (a, b)" back into their fields.
std::vector<Row> ParseRendered(const std::string& text) {
  std::vector<Row> rows;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, 3, "  (") == 0 && eol > pos + 3) {
      Row row;
      size_t f = pos + 3;
      const size_t close = eol - 1;  // The ')'.
      while (f <= close) {
        size_t comma = text.find(", ", f);
        if (comma == std::string::npos || comma > close) comma = close;
        row.emplace_back(text, f, comma - f);
        f = comma + 2;
      }
      rows.push_back(std::move(row));
    }
    pos = eol + 1;
  }
  return rows;
}

int64_t ToInt(const std::string& s) {
  try {
    return std::stoll(s);
  } catch (...) {
    return -1;
  }
}

void CheckClosure(const std::string& rendered, const std::set<Edge>& want,
                  const std::string& what, Report* report) {
  const std::vector<Row> rows = ParseRendered(rendered);
  if (rows.size() != want.size()) {
    report->Fail(what + ": " + std::to_string(rows.size()) +
                 " answers, BFS closure has " + std::to_string(want.size()));
    return;
  }
  for (const Row& r : rows) {
    if (r.size() != 2 || !want.count({ToInt(r[0]), ToInt(r[1])})) {
      report->Fail(what + ": answer not in the BFS closure");
      return;
    }
  }
}

// ------------------------------------------------------------------
// Calls into the engine.

/// Runs one public call inside a span, counts it, and records a failure
/// for a non-OK Status. Returns whether the call succeeded.
template <typename F>
bool Step(Tracer* tracer, Report* report, std::string_view span, F&& call,
          int64_t* ns = nullptr) {
  Status st;
  const int64_t d = tracer->Call(span, [&] { st = call(); });
  if (ns != nullptr) *ns = d;
  ++report->attempted;
  if (!st.ok()) {
    ++report->failed;
    report->Fail(std::string(span) + ": " + st.ToString());
    return false;
  }
  return true;
}

/// Parse and program load. Returns their wall in nanoseconds, or -1
/// when a call failed.
int64_t LoadProgram(IdlogEngine* engine, const std::string& program,
                    Tracer* tracer, Report* report) {
  int64_t parse = 0, load = 0;
  idlog::Program parsed;
  if (!Step(tracer, report, "parser.parse",
            [&] {
              auto r = idlog::ParseProgram(program, &engine->symbols());
              if (r.ok()) parsed = std::move(*r);
              return r.status();
            },
            &parse) ||
      !Step(tracer, report, "analysis.load_program",
            [&] { return engine->LoadProgram(std::move(parsed)); }, &load)) {
    return -1;
  }
  return parse + load;
}

/// CSV load, parse and program load into a fresh engine: the set-up
/// every workload starts from. Returns the set-up wall in nanoseconds,
/// or -1 when a call failed.
int64_t LoadEngine(IdlogEngine* engine, const std::string& rel,
                   const std::string& csv_path, const std::string& program,
                   Tracer* tracer, Report* report) {
  int64_t csv = 0;
  if (!Step(tracer, report, "storage.csv_load",
            [&] {
              return idlog::LoadCsvRelation(&engine->database(), rel,
                                            csv_path);
            },
            &csv)) {
    return -1;
  }
  const int64_t load = LoadProgram(engine, program, tracer, report);
  return load < 0 ? -1 : csv + load;
}

/// Query + CLI rendering of `pred` into `out`.
bool Answer(IdlogEngine* engine, const std::string& pred, Tracer* tracer,
            Report* report, std::string* out) {
  return Step(tracer, report, "core.answer", [&] {
    auto r = engine->Query(pred);
    if (!r.ok()) return r.status();
    *out = Render(**r, engine->symbols());
    return Status::OK();
  });
}

void Teardown(std::unique_ptr<IdlogEngine> engine, Tracer* tracer) {
  tracer->Call("storage.teardown", [&] { engine.reset(); });
}

// ------------------------------------------------------------------
// Batch workloads: one repetition is `idlog run` — a fresh engine, CSV
// load, parse, program load, Run, the query's sorted answers rendered
// as the CLI prints them, and the engine torn down.

struct BatchSpec {
  std::string rel;  ///< The one EDB relation.
  std::string csv_path;
  std::string program;
  std::string query;
  bool random_tids = false;
  uint64_t tid_seed = 0;
};

struct RepResult {
  int64_t wall_ns = 0;
  int64_t setup_ns = 0;
  double cpu_util = 0;
  uint64_t digest = 0;
  size_t answers = 0;
  idlog::EvalStats stats;
  double logical_mb = 0;
};

/// Extra checks on the live engine of the first (oracle) repetition.
using Check = std::function<void(IdlogEngine*, const std::string&, Report*)>;

bool BatchRepetition(const BatchSpec& spec, Tracer* tracer, Report* report,
                     const Check* check, RepResult* out) {
  tracer->BeginUnit("run");
  auto engine = std::make_unique<IdlogEngine>();
  out->setup_ns = LoadEngine(engine.get(), spec.rel, spec.csv_path,
                             spec.program, tracer, report);
  if (out->setup_ns < 0) return false;
  if (spec.random_tids) {
    engine->SetTidAssigner(
        std::make_unique<idlog::RandomTidAssigner>(spec.tid_seed));
  }
  const double cpu0 = CpuSeconds();
  int64_t run_ns = 0;
  if (!Step(tracer, report, "eval.run", [&] { return engine->Run(); },
            &run_ns)) {
    return false;
  }
  out->cpu_util = (CpuSeconds() - cpu0) / (run_ns * 1e-9);
  std::string rendered;
  if (!Answer(engine.get(), spec.query, tracer, report, &rendered)) {
    return false;
  }
  out->stats = engine->stats();
  if (check != nullptr) {
    out->logical_mb = engine->DbStats().total_approx_bytes() / 1048576.0;
    (*check)(engine.get(), rendered, report);
  }
  Teardown(std::move(engine), tracer);
  out->wall_ns = tracer->EndUnit();
  out->digest = Fnv1a64(rendered);
  if (check != nullptr) out->answers = ParseRendered(rendered).size();
  return true;
}

bool SameCounters(const idlog::EvalStats& a, const idlog::EvalStats& b) {
  return a.tuples_considered == b.tuples_considered &&
         a.facts_derived == b.facts_derived &&
         a.facts_inserted == b.facts_inserted &&
         a.iterations == b.iterations && a.index_probes == b.index_probes &&
         a.id_tuples_materialized == b.id_tuples_materialized;
}

void AddEvalCounters(const idlog::EvalStats& s, double run_ms,
                     Report* report) {
  report->Add("eval.tuples_considered", s.tuples_considered, "count");
  report->Add("eval.facts_derived", s.facts_derived, "count");
  report->Add("eval.facts_inserted", s.facts_inserted, "count");
  report->Add("eval.iterations", s.iterations, "count");
  report->Add("eval.index_probes", s.index_probes, "count");
  report->Add("eval.id_tuples_materialized", s.id_tuples_materialized,
              "count");
  report->Add("eval.ns_per_tuple",
              s.tuples_considered ? run_ms * 1e6 / s.tuples_considered : 0,
              "ns");
  report->Add("eval.dedup_ratio",
              s.facts_derived ? double(s.facts_inserted) / s.facts_derived
                              : 0,
              "ratio");
}

/// Reports 0 for the per-layer metrics of layers a workload never calls,
/// so every traced run carries the same metric names.
void AddZero(Report* report, std::initializer_list<const char*> names,
             const char* unit) {
  for (const char* n : names) report->Add(n, 0, unit, 0);
}

void AddTraceMetrics(const Tracer& tracer, const std::vector<double>& traced,
                     const std::vector<double>& untraced, Report* report) {
  report->Add("trace.unattributed_ratio", tracer.UnattributedRatio(), "ratio");
  report->Add("trace.overhead_ms", Median(traced) - Median(untraced), "ms",
              traced.size() + untraced.size());
}

/// Units completed per second of unit wall time.
double PerSecond(const std::vector<double>& unit_ms) {
  double total_ms = 0;
  for (double ms : unit_ms) total_ms += ms;
  return total_ms > 0 ? unit_ms.size() * 1e3 / total_ms : 0;
}

/// Minimum timed units per run, so that short --seconds still give a
/// median.
constexpr size_t kMinUnits = 5;

void RunBatch(const Options& opt, const BatchSpec& spec, const Check& check,
              Tracer* tracer, Report* report) {
  // The first repetition warms the page cache and the allocator and
  // runs the full oracle; it is neither timed nor traced.
  tracer->set_recording(false);
  RepResult first;
  if (!BatchRepetition(spec, tracer, report, &check, &first) ||
      !report->correct) {
    return;
  }

  std::vector<double> wall_ms, setup_s, traced_ms, untraced_ms, cpu_util;
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  for (size_t i = 0; wall_ms.size() < kMinUnits || NowNs() < deadline; ++i) {
    // A traced run alternates traced and untraced repetitions, so that
    // tracing overhead compares like with like.
    const bool traced = opt.trace && i % 2 == 1;
    tracer->set_recording(traced);
    RepResult r;
    if (!BatchRepetition(spec, tracer, report, nullptr, &r)) return;
    if (r.digest != first.digest) {
      report->Fail("repetition " + std::to_string(i) +
                   " printed different answers than the first");
      return;
    }
    if (!SameCounters(r.stats, first.stats)) {
      report->Fail("repetition " + std::to_string(i) +
                   " changed the eval counters");
      return;
    }
    wall_ms.push_back(r.wall_ns * 1e-6);
    setup_s.push_back(r.setup_ns * 1e-9);
    (traced ? traced_ms : untraced_ms).push_back(r.wall_ns * 1e-6);
    if (traced) cpu_util.push_back(r.cpu_util);
  }
  tracer->set_recording(false);

  const size_t n = wall_ms.size();
  if (!opt.trace) {
    report->Add("setup_s", Median(setup_s), "s", n);
    report->Add("op_ms_p50", Median(wall_ms), "ms", n);
    report->Add("ops_per_s", PerSecond(wall_ms), "1/s", n);
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("run_ms_p50", Median(wall_ms), "ms", n);
    report->Add("answers", first.answers, "count");
    return;
  }
  auto med = [&](const char* name) {
    return Median(tracer->SpanMs("run", name));
  };
  const size_t nt = traced_ms.size();
  const double run_ms = med("eval.run");
  report->Add("parser.parse_ms", med("parser.parse"), "ms", nt);
  report->Add("analysis.load_program_ms", med("analysis.load_program"), "ms",
              nt);
  report->Add("storage.csv_load_ms", med("storage.csv_load"), "ms", nt);
  report->Add("storage.teardown_ms", med("storage.teardown"), "ms", nt);
  report->Add("storage.logical_mb", first.logical_mb, "MB");
  report->Add("storage.rss_over_logical", PeakRssMb() / first.logical_mb,
              "ratio");
  report->Add("eval.run_ms", run_ms, "ms", nt);
  AddEvalCounters(first.stats, run_ms, report);
  report->Add("exec.cpu_util", Median(cpu_util), "ratio", nt);
  report->Add("core.answer_ms", med("core.answer"), "ms", nt);
  report->Add("core.answers", first.answers, "count");
  AddZero(report,
          {"store.attach_ms", "store.checkpoint_ms", "store.recover_prepare_ms",
           "store.recover_complete_ms", "session.insert_commit_ms_p50",
           "session.insert_commit_ms_p90", "session.retract_commit_ms_p50",
           "session.recovery_ms"},
          "ms");
  AddZero(report, {"store.wal_bytes_per_op", "store.snapshot_bytes"}, "B");
  AddZero(report, {"session.fallback_ratio"}, "ratio");
  AddTraceMetrics(*tracer, traced_ms, untraced_ms, report);
}

// The declaration matters for update_session: without it, a session
// over integer CSV data writes snapshots that recovery rejects ("tuple
// sort disagrees with type"), an engine defect described in README.md.
constexpr const char* kTcProgram =
    ".decl e(i, i).\n"
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), e(Y, Z).\n";

/// The graph of tc_batch and update_session: the ROADMAP baseline size.
constexpr int64_t kNodes = 300;
constexpr size_t kEdges = 1200;

}  // namespace

void RunTcBatch(const Options& opt, Tracer* tracer, Report* report) {
  Rng rng(opt.seed);
  const EdgeSet graph = RandomGraph(&rng, kNodes, kEdges);
  const std::string csv = EdgesCsv(graph);
  BatchSpec spec;
  spec.rel = "e";
  spec.csv_path = opt.workdir + "/e.csv";
  spec.program = kTcProgram;
  spec.query = "tc";
  if (!WriteFile(spec.csv_path, csv)) {
    report->Fail("cannot write " + spec.csv_path);
    return;
  }
  report->info.push_back({"nodes", std::to_string(kNodes)});
  report->info.push_back({"edges", std::to_string(kEdges)});
  report->info.push_back(
      {"input_digest", Hex(Fnv1a64(spec.program, Fnv1a64(csv)))});

  const std::set<Edge> closure = Closure(graph, kNodes);
  Check check = [&](IdlogEngine*, const std::string& rendered, Report* r) {
    CheckClosure(rendered, closure, "tc", r);
  };
  RunBatch(opt, spec, check, tracer, report);
}

// ------------------------------------------------------------------
// sample_batch: the paper's Example 5 sampling queries over a company.

namespace {

constexpr const char* kSampleProgram =
    "reps(N, D) :- emp[2](N, D, 0).\n"
    "survey(N, D) :- emp[2](N, D, T), T < 2.\n"
    "multi(D) :- emp[2](N, D, 1).\n"
    "ranked(N, D, T) :- emp[2](N, D, T).\n"
    "solo(D) :- reps(N, D), not multi(D).\n";

constexpr size_t kEmployees = 200000;
constexpr size_t kDepartments = 4000;
constexpr size_t kSoloDepartments = 200;

/// Checks the per-department laws of the sampling program: `ranked`
/// numbers each department's employees 0..k-1, `reps`, `survey` and
/// `multi` read that same numbering at T = 0, T < 2 and T = 1, and
/// `solo` holds exactly the one-employee departments.
void CheckSample(IdlogEngine* engine,
                 const std::unordered_map<std::string, std::string>& dept_of,
                 Report* report) {
  // The rendered rows of `pred`; none (and a failure) unless every row
  // has `arity` fields.
  auto rows = [&](const char* pred, size_t arity) {
    auto r = engine->Query(pred);
    ++report->attempted;
    if (!r.ok()) {
      ++report->failed;
      report->Fail(std::string("Query ") + pred + ": " +
                   r.status().ToString());
      return std::vector<Row>();
    }
    std::vector<Row> out = ParseRendered(Render(**r, engine->symbols()));
    for (const Row& row : out) {
      if (row.size() != arity) {
        report->Fail(std::string("sample: ") + pred + " row of wrong arity");
        return std::vector<Row>();
      }
    }
    return out;
  };
  auto fail = [&](const std::string& what) { report->Fail("sample: " + what); };

  std::unordered_map<std::string, size_t> size_of;  // dept -> k
  for (const auto& [name, dept] : dept_of) ++size_of[dept];

  // ranked: one row per employee, tids a bijection onto 0..k-1.
  std::unordered_map<std::string, std::vector<int64_t>> tids;
  std::unordered_map<std::string, std::string> at0, at1;  // dept -> name
  std::set<std::pair<std::string, std::string>> under2;   // (name, dept)
  const std::vector<Row> ranked = rows("ranked", 3);
  if (ranked.size() != dept_of.size()) {
    return fail("ranked has " + std::to_string(ranked.size()) + " rows for " +
                std::to_string(dept_of.size()) + " employees");
  }
  for (const Row& r : ranked) {
    auto it = dept_of.find(r[0]);
    if (it == dept_of.end() || it->second != r[1]) {
      return fail("ranked row is not an employee of its department");
    }
    const int64_t t = ToInt(r[2]);
    tids[r[1]].push_back(t);
    if (t == 0) at0[r[1]] = r[0];
    if (t == 1) at1[r[1]] = r[0];
    if (t == 0 || t == 1) under2.insert({r[0], r[1]});
  }
  for (auto& [dept, ts] : tids) {
    std::sort(ts.begin(), ts.end());
    for (size_t i = 0; i < ts.size(); ++i) {
      if (ts[i] != static_cast<int64_t>(i)) {
        return fail("tids of " + dept + " are not a bijection onto 0..k-1");
      }
    }
  }

  const std::vector<Row> reps = rows("reps", 2);
  if (reps.size() != size_of.size()) return fail("reps is not one per dept");
  for (const Row& r : reps) {
    if (at0[r[1]] != r[0]) return fail("reps disagrees with ranked T = 0");
  }
  std::set<std::pair<std::string, std::string>> survey;
  for (const Row& r : rows("survey", 2)) survey.insert({r[0], r[1]});
  if (survey != under2) return fail("survey is not ranked T < 2");
  size_t survey_want = 0;
  for (const auto& [dept, k] : size_of) survey_want += std::min<size_t>(k, 2);
  if (survey.size() != survey_want) return fail("survey is not min(2, k)");

  std::set<std::string> multi_want, solo_want, multi, solo;
  for (const auto& [dept, k] : size_of) {
    (k >= 2 ? multi_want : solo_want).insert(dept);
  }
  for (const Row& r : rows("multi", 1)) {
    if (at1[r[0]].empty()) return fail("multi disagrees with ranked T = 1");
    multi.insert(r[0]);
  }
  for (const Row& r : rows("solo", 1)) solo.insert(r[0]);
  if (multi != multi_want) return fail("multi is not the k >= 2 departments");
  if (solo != solo_want) return fail("solo is not the one-employee departments");
}

}  // namespace

void RunSampleBatch(const Options& opt, Tracer* tracer, Report* report) {
  // Skewed department sizes: u^3 piles employees onto low-numbered
  // departments; kSoloDepartments more get exactly one employee each, so
  // `solo` has answers on every seed.
  Rng rng(opt.seed);
  std::unordered_map<std::string, std::string> dept_of;
  std::string csv;
  const size_t skewed = kEmployees - kSoloDepartments;
  for (size_t i = 0; i < kEmployees; ++i) {
    size_t d;
    if (i < skewed) {
      const double u = rng.Unit();
      d = std::min(kDepartments - 1,
                   static_cast<size_t>(kDepartments * u * u * u));
    } else {
      d = kDepartments + (i - skewed);
    }
    // Appending (rather than "e" + to_string) avoids a GCC 12
    // -Wrestrict false positive.
    std::string name = "e", dept = "d";
    name += std::to_string(i);
    dept += std::to_string(d);
    csv += name + "," + dept + "\n";
    dept_of.emplace(std::move(name), std::move(dept));
  }
  std::unordered_set<std::string> depts;
  for (const auto& [n, d] : dept_of) depts.insert(d);

  BatchSpec spec;
  spec.rel = "emp";
  spec.csv_path = opt.workdir + "/emp.csv";
  spec.program = kSampleProgram;
  spec.query = "survey";
  spec.random_tids = true;
  spec.tid_seed = opt.seed;
  if (!WriteFile(spec.csv_path, csv)) {
    report->Fail("cannot write " + spec.csv_path);
    return;
  }
  report->info.push_back({"employees", std::to_string(kEmployees)});
  report->info.push_back({"departments", std::to_string(depts.size())});
  report->info.push_back(
      {"input_digest", Hex(Fnv1a64(spec.program, Fnv1a64(csv)))});

  Check check = [&](IdlogEngine* engine, const std::string&, Report* r) {
    CheckSample(engine, dept_of, r);
  };
  RunBatch(opt, spec, check, tracer, report);
}

// ------------------------------------------------------------------
// update_session: a durable session over the tc_batch closure, fed a
// seeded stream of single-op transactions, 4 edge inserts to 1 retract.

void RunUpdateSession(const Options& opt, Tracer* tracer, Report* report) {
  constexpr int kSetups = 3;
  constexpr int kRecoveries = 3;
  IdlogEngine::WalOptions wal_options;
  wal_options.group_commit_every = 1;  // fsync before every Commit returns.

  Rng rng(opt.seed);
  EdgeSet graph = RandomGraph(&rng, kNodes, kEdges);
  const std::string csv = EdgesCsv(graph);
  const std::string csv_path = opt.workdir + "/e.csv";
  if (!WriteFile(csv_path, csv)) {
    report->Fail("cannot write " + csv_path);
    return;
  }
  report->info.push_back({"nodes", std::to_string(kNodes)});
  report->info.push_back({"edges", std::to_string(kEdges)});
  report->info.push_back(
      {"input_digest", Hex(Fnv1a64(kTcProgram, Fnv1a64(csv)))});
  report->info.push_back({"wal_flush", "fsync every commit"});

  // Set-up: fresh engine, CSV load, parse, program load, AttachWal (the
  // initial fixpoint and the base snapshot). Repeated for a median; the
  // last session carries the stream.
  tracer->set_recording(opt.trace);
  std::vector<double> setup_s;
  std::unique_ptr<IdlogEngine> live;
  std::string wal_path;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = opt.workdir + "/wal" + std::to_string(i);
    if (mkdir(dir.c_str(), 0755) != 0) {
      report->Fail("cannot create " + dir);
      return;
    }
    wal_path = dir + "/session.wal";
    live.reset();
    tracer->BeginUnit("setup");
    live = std::make_unique<IdlogEngine>();
    if (LoadEngine(live.get(), "e", csv_path, kTcProgram, tracer, report) < 0 ||
        !Step(tracer, report, "store.attach",
              [&] { return live->AttachWal(wal_path, wal_options); })) {
      return;
    }
    setup_s.push_back(tracer->EndUnit() * 1e-9);
  }
  const idlog::EvalStats attach_stats = live->stats();

  // The stream: single-op transactions until the deadline.
  std::vector<double> all_ms, insert_ms, retract_ms, traced_ms, untraced_ms,
      traced_insert_ms, traced_retract_ms;
  size_t fallbacks = 0;
  uint64_t ops_digest = Fnv1a64("");
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  for (size_t i = 0; all_ms.size() < 2 * kMinUnits || NowNs() < deadline;
       ++i) {
    const bool retract = i % 5 == 4;
    Edge e;
    if (retract) {
      e = graph.RemoveAt(rng.Below(graph.size()));
    } else {
      do {
        e = {static_cast<int64_t>(rng.Below(kNodes)),
             static_cast<int64_t>(rng.Below(kNodes))};
      } while (e.first == e.second || graph.Contains(e));
      graph.Add(e);
    }
    const std::string op = (retract ? "-" : "+") + std::to_string(e.first) +
                           "," + std::to_string(e.second) + ";";
    ops_digest = Fnv1a64(op, ops_digest);
    const bool traced = opt.trace && i % 2 == 1;
    tracer->set_recording(traced);
    idlog::Tuple t = {idlog::Value::Number(e.first),
                      idlog::Value::Number(e.second)};
    tracer->BeginUnit("commit");
    if (!Step(tracer, report, "session.begin", [&] { return live->Begin(); }) ||
        !Step(tracer, report, "session.stage",
              [&] {
                return retract ? live->Retract("e", std::move(t))
                               : live->Insert("e", std::move(t));
              }) ||
        !Step(tracer, report, "session.commit",
              [&] { return live->Commit(); })) {
      return;
    }
    const double ms = tracer->EndUnit() * 1e-6;
    all_ms.push_back(ms);
    (retract ? retract_ms : insert_ms).push_back(ms);
    if (traced) (retract ? traced_retract_ms : traced_insert_ms).push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (!live->last_commit_incremental()) ++fallbacks;
  }
  const size_t commits = all_ms.size();
  const uint64_t wal_bytes = FileBytes(wal_path);
  report->info.push_back({"commits", std::to_string(commits)});
  report->info.push_back({"ops_digest", Hex(ops_digest)});

  // Checkpoint, the live model and its oracle.
  tracer->set_recording(opt.trace);
  tracer->BeginUnit("checkpoint");
  if (!Step(tracer, report, "store.checkpoint",
            [&] { return live->WalCheckpoint(); })) {
    return;
  }
  tracer->EndUnit();
  const uint64_t snapshot_bytes = FileBytes(wal_path + ".snap");
  std::string live_rendered;
  tracer->BeginUnit("answer");
  if (!Answer(live.get(), "tc", tracer, report, &live_rendered)) return;
  tracer->EndUnit();
  const double logical_mb = live->DbStats().total_approx_bytes() / 1048576.0;
  CheckClosure(live_rendered, Closure(graph, kNodes), "live session", report);
  tracer->BeginUnit("teardown");
  Teardown(std::move(live), tracer);
  tracer->EndUnit();
  const size_t answers = ParseRendered(live_rendered).size();

  // Recovery on fresh engines: PrepareRecovery, the same program text,
  // CompleteRecovery. The recovered model must equal the live one.
  std::vector<double> recovery_ms;
  for (int i = 0; i < kRecoveries; ++i) {
    auto engine = std::make_unique<IdlogEngine>();
    tracer->BeginUnit("recover");
    if (!Step(tracer, report, "store.recover_prepare",
              [&] { return engine->PrepareRecovery(wal_path); }) ||
        LoadProgram(engine.get(), kTcProgram, tracer, report) < 0 ||
        !Step(tracer, report, "store.recover_complete",
              [&] { return engine->CompleteRecovery(wal_options); })) {
      return;
    }
    recovery_ms.push_back(tracer->EndUnit() * 1e-6);
    std::string recovered;
    if (!Answer(engine.get(), "tc", tracer, report, &recovered)) return;
    if (recovered != live_rendered) {
      report->Fail("recovered model differs from the live model");
    }
  }
  tracer->set_recording(false);
  if (!report->correct) return;

  if (!opt.trace) {
    report->Add("setup_s", Median(setup_s), "s", setup_s.size());
    report->Add("op_ms_p50", Median(all_ms), "ms", commits);
    report->Add("ops_per_s", PerSecond(all_ms), "1/s", commits);
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("insert_commit_ms_p50", Median(insert_ms), "ms",
                insert_ms.size());
    report->Add("insert_commit_ms_p90", Percentile(insert_ms, 0.9), "ms",
                insert_ms.size());
    report->Add("retract_commit_ms_p50", Median(retract_ms), "ms",
                retract_ms.size());
    report->Add("recovery_ms", Median(recovery_ms), "ms", recovery_ms.size());
    report->Add("answers", answers, "count");
    return;
  }
  auto med = [&](const char* kind, const char* name) {
    return Median(tracer->SpanMs(kind, name));
  };
  report->Add("parser.parse_ms", med("setup", "parser.parse"), "ms", kSetups);
  report->Add("analysis.load_program_ms", med("setup", "analysis.load_program"),
              "ms", kSetups);
  report->Add("storage.csv_load_ms", med("setup", "storage.csv_load"), "ms",
              kSetups);
  report->Add("storage.teardown_ms", med("teardown", "storage.teardown"), "ms");
  report->Add("storage.logical_mb", logical_mb, "MB");
  report->Add("storage.rss_over_logical", PeakRssMb() / logical_mb, "ratio");
  // Evaluation runs inside AttachWal and Commit here; the counters are
  // the initial fixpoint's.
  AddZero(report, {"eval.run_ms"}, "ms");
  AddEvalCounters(attach_stats, 0, report);
  AddZero(report, {"exec.cpu_util"}, "ratio");
  report->Add("core.answer_ms", med("answer", "core.answer"), "ms");
  report->Add("core.answers", answers, "count");
  report->Add("store.attach_ms", med("setup", "store.attach"), "ms", kSetups);
  report->Add("store.wal_bytes_per_op", double(wal_bytes) / commits, "B",
              commits);
  report->Add("store.snapshot_bytes", snapshot_bytes, "B");
  report->Add("store.checkpoint_ms", med("checkpoint", "store.checkpoint"),
              "ms");
  report->Add("store.recover_prepare_ms",
              med("recover", "store.recover_prepare"), "ms", kRecoveries);
  report->Add("store.recover_complete_ms",
              med("recover", "store.recover_complete"), "ms", kRecoveries);
  report->Add("session.insert_commit_ms_p50", Median(traced_insert_ms), "ms",
              traced_insert_ms.size());
  report->Add("session.insert_commit_ms_p90",
              Percentile(traced_insert_ms, 0.9), "ms",
              traced_insert_ms.size());
  report->Add("session.retract_commit_ms_p50", Median(traced_retract_ms), "ms",
              traced_retract_ms.size());
  report->Add("session.recovery_ms", Median(recovery_ms), "ms", kRecoveries);
  report->Add("session.fallback_ratio", double(fallbacks) / commits, "ratio",
              commits);
  AddTraceMetrics(*tracer, traced_ms, untraced_ms, report);
}

}  // namespace idlogbench
