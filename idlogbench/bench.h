#ifndef IDLOGBENCH_BENCH_H_
#define IDLOGBENCH_BENCH_H_

// Shared pieces of the IDLOG benchmark harness: clocks, the in-memory
// span recorder, summary statistics and the metric report each
// workload fills in.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace idlogbench {

int64_t NowNs();         ///< Monotonic clock (steady_clock), nanoseconds.
double CpuSeconds();     ///< CPU time of the whole process, seconds.
double PeakRssMb();      ///< getrusage peak resident set, MiB.
uint64_t Fnv1a64(std::string_view bytes, uint64_t h = 1469598103934665603ull);

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// One timed interval. Root spans ("bench.<unit>") cover one unit of
/// the workload — a batch repetition, a set-up, a commit, a recovery —
/// and every span of that unit carries the unit's id. Other spans are
/// named "<layer>.<call>" after the public call they surround.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  uint64_t unit = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Times units and the public calls inside them. Durations are always
/// measured (the untraced run needs them for the end-to-end metrics);
/// spans are kept only while recording is on, in memory, and written
/// out by WriteJson at the end of the run.
class Tracer {
 public:
  void set_recording(bool on) { recording_ = on; }

  void BeginUnit(std::string_view kind);
  /// Closes the open unit and returns its wall time in nanoseconds.
  int64_t EndUnit();

  /// Runs `fn` inside a span named `name`, child of the open unit, and
  /// returns the call's wall time in nanoseconds.
  template <typename F>
  int64_t Call(std::string_view name, F&& fn) {
    const int64_t start = NowNs();
    fn();
    const int64_t end = NowNs();
    if (recording_) Record(name, start, end);
    return end - start;
  }

  /// Per traced unit of `kind`, the summed duration (ms) of spans named
  /// `name`: one sample per unit.
  std::vector<double> SpanMs(std::string_view kind,
                             std::string_view name) const;
  /// Self time (ms) per layer over every recorded span: a span's
  /// duration minus its children's. Root spans count as layer "bench",
  /// time no layer call covers.
  std::map<std::string, double> LayerSelfMs() const;
  /// Share of recorded root-span time that no layer span covers.
  double UnattributedRatio() const;

  bool WriteJson(const std::string& path) const;

 private:
  void Record(std::string_view name, int64_t start, int64_t end);

  bool recording_ = false;
  uint64_t next_id_ = 1;
  uint64_t next_unit_ = 1;
  bool unit_open_ = false;
  uint64_t unit_id_ = 0;
  uint64_t unit_span_id_ = 0;
  std::string unit_kind_;
  int64_t unit_start_ = 0;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

/// What a workload run reports. `metrics` holds every metric the run
/// measured, in print order; the harness selects the ones its JSON line
/// carries.
struct Report {
  bool correct = true;
  std::vector<std::string> errors;  ///< Oracle mismatches and call failures.
  uint64_t attempted = 0;           ///< Public calls made.
  uint64_t failed = 0;              ///< Of those, non-OK Status.
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  ///< Inputs etc.

  void Add(std::string name, double value, std::string unit,
           size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Fail(std::string what) {
    correct = false;
    errors.push_back(std::move(what));
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    ///< Scratch directory for CSV inputs and the WAL.
  std::string trace_out;  ///< Where a traced run writes its spans.
};

/// Workload entry points (workloads.cc). Each runs until done and fills
/// `report`; `tracer` has recording enabled only in a traced run.
void RunTcBatch(const Options& opt, Tracer* tracer, Report* report);
void RunSampleBatch(const Options& opt, Tracer* tracer, Report* report);
void RunUpdateSession(const Options& opt, Tracer* tracer, Report* report);

}  // namespace idlogbench

#endif  // IDLOGBENCH_BENCH_H_
