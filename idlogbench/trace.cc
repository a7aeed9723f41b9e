#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <unordered_map>

#include "bench.h"

namespace idlogbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t Fnv1a64(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  if (rank < 1) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

void Tracer::BeginUnit(std::string_view kind) {
  unit_open_ = true;
  unit_id_ = next_unit_++;
  unit_kind_ = std::string(kind);
  unit_span_id_ = recording_ ? next_id_++ : 0;
  unit_start_ = NowNs();
}

int64_t Tracer::EndUnit() {
  const int64_t end = NowNs();
  if (recording_ && unit_span_id_ != 0) {
    spans_.push_back({unit_span_id_, 0, unit_id_, "bench." + unit_kind_,
                      unit_start_, end});
  }
  unit_open_ = false;
  return end - unit_start_;
}

void Tracer::Record(std::string_view name, int64_t start, int64_t end) {
  // A call outside any unit is a root of its own.
  const uint64_t parent = unit_open_ ? unit_span_id_ : 0;
  spans_.push_back({next_id_++, parent, unit_open_ ? unit_id_ : 0,
                    std::string(name), start, end});
}

std::vector<double> Tracer::SpanMs(std::string_view kind,
                                   std::string_view name) const {
  const std::string root = "bench." + std::string(kind);
  std::unordered_map<uint64_t, double> per_unit;  // unit -> summed ms
  std::vector<uint64_t> order;
  for (const Span& s : spans_) {
    if (s.name == root) {
      if (per_unit.emplace(s.unit, 0.0).second) order.push_back(s.unit);
    }
  }
  for (const Span& s : spans_) {
    auto it = per_unit.find(s.unit);
    if (it != per_unit.end() && s.name == name) {
      it->second += (s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::vector<double> out;
  out.reserve(order.size());
  for (uint64_t u : order) out.push_back(per_unit[u]);
  return out;
}

std::map<std::string, double> Tracer::LayerSelfMs() const {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end_ns - s.start_ns - child_ns[s.id]) * 1e-6;
  }
  return out;
}

double Tracer::UnattributedRatio() const {
  double root_ms = 0;
  for (const Span& s : spans_) {
    if (s.parent == 0) root_ms += (s.end_ns - s.start_ns) * 1e-6;
  }
  if (root_ms <= 0) return 0;
  auto self = LayerSelfMs();
  return self["bench"] / root_ms;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  out << "{\"schema\": \"idlogbench-trace-v1\", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"unit\": " << s.unit << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << (s.start_ns - t0)
        << ", \"end_ns\": " << (s.end_ns - t0) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace idlogbench
