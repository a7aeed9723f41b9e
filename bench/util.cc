#include "util.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "common/str_util.h"
#include "obs/metrics.h"

namespace idlog {
namespace bench_util {

void MakeEmpDatabase(Database* db, int depts, int emps_per_dept) {
  for (int d = 0; d < depts; ++d) {
    std::string dept = Numbered("d", d);
    for (int e = 0; e < emps_per_dept; ++e) {
      std::string emp = Numbered("e", d) + "_" + std::to_string(e);
      (void)db->AddRow("emp", {emp, dept});
    }
  }
}

void MakeRandomGraph(Database* db, const std::string& name, int nodes,
                     int edges, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(0, nodes - 1);
  for (int i = 0; i < edges; ++i) {
    std::string from = Numbered("n", dist(rng));
    std::string to = Numbered("n", dist(rng));
    (void)db->AddRow(name, {from, to});
  }
}

void MakeChainGraph(Database* db, const std::string& name, int nodes) {
  for (int i = 0; i + 1 < nodes; ++i) {
    (void)db->AddRow(name, {Numbered("n", i),
                            Numbered("n", i + 1)});
  }
}

void PrintRow(const std::vector<std::string>& cells) {
  std::printf("|");
  for (const std::string& c : cells) std::printf(" %-14s |", c.c_str());
  std::printf("\n");
}

void PrintHeader(const std::vector<std::string>& cells) {
  PrintRow(cells);
  std::printf("|");
  for (size_t i = 0; i < cells.size(); ++i) std::printf("%s|", std::string(16, '-').c_str());
  std::printf("\n");
}

bool WriteBenchMetrics(const std::string& name,
                       const std::vector<LabeledProfile>& runs) {
  MetricsRegistry merged;
  for (const auto& [label, profile] : runs) {
    MetricsRegistry one;
    profile.ToMetrics(&one);
    for (const auto& [key, value] : one.counters()) {
      merged.AddCounter(label + "." + key, value);
    }
    for (const auto& [key, value] : one.gauges()) {
      merged.SetGauge(label + "." + key, value);
    }
    for (const auto& [key, stats] : one.timers()) {
      // Re-prefixing loses min/max granularity only when a timer was
      // observed more than once per run, which ToMetrics never does.
      merged.ObserveDuration(label + "." + key, stats.total_ns);
    }
  }

  std::error_code ec;
  std::filesystem::create_directories("bench_logs", ec);
  const std::string path = "bench_logs/BENCH_" + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << merged.ToJson();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "warning: failed writing %s\n", path.c_str());
    return false;
  }
  std::printf("\nper-rule metrics written to %s\n", path.c_str());
  return true;
}

bool WriteCoreReport(const std::vector<CoreMetric>& metrics) {
  // Group by section, keeping first-appearance order for sections and
  // insertion order for keys: the document is byte-stable run to run
  // except for the wall-time values themselves.
  std::vector<std::string> order;
  std::map<std::string, std::vector<const CoreMetric*>> by_section;
  for (const CoreMetric& m : metrics) {
    auto [it, fresh] = by_section.try_emplace(m.section);
    if (fresh) order.push_back(m.section);
    it->second.push_back(&m);
  }

  auto number = [](double v) {
    if (v == static_cast<double>(static_cast<int64_t>(v))) {
      return std::to_string(static_cast<int64_t>(v));
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return std::string(buf);
  };

  std::string json = "{\"schema\":\"idlog-bench-core-v1\",";
  json += "\"host\":{\"hardware_threads\":" +
          std::to_string(std::thread::hardware_concurrency()) + "},";
  json += "\"sections\":{";
  for (size_t s = 0; s < order.size(); ++s) {
    if (s > 0) json += ",";
    json += "\"" + order[s] + "\":{";
    const auto& rows = by_section[order[s]];
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) json += ",";
      json += "\"" + rows[i]->key + "\":" + number(rows[i]->value);
    }
    json += "}";
  }
  json += "}}\n";

  std::error_code ec;
  std::filesystem::create_directories("bench_logs", ec);
  const std::string path = "bench_logs/BENCH_core.json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << json;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "warning: failed writing %s\n", path.c_str());
    return false;
  }
  std::printf("core report written to %s\n", path.c_str());
  return true;
}

}  // namespace bench_util
}  // namespace idlog
