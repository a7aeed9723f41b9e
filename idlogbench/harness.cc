// idlogbench: runs one IDLOG benchmark workload through the engine's
// public functions and prints its metrics.
//
//   idlogbench --workload tc_batch --seed 1 --seconds 10 --trace 0
//              --workdir DIR [--trace-out FILE]
//
// Output: a human-readable block (host, inputs, metrics with unit and
// sample count), then one JSON line with every metric the run measured.
// Exit code 0 only when every oracle check passed and no call failed.

#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

#ifndef IDLOGBENCH_BUILD_TYPE
#define IDLOGBENCH_BUILD_TYPE "unknown"
#endif

namespace idlogbench {
namespace {

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0xF2F52010: return "f2fs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "idlogbench: %s\nusage: idlogbench --workload "
               "tc_batch|sample_batch|update_session --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace idlogbench

int main(int argc, char** argv) {
  using namespace idlogbench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "idlogbench: refusing to report numbers from an unoptimized "
               "build (build type %s)\n",
               IDLOGBENCH_BUILD_TYPE);
  return 3;
#endif
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--workdir") {
      opt.workdir = v;
    } else if (arg == "--trace-out") {
      opt.trace_out = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workdir.empty()) return Usage("--workdir is required");
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  void (*run)(const Options&, Tracer*, Report*) = nullptr;
  if (opt.workload == "tc_batch") {
    run = RunTcBatch;
  } else if (opt.workload == "sample_batch") {
    run = RunSampleBatch;
  } else if (opt.workload == "update_session") {
    run = RunUpdateSession;
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }

  Tracer tracer;
  Report report;
  const int64_t start = NowNs();
  run(opt, &tracer, &report);
  const double wall_s = (NowNs() - start) * 1e-9;
  if (report.attempted == 0) report.Fail("no public call was made");

  std::vector<std::pair<std::string, std::string>> host = {
      {"hardware_threads", std::to_string(hw)},
      {"threads", "1"},  // No workload calls SetThreads.
      {"compiler", Compiler()},
      {"build_type", IDLOGBENCH_BUILD_TYPE},
      {"workdir_fs", FilesystemOf(opt.workdir)},
  };
  std::printf("workload %s  seed %llu  trace %d  wall %.3f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, wall_s);
  for (const auto& [k, v] : host) std::printf("  host.%s: %s\n", k.c_str(), v.c_str());
  for (const auto& [k, v] : report.info) {
    std::printf("  input.%s: %s\n", k.c_str(), v.c_str());
  }
  std::printf("  %-32s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : report.metrics) {
    std::printf("  %-32s %16.6f  %-6s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("  %-32s %16.6f  %-6s %llu\n", "ops_failed_ratio",
              report.attempted ? double(report.failed) / report.attempted : 0.0,
              "ratio", static_cast<unsigned long long>(report.attempted));
  if (opt.trace) {
    std::printf("  layer self time (traced units):\n");
    for (const auto& [layer, ms] : tracer.LayerSelfMs()) {
      std::printf("    %-12s %12.3f ms%s\n", layer.c_str(), ms,
                  layer == "bench" ? "  (unattributed)" : "");
    }
    if (!opt.trace_out.empty() && !tracer.WriteJson(opt.trace_out)) {
      report.Fail("cannot write spans to " + opt.trace_out);
    }
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "idlogbench: %s: %s\n", opt.workload.c_str(),
                 e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"host\": {";
  for (size_t i = 0; i < host.size(); ++i) {
    json += (i ? ", " : "") + JsonString(host[i].first) + ": " +
            JsonString(host[i].second);
  }
  json += "}, \"inputs\": {\"seed\": " + std::to_string(opt.seed);
  for (const auto& [k, v] : report.info) {
    json += ", " + JsonString(k) + ": " + JsonString(v);
  }
  json += "}, \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
