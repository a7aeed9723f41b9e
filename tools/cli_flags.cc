#include "cli_flags.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <thread>

namespace idlog {
namespace {

using O = RunOptions;
using S = const std::string&;

// Value kinds, shortened so each table row reads on one line or two.
constexpr FlagKind kBool = FlagKind::kBool;
constexpr FlagKind kString = FlagKind::kString;
constexpr FlagKind kUint = FlagKind::kUint;
constexpr FlagKind kRepeated = FlagKind::kRepeated;

// Stores for the plain cases: the value as text, a switch, a number.
template <std::string O::*field>
void Text(O* o, S v, uint64_t) { o->*field = v; }
template <bool O::*field, bool value = true>
void Set(O* o, S, uint64_t) { o->*field = value; }
template <uint64_t O::*field>
void Number(O* o, S, uint64_t n) { o->*field = n; }

// `--jobs 0`: the hardware thread count. hardware_concurrency() may
// return 0 on exotic platforms; clamp to serial rather than guess.
uint64_t HardwareJobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

}  // namespace

const std::vector<FlagSpec>& RunFlags() {
  static const std::vector<FlagSpec> flags = {
      {"--query", kString, "PRED", "predicate to evaluate and print",
       Text<&O::query>},
      {"--csv", kRepeated, "REL=FILE", "load FILE's rows into relation REL",
       [](O* o, S v, uint64_t) {
         size_t eq = v.find('=');
         o->csvs.emplace_back(v.substr(0, eq), eq == std::string::npos
                                                   ? std::string()
                                                   : v.substr(eq + 1));
       }},
      {"--seed", kUint, "N", "random tid assignment from seed N",
       [](O* o, S, uint64_t n) { o->seed = n; }},
      {"--enumerate", kBool, "", "print every possible answer",
       Set<&O::enumerate>},
      {"--stats", kBool, "", "print evaluation counters", Set<&O::stats>},
      {"--naive", kBool, "", "naive fixpoints instead of semi-naive",
       Set<&O::naive>},
      {"--no-tid-pushdown", kBool, "", "materialize ID-relations in full",
       Set<&O::pushdown, false>},
      {"--jobs", kUint, "N", "threads, caller included (0 = hardware)",
       [](O* o, S, uint64_t n) { o->jobs = n == 0 ? HardwareJobs() : n; },
       0, 1024},
      {"--explain", kString, "\"v1 v2 ...\"",
       "derivation tree of one --query fact", Text<&O::explain>},
      {"--why", kString, "\"pred(c1, ...)\"", "proof tree of a present fact",
       Text<&O::why>},
      {"--why-not", kString, "\"pred(c1, ...)\"",
       "per rule, why an absent fact fails", Text<&O::why_not>},
      {"--why-json", kString, "FILE", "idlog-why-v1 JSON of --why/--why-not",
       Text<&O::why_json>},
      {"--explain-plan", kBool, "", "static plan of every rule; no evaluation",
       Set<&O::explain_plan>},
      {"--explain-analyze", kBool, "", "plan with per-step runtime counters",
       Set<&O::explain_analyze>},
      {"--explain-json", kString, "FILE",
       "EXPLAIN JSON; analyzed unless --explain-plan", Text<&O::explain_json>},
      {"--timeout-ms", kUint, "N", "wall-clock deadline",
       [](O* o, S, uint64_t n) {
         o->limits.timeout_ms = static_cast<int64_t>(n);
       },
       0, INT64_MAX},
      {"--max-tuples", kUint, "N", "derived-tuple budget",
       [](O* o, S, uint64_t n) { o->limits.max_tuples = n; }},
      {"--max-memory-mb", kUint, "N", "approximate memory budget",
       [](O* o, S, uint64_t n) { o->limits.max_memory_bytes = n << 20; },
       0, UINT64_MAX >> 20},
      {"--max-iterations", kUint, "N", "fixpoint-round budget",
       [](O* o, S, uint64_t n) { o->limits.max_iterations = n; }},
      {"--partial", kBool, "", "print partial results when a budget trips",
       Set<&O::partial>},
      {"--profile", kBool, "", "per-rule/per-stratum profile table",
       Set<&O::profile>},
      {"--trace-out", kString, "FILE", "chrome://tracing JSON trace",
       Text<&O::trace_out>},
      {"--metrics-json", kString, "FILE", "idlog-metrics-v1 run report",
       Text<&O::metrics_json>},
      {"--checkpoint", kString, "FILE", "snapshot the run at round ends",
       Text<&O::checkpoint>},
      {"--checkpoint-every-rounds", kUint, "N",
       "checkpoint every N rounds (default 1)", Number<&O::checkpoint_every>,
       1},
      {"--resume", kString, "FILE", "continue a checkpointed run",
       Text<&O::resume>},
      {"--fail-at", kRepeated, "SITE:N[:throw]",
       "fail a failpoint site's Nth pass",
       [](O* o, S v, uint64_t) { o->fail_at.push_back(v); }},
      {"--db-stats", kBool, "", "per-relation storage table",
       Set<&O::db_stats>},
      {"--db-stats-json", kString, "FILE", "idlog-dbstats-v1 JSON",
       Text<&O::db_stats_json>},
      {"--flight-recorder", kString, "FILE",
       "always dump the flight recorder to FILE", Text<&O::flight_recorder>},
      {"--flight-events", kUint, "N",
       "flight-recorder events per thread (default 256)",
       Number<&O::flight_events>, 16, 1u << 20},
      {"--wal", kString, "FILE", "durable session: log FILE, FILE.snap",
       Text<&O::wal>},
      {"--update-script", kString, "FILE",
       "run an update script (begin/insert/.../commit)",
       Text<&O::update_script>},
      {"--recover", kBool, "", "recover the --wal session, skip durable lines",
       Set<&O::recover>},
      {"--wal-group-commit", kUint, "N", "fsync once per N commits (default 1)",
       [](O* o, S, uint64_t n) { o->wal_options.group_commit_every = n; },
       1},
      {"--wal-checkpoint-every", kUint, "N",
       "rotate the log every N commits (0 = never)",
       [](O* o, S, uint64_t n) {
         o->wal_options.checkpoint_every_commits = n;
       }},
  };
  return flags;
}

const std::vector<FlagRule>& RunFlagRequirements() {
  static const std::vector<FlagRule> rules = {
      // An update script can carry its own `query` lines.
      {nullptr,
       {"--query", "--explain-plan", "--why", "--why-not", "--update-script"},
       "--query PRED is required"},
      {"--why-json", {"--why", "--why-not"},
       "--why-json needs --why or --why-not to say what to explain"},
      {"--explain-analyze", {"--query"},
       "--explain-analyze needs --query PRED (use --explain-plan for the "
       "static plan)"},
      {"--explain-json", {"--query", "--explain-plan"},
       "--explain-json without --explain-plan runs EXPLAIN ANALYZE, which "
       "needs --query PRED"},
      {"--checkpoint-every-rounds", {"--checkpoint"},
       "--checkpoint-every-rounds needs --checkpoint FILE"},
      {"--update-script", {"--wal"},
       "--update-script needs --wal FILE (updates are durable)"},
      {"--recover", {"--wal"}, "--recover needs --wal FILE to recover"},
  };
  return rules;
}

const std::vector<FlagRule>& RunFlagConflicts() {
  // Checkpoint/resume and the durable session are separate lifecycles
  // over their own files; mixing them, or asking a restored run to
  // re-decide what its snapshot fixed, is a usage error rather than a
  // silent override.
  static const std::vector<FlagRule> rules = {
      {"--why", {"--why-not"},
       "--why explains a present fact and --why-not an absent one; give "
       "one or the other"},
      {"--resume", {"--csv"},
       "--resume restores the snapshot's database; it cannot be combined "
       "with --csv"},
      {"--resume", {"--seed"},
       "--resume restores the snapshot's tid-assigner state; it cannot be "
       "combined with --seed"},
      {"--resume", {"--naive", "--no-tid-pushdown"},
       "--resume adopts the snapshot's evaluation mode; it cannot be "
       "combined with --naive or --no-tid-pushdown"},
      {"--resume", {"--enumerate"},
       "--resume continues one checkpointed run; it cannot be combined "
       "with --enumerate"},
      {"--resume", {"--explain"},
       "--explain needs provenance recorded from round 0, which a resumed "
       "run no longer has; it cannot be combined with --resume"},
      {"--resume", {"--explain-plan"},
       "--explain-plan does not evaluate, so there is nothing for --resume "
       "to continue"},
      {"--wal", {"--checkpoint", "--resume"},
       "--wal sessions snapshot to FILE.snap on checkpoint; they cannot be "
       "combined with --checkpoint or --resume"},
      {"--wal", {"--enumerate", "--explain-plan"},
       "--wal records one evolving model; it cannot be combined with "
       "--enumerate or --explain-plan"},
      {"--recover", {"--csv"},
       "--recover restores the session snapshot's database; it cannot be "
       "combined with --csv"},
      {"--recover", {"--seed"},
       "--recover restores the session snapshot's tid-assigner state; it "
       "cannot be combined with --seed"},
      {"--recover", {"--naive", "--no-tid-pushdown"},
       "--recover adopts the session snapshot's evaluation mode; it cannot "
       "be combined with --naive or --no-tid-pushdown"},
      {"--checkpoint", {"--enumerate", "--explain-plan"},
       "--checkpoint records one evaluation; it cannot be combined with "
       "--enumerate or --explain-plan"},
  };
  return rules;
}

namespace {

// Table index of `name`, or -1.
int FindFlag(const std::string& name) {
  const std::vector<FlagSpec>& flags = RunFlags();
  for (size_t i = 0; i < flags.size(); ++i) {
    if (name == flags[i].name) return static_cast<int>(i);
  }
  return -1;
}

Result<uint64_t> ParseUint(const FlagSpec& spec, const std::string& text) {
  const std::string what = std::string(spec.name) + ": '" + text + "' ";
  const char* end = text.data() + text.size();
  uint64_t n = 0;
  auto [stop, error] = std::from_chars(text.data(), end, n);
  if (stop != end || error == std::errc::invalid_argument) {
    return Status::InvalidArgument(what + "is not a non-negative integer");
  }
  if (error == std::errc::result_out_of_range || n < spec.min ||
      n > spec.max) {
    return Status::InvalidArgument(what + "is out of range " +
                                   std::to_string(spec.min) + ".." +
                                   std::to_string(spec.max));
  }
  return n;
}

}  // namespace

Result<RunOptions> ParseRunFlags(int argc, const char* const* argv) {
  const std::vector<FlagSpec>& flags = RunFlags();
  RunOptions options;
  options.program_path = argv[2];
  std::vector<bool> given(flags.size(), false);
  for (int i = 3; i < argc; ++i) {
    std::string name = argv[i];
    std::optional<std::string> inline_value;
    size_t eq = name.find('=');
    if (name.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name.resize(eq);
    }
    const int index = FindFlag(name);
    if (index < 0) {
      return Status::InvalidArgument("unknown flag '" + name + "'");
    }
    const FlagSpec& spec = flags[index];
    if (given[index] && spec.kind != FlagKind::kRepeated) {
      return Status::InvalidArgument(name + " is given more than once");
    }
    given[index] = true;
    if (spec.kind == FlagKind::kBool) {
      if (inline_value.has_value()) {
        return Status::InvalidArgument(name + " takes no value (got '" +
                                       name + "=" + *inline_value + "')");
      }
      spec.store(&options, std::string(), 0);
      continue;
    }
    std::string value;
    if (inline_value.has_value()) {
      value = std::move(*inline_value);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (value.empty()) {
      return Status::InvalidArgument(name + " expects " + spec.metavar);
    }
    uint64_t number = 0;
    if (spec.kind == FlagKind::kUint) {
      IDLOG_ASSIGN_OR_RETURN(number, ParseUint(spec, value));
    }
    spec.store(&options, value, number);
  }
  if (!options.explain_json.empty() && !options.explain_plan) {
    options.explain_analyze = true;
  }

  auto is_given = [&](const char* name) { return given[FindFlag(name)]; };
  for (const FlagRule& rule : RunFlagRequirements()) {
    if ((rule.flag == nullptr || is_given(rule.flag)) &&
        std::none_of(rule.others.begin(), rule.others.end(), is_given)) {
      return Status::InvalidArgument(rule.reason);
    }
  }
  for (const FlagRule& rule : RunFlagConflicts()) {
    if (is_given(rule.flag) &&
        std::any_of(rule.others.begin(), rule.others.end(), is_given)) {
      return Status::InvalidArgument(rule.reason);
    }
  }
  // Value-level checks the rule lists cannot express.
  for (const auto& [rel, file] : options.csvs) {
    if (rel.empty() || file.empty()) {
      return Status::InvalidArgument("--csv expects REL=FILE");
    }
  }
  if (!options.resume.empty() && options.checkpoint == options.resume) {
    return Status::InvalidArgument(
        "--checkpoint must not equal the --resume path (a failed resume "
        "would overwrite the snapshot it resumes from)");
  }
  return options;
}

std::string UsageText() {
  const std::vector<FlagSpec>& flags = RunFlags();
  auto left = [](const FlagSpec& spec) {
    std::string s = spec.name;
    if (spec.kind != FlagKind::kBool) s += std::string(" ") + spec.metavar;
    return s;
  };
  size_t width = 0;
  for (const FlagSpec& spec : flags) width = std::max(width, left(spec).size());
  std::string out =
      "usage: idlog                          interactive shell (.help)\n"
      "       idlog run PROGRAM.idl FLAG...  batch run\n"
      "\nbatch flags (a value may also follow '=': --flag=VALUE):\n";
  for (const FlagSpec& spec : flags) {
    std::string l = left(spec);
    out += "  " + l + std::string(width + 2 - l.size(), ' ') + spec.help;
    if (spec.kind == FlagKind::kRepeated) out += " (repeatable)";
    out += "\n";
  }
  return out;
}

}  // namespace idlog
