// The `idlog run` flag table (tools/cli_flags.{h,cc}) checked directly:
// names are unique and documented, the usage text and the README cover
// every flag, the contradiction rules name only table flags and reject
// what they say, every flag parses in both spellings, and the integer
// ranges reject their edges.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.h"

namespace idlog {
namespace {

std::string ReadSource(const std::string& relative) {
  std::string path = std::string(IDLOG_SOURCE_ROOT) + "/" + relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Every `--flag` token inside `text`: "--" followed by a lowercase
// letter, then letters, digits and hyphens.
std::set<std::string> ExtractFlagTokens(const std::string& text) {
  std::set<std::string> flags;
  auto flag_char = [&text](size_t i) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    return std::islower(c) || std::isdigit(c) || c == '-';
  };
  for (size_t pos = text.find("--"); pos != std::string::npos;
       pos = text.find("--", pos + 2)) {
    size_t end = pos + 2;
    if (end >= text.size() ||
        !std::islower(static_cast<unsigned char>(text[end]))) {
      continue;
    }
    while (end < text.size() && flag_char(end)) ++end;
    flags.insert(text.substr(pos, end - pos));
  }
  return flags;
}

const FlagSpec* Find(const std::string& name) {
  for (const FlagSpec& spec : RunFlags()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::set<std::string> TableFlags() {
  std::set<std::string> names;
  for (const FlagSpec& spec : RunFlags()) names.insert(spec.name);
  return names;
}

const FlagRule& RunRequirement() {
  for (const FlagRule& rule : RunFlagRequirements()) {
    if (rule.flag == nullptr) return rule;
  }
  ADD_FAILURE() << "no unconditional requirement (--query PRED)";
  return RunFlagRequirements().front();
}

// A value the parser accepts for `spec` ("a=b" also splits for --csv).
std::string SampleValue(const FlagSpec& spec) {
  if (spec.kind == FlagKind::kUint) {
    return std::to_string(spec.min > 0 ? spec.min : 1);
  }
  return "a=b";
}

// Builds `idlog run p.idl` plus `flags` (each with a sample value) and
// parses it; `inline_flag` is given in the --flag=value spelling.
Result<RunOptions> Parse(const std::vector<std::string>& flags,
                         const std::string& inline_flag = "") {
  std::vector<std::string> args = {"idlog", "run", "p.idl"};
  for (const std::string& name : flags) {
    const FlagSpec* spec = Find(name);
    EXPECT_NE(spec, nullptr) << name;
    if (spec == nullptr) continue;
    if (spec->kind == FlagKind::kBool) {
      args.push_back(name);
    } else if (name == inline_flag) {
      args.push_back(name + "=" + SampleValue(*spec));
    } else {
      args.push_back(name);
      args.push_back(SampleValue(*spec));
    }
  }
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  return ParseRunFlags(static_cast<int>(argv.size()), argv.data());
}

Result<RunOptions> ParseArgs(std::vector<std::string> args) {
  args.insert(args.begin(), {"idlog", "run", "p.idl"});
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  return ParseRunFlags(static_cast<int>(argv.size()), argv.data());
}

// `flags` plus whatever their requirements need: the first alternative
// of each requirement that `flags` leave unmet.
std::vector<std::string> WithRequirements(std::vector<std::string> flags) {
  auto has = [&flags](const std::string& f) {
    for (const std::string& g : flags) {
      if (g == f) return true;
    }
    return false;
  };
  for (const FlagRule& rule : RunFlagRequirements()) {
    if (rule.flag != nullptr && !has(rule.flag)) continue;
    bool met = false;
    for (const char* alt : rule.others) met = met || has(alt);
    if (!met) flags.push_back(rule.others.front());
  }
  return flags;
}

void ExpectRejected(const Result<RunOptions>& result,
                    const std::vector<std::string>& named) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  for (const std::string& flag : named) {
    EXPECT_NE(result.status().message().find(flag), std::string::npos)
        << "'" << result.status().message() << "' does not name " << flag;
  }
}

TEST(CliFlags, NamesAreUniqueAndDocumented) {
  std::set<std::string> seen;
  for (const FlagSpec& spec : RunFlags()) {
    EXPECT_TRUE(seen.insert(spec.name).second) << spec.name << " twice";
    EXPECT_EQ(std::string(spec.name).rfind("--", 0), 0u) << spec.name;
    EXPECT_NE(std::string(spec.help), "") << spec.name << " has no help";
    EXPECT_NE(spec.store, nullptr) << spec.name;
    EXPECT_EQ(spec.kind == FlagKind::kBool, std::string(spec.metavar).empty())
        << spec.name << ": value flags need a metavar, bool flags none";
  }
  // The batch surface: 36 flags at the time the table replaced the
  // hand-written parser. Removing one should be a deliberate edit here.
  EXPECT_EQ(RunFlags().size(), 36u);
}

TEST(CliFlags, UsageTextAndReadmeMentionEveryFlag) {
  const std::set<std::string> usage = ExtractFlagTokens(UsageText());
  const std::set<std::string> readme =
      ExtractFlagTokens(ReadSource("README.md"));
  for (const FlagSpec& spec : RunFlags()) {
    EXPECT_TRUE(usage.count(spec.name) > 0)
        << spec.name << " is missing from UsageText()";
    EXPECT_TRUE(readme.count(spec.name) > 0)
        << spec.name << " is missing from README.md";
  }
}

TEST(CliFlags, RulesNameOnlyTableFlags) {
  const std::set<std::string> table = TableFlags();
  for (const auto* rules : {&RunFlagRequirements(), &RunFlagConflicts()}) {
    for (const FlagRule& rule : *rules) {
      if (rule.flag != nullptr) {
        EXPECT_TRUE(table.count(rule.flag) > 0) << rule.flag;
      }
      EXPECT_FALSE(rule.others.empty());
      for (const char* other : rule.others) {
        EXPECT_TRUE(table.count(other) > 0) << other;
      }
    }
  }
  for (const FlagRule& rule : RunFlagConflicts()) {
    EXPECT_NE(rule.flag, nullptr) << rule.reason;
  }
}

TEST(CliFlags, EveryFlagParsesInBothSpellings) {
  for (const FlagSpec& spec : RunFlags()) {
    std::vector<std::string> flags = WithRequirements({spec.name});
    auto spaced = Parse(flags);
    EXPECT_TRUE(spaced.ok()) << spec.name << ": "
                             << spaced.status().ToString();
    if (spec.kind == FlagKind::kBool) continue;
    auto inlined = Parse(flags, spec.name);
    EXPECT_TRUE(inlined.ok()) << spec.name << "=: "
                              << inlined.status().ToString();
  }
}

TEST(CliFlags, StoresKeepTheirSpecialCases) {
  auto run = ParseArgs({"--query", "q", "--seed", "7", "--jobs", "0",
                        "--max-memory-mb=3", "--csv", "edge=e.csv",
                        "--csv=node=n=1.csv", "--explain-json", "x.json",
                        "--timeout-ms", "250", "--no-tid-pushdown"});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->seed.has_value());
  EXPECT_EQ(*run->seed, 7u);
  EXPECT_GE(run->jobs, 1u);  // 0 = the hardware thread count.
  EXPECT_EQ(run->limits.max_memory_bytes, 3ull << 20);
  EXPECT_EQ(run->limits.timeout_ms, 250);
  ASSERT_EQ(run->csvs.size(), 2u);
  EXPECT_EQ(run->csvs[0].first, "edge");
  EXPECT_EQ(run->csvs[0].second, "e.csv");
  EXPECT_EQ(run->csvs[1].first, "node");
  EXPECT_EQ(run->csvs[1].second, "n=1.csv");
  EXPECT_TRUE(run->explain_analyze);  // Implied by --explain-json ...
  EXPECT_FALSE(run->pushdown);

  auto plan = ParseArgs({"--explain-plan", "--explain-json", "x.json"});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->explain_analyze);  // ... unless --explain-plan.

  auto plain = ParseArgs({"--query", "q"});
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->seed.has_value());
  EXPECT_EQ(plain->jobs, 1u);
  EXPECT_TRUE(plain->pushdown);
}

TEST(CliFlags, EachConflictRejectsItsPair) {
  for (const FlagRule& rule : RunFlagConflicts()) {
    for (const char* other : rule.others) {
      ExpectRejected(Parse(WithRequirements({rule.flag, other})),
                     {rule.flag, other});
    }
  }
}

TEST(CliFlags, EachRequirementRejectsItsAbsence) {
  for (const FlagRule& rule : RunFlagRequirements()) {
    std::set<std::string> avoid(rule.others.begin(), rule.others.end());
    if (rule.flag == nullptr) {
      ExpectRejected(Parse({"--stats"}), {rule.others.front()});
      continue;
    }
    std::vector<std::string> named = {rule.flag};
    named.insert(named.end(), rule.others.begin(), rule.others.end());
    // Satisfy the run requirement without any of this rule's options.
    std::vector<std::string> flags = {rule.flag};
    for (const char* alt : RunRequirement().others) {
      if (avoid.count(alt) == 0) {
        flags.push_back(alt);
        break;
      }
    }
    ExpectRejected(Parse(flags), named);
  }
}

TEST(CliFlags, CheckpointMustNotEqualResume) {
  ExpectRejected(
      ParseArgs({"--query", "q", "--resume", "s", "--checkpoint", "s"}),
      {"--checkpoint", "--resume", "overwrite"});
  EXPECT_TRUE(
      ParseArgs({"--query", "q", "--resume", "s", "--checkpoint", "t"}).ok());
}

TEST(CliFlags, RangesRejectTheirEdges) {
  const std::string past_int64 =
      std::to_string(static_cast<uint64_t>(INT64_MAX) + 1);
  const std::string past_mb = std::to_string((UINT64_MAX >> 20) + 1);
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--jobs", "1025"},
           {"--flight-events", "15"},
           {"--flight-events", "1048577"},
           {"--checkpoint-every-rounds", "0"},
           {"--wal-group-commit", "0"},
           {"--timeout-ms", past_int64},
           {"--max-memory-mb", past_mb},
           {"--max-tuples", "18446744073709551616"},
           {"--seed", "-1"},
           {"--max-iterations", "12x"}}) {
    ExpectRejected(ParseArgs({"--query", "q", flag, value}), {flag, value});
  }
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--jobs", "1024"},
           {"--flight-events", "16"},
           {"--flight-events", "1048576"},
           {"--timeout-ms", std::to_string(INT64_MAX)},
           {"--max-memory-mb", std::to_string(UINT64_MAX >> 20)},
           {"--max-tuples", "18446744073709551615"}}) {
    auto run = ParseArgs({"--query", "q", flag, value});
    EXPECT_TRUE(run.ok()) << flag << " " << value << ": "
                          << run.status().ToString();
  }
}

TEST(CliFlags, NoInputIsDroppedSilently) {
  ExpectRejected(ParseArgs({"--query", "q", "--stats=1"}), {"--stats"});
  ExpectRejected(ParseArgs({"--query", "reachable", "--query", "hop"}),
                 {"--query"});
  ExpectRejected(ParseArgs({"--query", "q", "--seed", "1", "--seed=2"}),
                 {"--seed"});
  ExpectRejected(ParseArgs({"--query", "q", "--trace-out", ""}),
                 {"--trace-out"});
  ExpectRejected(ParseArgs({"--query", "q", "--csv", "edges.csv"}),
                 {"--csv"});
  ExpectRejected(ParseArgs({"--query", "q", "--bogus"}), {"--bogus"});
  ExpectRejected(ParseArgs({"--query"}), {"--query"});
  // The repeatable flags accumulate.
  auto run = ParseArgs({"--query", "q", "--csv", "a=x", "--csv", "b=y",
                        "--fail-at", "s:1", "--fail-at=t:2"});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->csvs.size(), 2u);
  EXPECT_EQ(run->fail_at.size(), 2u);
}

// The durability surface must stay wired into the CLI: these flags are
// load-bearing for the kill-and-resume workflow (a rename would break
// scripts and the CI smoke), so their removal should be a deliberate,
// test-visible act.
TEST(CliUsage, CheckpointAndFaultFlagsExist) {
  const std::set<std::string> table = TableFlags();
  for (const char* flag : {"--checkpoint", "--checkpoint-every-rounds",
                           "--resume", "--fail-at"}) {
    EXPECT_TRUE(table.count(flag) > 0)
        << flag << " is no longer in the batch flag table";
  }
}

TEST(CliUsage, WhyFlagsExist) {
  const std::set<std::string> table = TableFlags();
  for (const char* flag : {"--explain", "--why", "--why-not",
                           "--why-json"}) {
    EXPECT_TRUE(table.count(flag) > 0)
        << flag << " is no longer in the batch flag table";
  }
}

// Storage observability surface: the dbstats and flight-recorder flags
// are what CI's schema smoke and the post-mortem workflow script
// against; keep them a deliberate rename away from disappearing.
TEST(CliUsage, StorageObservabilityFlagsExist) {
  const std::set<std::string> table = TableFlags();
  for (const char* flag : {"--db-stats", "--db-stats-json",
                           "--flight-recorder", "--flight-events"}) {
    EXPECT_TRUE(table.count(flag) > 0)
        << flag << " is no longer in the batch flag table";
  }
}

// Durable-session surface: the WAL, update-script and recovery flags
// are the kill-during-update CI smoke's contract; signal handling
// rides the same path (SIGINT/SIGTERM cancel through the governor),
// so the installer must stay wired into batch mode.
TEST(CliUsage, DurableSessionFlagsExist) {
  const std::set<std::string> table = TableFlags();
  for (const char* flag : {"--wal", "--update-script", "--recover",
                           "--wal-group-commit",
                           "--wal-checkpoint-every"}) {
    EXPECT_TRUE(table.count(flag) > 0)
        << flag << " is no longer in the batch flag table";
  }
  std::string source = ReadSource("tools/idlog_cli.cc");
  EXPECT_NE(source.find("InstallSignalHandlers()"), std::string::npos)
      << "batch mode no longer installs the SIGINT/SIGTERM handlers";
  EXPECT_NE(source.find("SIGTERM"), std::string::npos);
}

}  // namespace
}  // namespace idlog
