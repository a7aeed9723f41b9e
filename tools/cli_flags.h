// Batch-mode flags of `idlog run`. One table (RunFlags(), defined in
// cli_flags.cc) declares every flag: its name, value kind, help line
// and where its value lands in RunOptions. The parser, the usage text
// and the two contradiction-rule lists all read that table.
#ifndef IDLOG_TOOLS_CLI_FLAGS_H_
#define IDLOG_TOOLS_CLI_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/limits.h"
#include "common/status.h"
#include "core/idlog_engine.h"
#include "obs/flight_recorder.h"

namespace idlog {

/// Everything one `idlog run` invocation asked for. A string field left
/// empty means its flag was not given (the parser rejects empty values).
struct RunOptions {
  std::string program_path;
  std::string query;
  std::vector<std::pair<std::string, std::string>> csvs;  ///< (REL, FILE)
  std::optional<uint64_t> seed;  ///< Set: random tids from this seed.
  bool enumerate = false;
  bool stats = false;
  bool naive = false;
  bool pushdown = true;
  uint64_t jobs = 1;     ///< Total evaluation threads, never 0.
  std::string explain;   ///< Space-separated tuple fields.
  std::string why;       ///< Ground atom.
  std::string why_not;   ///< Ground atom.
  std::string why_json;
  bool explain_plan = false;
  bool explain_analyze = false;  ///< Also implied by --explain-json.
  std::string explain_json;
  EvalLimits limits;
  bool partial = false;
  bool profile = false;
  std::string trace_out;
  std::string metrics_json;
  std::string checkpoint;
  uint64_t checkpoint_every = 1;
  std::string resume;
  std::vector<std::string> fail_at;
  bool db_stats = false;
  std::string db_stats_json;
  std::string flight_recorder;
  uint64_t flight_events = FlightRecorder::kDefaultCapacity;
  std::string wal;
  std::string update_script;
  bool recover = false;
  IdlogEngine::WalOptions wal_options;
};

enum class FlagKind {
  kBool,      ///< Takes no value; "--flag=value" is a usage error.
  kString,    ///< One non-empty value.
  kUint,      ///< One decimal integer in [min, max].
  kRepeated,  ///< A non-empty value; the flag may be given again.
};

/// One row of the flag table. Every flag but a kRepeated one may be
/// given at most once.
struct FlagSpec {
  const char* name;     ///< "--query"
  FlagKind kind;
  const char* metavar;  ///< Value placeholder in the usage; "" for kBool.
  const char* help;     ///< One line.
  /// Stores the value: `text` for string kinds, `number` for kUint.
  void (*store)(RunOptions* options, const std::string& text,
                uint64_t number);
  uint64_t min = 0;  ///< kUint range, inclusive.
  uint64_t max = UINT64_MAX;
};

/// A rule between `flag` and `others`. In RunFlagRequirements(), a
/// given `flag` needs at least one of `others` (a null `flag`: every run
/// does). In RunFlagConflicts(), a given `flag` excludes all of
/// `others`. `reason` is the usage error and names the flags involved.
struct FlagRule {
  const char* flag;
  std::vector<const char*> others;
  const char* reason;
};

const std::vector<FlagSpec>& RunFlags();
const std::vector<FlagRule>& RunFlagRequirements();
const std::vector<FlagRule>& RunFlagConflicts();

/// Parses `idlog run PROGRAM.idl FLAG...` (argv[2] is the program;
/// requires argc >= 3). Both "--flag value" and "--flag=value" are
/// accepted. An unknown flag, a malformed or out-of-range value, a
/// value given to a kBool flag, a repeated single-valued flag, a rule
/// violation, or --checkpoint equal to --resume is InvalidArgument.
Result<RunOptions> ParseRunFlags(int argc, const char* const* argv);

/// The usage text printed for a bad invocation, listing every flag.
std::string UsageText();

}  // namespace idlog

#endif  // IDLOG_TOOLS_CLI_FLAGS_H_
