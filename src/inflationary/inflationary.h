#ifndef IDLOG_INFLATIONARY_INFLATIONARY_H_
#define IDLOG_INFLATIONARY_INFLATIONARY_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/limits.h"
#include "common/status.h"
#include "core/answer_enumerator.h"
#include "storage/database.h"

namespace idlog {

/// A clause of the inflationary-semantics languages of Section 3.2.1:
/// DL [AV88] allows negation in the body, several positive atoms in the
/// head, and head variables missing from the body (invented values);
/// N-DATALOG [ASV90] additionally allows negated head atoms (deletions)
/// but requires every head variable to be positively bound in the body.
struct InfClause {
  std::vector<Literal> head;  ///< Non-empty; atoms must be kOrdinary.
  std::vector<Literal> body;
};

struct InfProgram {
  std::vector<InfClause> clauses;
};

enum class InfLanguage {
  kDL,        ///< Multi-head, invented values, positive heads only.
  kNDatalog,  ///< Negated heads are deletions; no invented values.
};

enum class InfMode {
  /// Fire one applicable instantiation at a time, chosen by the policy
  /// — the non-deterministic inflationary semantics.
  kNonDeterministic,
  /// Fire all applicable instantiations per round simultaneously — the
  /// deterministic inflationary fixpoint (DL only; used for the
  /// Example 3 contrast).
  kDeterministic,
};

struct InfOptions {
  InfLanguage language = InfLanguage::kDL;
  InfMode mode = InfMode::kNonDeterministic;
  uint64_t seed = 0;            ///< Random instantiation choice.
  uint64_t max_invented = 1000; ///< Cap on invented u-constants.
  /// Shared resource governor (deadline, tuple/memory budgets,
  /// cancellation). N-DATALOG may not terminate: bound such runs with
  /// an iteration budget or a deadline. Null means ungoverned. Not
  /// owned.
  ResourceGovernor* governor = nullptr;
};

/// Converts a standard single-head Program (no ID-atoms, no choice)
/// into an InfProgram.
Result<InfProgram> InfProgramFromProgram(const Program& program);

/// Runs the inflationary semantics from `database` and returns the
/// final state (every predicate touched, as relations). Sort-u values
/// invented by DL head variables appear as fresh "@newN" symbols.
Result<Database> EvaluateInflationary(const InfProgram& program,
                                      const Database& database,
                                      const InfOptions& options);

/// Exhaustively enumerates the possible final answers of `query_pred`
/// over all firing orders (DFS with state memoization). Exponential;
/// for the small instances of tests and bench E8. With a governor, each
/// distinct visited state charges one unit of its tuple budget and
/// deadline/cancellation are observed once per visited state; null
/// means ungoverned.
Result<AnswerSet> EnumerateInflationaryAnswers(const InfProgram& program,
                                               const Database& database,
                                               const std::string& query_pred,
                                               InfLanguage language,
                                               ResourceGovernor* governor =
                                                   nullptr);

}  // namespace idlog

#endif  // IDLOG_INFLATIONARY_INFLATIONARY_H_
