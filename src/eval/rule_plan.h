#ifndef IDLOG_EVAL_RULE_PLAN_H_
#define IDLOG_EVAL_RULE_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "analysis/safety.h"
#include "analysis/tid_bounds.h"
#include "ast/ast.h"
#include "common/status.h"
#include "common/value.h"

namespace idlog {

/// Where an argument value comes from at runtime.
struct ArgSource {
  bool is_slot = false;
  int slot = -1;      ///< Variable slot when is_slot.
  Value constant;     ///< Constant value otherwise.
};

/// Role of one argument position within a plan step.
enum class ArgMode : uint8_t {
  kKey,     ///< Bound before the step: part of the index key / input.
  kWrite,   ///< First occurrence of an unbound variable: receives a value.
  kFilter,  ///< Repeated unbound variable: must equal the slot just written.
};

/// One body literal compiled into an executable step, in safe order.
struct PlanStep {
  enum class Kind : uint8_t { kScan, kNegation, kBuiltin } kind =
      Kind::kScan;

  // kScan / kNegation --------------------------------------------------
  std::string predicate;       ///< Base predicate name.
  bool is_id = false;          ///< Reads the materialized ID-relation.
  std::vector<int> group;      ///< ID grouping columns (0-based).
  std::vector<int> key_cols;   ///< Column positions in kKey mode.
  /// Positive ID scans whose tid the clause constrains (TidRangeOf) and
  /// which have no other key: the step reads only the rows with a tid
  /// in this range, a slice of each group (IdRelation::SliceRows).
  std::optional<TidRange> tid_slice;

  // kBuiltin ------------------------------------------------------------
  BuiltinKind builtin = BuiltinKind::kEq;
  bool negated = false;        ///< Negated builtin (fully bound check).

  // Shared --------------------------------------------------------------
  std::vector<ArgMode> modes;      ///< One per argument position.
  std::vector<ArgSource> sources;  ///< Paired with modes.
};

/// A clause compiled for bottom-up evaluation: body steps in a safe
/// order plus the head constructor.
struct RulePlan {
  std::string head_pred;
  std::vector<ArgSource> head_args;
  std::vector<PlanStep> steps;
  int num_slots = 0;
  /// Index of the source clause in its program (provenance labels).
  int clause_index = -1;

  /// Indexes into `steps` of positive non-ID scans (candidates for
  /// semi-naive delta substitution).
  std::vector<int> positive_scan_steps;
};

/// Compiles `clause` using the safe order from ComputeSafeOrder.
/// Rejects choice atoms (translate DATALOG^C programs first).
Result<RulePlan> CompileRule(const Clause& clause);

}  // namespace idlog

#endif  // IDLOG_EVAL_RULE_PLAN_H_
