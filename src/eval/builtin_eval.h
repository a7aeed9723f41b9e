#ifndef IDLOG_EVAL_BUILTIN_EVAL_H_
#define IDLOG_EVAL_BUILTIN_EVAL_H_

#include <functional>
#include <optional>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "common/value.h"

namespace idlog {

/// Receives one solution: concrete values for *all* builtin arguments.
using BuiltinSolutionFn = std::function<void(const std::vector<Value>&)>;

/// Enumerates the solutions of a built-in given the bound arguments
/// (`args[i]` has a value iff argument i is bound). The bound pattern
/// must be admissible per BuiltinPatternAdmissible; inadmissible
/// patterns return UnsafeProgram (the planner prevents this).
///
/// Arithmetic is over the naturals: solutions with negative components
/// do not exist (e.g. sub(2,5,C) has none) and overflow past int64 cuts
/// off enumeration with ResourceExhausted.
Status EnumerateBuiltin(BuiltinKind kind,
                        const std::vector<std::optional<Value>>& args,
                        const BuiltinSolutionFn& on_solution);

/// Truth of a fully-bound built-in (for negated built-ins and filters):
/// `args` points at its 2 or 3 argument values. Sort mismatches make eq
/// false / ne true.
bool BuiltinHolds(BuiltinKind kind, const Value* args);
inline bool BuiltinHolds(BuiltinKind kind, const std::vector<Value>& args) {
  return BuiltinHolds(kind, args.data());
}

}  // namespace idlog

#endif  // IDLOG_EVAL_BUILTIN_EVAL_H_
