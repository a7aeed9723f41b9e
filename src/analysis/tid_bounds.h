#ifndef IDLOG_ANALYSIS_TID_BOUNDS_H_
#define IDLOG_ANALYSIS_TID_BOUNDS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ast/ast.h"

namespace idlog {

/// Key identifying one ID-relation: (base predicate, grouping columns).
using TidBoundKey = std::pair<std::string, std::vector<int>>;

/// The tids [lo, hi) one occurrence of an ID-literal can match.
struct TidRange {
  int64_t lo = 0;
  int64_t hi = 0;
};

/// The tid range `lit` (an ID-literal of `clause`) is constrained to: a
/// constant tid c gives [c, c+1); a tid variable T gives the
/// intersection of the positive comparisons of T against a constant in
/// the same body (`T < k`, `T <= k`, `T = c`, and mirrored forms). Both
/// ends are clamped at 0. Nullopt when no upper bound is found.
std::optional<TidRange> TidRangeOf(const Clause& clause,
                                   const Literal& lit);

/// Static tid-bound analysis (the optimization of footnotes 6/7): if
/// every occurrence of `p[s]` in the program constrains its tid
/// argument — a constant tid, or a positive comparison against a
/// constant (`T < k`, `T <= k`, `T = c`, and mirrored forms) in the
/// same clause body — then only tuples with tid below the collected
/// maximum ever matter, and the engine can truncate materialization.
///
/// Returns a map from ID-relation key to the materialization bound.
/// Keys with any unconstrained occurrence are absent (materialize in
/// full). The analysis is a sound under-approximation: indirect bounds
/// (through arithmetic) are not chased.
std::map<TidBoundKey, int64_t> ComputeTidBounds(const Program& program);

}  // namespace idlog

#endif  // IDLOG_ANALYSIS_TID_BOUNDS_H_
