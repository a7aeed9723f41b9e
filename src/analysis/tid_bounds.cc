#include "analysis/tid_bounds.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

namespace idlog {

namespace {

// k + 1 for a tid bound `T <= k`. The largest constant (2^63 - 1) stays
// put instead of overflowing; no group is large enough to give it a tid.
int64_t Successor(int64_t k) {
  return k == std::numeric_limits<int64_t>::max() ? k : k + 1;
}

// The tightest range this clause places on variable `var` through
// positive comparisons against a constant; nullopt without an upper
// bound.
std::optional<TidRange> VariableRange(const Clause& clause,
                                      const std::string& var) {
  std::optional<int64_t> hi;
  int64_t lo = 0;
  auto below = [&hi](int64_t bound) {
    if (!hi.has_value() || bound < *hi) hi = bound;
  };
  for (const Literal& lit : clause.body) {
    if (lit.negated || lit.atom.kind != AtomKind::kBuiltin) continue;
    const Atom& a = lit.atom;
    if (a.terms.size() != 2) continue;
    const Term& lhs = a.terms[0];
    const Term& rhs = a.terms[1];
    bool lhs_is_var = lhs.is_variable() && lhs.var_name() == var;
    bool rhs_is_var = rhs.is_variable() && rhs.var_name() == var;
    auto const_num = [](const Term& t) -> std::optional<int64_t> {
      if (t.is_constant() && t.value().is_number()) return t.value().number();
      return std::nullopt;
    };
    switch (a.builtin) {
      case BuiltinKind::kLt:  // T < k  |  k < T (no bound)
        if (lhs_is_var) {
          if (auto k = const_num(rhs)) below(*k);
        }
        break;
      case BuiltinKind::kLe:  // T <= k
        if (lhs_is_var) {
          if (auto k = const_num(rhs)) below(Successor(*k));
        }
        break;
      case BuiltinKind::kGt:  // k > T
        if (rhs_is_var) {
          if (auto k = const_num(lhs)) below(*k);
        }
        break;
      case BuiltinKind::kGe:  // k >= T
        if (rhs_is_var) {
          if (auto k = const_num(lhs)) below(Successor(*k));
        }
        break;
      case BuiltinKind::kEq: {  // T = c or c = T
        std::optional<int64_t> c;
        if (lhs_is_var) {
          c = const_num(rhs);
        } else if (rhs_is_var) {
          c = const_num(lhs);
        }
        if (c) {
          below(Successor(*c));
          lo = std::max(lo, *c);
        }
        break;
      }
      default:
        break;
    }
  }
  if (!hi.has_value()) return std::nullopt;
  const int64_t top = std::max<int64_t>(*hi, 0);
  return TidRange{std::min(lo, top), top};
}

}  // namespace

std::optional<TidRange> TidRangeOf(const Clause& clause,
                                   const Literal& lit) {
  const Term& tid = lit.atom.terms.back();
  if (tid.is_constant()) {
    if (!tid.value().is_number()) return std::nullopt;
    const int64_t top =
        std::max<int64_t>(Successor(tid.value().number()), 0);
    return TidRange{std::min(std::max<int64_t>(tid.value().number(), 0), top),
                    top};
  }
  return VariableRange(clause, tid.var_name());
}

std::map<TidBoundKey, int64_t> ComputeTidBounds(const Program& program) {
  std::map<TidBoundKey, int64_t> bounds;
  std::set<TidBoundKey> unbounded;

  for (const Clause& clause : program.clauses) {
    for (const Literal& lit : clause.body) {
      if (lit.atom.kind != AtomKind::kId) continue;
      TidBoundKey key{lit.atom.predicate, lit.atom.group};
      if (unbounded.count(key) > 0) continue;

      const std::optional<TidRange> range = TidRangeOf(clause, lit);
      if (!range.has_value()) {
        unbounded.insert(key);
        bounds.erase(key);
        continue;
      }
      auto it = bounds.find(key);
      if (it == bounds.end()) {
        bounds.emplace(std::move(key), range->hi);
      } else {
        it->second = std::max(it->second, range->hi);
      }
    }
  }
  return bounds;
}

}  // namespace idlog
