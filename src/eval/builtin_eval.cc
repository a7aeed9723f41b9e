#include "eval/builtin_eval.h"

#include <limits>

namespace idlog {

namespace {

bool BothNumbers(const Value& a, const Value& b) {
  return a.is_number() && b.is_number();
}

}  // namespace

bool BuiltinHolds(BuiltinKind kind, const Value* args) {
  switch (kind) {
    case BuiltinKind::kEq:
      return args[0] == args[1];
    case BuiltinKind::kNe:
      return args[0] != args[1];
    case BuiltinKind::kLt:
      return BothNumbers(args[0], args[1]) && args[0].number() < args[1].number();
    case BuiltinKind::kLe:
      return BothNumbers(args[0], args[1]) && args[0].number() <= args[1].number();
    case BuiltinKind::kGt:
      return BothNumbers(args[0], args[1]) && args[0].number() > args[1].number();
    case BuiltinKind::kGe:
      return BothNumbers(args[0], args[1]) && args[0].number() >= args[1].number();
    case BuiltinKind::kSucc:
      return BothNumbers(args[0], args[1]) &&
             args[0].number() + 1 == args[1].number();
    case BuiltinKind::kAdd:
      return args[0].is_number() && args[1].is_number() &&
             args[2].is_number() &&
             args[0].number() + args[1].number() == args[2].number();
    case BuiltinKind::kSub:
      return args[0].is_number() && args[1].is_number() &&
             args[2].is_number() && args[0].number() >= args[1].number() &&
             args[0].number() - args[1].number() == args[2].number();
    case BuiltinKind::kMul:
      return args[0].is_number() && args[1].is_number() &&
             args[2].is_number() &&
             args[0].number() * args[1].number() == args[2].number();
    case BuiltinKind::kDiv:
      return args[0].is_number() && args[1].is_number() &&
             args[2].is_number() && args[1].number() > 0 &&
             args[0].number() / args[1].number() == args[2].number();
  }
  return false;
}

Status EnumerateBuiltin(BuiltinKind kind,
                        const std::vector<std::optional<Value>>& args,
                        const BuiltinSolutionFn& on_solution) {
  auto bound = [&](size_t i) { return args[i].has_value(); };
  auto num = [&](size_t i) { return args[i]->number(); };
  auto is_nat = [&](size_t i) {
    return args[i]->is_number() && num(i) >= 0;
  };
  auto emit = [&](std::vector<Value> vals) {
    if (BuiltinHolds(kind, vals)) on_solution(vals);
  };

  constexpr int64_t kMax = std::numeric_limits<int64_t>::max() / 2;

  switch (kind) {
    case BuiltinKind::kEq: {
      if (bound(0) && bound(1)) {
        emit({*args[0], *args[1]});
      } else if (bound(0)) {
        on_solution({*args[0], *args[0]});
      } else if (bound(1)) {
        on_solution({*args[1], *args[1]});
      } else {
        return Status::UnsafeProgram("unbound '='");
      }
      return Status::OK();
    }
    case BuiltinKind::kNe:
    case BuiltinKind::kLt:
    case BuiltinKind::kLe:
    case BuiltinKind::kGt:
    case BuiltinKind::kGe: {
      if (!bound(0) || !bound(1)) {
        return Status::UnsafeProgram("unbound comparison");
      }
      emit({*args[0], *args[1]});
      return Status::OK();
    }
    case BuiltinKind::kSucc: {
      if (bound(0) && bound(1)) {
        emit({*args[0], *args[1]});
      } else if (bound(0)) {
        if (!is_nat(0) || num(0) >= kMax) return Status::OK();
        on_solution({*args[0], Value::Number(num(0) + 1)});
      } else if (bound(1)) {
        if (!args[1]->is_number() || num(1) <= 0) return Status::OK();
        on_solution({Value::Number(num(1) - 1), *args[1]});
      } else {
        return Status::UnsafeProgram("unbound succ");
      }
      return Status::OK();
    }
    case BuiltinKind::kAdd: {
      if (bound(0) && bound(1) && bound(2)) {
        emit({*args[0], *args[1], *args[2]});
      } else if (bound(0) && bound(1)) {
        if (!is_nat(0) || !is_nat(1) || num(0) > kMax - num(1)) {
          return Status::OK();
        }
        on_solution({*args[0], *args[1], Value::Number(num(0) + num(1))});
      } else if (bound(0) && bound(2)) {
        if (!is_nat(0) || !is_nat(2) || num(2) < num(0)) return Status::OK();
        on_solution({*args[0], Value::Number(num(2) - num(0)), *args[2]});
      } else if (bound(1) && bound(2)) {
        if (!is_nat(1) || !is_nat(2) || num(2) < num(1)) return Status::OK();
        on_solution({Value::Number(num(2) - num(1)), *args[1], *args[2]});
      } else if (bound(2)) {
        // The paper's nnb case: finitely many decompositions of C.
        if (!is_nat(2)) return Status::OK();
        for (int64_t a = 0; a <= num(2); ++a) {
          on_solution({Value::Number(a), Value::Number(num(2) - a), *args[2]});
        }
      } else {
        return Status::UnsafeProgram("unsafe '+' binding pattern");
      }
      return Status::OK();
    }
    case BuiltinKind::kSub: {
      // A - B = C over naturals.
      if (bound(0) && bound(1) && bound(2)) {
        emit({*args[0], *args[1], *args[2]});
      } else if (bound(0) && bound(1)) {
        if (!is_nat(0) || !is_nat(1) || num(0) < num(1)) return Status::OK();
        on_solution({*args[0], *args[1], Value::Number(num(0) - num(1))});
      } else if (bound(0) && bound(2)) {
        if (!is_nat(0) || !is_nat(2) || num(0) < num(2)) return Status::OK();
        on_solution({*args[0], Value::Number(num(0) - num(2)), *args[2]});
      } else if (bound(1) && bound(2)) {
        if (!is_nat(1) || !is_nat(2) || num(1) > kMax - num(2)) {
          return Status::OK();
        }
        on_solution({Value::Number(num(1) + num(2)), *args[1], *args[2]});
      } else if (bound(0)) {
        // bnn: B ranges over 0..A.
        if (!is_nat(0)) return Status::OK();
        for (int64_t b = 0; b <= num(0); ++b) {
          on_solution({*args[0], Value::Number(b), Value::Number(num(0) - b)});
        }
      } else {
        return Status::UnsafeProgram("unsafe '-' binding pattern");
      }
      return Status::OK();
    }
    case BuiltinKind::kMul: {
      if (!bound(0) || !bound(1)) {
        return Status::UnsafeProgram("unsafe '*' binding pattern");
      }
      if (bound(2)) {
        emit({*args[0], *args[1], *args[2]});
        return Status::OK();
      }
      if (!is_nat(0) || !is_nat(1)) return Status::OK();
      if (num(0) != 0 && num(1) > kMax / num(0)) return Status::OK();
      on_solution({*args[0], *args[1], Value::Number(num(0) * num(1))});
      return Status::OK();
    }
    case BuiltinKind::kDiv: {
      if (!bound(0) || !bound(1)) {
        return Status::UnsafeProgram("unsafe '/' binding pattern");
      }
      if (bound(2)) {
        emit({*args[0], *args[1], *args[2]});
        return Status::OK();
      }
      if (!is_nat(0) || !args[1]->is_number() || num(1) <= 0) {
        return Status::OK();
      }
      on_solution({*args[0], *args[1], Value::Number(num(0) / num(1))});
      return Status::OK();
    }
  }
  return Status::Internal("unknown builtin");
}

}  // namespace idlog
