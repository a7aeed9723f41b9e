#include "eval/rule_plan.h"

#include <map>
#include <set>

namespace idlog {

Result<RulePlan> CompileRule(const Clause& clause) {
  IDLOG_ASSIGN_OR_RETURN(SafeOrder order,
                         ComputeSafeOrder(clause, /*allow_choice=*/false));

  RulePlan plan;
  plan.head_pred = clause.head.predicate;

  std::map<std::string, int> slot_of;
  auto slot_for = [&](const std::string& var) {
    auto it = slot_of.find(var);
    if (it != slot_of.end()) return it->second;
    int s = static_cast<int>(slot_of.size());
    slot_of[var] = s;
    return s;
  };

  std::set<std::string> bound;

  for (int body_idx : order.order) {
    const Literal& lit = clause.body[static_cast<size_t>(body_idx)];
    const Atom& atom = lit.atom;
    PlanStep step;

    if (atom.kind == AtomKind::kBuiltin) {
      step.kind = PlanStep::Kind::kBuiltin;
      step.builtin = atom.builtin;
      step.negated = lit.negated;
    } else if (atom.kind == AtomKind::kChoice) {
      return Status::Unsupported(
          "choice atom reached the rule compiler; translate the "
          "DATALOG^C program first");
    } else {
      step.kind = lit.negated ? PlanStep::Kind::kNegation
                              : PlanStep::Kind::kScan;
      step.predicate = atom.predicate;
      step.is_id = atom.kind == AtomKind::kId;
      step.group = atom.group;
    }

    // Classify argument positions. Within one atom, the first occurrence
    // of an unbound variable writes; later occurrences filter.
    std::set<std::string> written_here;
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const Term& t = atom.terms[pos];
      ArgSource src;
      ArgMode mode;
      if (t.is_constant()) {
        src.constant = t.value();
        mode = ArgMode::kKey;
      } else {
        const std::string& v = t.var_name();
        src.is_slot = true;
        src.slot = slot_for(v);
        if (bound.count(v) > 0) {
          mode = ArgMode::kKey;
        } else if (written_here.count(v) > 0) {
          mode = ArgMode::kFilter;
        } else {
          mode = ArgMode::kWrite;
          written_here.insert(v);
        }
      }
      if (mode == ArgMode::kKey &&
          step.kind != PlanStep::Kind::kBuiltin) {
        step.key_cols.push_back(static_cast<int>(pos));
      }
      step.modes.push_back(mode);
      step.sources.push_back(src);
    }

    // A tid constraint turns an ID scan into a slice read, unless the
    // scan is keyed on anything but a constant tid (it keeps its index).
    if (step.kind == PlanStep::Kind::kScan && step.is_id) {
      const int tid_col = static_cast<int>(atom.terms.size()) - 1;
      const bool keyed_elsewhere =
          !step.key_cols.empty() &&
          (step.key_cols != std::vector<int>{tid_col} ||
           !atom.terms.back().is_constant());
      if (!keyed_elsewhere) step.tid_slice = TidRangeOf(clause, lit);
    }

    // Negations and negated builtins never bind; everything else binds
    // its written variables for subsequent steps.
    if (!lit.negated) {
      for (const std::string& v : written_here) bound.insert(v);
    }

    if (step.kind == PlanStep::Kind::kScan && !step.is_id) {
      plan.positive_scan_steps.push_back(static_cast<int>(plan.steps.size()));
    }
    plan.steps.push_back(std::move(step));
  }

  for (const Term& t : clause.head.terms) {
    ArgSource src;
    if (t.is_constant()) {
      src.constant = t.value();
    } else {
      src.is_slot = true;
      auto it = slot_of.find(t.var_name());
      if (it == slot_of.end()) {
        return Status::Internal("unbound head variable survived safety");
      }
      src.slot = it->second;
    }
    plan.head_args.push_back(src);
  }

  plan.num_slots = static_cast<int>(slot_of.size());
  return plan;
}

}  // namespace idlog
