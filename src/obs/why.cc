#include "obs/why.h"

#include <optional>
#include <set>
#include <utility>

#include "ast/ast.h"
#include "eval/builtin_eval.h"
#include "obs/json.h"

namespace idlog {

namespace {

std::string IdSuffix(const std::vector<int>& group) {
  std::string out = "[";
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(group[i] + 1);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// WHY: proof trees.

class ProofBuilder {
 public:
  ProofBuilder(const ProvenanceStore& store, const SymbolTable& symbols,
               const std::function<bool(const std::string&, const Tuple&)>&
                   is_leaf,
               ProofTree* tree)
      : store_(store), symbols_(symbols), is_leaf_(is_leaf), tree_(tree) {}

  void Build(const std::string& pred, const Tuple& tuple, int depth,
             ProofNode* out) {
    ++tree_->nodes;
    out->label = pred + TupleToString(tuple, symbols_);
    const Derivation* d = store_.Lookup(pred, tuple);
    if (d == nullptr) {
      out->kind = is_leaf_(pred, tuple) ? ProofNode::Kind::kDatabaseFact
                                        : ProofNode::Kind::kUnderivable;
      return;
    }
    auto key = std::make_pair(pred, tuple);
    if (on_path_.count(key) > 0) {
      out->kind = ProofNode::Kind::kCycle;
      return;
    }
    if (depth >= tree_->budget.max_depth) {
      out->kind = ProofNode::Kind::kDepthLimit;
      tree_->truncated = true;
      return;
    }
    out->kind = ProofNode::Kind::kDerived;
    out->clause_index = d->clause_index;
    on_path_.insert(key);
    const Premise* premises = store_.premises(*d);
    for (uint32_t pi = 0; pi < d->premise_count; ++pi) {
      if (tree_->nodes >= tree_->budget.max_nodes) {
        tree_->truncated = true;
        ProofNode cut;
        cut.kind = ProofNode::Kind::kNodeLimit;
        out->children.push_back(std::move(cut));
        break;
      }
      const Premise& p = premises[pi];
      ProofNode child;
      switch (p.kind) {
        case Premise::Kind::kFact:
          Build(p.predicate, p.tuple, depth + 1, &child);
          break;
        case Premise::Kind::kIdFact: {
          ++tree_->nodes;
          child.kind = ProofNode::Kind::kTidChoice;
          child.label = p.predicate + IdSuffix(p.group) +
                        TupleToString(p.tuple, symbols_);
          // The underlying tuple (without the tid) may itself be derived.
          Tuple base(p.tuple.begin(), p.tuple.end() - 1);
          if (store_.Lookup(p.predicate, base) != nullptr &&
              tree_->nodes < tree_->budget.max_nodes) {
            ProofNode sub;
            Build(p.predicate, base, depth + 2, &sub);
            child.children.push_back(std::move(sub));
          }
          break;
        }
        case Premise::Kind::kNegation:
          ++tree_->nodes;
          child.kind = ProofNode::Kind::kNegation;
          child.label =
              "not " + p.predicate + TupleToString(p.tuple, symbols_);
          break;
        case Premise::Kind::kBuiltin:
          ++tree_->nodes;
          child.kind = ProofNode::Kind::kBuiltin;
          child.label = p.builtin_text;
          break;
      }
      out->children.push_back(std::move(child));
    }
    on_path_.erase(key);
  }

 private:
  const ProvenanceStore& store_;
  const SymbolTable& symbols_;
  const std::function<bool(const std::string&, const Tuple&)>& is_leaf_;
  ProofTree* tree_;
  std::set<std::pair<std::string, Tuple>> on_path_;
};

void RenderProofNodeText(const ProofNode& node, const WhyBudget& budget,
                         int depth, std::string* out) {
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  switch (node.kind) {
    case ProofNode::Kind::kDerived:
      *out += indent + node.label + "   <= clause #" +
              std::to_string(node.clause_index) + "\n";
      break;
    case ProofNode::Kind::kDatabaseFact:
      *out += indent + node.label + "   [database fact]\n";
      break;
    case ProofNode::Kind::kTidChoice:
      *out += indent + node.label + "   [tid choice]\n";
      break;
    case ProofNode::Kind::kNegation:
      *out += indent + node.label + "   [absent]\n";
      break;
    case ProofNode::Kind::kBuiltin:
      *out += indent + node.label + "   [built-in]\n";
      break;
    case ProofNode::Kind::kCycle:
      *out += indent + node.label + "   [cycle — already being explained]\n";
      break;
    case ProofNode::Kind::kDepthLimit:
      *out += indent + node.label + "   [... depth limit (" +
              std::to_string(budget.max_depth) + ")]\n";
      break;
    case ProofNode::Kind::kNodeLimit:
      *out += indent + "[... node budget (" +
              std::to_string(budget.max_nodes) + ") reached]\n";
      break;
    case ProofNode::Kind::kUnderivable:
      *out += indent + node.label + "   [underivable]\n";
      break;
  }
  for (const ProofNode& child : node.children) {
    RenderProofNodeText(child, budget, depth + 1, out);
  }
}

const char* ProofKindName(ProofNode::Kind kind) {
  switch (kind) {
    case ProofNode::Kind::kDerived: return "derived";
    case ProofNode::Kind::kDatabaseFact: return "database-fact";
    case ProofNode::Kind::kTidChoice: return "tid-choice";
    case ProofNode::Kind::kNegation: return "negation";
    case ProofNode::Kind::kBuiltin: return "builtin";
    case ProofNode::Kind::kCycle: return "cycle";
    case ProofNode::Kind::kDepthLimit: return "depth-limit";
    case ProofNode::Kind::kNodeLimit: return "node-limit";
    case ProofNode::Kind::kUnderivable: return "underivable";
  }
  return "unknown";
}

void RenderProofNodeJson(const ProofNode& node, std::string* out) {
  *out += "{\"kind\":\"";
  *out += ProofKindName(node.kind);
  *out += "\",\"label\":" + JsonQuote(node.label);
  if (node.kind == ProofNode::Kind::kDerived) {
    *out += ",\"clause\":" + std::to_string(node.clause_index);
  }
  if (node.kind == ProofNode::Kind::kDerived ||
      node.kind == ProofNode::Kind::kTidChoice) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) *out += ",";
      RenderProofNodeJson(node.children[i], out);
    }
    *out += "]";
  }
  *out += "}";
}

std::string BudgetJson(const WhyBudget& budget) {
  return "{\"max_depth\":" + std::to_string(budget.max_depth) +
         ",\"max_nodes\":" + std::to_string(budget.max_nodes) + "}";
}

// ---------------------------------------------------------------------------
// WHY NOT: rule-by-rule first-failing-premise analysis.

/// Executes one compiled rule body over the final relations, mimicking
/// the executor's binding discipline, to find the first failing premise
/// (the deepest plan step reachable by some binding of the steps before
/// it; ties keep the first binding reached, which makes the report
/// deterministic given the relations' insertion order).
class RuleWalker {
 public:
  RuleWalker(const WhyNotContext& ctx, const RulePlan& plan,
             std::vector<std::optional<Value>> slots)
      : ctx_(ctx), plan_(plan), slots_(std::move(slots)) {}

  /// True if the body is satisfiable under the head bindings; otherwise
  /// fills `*failure` with the first failing premise.
  bool Satisfiable(WhyNotFailure* failure) {
    best_ = WhyNotFailure();
    best_.step_index = -1;
    if (Step(0)) return true;
    *failure = std::move(best_);
    return false;
  }

 private:
  using Undo = std::vector<std::pair<int, std::optional<Value>>>;

  bool Step(size_t i) {
    if (i == plan_.steps.size()) return true;
    const PlanStep& step = plan_.steps[i];
    switch (step.kind) {
      case PlanStep::Kind::kScan: return StepScan(i, step);
      case PlanStep::Kind::kNegation: return StepNegation(i, step);
      case PlanStep::Kind::kBuiltin: return StepBuiltin(i, step);
    }
    return false;
  }

  const Relation* Resolve(const PlanStep& step) const {
    if (step.is_id) {
      return ctx_.id_relation ? ctx_.id_relation(step.predicate, step.group)
                              : nullptr;
    }
    return ctx_.full ? ctx_.full(step.predicate) : nullptr;
  }

  /// Binds the step's sources against `row`; on mismatch restores any
  /// tentative bindings and returns false. On success the caller owns
  /// undoing `*undo`.
  bool MatchRow(const PlanStep& step, TupleView row, Undo* undo) {
    if (row.size() != step.sources.size()) return false;
    for (size_t pos = 0; pos < step.sources.size(); ++pos) {
      const ArgSource& src = step.sources[pos];
      bool ok;
      if (!src.is_slot) {
        ok = src.constant == row[pos];
      } else {
        std::optional<Value>& slot = slots_[src.slot];
        if (slot.has_value()) {
          ok = *slot == row[pos];
        } else {
          undo->emplace_back(src.slot, slot);
          slot = row[pos];
          ok = true;
        }
      }
      if (!ok) {
        Rollback(undo);
        return false;
      }
    }
    return true;
  }

  void Rollback(Undo* undo) {
    for (auto it = undo->rbegin(); it != undo->rend(); ++it) {
      slots_[it->first] = it->second;
    }
    undo->clear();
  }

  bool StepScan(size_t i, const PlanStep& step) {
    const Relation* rel = Resolve(step);
    bool any = false;
    if (rel != nullptr) {
      for (TupleView row : rel->tuples()) {
        Undo undo;
        if (!MatchRow(step, row, &undo)) continue;
        any = true;
        if (Step(i + 1)) return true;
        Rollback(&undo);
      }
    }
    if (!any) RecordScanFail(i, step, rel);
    return false;
  }

  bool StepNegation(size_t i, const PlanStep& step) {
    const Relation* rel = Resolve(step);
    bool present = false;
    if (rel != nullptr) {
      for (TupleView row : rel->tuples()) {
        Undo undo;
        if (MatchRow(step, row, &undo)) {
          Rollback(&undo);
          present = true;
          break;
        }
      }
    }
    if (!present) return Step(i + 1);
    RecordFail(i, MakeFailure(WhyNotFailure::Class::kBlockedNegation, i,
                              "not " + RenderAtom(step)));
    return false;
  }

  bool StepBuiltin(size_t i, const PlanStep& step) {
    const size_t n = step.sources.size();
    if (step.negated) {
      std::vector<Value> args;
      args.reserve(n);
      for (size_t pos = 0; pos < n; ++pos) {
        std::optional<Value> v = ValueAt(step, pos);
        if (!v.has_value()) break;  // Planner guarantees bound; bail safe.
        args.push_back(*v);
      }
      if (args.size() == n && !BuiltinHolds(step.builtin, args)) {
        return Step(i + 1);
      }
      RecordFail(i, MakeFailure(WhyNotFailure::Class::kFailedBuiltin, i,
                                RenderBuiltin(step)));
      return false;
    }
    // Enumerate with the executor's kKey binding pattern; extra-bound
    // slots (head-bound kWrite positions) act as filters on solutions.
    std::vector<std::optional<Value>> pattern(n);
    for (size_t pos = 0; pos < n; ++pos) {
      if (step.modes[pos] == ArgMode::kKey) pattern[pos] = ValueAt(step, pos);
    }
    bool any = false;
    std::vector<std::vector<Value>> sols;
    Status st = EnumerateBuiltin(step.builtin, pattern,
                                 [&](const std::vector<Value>& sol) {
                                   sols.push_back(sol);
                                 });
    if (st.ok()) {
      for (const std::vector<Value>& sol : sols) {
        Undo undo;
        bool ok = true;
        for (size_t pos = 0; pos < n && ok; ++pos) {
          const ArgSource& src = step.sources[pos];
          if (!src.is_slot) {
            ok = src.constant == sol[pos];
            continue;
          }
          std::optional<Value>& slot = slots_[src.slot];
          if (slot.has_value()) {
            ok = *slot == sol[pos];
          } else {
            undo.emplace_back(src.slot, slot);
            slot = sol[pos];
          }
        }
        if (ok) {
          any = true;
          if (Step(i + 1)) return true;
        }
        Rollback(&undo);
      }
    }
    if (!any) {
      RecordFail(i, MakeFailure(WhyNotFailure::Class::kFailedBuiltin, i,
                                RenderBuiltin(step)));
    }
    return false;
  }

  std::optional<Value> ValueAt(const PlanStep& step, size_t pos) const {
    const ArgSource& src = step.sources[pos];
    if (!src.is_slot) return src.constant;
    return slots_[src.slot];
  }

  std::string RenderValue(const std::optional<Value>& v) const {
    return v.has_value() ? v->ToString(*ctx_.symbols) : "_";
  }

  std::string RenderAtom(const PlanStep& step) const {
    std::string out = step.predicate;
    if (step.is_id) out += IdSuffix(step.group);
    out += "(";
    for (size_t pos = 0; pos < step.sources.size(); ++pos) {
      if (pos > 0) out += ", ";
      out += RenderValue(ValueAt(step, pos));
    }
    return out + ")";
  }

  std::string RenderBuiltin(const PlanStep& step) const {
    std::string out = step.negated ? "not " : "";
    out += BuiltinName(step.builtin);
    out += "(";
    for (size_t pos = 0; pos < step.sources.size(); ++pos) {
      if (pos > 0) out += ", ";
      out += RenderValue(ValueAt(step, pos));
    }
    return out + ")";
  }

  WhyNotFailure MakeFailure(WhyNotFailure::Class cls, size_t i,
                            std::string rendered) const {
    WhyNotFailure f;
    f.cls = cls;
    f.step_index = static_cast<int>(i);
    f.rendered = std::move(rendered);
    return f;
  }

  void RecordScanFail(size_t i, const PlanStep& step, const Relation* rel) {
    if (static_cast<int>(i) <= best_.step_index) return;
    WhyNotFailure f = MakeFailure(WhyNotFailure::Class::kMissingSubgoal, i,
                                  RenderAtom(step));
    const size_t n = step.sources.size();
    std::vector<std::optional<Value>> bound(n);
    bool ground = true;
    for (size_t pos = 0; pos < n; ++pos) {
      bound[pos] = ValueAt(step, pos);
      ground = ground && bound[pos].has_value();
    }
    if (step.is_id && n > 0 && bound[n - 1].has_value()) {
      // A materialized row matching every non-tid position means the
      // base tuple is in the group — just under a different tid than
      // required.
      if (rel != nullptr) {
        for (TupleView row : rel->tuples()) {
          if (row.size() != n) continue;
          bool base_match = true;
          for (size_t pos = 0; pos + 1 < n && base_match; ++pos) {
            base_match = !bound[pos].has_value() || *bound[pos] == row[pos];
          }
          if (base_match) {
            f.cls = WhyNotFailure::Class::kTidMismatch;
            f.chosen_tid = row[n - 1].ToString(*ctx_.symbols);
            break;
          }
        }
      }
      // Tid-bound pushdown materializes only the tids the program can
      // use, so the mismatching row may have been elided. The base
      // relation still witnesses the mismatch; the chosen tid is then
      // unknown (unmaterialized).
      if (f.cls == WhyNotFailure::Class::kMissingSubgoal) {
        const Relation* base =
            ctx_.full ? ctx_.full(step.predicate) : nullptr;
        if (base != nullptr) {
          for (TupleView row : base->tuples()) {
            if (row.size() + 1 != n) continue;
            bool base_match = true;
            for (size_t pos = 0; pos + 1 < n && base_match; ++pos) {
              base_match =
                  !bound[pos].has_value() || *bound[pos] == row[pos];
            }
            if (base_match) {
              f.cls = WhyNotFailure::Class::kTidMismatch;
              break;
            }
          }
        }
      }
    }
    if (f.cls == WhyNotFailure::Class::kMissingSubgoal) {
      f.predicate = step.predicate;
      // For an ID premise the recursion target is the base tuple (the
      // tid is the model's choice, not a derivable fact).
      const size_t base_n = step.is_id ? n - 1 : n;
      f.ground = ground || (step.is_id && [&] {
                   for (size_t pos = 0; pos < base_n; ++pos) {
                     if (!bound[pos].has_value()) return false;
                   }
                   return true;
                 }());
      if (f.ground) {
        for (size_t pos = 0; pos < base_n; ++pos) f.tuple.push_back(*bound[pos]);
      }
    }
    RecordFail(i, std::move(f));
  }

  void RecordFail(size_t i, WhyNotFailure f) {
    // Deepest frontier wins; first binding to reach it wins ties.
    if (static_cast<int>(i) <= best_.step_index) return;
    best_ = std::move(f);
  }

  const WhyNotContext& ctx_;
  const RulePlan& plan_;
  std::vector<std::optional<Value>> slots_;
  WhyNotFailure best_;
};

class WhyNotBuilder {
 public:
  WhyNotBuilder(const WhyNotContext& ctx, WhyNotReport* report)
      : ctx_(ctx), report_(report) {}

  void Build(const std::string& pred, const Tuple& tuple, int depth,
             WhyNotNode* out) {
    ++report_->nodes;
    out->predicate = pred;
    out->tuple = tuple;
    out->label = pred + TupleToString(tuple, *ctx_.symbols);
    const Relation* rel = ctx_.full ? ctx_.full(pred) : nullptr;
    if (rel != nullptr && rel->Contains(tuple)) {
      out->holds = true;
      return;
    }
    auto key = std::make_pair(pred, tuple);
    if (on_path_.count(key) > 0) {
      out->cycle = true;
      return;
    }
    if (depth >= report_->budget.max_depth) {
      out->truncated = true;
      out->truncation =
          "depth budget (" + std::to_string(report_->budget.max_depth) +
          ") reached";
      report_->truncated = true;
      return;
    }
    std::vector<const RulePlan*> candidates;
    if (ctx_.plans != nullptr) {
      for (const RulePlan& plan : *ctx_.plans) {
        if (plan.head_pred == pred) candidates.push_back(&plan);
      }
    }
    if (candidates.empty()) {
      out->no_rules = true;
      return;
    }
    on_path_.insert(key);
    for (const RulePlan* plan : candidates) {
      if (report_->nodes >= report_->budget.max_nodes) {
        out->truncated = true;
        out->truncation =
            "node budget (" + std::to_string(report_->budget.max_nodes) +
            ") reached";
        report_->truncated = true;
        break;
      }
      ++report_->nodes;
      WhyNotRule r;
      r.clause_index = plan->clause_index;
      if (ctx_.rule_texts != nullptr && plan->clause_index >= 0 &&
          static_cast<size_t>(plan->clause_index) < ctx_.rule_texts->size()) {
        r.rule_text = (*ctx_.rule_texts)[plan->clause_index];
      }
      std::vector<std::optional<Value>> slots(
          static_cast<size_t>(plan->num_slots));
      if (tuple.size() == plan->head_args.size() &&
          UnifyHead(*plan, tuple, &slots)) {
        r.unifies = true;
        RuleWalker walker(ctx_, *plan, std::move(slots));
        if (walker.Satisfiable(&r.failure)) {
          r.derivable = true;
        } else if (r.failure.cls == WhyNotFailure::Class::kMissingSubgoal &&
                   r.failure.ground) {
          r.sub = std::make_unique<WhyNotNode>();
          Build(r.failure.predicate, r.failure.tuple, depth + 1, r.sub.get());
        }
      }
      out->rules.push_back(std::move(r));
    }
    on_path_.erase(key);
  }

 private:
  static bool UnifyHead(const RulePlan& plan, const Tuple& tuple,
                        std::vector<std::optional<Value>>* slots) {
    for (size_t i = 0; i < plan.head_args.size(); ++i) {
      const ArgSource& src = plan.head_args[i];
      if (!src.is_slot) {
        if (!(src.constant == tuple[i])) return false;
        continue;
      }
      std::optional<Value>& slot = (*slots)[src.slot];
      if (slot.has_value()) {
        if (!(*slot == tuple[i])) return false;
      } else {
        slot = tuple[i];
      }
    }
    return true;
  }

  const WhyNotContext& ctx_;
  WhyNotReport* report_;
  std::set<std::pair<std::string, Tuple>> on_path_;
};

const char* FailureClassName(WhyNotFailure::Class cls) {
  switch (cls) {
    case WhyNotFailure::Class::kMissingSubgoal: return "missing-subgoal";
    case WhyNotFailure::Class::kBlockedNegation: return "blocked-negation";
    case WhyNotFailure::Class::kFailedBuiltin: return "failed-builtin";
    case WhyNotFailure::Class::kTidMismatch: return "tid-mismatch";
  }
  return "unknown";
}

const char* FailureAnnotation(WhyNotFailure::Class cls) {
  switch (cls) {
    case WhyNotFailure::Class::kMissingSubgoal: return "[missing subgoal]";
    case WhyNotFailure::Class::kBlockedNegation:
      return "[blocked: fact is present]";
    case WhyNotFailure::Class::kFailedBuiltin:
      return "[built-in unsatisfied]";
    case WhyNotFailure::Class::kTidMismatch: return "[tid mismatch]";
  }
  return "";
}

void RenderWhyNotNodeText(const WhyNotNode& node, int depth,
                          std::string* out) {
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  if (node.holds) {
    *out += indent + node.label + "   holds in the computed model\n";
    return;
  }
  if (node.cycle) {
    *out += indent + node.label + "   [cycle — already being analyzed]\n";
    return;
  }
  if (node.no_rules) {
    *out += indent + node.label +
            "   [no rule derives this predicate and it is not stored]\n";
    return;
  }
  *out += indent + node.label + "   does not hold\n";
  for (const WhyNotRule& r : node.rules) {
    std::string rule_indent(static_cast<size_t>(depth + 1) * 2, ' ');
    *out += rule_indent + "clause #" + std::to_string(r.clause_index);
    if (!r.rule_text.empty()) *out += ": " + r.rule_text;
    *out += "\n";
    std::string detail_indent(static_cast<size_t>(depth + 2) * 2, ' ');
    if (!r.unifies) {
      *out += detail_indent + "head does not unify\n";
      continue;
    }
    if (r.derivable) {
      *out += detail_indent +
              "body satisfiable — the run may have stopped before "
              "deriving this fact\n";
      continue;
    }
    *out += detail_indent + "first failing premise: " + r.failure.rendered +
            "   " + FailureAnnotation(r.failure.cls);
    if (r.failure.cls == WhyNotFailure::Class::kTidMismatch) {
      *out += r.failure.chosen_tid.empty()
                  ? " (the base tuple exists under an unmaterialized tid)"
                  : " (the model chose tid " + r.failure.chosen_tid + ")";
    }
    *out += "\n";
    if (r.sub != nullptr) {
      RenderWhyNotNodeText(*r.sub, depth + 3, out);
    }
  }
  if (node.truncated) {
    std::string mark_indent(static_cast<size_t>(depth + 1) * 2, ' ');
    *out += mark_indent + "[... " + node.truncation + "]\n";
  }
}

void RenderWhyNotNodeJson(const WhyNotNode& node, std::string* out) {
  *out += "{\"label\":" + JsonQuote(node.label);
  *out += ",\"pred\":" + JsonQuote(node.predicate);
  const char* status = node.holds     ? "holds"
                       : node.cycle   ? "cycle"
                       : node.no_rules ? "no-rules"
                                       : "analyzed";
  *out += ",\"status\":\"";
  *out += status;
  *out += "\"";
  if (node.truncated) {
    *out += ",\"truncation\":" + JsonQuote(node.truncation);
  }
  if (!node.holds && !node.cycle && !node.no_rules) {
    *out += ",\"rules\":[";
    for (size_t i = 0; i < node.rules.size(); ++i) {
      if (i > 0) *out += ",";
      const WhyNotRule& r = node.rules[i];
      *out += "{\"clause\":" + std::to_string(r.clause_index);
      if (!r.rule_text.empty()) {
        *out += ",\"rule\":" + JsonQuote(r.rule_text);
      }
      *out += ",\"unifies\":";
      *out += r.unifies ? "true" : "false";
      if (r.unifies && r.derivable) {
        *out += ",\"derivable\":true";
      }
      if (r.unifies && !r.derivable) {
        *out += ",\"failure\":{\"class\":\"";
        *out += FailureClassName(r.failure.cls);
        *out += "\",\"step\":" + std::to_string(r.failure.step_index);
        *out += ",\"premise\":" + JsonQuote(r.failure.rendered);
        *out += ",\"ground\":";
        *out += r.failure.ground ? "true" : "false";
        if (r.failure.cls == WhyNotFailure::Class::kTidMismatch &&
            !r.failure.chosen_tid.empty()) {
          *out += ",\"chosen_tid\":" + JsonQuote(r.failure.chosen_tid);
        }
        *out += "}";
        if (r.sub != nullptr) {
          *out += ",\"why_not\":";
          RenderWhyNotNodeJson(*r.sub, out);
        }
      }
      *out += "}";
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

ProofTree BuildProofTree(const ProvenanceStore& store,
                         const SymbolTable& symbols, const std::string& pred,
                         const Tuple& tuple,
                         const std::function<bool(const std::string&,
                                                  const Tuple&)>& is_leaf,
                         const WhyBudget& budget) {
  ProofTree tree;
  tree.budget = budget;
  ProofBuilder builder(store, symbols, is_leaf, &tree);
  builder.Build(pred, tuple, 0, &tree.root);
  return tree;
}

std::string RenderWhyText(const ProofTree& tree) {
  std::string out = "WHY " + tree.root.label + "\n";
  RenderProofNodeText(tree.root, tree.budget, 1, &out);
  if (tree.truncated) {
    out += "(truncated at depth " + std::to_string(tree.budget.max_depth) +
           " / " + std::to_string(tree.budget.max_nodes) + " nodes)\n";
  }
  return out;
}

std::string RenderWhyJson(const ProofTree& tree) {
  std::string out = "{\"schema\":\"idlog-why-v1\",\"mode\":\"why\"";
  out += ",\"query\":" + JsonQuote(tree.root.label);
  out += ",\"budget\":" + BudgetJson(tree.budget);
  out += ",\"nodes\":" + std::to_string(tree.nodes);
  out += ",\"truncated\":";
  out += tree.truncated ? "true" : "false";
  out += ",\"tree\":";
  RenderProofNodeJson(tree.root, &out);
  out += "}";
  return out;
}

WhyNotReport BuildWhyNot(const WhyNotContext& ctx, const std::string& pred,
                         const Tuple& tuple, const WhyBudget& budget) {
  WhyNotReport report;
  report.budget = budget;
  WhyNotBuilder builder(ctx, &report);
  builder.Build(pred, tuple, 0, &report.root);
  return report;
}

std::string RenderWhyNotText(const WhyNotReport& report) {
  std::string out = "WHY NOT " + report.root.label + "\n";
  RenderWhyNotNodeText(report.root, 1, &out);
  if (report.truncated) {
    out += "(truncated at depth " +
           std::to_string(report.budget.max_depth) + " / " +
           std::to_string(report.budget.max_nodes) + " nodes)\n";
  }
  return out;
}

std::string RenderWhyNotJson(const WhyNotReport& report) {
  std::string out = "{\"schema\":\"idlog-why-v1\",\"mode\":\"why-not\"";
  out += ",\"query\":" + JsonQuote(report.root.label);
  out += ",\"budget\":" + BudgetJson(report.budget);
  out += ",\"nodes\":" + std::to_string(report.nodes);
  out += ",\"truncated\":";
  out += report.truncated ? "true" : "false";
  out += ",\"root\":";
  RenderWhyNotNodeJson(report.root, &out);
  out += "}";
  return out;
}

}  // namespace idlog
