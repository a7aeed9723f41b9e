#include "eval/rule_eval.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/failpoint.h"
#include "eval/builtin_eval.h"

namespace idlog {

namespace {

/// Recursive nested-loop executor over the plan steps.
class RuleExecutor {
 public:
  RuleExecutor(const RulePlan& plan, const EvalContext& ctx, int delta_step,
               RowBuffer* out)
      : plan_(plan), ctx_(ctx), delta_step_(delta_step), out_(out),
        slots_(static_cast<size_t>(plan.num_slots)) {
    // One probe buffer serves every step: a step consumes its key (index
    // lookup or negation probe) before descending to the next step.
    size_t probe_width = 0;
    for (const PlanStep& step : plan.steps) {
      probe_width = std::max(probe_width, step.sources.size());
    }
    probe_.resize(probe_width);
    if (ctx_.provenance != nullptr) {
      premises_.resize(plan.steps.size());
    }
    // EXPLAIN ANALYZE counters: one pointer resolved here, so the
    // disabled path costs nothing per tuple. The buffer (steps+1
    // entries, sized by the engine/driver) is the worker's private one
    // when set, else the shared per-clause slot of the PlanAnalysis.
    if (ctx_.step_stats != nullptr &&
        ctx_.step_stats->steps.size() == plan.steps.size() + 1) {
      sc_ = ctx_.step_stats->steps.data();
    } else if (ctx_.analyze != nullptr && plan.clause_index >= 0 &&
               static_cast<size_t>(plan.clause_index) <
                   ctx_.analyze->rules.size()) {
      auto& steps = ctx_.analyze->rules[static_cast<size_t>(
                                            plan.clause_index)]
                        .steps;
      if (steps.size() == plan.steps.size() + 1) sc_ = steps.data();
    }
  }

  Status Run() {
    // A differentiated rule derives nothing when its delta is empty;
    // bail out before scanning any earlier (possibly large) steps.
    if (delta_step_ >= 0) {
      const PlanStep& step =
          plan_.steps[static_cast<size_t>(delta_step_)];
      const Relation* delta =
          ctx_.delta ? ctx_.delta(step.predicate) : nullptr;
      if (delta == nullptr || delta->empty()) return Status::OK();
    }
    if (ctx_.stats != nullptr) ++ctx_.stats->rule_firings;
    IDLOG_RETURN_NOT_OK(RunStep(0));
    return FlushWork();
  }

 private:
  /// Governor checkpoint, batched per evaluation: pool workers share
  /// one governor, and an atomic add on its work counter per tuple
  /// would bounce that cache line between every thread. Work is
  /// handed over every kWorkBatch units and when the evaluation ends,
  /// so deadlines and cancellation are seen at most kWorkBatch units
  /// late.
  static constexpr uint32_t kWorkBatch = 64;

  Status CheckPoint() {
    if (++unflushed_work_ < kWorkBatch) return Status::OK();
    return FlushWork();
  }

  Status FlushWork() {
    const uint32_t units = unflushed_work_;
    unflushed_work_ = 0;
    if (ctx_.governor == nullptr || units == 0) return Status::OK();
    return ctx_.governor->CheckPoint(units);
  }

  Value Resolve(const ArgSource& src) const {
    return src.is_slot ? slots_[static_cast<size_t>(src.slot)] : src.constant;
  }

  const IndexCache* CacheFor(const Relation* rel) const {
    auto it = ctx_.index_caches->find(rel);
    if (it == ctx_.index_caches->end()) {
      it = ctx_.index_caches
               ->emplace(rel, std::make_unique<IndexCache>(rel))
               .first;
    }
    return it->second.get();
  }

  Status EmitHead() {
    IDLOG_FAILPOINT("eval.emit.insert");
    // The emit pseudo-step (index steps.size()): rows_in mirrors
    // facts_derived here; rows_emitted mirrors facts_inserted, which the
    // driver counts at commit, where "new" is judged against the full
    // relation.
    StepCounters* emit = sc_ != nullptr ? &sc_[plan_.steps.size()] : nullptr;
    if (emit != nullptr) ++emit->rows_in;
    Value* row = out_->AppendRow();
    for (size_t k = 0; k < plan_.head_args.size(); ++k) {
      row[k] = Resolve(plan_.head_args[k]);
    }
    if (ctx_.stats != nullptr) ++ctx_.stats->facts_derived;
    if (ctx_.provenance != nullptr) {
      // Interned at first emit, not construction: the store's predicate
      // table must hold exactly the predicates with recorded nodes, in
      // first-record order, or the parallel task-order merge (which only
      // sees recorded nodes) would diverge from a serial run. Cached, so
      // later emits stay id-keyed with no string hashing/copies.
      if (head_pred_id_ == ProvenanceStore::kNoPred) {
        head_pred_id_ = ctx_.provenance->InternPredicate(plan_.head_pred);
      }
      // Bytes are charged when the driver absorbs the store.
      ctx_.provenance->Record(head_pred_id_, (*out_)[out_->size() - 1],
                              plan_.clause_index, premises_);
    }
    return Status::OK();
  }

  // Verifies kKey positions against `row` (needed when scanning without
  // an index — the ablation path and the parallel worker's fallback
  // when a frozen index is unavailable; index lookups guarantee them).
  bool KeysMatch(const PlanStep& step, TupleView row) {
    if (step.key_cols.empty()) return true;
    for (int col : step.key_cols) {
      if (Resolve(step.sources[static_cast<size_t>(col)]) !=
          row[static_cast<size_t>(col)]) {
        return false;
      }
    }
    return true;
  }

  // Applies write/filter argument modes against `row`; returns false on
  // a filter mismatch. kKey positions are guaranteed by the index.
  bool BindRow(const PlanStep& step, TupleView row) {
    for (size_t pos = 0; pos < step.modes.size(); ++pos) {
      const ArgSource& src = step.sources[pos];
      switch (step.modes[pos]) {
        case ArgMode::kKey:
          break;
        case ArgMode::kWrite:
          slots_[static_cast<size_t>(src.slot)] = row[pos];
          break;
        case ArgMode::kFilter:
          if (slots_[static_cast<size_t>(src.slot)] != row[pos]) return false;
          break;
      }
    }
    return true;
  }

  Result<const Relation*> ResolveRelation(const PlanStep& step,
                                          bool use_delta) {
    if (step.is_id) {
      return ctx_.id_relation(step.predicate, step.group);
    }
    if (use_delta) {
      return ctx_.delta ? ctx_.delta(step.predicate) : nullptr;
    }
    return ctx_.full(step.predicate);
  }

  Status RunStep(size_t i) {
    if (i == plan_.steps.size()) return EmitHead();
    const PlanStep& step = plan_.steps[i];
    StepCounters* sc = sc_ != nullptr ? &sc_[i] : nullptr;
    if (sc != nullptr) ++sc->rows_in;

    switch (step.kind) {
      case PlanStep::Kind::kScan: {
        bool use_delta = static_cast<int>(i) == delta_step_;
        IDLOG_ASSIGN_OR_RETURN(const Relation* rel,
                               ResolveRelation(step, use_delta));
        if (rel == nullptr || rel->empty()) return Status::OK();

        // Resolve the index for this scan, if any. Parallel workers may
        // only read the shared cache (the driver pre-built every index
        // the round can touch); if one is somehow missing or stale they
        // fall back to the key-verified full scan below rather than
        // mutate shared state.
        const ColumnIndex* index = nullptr;
        if (ctx_.use_indexes && !step.key_cols.empty()) {
          if (ctx_.parallel_worker) {
            auto it = ctx_.index_caches->find(rel);
            if (it != ctx_.index_caches->end()) {
              index = it->second->FindFresh(step.key_cols);
            }
            if (index == nullptr) {
              if (ctx_.stats != nullptr) ++ctx_.stats->index_cache_misses;
              if (sc != nullptr) ++sc->index_misses;
            } else if (sc != nullptr) {
              ++sc->index_hits;
            }
          } else {
            IDLOG_FAILPOINT("eval.index.build");
            bool rebuilt = false;
            index = &const_cast<IndexCache*>(CacheFor(rel))
                         ->Get(step.key_cols, &rebuilt);
            if (rebuilt) {
              if (ctx_.stats != nullptr) {
                ++ctx_.stats->index_builds;
                ++ctx_.stats->index_cache_misses;
              }
              if (sc != nullptr) ++sc->index_misses;
            } else if (sc != nullptr) {
              ++sc->index_hits;
            }
          }
        }

        if (index == nullptr) {
          for (TupleView row : rel->tuples()) {
            if (ctx_.stats != nullptr) ++ctx_.stats->tuples_considered;
            if (sc != nullptr) ++sc->rows_scanned;
            IDLOG_RETURN_NOT_OK(CheckPoint());
            if (!KeysMatch(step, row)) continue;
            if (!BindRow(step, row)) continue;
            if (ctx_.provenance != nullptr) RecordScanPremise(i, step, row);
            if (sc != nullptr) ++sc->rows_emitted;
            IDLOG_RETURN_NOT_OK(RunStep(i + 1));
          }
          return Status::OK();
        }

        const size_t nkeys = step.key_cols.size();
        for (size_t k = 0; k < nkeys; ++k) {
          probe_[k] = Resolve(
              step.sources[static_cast<size_t>(step.key_cols[k])]);
        }
        if (ctx_.stats != nullptr) ++ctx_.stats->index_probes;
        if (sc != nullptr) ++sc->index_probes;
        for (size_t r : index->Lookup(TupleView(probe_.data(), nkeys))) {
          if (ctx_.stats != nullptr) ++ctx_.stats->tuples_considered;
          if (sc != nullptr) ++sc->rows_scanned;
          IDLOG_RETURN_NOT_OK(CheckPoint());
          const TupleView row = rel->row(r);
          if (!BindRow(step, row)) continue;
          if (ctx_.provenance != nullptr) RecordScanPremise(i, step, row);
          if (sc != nullptr) ++sc->rows_emitted;
          IDLOG_RETURN_NOT_OK(RunStep(i + 1));
        }
        return Status::OK();
      }

      case PlanStep::Kind::kNegation: {
        IDLOG_ASSIGN_OR_RETURN(const Relation* rel,
                               ResolveRelation(step, /*use_delta=*/false));
        const size_t width = step.sources.size();
        for (size_t k = 0; k < width; ++k) probe_[k] = Resolve(step.sources[k]);
        const TupleView probe(probe_.data(), width);
        if (ctx_.stats != nullptr) ++ctx_.stats->tuples_considered;
        if (sc != nullptr) ++sc->rows_scanned;
        IDLOG_RETURN_NOT_OK(CheckPoint());
        if (rel != nullptr && rel->Contains(probe)) return Status::OK();
        if (ctx_.provenance != nullptr) {
          Premise& p = premises_[i];
          p.kind = Premise::Kind::kNegation;
          p.predicate = step.predicate;
          p.group = step.group;
          p.tuple.assign(probe.begin(), probe.end());
        }
        if (sc != nullptr) ++sc->rows_emitted;
        return RunStep(i + 1);
      }

      case PlanStep::Kind::kBuiltin: {
        if (step.negated) {
          std::vector<Value> args;
          args.reserve(step.sources.size());
          for (const ArgSource& src : step.sources) {
            args.push_back(Resolve(src));
          }
          if (sc != nullptr) ++sc->rows_scanned;
          if (BuiltinHolds(step.builtin, args)) return Status::OK();
          if (ctx_.provenance != nullptr) {
            RecordBuiltinPremise(i, step, args, /*negated=*/true);
          }
          if (sc != nullptr) ++sc->rows_emitted;
          return RunStep(i + 1);
        }
        std::vector<std::optional<Value>> args(step.sources.size());
        for (size_t pos = 0; pos < step.sources.size(); ++pos) {
          if (step.modes[pos] == ArgMode::kKey) {
            args[pos] = Resolve(step.sources[pos]);
          }
        }
        Status inner = Status::OK();
        Status st = EnumerateBuiltin(
            step.builtin, args, [&](const std::vector<Value>& solution) {
              if (!inner.ok()) return;
              if (sc != nullptr) ++sc->rows_scanned;
              inner = CheckPoint();
              if (!inner.ok()) return;
              // Apply writes/filters for unbound positions.
              for (size_t pos = 0; pos < step.modes.size(); ++pos) {
                const ArgSource& src = step.sources[pos];
                if (step.modes[pos] == ArgMode::kWrite) {
                  slots_[static_cast<size_t>(src.slot)] = solution[pos];
                } else if (step.modes[pos] == ArgMode::kFilter) {
                  if (slots_[static_cast<size_t>(src.slot)] !=
                      solution[pos]) {
                    return;
                  }
                }
              }
              if (ctx_.provenance != nullptr) {
                RecordBuiltinPremise(i, step, solution, /*negated=*/false);
              }
              if (sc != nullptr) ++sc->rows_emitted;
              inner = RunStep(i + 1);
            });
        IDLOG_RETURN_NOT_OK(st);
        return inner;
      }
    }
    return Status::Internal("unknown plan step kind");
  }

  void RecordScanPremise(size_t i, const PlanStep& step, TupleView row) {
    Premise& p = premises_[i];
    p.kind = step.is_id ? Premise::Kind::kIdFact : Premise::Kind::kFact;
    p.predicate = step.predicate;
    p.group = step.group;
    p.tuple.assign(row.begin(), row.end());
  }

  void RecordBuiltinPremise(size_t i, const PlanStep& step,
                            const std::vector<Value>& args, bool negated) {
    static const SymbolTable& kEmptySymbols = *new SymbolTable();
    const SymbolTable& symbols =
        ctx_.symbols != nullptr ? *ctx_.symbols : kEmptySymbols;
    Premise& p = premises_[i];
    p.kind = Premise::Kind::kBuiltin;
    std::string text = negated ? "not " : "";
    text += BuiltinName(step.builtin);
    text += "(";
    for (size_t a = 0; a < args.size(); ++a) {
      if (a > 0) text += ", ";
      text += args[a].ToString(symbols);
    }
    text += ")";
    p.builtin_text = std::move(text);
  }

  const RulePlan& plan_;
  const EvalContext& ctx_;
  int delta_step_;
  RowBuffer* out_;
  std::vector<Value> slots_;
  /// Scratch for index keys and negation probes (see the constructor).
  std::vector<Value> probe_;
  std::vector<Premise> premises_;
  /// Interned head predicate id (valid only when provenance is on).
  ProvenanceStore::PredId head_pred_id_ = ProvenanceStore::kNoPred;
  /// Work counted since the last hand-over to the governor.
  uint32_t unflushed_work_ = 0;
  /// EXPLAIN ANALYZE counter array (steps+1 entries, last is the emit
  /// pseudo-step), or null when analysis is off — see the constructor.
  StepCounters* sc_ = nullptr;
};

}  // namespace

Status EvaluateRuleInto(const RulePlan& plan, const EvalContext& ctx,
                        int delta_step, RowBuffer* out) {
  RuleExecutor executor(plan, ctx, delta_step, out);
  return executor.Run();
}

}  // namespace idlog
