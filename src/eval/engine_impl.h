#ifndef IDLOG_EVAL_ENGINE_IMPL_H_
#define IDLOG_EVAL_ENGINE_IMPL_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stratifier.h"
#include "analysis/tid_bounds.h"
#include "ast/ast.h"
#include "common/limits.h"
#include "common/status.h"
#include "eval/eval_stats.h"
#include "eval/provenance.h"
#include "eval/rule_eval.h"
#include "eval/rule_plan.h"
#include "eval/stratum_eval.h"
#include "exec/thread_pool.h"
#include "obs/explain.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/database.h"
#include "storage/id_relation.h"
#include "storage/tid_assigner.h"

namespace idlog {

/// Continuation state decoded from a checkpoint. The maps are adopted
/// wholesale; `stratum` is the stratum Evaluate() enters next (every
/// stratum below it is complete in `derived`).
struct EvalResumeState {
  std::map<std::string, Relation> derived;
  IdRelationMap id_relations;
  EvalStats stats;
  bool has_analysis = false;
  PlanAnalysis analysis;
  bool has_profile = false;
  EvalProfile profile;
  bool has_provenance = false;
  ProvenanceStore provenance;
  int stratum = 0;
};

/// One prepared evaluation of a stratified IDLOG program against a
/// database: stratification + compiled rule plans, reusable across runs
/// with different tid assigners (each run computes one perfect model).
class EngineImpl {
 public:
  /// `program` and `database` must outlive the engine.
  EngineImpl(const Program* program, const Database* database)
      : program_(program), database_(database) {}

  EngineImpl(const EngineImpl&) = delete;
  EngineImpl& operator=(const EngineImpl&) = delete;

  /// Validates (safety, stratification) and compiles rule plans.
  Status Prepare();

  /// Computes the perfect model under `assigner`'s ID-functions.
  /// Clears previous results first — unless a resume state is pending
  /// (InstallResumeState), in which case it evaluates from the
  /// checkpointed stratum on. `seminaive=false` selects the naive
  /// fixpoint (ablation only).
  Status Evaluate(TidAssigner* assigner, bool seminaive = true);

  /// Extends the model of a *completed* Evaluate() in place after new
  /// EDB facts were inserted, without re-running the full fixpoint:
  /// `changed` maps each mutated predicate to a relation holding only
  /// the tuples that are actually new, and every stratum runs a seeded
  /// semi-naive continuation (no round 0) whose first round
  /// differentiates on those deltas. Stats, profile and provenance
  /// accumulate on top of the previous run's; nothing is cleared.
  ///
  /// Returns Unsupported — leaving all state untouched, so the caller
  /// can fall back to a full Evaluate() — when the change cannot be
  /// bolted on monotonically: naive mode, a program that reads the
  /// synthesized `udom` (new constants extend it), or any negation /
  /// ID-relation step over a predicate in the taint closure of
  /// `changed` (ID-relations are materialized from their base's old
  /// contents, and negation makes growth non-monotone).
  Status EvaluateIncremental(const std::map<std::string, Relation>& changed,
                             bool seminaive);

  /// The IDB predicate set of the loaded program (valid after
  /// Prepare()); EDB mutations against these are shadowed by derived
  /// relations, so durable sessions refuse them up front.
  const std::set<std::string>& idb_preds() const { return idb_preds_; }

  /// Adopts checkpointed evaluation state: the derived/ID-relations,
  /// stats and observability counters become current immediately (so a
  /// completed snapshot is queryable without evaluating), and the next
  /// Evaluate() enters the checkpointed stratum instead of starting
  /// over. The pending continuation is consumed by that Evaluate();
  /// later ones start fresh as usual.
  void InstallResumeState(EvalResumeState state);

  /// Called by Evaluate() at every stratum entry, before the stratum's
  /// ID-relations are drawn: a consistent cut to resume from (the
  /// checkpointer). A non-OK return aborts the run. Null disables.
  using CheckpointHook = std::function<Status(int stratum)>;
  void set_checkpoint_hook(CheckpointHook hook) {
    checkpoint_hook_ = std::move(hook);
  }

  /// The evaluated state, for snapshot serialization.
  const std::map<std::string, Relation>& derived() const { return derived_; }
  const IdRelationMap& id_relations() const { return id_relations_; }

  /// Storage introspection (obs/dbstats): the synthesized u-domain
  /// relation (empty unless the program reads `udom`) and the live
  /// index caches keyed by relation pointer.
  const Relation& udom_relation() const { return udom_; }
  const std::map<const Relation*, std::unique_ptr<IndexCache>>&
  index_caches() const {
    return index_caches_;
  }

  /// The relation of `pred` after Evaluate: derived if IDB, database
  /// contents if EDB, NotFound otherwise. The special predicate `udom`
  /// resolves to the database's u-domain if not stored explicitly.
  Result<const Relation*> RelationOf(const std::string& pred) const;

  /// Materialized ID-relation of (pred, group) from the last run, for
  /// inspection and invariant checks.
  Result<const IdRelation*> IdRelationOf(
      const std::string& pred, const std::vector<int>& group) const;

  /// Verifies that the relations computed by the last Evaluate() form a
  /// fixpoint model: re-runs every rule against the final state (with
  /// the same materialized ID-relations) and checks that nothing new is
  /// derivable. Returns false with no error if a violation is found.
  Result<bool> VerifyModel();

  const EvalStats& stats() const { return stats_; }
  const Stratification& stratification() const { return strat_; }
  bool prepared() const { return prepared_; }

  /// The compiled plans, one per program clause (the WHY NOT walker
  /// unifies a missing tuple against their heads). Requires Prepare().
  const std::vector<RulePlan>& plans() const { return plans_; }

  /// Enables/disables the footnote 6/7 tid-bound pushdown (default on):
  /// ID-relations whose tids are provably bounded materialize only the
  /// needed prefix per group. Call before Evaluate.
  void set_tid_bound_pushdown(bool enabled) {
    tid_bound_pushdown_ = enabled;
  }

  /// The bounds the analysis found (for inspection and tests).
  const std::map<TidBoundKey, int64_t>& tid_bounds() const {
    return tid_bounds_;
  }

  /// Records first derivations during Evaluate (off by default; costs
  /// memory proportional to the number of derived facts).
  void set_provenance_enabled(bool enabled) {
    provenance_enabled_ = enabled;
  }

  /// Ablation: disable index lookups (full scans + filters).
  void set_use_indexes(bool enabled) { use_indexes_ = enabled; }
  const ProvenanceStore& provenance() const { return provenance_; }

  /// Installs the resource governor consulted by Evaluate(): rule
  /// execution checkpoints against it and each stratum labels it with
  /// its index, so trips name where they happened. Not owned; null
  /// disables governance. The caller arms it (the engine never does, so
  /// one governor can span many Evaluate() calls during enumeration).
  void set_governor(ResourceGovernor* governor) { governor_ = governor; }
  ResourceGovernor* governor() const { return governor_; }

  /// Structured trace-event sink observing this engine: Prepare()
  /// records a program-analysis span, Evaluate() records evaluation /
  /// per-stratum / ID-materialization spans and the fixpoint machinery
  /// adds per-round and per-rule spans. Not owned; null (the default)
  /// disables tracing at the cost of one pointer test per rule call.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace_sink() const { return trace_; }

  /// Worker-thread count for the parallel stratum executor (default 1 =
  /// serial fixpoint, no pool). With n >= 2, each fixpoint round's
  /// independent (rule, delta_step) evaluations run concurrently and
  /// are merged deterministically, so results, stats, profiles, traces
  /// and the provenance store stay byte-identical to a serial run.
  void set_threads(int n) { threads_ = n < 1 ? 1 : n; }
  int threads() const { return threads_; }

  /// Enables the per-rule/per-stratum profile (off by default). The
  /// attribution cost is a few clock reads per rule evaluation.
  void set_profiling_enabled(bool enabled) { profiling_ = enabled; }
  bool profiling_enabled() const { return profiling_; }

  /// The profile of the last Evaluate() (empty unless enabled).
  const EvalProfile& profile() const { return profile_; }

  /// Enables EXPLAIN ANALYZE per-step counter collection during
  /// Evaluate() (off by default; same pointer-test contract as the
  /// profile — one branch per rule evaluation, counters per tuple only
  /// when on).
  void set_explain_enabled(bool enabled) { explain_ = enabled; }
  bool explain_enabled() const { return explain_; }

  /// Per-step counters of the last Evaluate() (empty unless enabled).
  const PlanAnalysis& plan_analysis() const { return plan_analysis_; }

  /// Installs rewrite provenance carried in from the opt/ pipeline;
  /// EXPLAIN renders these notes next to the clauses they touched. The
  /// engine appends its own tid-pushdown notes during Prepare().
  void set_rewrite_log(RewriteLog log) { rewrite_log_ = std::move(log); }

  /// Renders the compiled plans as an EXPLAIN document — the aligned
  /// text tree or the deterministic `idlog-explain-v1` JSON. With
  /// `analyze`, per-step runtime counters and per-stratum round sizes
  /// of the last Evaluate() are included (requires explain enabled and
  /// a completed run for meaningful numbers). Requires Prepare().
  Result<std::string> ExplainPlanText(bool analyze) const;
  Result<std::string> ExplainPlanJson(bool analyze) const;

 private:
  Result<std::string> RenderExplain(bool analyze, bool json) const;

  const Relation* FullRelation(const std::string& pred) const;

  /// The evaluation context Evaluate and EvaluateIncremental share:
  /// full-relation resolver, index caches, stats, governor, trace,
  /// profile, provenance and the thread pool (created, resized or
  /// dropped to match threads_). Callers add `id_relation` and
  /// `analyze`, which differ between the two.
  EvalContext BuildRunContext();

  const Program* program_;
  const Database* database_;

  bool prepared_ = false;
  bool tid_bound_pushdown_ = true;
  std::map<TidBoundKey, int64_t> tid_bounds_;
  Stratification strat_;
  std::vector<RulePlan> plans_;  ///< One per program clause.
  std::set<std::string> idb_preds_;

  std::map<std::string, Relation> derived_;
  IdRelationMap id_relations_;
  Relation udom_;  ///< Synthesized u-domain relation.
  bool udom_needed_ = false;

  mutable std::map<const Relation*, std::unique_ptr<IndexCache>>
      index_caches_;
  int threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  ///< Lazily sized to threads_.
  EvalStats stats_;
  ResourceGovernor* governor_ = nullptr;
  TraceSink* trace_ = nullptr;
  bool profiling_ = false;
  EvalProfile profile_;
  bool explain_ = false;
  PlanAnalysis plan_analysis_;
  RewriteLog rewrite_log_;    ///< From the opt/ pipeline (caller-set).
  RewriteLog pushdown_notes_; ///< The engine's own Prepare()-time notes.
  bool provenance_enabled_ = false;
  bool use_indexes_ = true;
  ProvenanceStore provenance_;
  CheckpointHook checkpoint_hook_;
  /// The stratum the next Evaluate() enters, set by InstallResumeState
  /// and consumed by that Evaluate(); the state itself was adopted into
  /// the members directly.
  std::optional<int> pending_resume_stratum_;
};

}  // namespace idlog

#endif  // IDLOG_EVAL_ENGINE_IMPL_H_
