#ifndef IDLOG_EVAL_RULE_EVAL_H_
#define IDLOG_EVAL_RULE_EVAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/limits.h"
#include "common/status.h"
#include "common/symbol_table.h"
#include "eval/eval_stats.h"
#include "eval/provenance.h"
#include "eval/rule_plan.h"
#include "obs/explain.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/id_relation.h"
#include "storage/index.h"
#include "storage/relation.h"

namespace idlog {

class ThreadPool;  // exec/thread_pool.h; the context only points at it.

/// A semi-naive delta: the rows [begin, end) of `rel` that are new since
/// the previous round. Rows only append to a relation within a stratum,
/// so a round's delta of P is exactly the rows that round's commit
/// appended to P, and the range stays valid while later rounds append
/// past it. A session's EDB-insert seed is a range over its own small
/// relation of inserted tuples.
struct DeltaRange {
  const Relation* rel = nullptr;
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// The deltas one fixpoint round reads, by predicate, plus the
/// per-round index of every keyed delta step over its range. The
/// stratum driver builds the indexes (the same way for serial and
/// pooled rounds) before any task runs; tasks only read this.
struct RoundDeltas {
  std::map<std::string, DeltaRange> ranges;
  std::map<std::pair<std::string, std::vector<int>>, ColumnIndex> indexes;

  const DeltaRange* Find(const std::string& pred) const {
    auto it = ranges.find(pred);
    return it == ranges.end() ? nullptr : &it->second;
  }
  const ColumnIndex* IndexFor(const std::string& pred,
                              const std::vector<int>& cols) const {
    auto it = indexes.find(std::make_pair(pred, cols));
    return it == indexes.end() ? nullptr : &it->second;
  }
};

/// Runtime environment a rule executes in. The resolver functions
/// return nullptr for relations that do not exist yet (treated as
/// empty for scans, which makes the rule produce nothing, and as empty
/// for negation, which makes the negation succeed).
struct EvalContext {
  /// Full contents of an ordinary predicate (EDB or IDB).
  std::function<const Relation*(const std::string&)> full;
  /// The current round's deltas (null outside a differentiated round).
  const RoundDeltas* deltas = nullptr;
  /// Materialized ID-relation of (base predicate, grouping columns).
  std::function<Result<const IdRelation*>(const std::string&,
                                          const std::vector<int>&)>
      id_relation;

  /// Pointer-keyed index caches, owned by the caller and shared across
  /// rule evaluations within one engine run.
  std::map<const Relation*, std::unique_ptr<IndexCache>>* index_caches =
      nullptr;

  EvalStats* stats = nullptr;

  /// Resource budgets (deadline, tuples, memory, iterations) and the
  /// cooperative cancellation token. When set, the executor counts
  /// every tuple considered (handed over in small batches) and the
  /// stratum driver charges every inserted fact, so
  /// runaway joins and non-terminating fixpoints trip instead of
  /// spinning. Null means ungoverned.
  ResourceGovernor* governor = nullptr;

  /// Ablation switch: with false, scans ignore their index keys and
  /// filter full scans instead (bench E4 measures the cost of losing
  /// index nested-loop joins).
  bool use_indexes = true;

  /// Thread pool for the parallel stratum executor (exec/). Null (the
  /// default) keeps the serial fixpoint; when set, EvaluateStratum runs
  /// the independent (rule, delta_step) evaluations of each round
  /// concurrently and merges them deterministically.
  ThreadPool* pool = nullptr;

  /// Set on the context copies handed to pool workers: index access
  /// becomes lookup-only against the pre-built shared caches
  /// (IndexCache::FindFresh; a miss falls back to a key-verified full
  /// scan) so no worker mutates shared state. Serial executions of the
  /// unified task path leave this false and keep the lazy mutable index
  /// builds.
  bool parallel_worker = false;

  /// Observability (both null by default — the fast path is a pointer
  /// test per *rule evaluation*, never per tuple). `trace` receives one
  /// complete span per rule evaluation and per fixpoint round; `profile`
  /// accumulates per-rule counter deltas and self time, attributed by
  /// clause index. `stats` must be set for attribution to happen.
  TraceSink* trace = nullptr;
  EvalProfile* profile = nullptr;
  /// Stratum currently evaluating (labels trace events; -1 outside).
  int stratum = -1;

  /// EXPLAIN ANALYZE per-step counters (both null by default — the fast
  /// path is one pointer test per rule evaluation, the same contract as
  /// trace/profile). `analyze` is the engine-owned PlanAnalysis, with
  /// one RuleStepStats per clause sized steps+1 (the extra entry is the
  /// emit pseudo-step); the executor attributes by clause index.
  /// Parallel workers instead receive `step_stats` pointing at their
  /// task's private buffer (with `analyze` nulled so no worker touches
  /// shared state) and the driver merges buffers in serial task order —
  /// the emit step's rows_emitted is deferred to that merge, exactly
  /// like EvalStats::facts_inserted. `step_stats` wins over `analyze`.
  PlanAnalysis* analyze = nullptr;
  RuleStepStats* step_stats = nullptr;

  /// When set, the first derivation of every new fact is recorded
  /// (clause index + matched premises). `symbols` is only consulted for
  /// rendering built-in premises and may be null otherwise.
  ProvenanceStore* provenance = nullptr;
  const SymbolTable* symbols = nullptr;
};

/// Evaluates one rule bottom-up, appending every derived head tuple to
/// `out` (arity = the head's), duplicates included. If `delta_step >=
/// 0`, that step (which must be a positive non-ID scan) reads its
/// predicate's delta range instead of the full relation — the
/// semi-naive differentiation hook.
///
/// Whether a derived tuple is *new* is not decided here: the caller
/// commits `out` into the full relation, and that commit is where
/// facts_inserted, the emit step's rows_emitted, governor OnDerived
/// charges and provenance byte charges are accounted — the one
/// definition of "new" that is invariant across --jobs.
Status EvaluateRuleInto(const RulePlan& plan, const EvalContext& ctx,
                        int delta_step, RowBuffer* out);

}  // namespace idlog

#endif  // IDLOG_EVAL_RULE_EVAL_H_
