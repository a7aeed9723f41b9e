#ifndef IDLOG_EXEC_ROUND_EXECUTOR_H_
#define IDLOG_EXEC_ROUND_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "eval/eval_stats.h"
#include "eval/provenance.h"
#include "eval/rule_eval.h"
#include "eval/rule_plan.h"
#include "obs/explain.h"
#include "storage/relation.h"

namespace idlog {

class ThreadPool;

/// One partition's share of a round task: its private staging, private
/// counters, private provenance and its status. Unpartitioned tasks
/// have exactly one part covering the whole delta.
struct RoundPart {
  int partition = 0;            ///< Partition index in [0, partitions).
  RowBuffer staged;             ///< Private append-only output (every
                                ///< derived row, duplicates included);
                                ///< sized to the head arity by the
                                ///< driver, deduplicated at Commit.
  std::vector<uint64_t> staged_order;
                                ///< Delta-row ordinal per staged row
                                ///< (partitioned tasks only): the merge
                                ///< key that restores serial emission
                                ///< order across partitions at Commit.
  EvalStats stats;              ///< Private counters (facts_inserted is
                                ///< left 0 — Commit computes it against
                                ///< the full relation).
  RuleStepStats step_stats;     ///< EXPLAIN ANALYZE per-step counters.
                                ///< Sized steps+1 by the driver when
                                ///< analysis is on (empty = off); the
                                ///< emit entry's rows_emitted is left 0
                                ///< — Commit fills it, like
                                ///< facts_inserted.
  ProvenanceStore prov;         ///< Private derivations recorded by the
                                ///< part (uncharged); the driver
                                ///< absorbs them in task order — merged
                                ///< across partitions by `prov_order` —
                                ///< which reproduces the serial
                                ///< first-derivation-wins store exactly.
  std::vector<uint64_t> prov_order;
                                ///< Delta-row ordinal per retained
                                ///< provenance record (partitioned
                                ///< tasks only).
  uint64_t start_us = 0;        ///< Trace timestamp at part start.
  uint64_t self_ns = 0;         ///< Wall time inside the evaluation.
  Status status;                ///< The evaluation's status.
};

/// One independent `(rule, delta_step)` evaluation of a fixpoint round,
/// possibly fanned out into `partitions` sub-evaluations that each own
/// a hash partition of the delta relation. The driver (EvaluateStratum)
/// builds the task list in the exact order the serial loop would
/// evaluate, the executor runs every part, and the driver merges the
/// private results back in (task, partition-ordered) order — which is
/// what makes `--jobs N` and every partition count byte-identical to
/// serial.
struct RoundTask {
  const RulePlan* plan = nullptr;
  int delta_step = -1;          ///< -1 = full evaluation (round 0 / naive).
  int partitions = 1;           ///< Fan-out; > 1 only for eligible
                                ///< delta-step-0 tasks (see the driver).
  std::vector<int> partition_cols;
                                ///< Delta columns hashed to pick an
                                ///< owner (empty = whole row).
  std::vector<RoundPart> parts; ///< Sized `partitions` by the driver.
};

/// Evaluates every part of every task, each into its private `staged`
/// row buffer with private `stats`, and returns when all have finished.
///
/// With a pool (and more than one part), parts run concurrently: the
/// executor pre-builds (serially, via `base_ctx.index_caches`) every
/// column index any task can touch, and workers run with
/// `EvalContext::parallel_worker` set, which makes index access
/// lookup-only (IndexCache::FindFresh). Without a pool — or with a
/// single part — parts run sequentially on the calling thread with the
/// ordinary lazy mutable index builds, so a serial run keeps its
/// physical index counters. In both modes insert accounting
/// (facts_inserted, emit rows_emitted, governor OnDerived charges,
/// provenance byte charges) is the driver's job at Commit, where "new"
/// is judged against the full relation — the definition that is
/// invariant across jobs and partition counts. The shared
/// ResourceGovernor is still probed from all workers (it is
/// thread-safe), so deadlines and cancellation interrupt long scans.
/// When `base_ctx.provenance` is set, each part records derivations
/// into its private `prov` store; the driver absorbs those stores in
/// serial task order (partitions merged by `prov_order`).
///
/// Per-part failures are reported in RoundPart::status and left to the
/// driver. A failing (or throwing — exceptions are converted to Status
/// inside the part) evaluation cancels the round: parts not yet started
/// are marked aborted instead of running. The pool claims queued parts
/// in index order, but claim order is not completion order — a part
/// claimed before the failure can still observe the abort flag after a
/// later-indexed part failed, so the driver must skip abort markers and
/// surface the first *real* error in part order (RoundAborted
/// identifies the markers). A governor trip additionally latches, so
/// parts already running unwind at their next checkpoint. The returned
/// Status covers executor-level failures only (index pre-build).
Status RunRoundTasks(const EvalContext& base_ctx, ThreadPool* pool,
                     std::vector<RoundTask>* tasks);

/// True if `s` is the synthetic "round aborted" marker RunRoundTasks
/// assigns to parts that were skipped because an earlier failure
/// cancelled the round (as opposed to a real evaluation error).
bool IsRoundAbortMarker(const Status& s);

}  // namespace idlog

#endif  // IDLOG_EXEC_ROUND_EXECUTOR_H_
