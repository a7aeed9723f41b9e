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

/// One independent `(rule, delta_step)` evaluation of a fixpoint round
/// with its private results. The driver (EvaluateStratum) builds the
/// task list in the exact order the serial loop would evaluate, the
/// executor runs every task, and the driver merges the private results
/// back in task order — which is what makes `--jobs N` byte-identical
/// to serial.
struct RoundTask {
  const RulePlan* plan = nullptr;
  int delta_step = -1;          ///< -1 = full evaluation (round 0 / naive).
  RowBuffer staged;             ///< Private append-only output (every
                                ///< derived row, duplicates included);
                                ///< sized to the head arity by the
                                ///< driver, deduplicated at Commit.
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
                                ///< task (uncharged); the driver
                                ///< absorbs them in task order, which
                                ///< reproduces the serial
                                ///< first-derivation-wins store exactly.
  uint64_t start_us = 0;        ///< Trace timestamp at task start.
  uint64_t self_ns = 0;         ///< Wall time inside the evaluation.
  bool skipped = false;         ///< Not evaluated: another task's
                                ///< failure cancelled the round before
                                ///< this one started.
  Status status;                ///< The evaluation's status (OK when
                                ///< skipped).
};

/// Evaluates every task, each into its private `staged` row buffer
/// with private `stats`, and returns when all have finished.
///
/// With a pool (and more than one task), tasks run concurrently: the
/// executor pre-builds (serially, via `base_ctx.index_caches`) every
/// column index any task can touch, and workers run with
/// `EvalContext::parallel_worker` set, which makes index access
/// lookup-only (IndexCache::FindFresh). Without a pool — or with a
/// single task — tasks run sequentially on the calling thread with the
/// ordinary lazy mutable index builds, so a serial run keeps its
/// physical index counters. In both modes insert accounting
/// (facts_inserted, emit rows_emitted, governor OnDerived charges,
/// provenance byte charges) is the driver's job at Commit, where "new"
/// is judged against the full relation — the definition that is
/// invariant across jobs. The shared ResourceGovernor is still probed
/// from all workers (it is thread-safe), so deadlines and cancellation
/// interrupt long scans. When `base_ctx.provenance` is set, each task
/// records derivations into its private `prov` store; the driver
/// absorbs those stores in serial task order.
///
/// Per-task failures are reported in RoundTask::status and left to the
/// driver. A failing (or throwing — exceptions are converted to Status
/// inside the task) evaluation cancels the round: tasks not yet started
/// are marked `skipped` instead of running. The pool claims queued
/// tasks in index order, but claim order is not completion order — a
/// task claimed before the failure can still observe the abort flag
/// after a later-indexed task failed, so the driver must surface the
/// first real error in task order, passing over skipped tasks. A
/// governor trip additionally latches, so tasks already running unwind
/// at their next checkpoint. The returned Status covers executor-level
/// failures only (index pre-build).
Status RunRoundTasks(const EvalContext& base_ctx, ThreadPool* pool,
                     std::vector<RoundTask>* tasks);

}  // namespace idlog

#endif  // IDLOG_EXEC_ROUND_EXECUTOR_H_
