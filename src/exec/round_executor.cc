#include "exec/round_executor.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "exec/thread_pool.h"

namespace idlog {

namespace {

/// Builds or refreshes, on the calling thread, every cached column
/// index the tasks can reach, so workers never mutate the shared cache.
/// The set is enumerable up front because each keyed plan step scans
/// one fixed relation (its predicate's full or ID relation) with fixed
/// key columns. Delta steps read the round's own delta indexes, and tid
/// slices need none.
Status PrebuildIndexes(const EvalContext& ctx,
                       const std::vector<RoundTask>& tasks) {
  if (!ctx.use_indexes || ctx.index_caches == nullptr) return Status::OK();
  for (const RoundTask& task : tasks) {
    const RulePlan& plan = *task.plan;
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const PlanStep& step = plan.steps[i];
      if (step.kind != PlanStep::Kind::kScan || step.key_cols.empty() ||
          step.tid_slice.has_value() ||
          static_cast<int>(i) == task.delta_step) {
        continue;
      }
      const Relation* rel = nullptr;
      if (step.is_id) {
        IDLOG_ASSIGN_OR_RETURN(rel,
                               ctx.id_relation(step.predicate, step.group));
      } else {
        rel = ctx.full(step.predicate);
      }
      if (rel == nullptr || rel->empty()) continue;
      auto it = ctx.index_caches->find(rel);
      if (it == ctx.index_caches->end()) {
        it = ctx.index_caches
                 ->emplace(rel, std::make_unique<IndexCache>(rel))
                 .first;
      }
      bool rebuilt = false;
      (void)it->second->Get(step.key_cols, &rebuilt);
      // Physical index work moves into this coordinator pre-build under
      // --jobs; the counters are physical (like wall times) and are not
      // compared across serial/parallel runs.
      if (rebuilt && ctx.stats != nullptr) {
        ++ctx.stats->index_builds;
        ++ctx.stats->index_cache_misses;
      }
    }
  }
  return Status::OK();
}

/// Evaluates one task: sets up the task-private context (counters,
/// per-step buffer, provenance store) and converts any escaping
/// exception into the task's Status. `pooled` selects the lookup-only
/// index mode for pool workers.
void RunTask(const EvalContext& base_ctx, RoundTask* task,
             std::atomic<bool>* abort, bool pooled) {
  if (abort->load(std::memory_order_relaxed)) {
    task->skipped = true;
    return;
  }
  EvalContext ctx = base_ctx;
  ctx.stats = &task->stats;
  ctx.parallel_worker = pooled;
  // Observability attribution happens in the driver's deterministic
  // merge; tasks only measure. Per-step counters go to the task's
  // private buffer, never the shared PlanAnalysis.
  ctx.trace = nullptr;
  ctx.profile = nullptr;
  ctx.analyze = nullptr;
  ctx.step_stats =
      task->step_stats.steps.empty() ? nullptr : &task->step_stats;
  // Derivations go to the task's private store; the driver absorbs them
  // in serial task order (first-derivation-wins), so the final store
  // matches a serial run byte-for-byte.
  if (base_ctx.provenance != nullptr) ctx.provenance = &task->prov;
  if (base_ctx.trace != nullptr) task->start_us = base_ctx.trace->NowUs();
  auto t0 = std::chrono::steady_clock::now();
  // Rule evaluation reports through Status, but anything it calls
  // could still throw (and the fault-injection harness does, on
  // purpose): convert to a Status here so exactly one error reaches
  // the driver and the pool never sees an exception.
  try {
    Status fp = Status::OK();
    if (Failpoints::AnyArmed()) {
      fp = Failpoints::Instance().OnHit("exec.round.task");
    }
    task->status = fp.ok() ? EvaluateRuleInto(*task->plan, ctx,
                                              task->delta_step, &task->staged)
                           : fp;
  } catch (const std::exception& e) {
    task->status =
        Status::Internal(std::string("round task threw: ") + e.what());
  } catch (...) {
    task->status = Status::Internal("round task threw a non-standard "
                                    "exception");
  }
  task->self_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (!task->status.ok()) abort->store(true, std::memory_order_relaxed);
}

}  // namespace

Status RunRoundTasks(const EvalContext& base_ctx, ThreadPool* pool,
                     std::vector<RoundTask>* tasks) {
  // One failed (or throwing) task cancels the round: tasks not yet
  // started when the flag goes up are marked skipped instead of
  // evaluating. The driver's in-order merge passes over them and
  // surfaces the first real error.
  std::atomic<bool> abort{false};

  const bool pooled = pool != nullptr && pool->size() > 1 && tasks->size() > 1;
  if (!pooled) {
    // Serial mode: the same task machinery, run in order on the calling
    // thread. Indexes build lazily inside the evaluation (mutable
    // cache access), exactly as the pre-task serial loop did.
    for (RoundTask& task : *tasks) {
      RunTask(base_ctx, &task, &abort, /*pooled=*/false);
    }
    return Status::OK();
  }

  IDLOG_RETURN_NOT_OK(PrebuildIndexes(base_ctx, *tasks));
  std::vector<std::function<void()>> jobs;
  jobs.reserve(tasks->size());
  for (RoundTask& task : *tasks) {
    RoundTask* tp = &task;
    jobs.push_back([&base_ctx, &abort, tp] {
      RunTask(base_ctx, tp, &abort, /*pooled=*/true);
    });
  }
  pool->Run(std::move(jobs));
  return Status::OK();
}

}  // namespace idlog
