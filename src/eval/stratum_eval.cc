#include "eval/stratum_eval.h"

#include <set>
#include <utility>

#include "exec/round_executor.h"
#include "obs/flight_recorder.h"

namespace idlog {

Status EvaluateStratum(const std::vector<const RulePlan*>& plans,
                       const std::set<std::string>& stratum_preds,
                       const EvalContext& base_ctx,
                       std::map<std::string, Relation>* derived,
                       bool seminaive, StratumResume* seed) {
  std::map<std::string, Relation> delta;
  // An incremental seed feeds round 1's differentiated scans and widens
  // that round to the externally-changed predicates; afterwards only
  // intra-stratum deltas exist and the filter narrows back to
  // stratum_preds.
  std::set<std::string> seed_filter;
  if (seed != nullptr) {
    delta = std::move(seed->delta);
    seed_filter = stratum_preds;
    seed_filter.insert(seed->preds.begin(), seed->preds.end());
  }

  EvalContext ctx = base_ctx;
  ctx.delta = [&delta](const std::string& pred) -> const Relation* {
    auto it = delta.find(pred);
    return it == delta.end() ? nullptr : &it->second;
  };

  // EXPLAIN ANALYZE: record this stratum's per-round delta sizes. The
  // series is a logical quantity (fixpoint contents are deterministic),
  // so it is identical across --jobs settings.
  StratumRoundStats* round_log = nullptr;
  if (ctx.analyze != nullptr) {
    ctx.analyze->strata.emplace_back();
    ctx.analyze->strata.back().stratum = ctx.stratum;
    round_log = &ctx.analyze->strata.back();
  }

  // Each round produces fresh delta relations; their index-cache
  // entries must be evicted or the pointer-keyed cache grows with the
  // number of fixpoint rounds (visible on long chains like the E10
  // sum fold).
  auto replace_delta = [&](std::map<std::string, Relation>&& next) {
    if (ctx.index_caches != nullptr) {
      for (auto& [pred, rel] : delta) {
        (void)pred;
        ctx.index_caches->erase(&rel);
      }
    }
    delta = std::move(next);
  };

  // Runs one round's (rule, delta_step) tasks and commits what they
  // staged. The task list is built in the exact order the serial loop
  // evaluates; the executor runs every task (concurrently when a pool
  // is installed, else in order on this thread) into private row
  // buffers, and the merge below walks tasks in that same order, so
  // fixpoint contents, stats, profile columns, explain counters, trace
  // spans and the provenance store come out identical for every --jobs
  // setting (timing values aside). Commit is where inserts
  // become observable: a staged tuple counts as facts_inserted (and is
  // charged to the governor, and enters the next delta) iff it is new
  // in the full relation — the one definition of "new" that no
  // concatenation order can perturb.
  auto run_round = [&](std::vector<RoundTask>&& tasks, uint64_t round,
                       bool* any_new,
                       std::map<std::string, Relation>* next_delta)
      -> Status {
    for (RoundTask& task : tasks) {
      task.staged = RowBuffer(task.plan->head_args.size());
      if (ctx.analyze != nullptr) {
        task.step_stats.steps.resize(task.plan->steps.size() + 1);
      }
    }
    IDLOG_RETURN_NOT_OK(RunRoundTasks(ctx, ctx.pool, &tasks));

    // Find where the serial loop would have stopped: the first task, in
    // task order, with a real error. Skipped tasks are passed over — the
    // pool claims tasks in index order but completes them in any order,
    // so a low-index task can be skipped because of a higher-index
    // failure.
    size_t fail_task = tasks.size();
    Status round_error = Status::OK();
    for (size_t ti = 0; ti < tasks.size(); ++ti) {
      if (tasks[ti].skipped || tasks[ti].status.ok()) continue;
      round_error = tasks[ti].status;
      fail_task = ti;
      break;
    }
    const bool failed = !round_error.ok();

    for (size_t ti = 0; ti < tasks.size(); ++ti) {
      // Tasks after the failing one ran (or were skipped), but their
      // results and attribution are discarded with the round — the
      // same cutoff a serial run's early return produces.
      if (failed && ti > fail_task) break;
      RoundTask& task = tasks[ti];
      if (ctx.stats != nullptr) *ctx.stats += task.stats;

      // Per-step counters, still in deterministic task order. The emit
      // pseudo-step's rows_emitted is filled from the commit below.
      bool have_analyze_row =
          ctx.analyze != nullptr && task.plan->clause_index >= 0 &&
          static_cast<size_t>(task.plan->clause_index) <
              ctx.analyze->rules.size();
      if (have_analyze_row) {
        auto& dst = ctx.analyze
                        ->rules[static_cast<size_t>(task.plan->clause_index)]
                        .steps;
        const auto& src = task.step_stats.steps;
        if (dst.size() == src.size()) {
          for (size_t k = 0; k < src.size(); ++k) dst[k] += src[k];
        }
      }

      // Commit: insert this task's staged rows into the full relation,
      // in serial emission order. This is the one dedup per derived
      // fact: duplicates within a task, across tasks, and re-derivations
      // from earlier rounds all fall out of the single hashed probe
      // against full. A row found new there is new everywhere, so it
      // joins the next delta under the same hash without a second
      // probe. Skipped for a failed round: the round's results are
      // discarded, exactly as the serial early return discards its
      // staging.
      uint64_t inserted = 0;
      Status commit_status = Status::OK();
      if (!failed) {
        // Evaluate() pre-creates every IDB relation with its inferred
        // type, so the head's full relation exists and is authoritative.
        auto full_it = derived->find(task.plan->head_pred);
        if (full_it == derived->end() ||
            static_cast<size_t>(full_it->second.arity()) !=
                task.plan->head_args.size()) {
          return Status::Internal("no relation of arity " +
                                  std::to_string(task.plan->head_args.size()) +
                                  " for derived predicate '" +
                                  task.plan->head_pred + "'");
        }
        Relation& full = full_it->second;
        Relation* fresh = nullptr;
        // Hash every staged row first, then probe with the membership
        // slot of a row a few positions ahead already in flight: the
        // probes are independent, so their cache misses overlap.
        const RowBuffer& staged = task.staged;
        std::vector<uint32_t> hashes(staged.size());
        for (size_t i = 0; i < staged.size(); ++i) {
          hashes[i] = HashRow(staged[i].data(), staged.arity());
        }
        constexpr size_t kPrefetchDistance = 8;
        for (size_t i = 0; i < staged.size(); ++i) {
          if (i + kPrefetchDistance < staged.size()) {
            full.PrefetchSlot(hashes[i + kPrefetchDistance]);
          }
          const TupleView t = staged[i];
          if (!full.InsertHashed(t, hashes[i])) continue;
          ++inserted;
          *any_new = true;
          if (next_delta != nullptr) {
            if (fresh == nullptr) {
              fresh = &next_delta->try_emplace(task.plan->head_pred,
                                               Relation(full.type()))
                           .first->second;
            }
            fresh->InsertDistinct(t, hashes[i]);
          }
          if (ctx.governor != nullptr && commit_status.ok()) {
            commit_status = ctx.governor->OnDerived(
                1, ApproxTupleBytes(task.plan->head_args.size()));
          }
        }
      }
      if (ctx.stats != nullptr) ctx.stats->facts_inserted += inserted;
      if (have_analyze_row) {
        auto& dst = ctx.analyze
                        ->rules[static_cast<size_t>(task.plan->clause_index)]
                        .steps;
        if (!dst.empty()) dst.back().rows_emitted += inserted;
      }

      // Absorb the task's private derivations, still in task order:
      // first-derivation-wins against everything absorbed so far makes
      // the combined store identical to what a serial loop records. The
      // retained bytes were deferred by the task and are charged here,
      // like the committed-insert charges above.
      if (ctx.provenance != nullptr) {
        const size_t prov_bytes = ctx.provenance->Absorb(&task.prov);
        if (ctx.governor != nullptr && prov_bytes > 0 &&
            commit_status.ok()) {
          commit_status = ctx.governor->OnDerived(0, prov_bytes);
        }
      }

      if (ctx.profile != nullptr && task.plan->clause_index >= 0 &&
          static_cast<size_t>(task.plan->clause_index) <
              ctx.profile->rules.size()) {
        RuleProfile& rp =
            ctx.profile->rules[static_cast<size_t>(task.plan->clause_index)];
        ++rp.evals;
        rp.firings += task.stats.rule_firings;
        rp.tuples_considered += task.stats.tuples_considered;
        rp.facts_derived += task.stats.facts_derived;
        rp.facts_inserted += inserted;
        rp.self_ns += task.self_ns;
      }

      if (ctx.trace != nullptr) {
        std::vector<TraceArg> args;
        args.push_back(TraceArg::Int("clause", task.plan->clause_index));
        args.push_back(TraceArg::Int("stratum", ctx.stratum));
        args.push_back(TraceArg::Num("round", round));
        if (task.delta_step >= 0) {
          const std::string& pred =
              task.plan->steps[static_cast<size_t>(task.delta_step)]
                  .predicate;
          const Relation* d = ctx.delta ? ctx.delta(pred) : nullptr;
          args.push_back(TraceArg::Str("delta", pred));
          args.push_back(
              TraceArg::Num("delta_size", d != nullptr ? d->size() : 0));
        }
        args.push_back(
            TraceArg::Num("considered", task.stats.tuples_considered));
        args.push_back(TraceArg::Num("derived", task.stats.facts_derived));
        args.push_back(TraceArg::Num("inserted", inserted));
        if (failed && ti == fail_task) {
          args.push_back(TraceArg::Str("status", round_error.ToString()));
        }
        ctx.trace->CompleteWithDuration("rule " + task.plan->head_pred,
                                        "rule", task.start_us,
                                        task.self_ns / 1000,
                                        std::move(args));
      }

      if (failed && ti == fail_task) return round_error;
      IDLOG_RETURN_NOT_OK(commit_status);
    }
    return round_error;
  };

  auto delta_total = [&delta]() {
    uint64_t n = 0;
    for (const auto& [pred, rel] : delta) {
      (void)pred;
      n += rel.size();
    }
    return n;
  };

  // Round 0 runs every rule over full relations; a seeded stratum skips
  // it (the completed run it continues already ran it). Later rounds
  // run the delta-differentiated scans, or in naive mode the recursive
  // rules in full. The loop is unbounded by construction (it stops at
  // the least fixpoint); the governor's iteration cap and deadline are
  // what bound it when a program generates values forever.
  for (uint64_t round = seed != nullptr ? 1 : 0;; ++round) {
    TraceSpan round_span(ctx.trace, "fixpoint round", "fixpoint");
    round_span.AddArg(TraceArg::Int("stratum", ctx.stratum));
    round_span.AddArg(TraceArg::Num("round", round));
    const std::set<std::string>& round_filter =
        seed != nullptr && round == 1 ? seed_filter : stratum_preds;
    std::vector<RoundTask> tasks;
    for (const RulePlan* plan : plans) {
      if (round == 0) {
        RoundTask task;
        task.plan = plan;
        task.delta_step = -1;
        tasks.push_back(std::move(task));
      } else if (seminaive) {
        for (int step : plan->positive_scan_steps) {
          const std::string& pred =
              plan->steps[static_cast<size_t>(step)].predicate;
          if (round_filter.count(pred) == 0) continue;
          RoundTask task;
          task.plan = plan;
          task.delta_step = step;
          tasks.push_back(std::move(task));
        }
      } else {
        // Naive mode: re-run recursive rules in full. Rules with no
        // intra-stratum dependency are complete after round 0.
        bool recursive = false;
        for (int step : plan->positive_scan_steps) {
          if (stratum_preds.count(
                  plan->steps[static_cast<size_t>(step)].predicate) > 0) {
            recursive = true;
            break;
          }
        }
        if (!recursive) continue;
        RoundTask task;
        task.plan = plan;
        task.delta_step = -1;
        tasks.push_back(std::move(task));
      }
    }
    // No recursive rules: the stratum is complete without this round
    // having run.
    if (round > 0 && tasks.empty()) return Status::OK();
    const char* label = round == 0 ? "round0" : "delta";
    bool any = false;
    std::map<std::string, Relation> next_delta;
    FlightRecorder::Record(FlightEventKind::kRoundStart, label, ctx.stratum,
                           static_cast<int64_t>(round),
                           static_cast<int64_t>(tasks.size()));
    IDLOG_RETURN_NOT_OK(
        run_round(std::move(tasks), round, &any, &next_delta));
    if (ctx.stats != nullptr) ++ctx.stats->iterations;
    if (ctx.governor != nullptr) {
      IDLOG_RETURN_NOT_OK(ctx.governor->OnIteration());
    }
    replace_delta(std::move(next_delta));
    if (round_log != nullptr) {
      round_log->new_facts_per_round.push_back(delta_total());
    }
    if (FlightRecorder::Enabled()) {
      FlightRecorder::Record(FlightEventKind::kRoundCommit, label,
                             ctx.stratum, static_cast<int64_t>(round),
                             static_cast<int64_t>(delta_total()));
    }
    if (ctx.trace != nullptr) {
      round_span.AddArg(TraceArg::Num("new_facts", delta_total()));
    }
    if (!any) return Status::OK();
  }
}

}  // namespace idlog
