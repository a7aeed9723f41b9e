#include "eval/stratum_eval.h"

#include <set>
#include <utility>

#include "exec/round_executor.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"

namespace idlog {

namespace {

/// A delta must have at least this many rows before a task is worth
/// fanning out (below it the per-partition setup outweighs the scan).
constexpr uint64_t kMinPartitionRows = 2;

/// The delta columns a partitioned scan hashes to pick an owner: the
/// columns whose bound value feeds a later step's index key (the join
/// keys), so a partition owns its key range and duplicate head tuples
/// overwhelmingly collide within one partition. Falls back to the whole
/// row (empty result) when the delta scan binds no later key — the
/// ownership contract only needs *some* deterministic column set.
std::vector<int> JoinKeyPartitionCols(const RulePlan& plan) {
  std::set<int> key_slots;
  for (size_t j = 1; j < plan.steps.size(); ++j) {
    const PlanStep& step = plan.steps[j];
    for (int col : step.key_cols) {
      const ArgSource& src = step.sources[static_cast<size_t>(col)];
      if (src.is_slot) key_slots.insert(src.slot);
    }
  }
  const PlanStep& scan = plan.steps[0];
  std::vector<int> cols;
  for (size_t pos = 0; pos < scan.modes.size(); ++pos) {
    if (scan.modes[pos] == ArgMode::kWrite &&
        scan.sources[pos].is_slot &&
        key_slots.count(scan.sources[pos].slot) > 0) {
      cols.push_back(static_cast<int>(pos));
    }
  }
  return cols;
}

}  // namespace

Status EvaluateStratum(const std::vector<const RulePlan*>& plans,
                       const std::set<std::string>& stratum_preds,
                       const EvalContext& base_ctx,
                       std::map<std::string, Relation>* derived,
                       bool seminaive,
                       StratumResume* resume,
                       const RoundBoundaryHook& on_round,
                       const std::set<std::string>* seed_preds) {
  std::map<std::string, Relation> delta;
  uint64_t round = 0;
  const bool resuming = resume != nullptr;
  if (resuming) {
    // Continue at the checkpointed boundary: the saved round's delta
    // feeds round+1's differentiated scans, and round 0 (all rules over
    // full relations) already ran before the frame was cut.
    delta = std::move(resume->delta);
    round = resume->round;
  }
  // An incremental seed widens the *first* differentiated round to the
  // externally-changed predicates; afterwards only intra-stratum deltas
  // exist and the filter narrows back to stratum_preds.
  std::set<std::string> seed_filter;
  bool first_seeded_round = resuming && seed_preds != nullptr;
  if (first_seeded_round) {
    seed_filter = stratum_preds;
    seed_filter.insert(seed_preds->begin(), seed_preds->end());
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
    // On resume this stratum's entry already exists (restored from the
    // snapshot with the pre-checkpoint rounds); append to it rather
    // than opening a duplicate.
    if (resuming && !ctx.analyze->strata.empty() &&
        ctx.analyze->strata.back().stratum == ctx.stratum) {
      round_log = &ctx.analyze->strata.back();
    } else {
      ctx.analyze->strata.emplace_back();
      ctx.analyze->strata.back().stratum = ctx.stratum;
      round_log = &ctx.analyze->strata.back();
    }
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

  // Fan-out of one (rule, delta_step) task. Only the heavy shape is
  // eligible: a semi-naive task whose delta scan is the *outermost*
  // plan step with no bound keys — then the serial emission order is
  // ascending delta-row order, which is what the partition merge tags
  // reconstruct, and no earlier step gets re-scanned K times. The
  // resolved K depends only on logical quantities (the configured
  // setting, the pool's configured size and the delta's content), so
  // tasks fan out identically across runs with the same settings.
  auto resolve_fanout = [&](const RulePlan& plan, int delta_step) -> int {
    if (!seminaive || delta_step != 0) return 1;
    const PlanStep& scan = plan.steps[0];
    if (scan.kind != PlanStep::Kind::kScan || scan.is_id ||
        !scan.key_cols.empty()) {
      return 1;
    }
    const Relation* d = ctx.delta(scan.predicate);
    if (d == nullptr || d->size() < kMinPartitionRows) return 1;
    int k = ctx.delta_partitions;
    if (k <= 0) k = ctx.pool != nullptr ? ctx.pool->size() : 1;
    if (k < 1) k = 1;
    if (static_cast<uint64_t>(k) > d->size()) {
      k = static_cast<int>(d->size());
    }
    return k;
  };

  // Runs one round's (rule, delta_step) tasks and commits what they
  // staged. The task list is built in the exact order the serial loop
  // evaluates; the executor runs every task's parts (concurrently when
  // a pool is installed, else in order on this thread) into private
  // row buffers, and the merge below walks tasks in that same order —
  // partitions K-way-merged back into delta-row order — so fixpoint
  // contents, stats, profile columns, explain counters, trace spans and
  // the provenance store come out identical for every --jobs and
  // partition setting (timing values aside). Commit is where inserts
  // become observable: a staged tuple counts as facts_inserted (and is
  // charged to the governor, and enters the next delta) iff it is new
  // in the full relation — the one definition of "new" that no
  // concatenation order can perturb.
  auto run_round = [&](std::vector<RoundTask>&& tasks, uint64_t round,
                       bool* any_new,
                       std::map<std::string, Relation>* next_delta)
      -> Status {
    for (RoundTask& task : tasks) {
      task.parts.resize(static_cast<size_t>(task.partitions));
      for (size_t p = 0; p < task.parts.size(); ++p) {
        RoundPart& part = task.parts[p];
        part.partition = static_cast<int>(p);
        part.staged = RowBuffer(task.plan->head_args.size());
        if (ctx.analyze != nullptr) {
          part.step_stats.steps.resize(task.plan->steps.size() + 1);
        }
      }
    }
    IDLOG_RETURN_NOT_OK(RunRoundTasks(ctx, ctx.pool, &tasks));

    // Find where the serial loop would have stopped: the first part,
    // in (task, partition) order, with a real error. Abort markers are
    // skipped — the pool claims parts in index order but completes
    // them in any order, so a low-index part can be marked aborted by
    // a higher-index failure.
    size_t fail_task = tasks.size();
    size_t fail_part = 0;
    Status round_error = Status::OK();
    for (size_t ti = 0; ti < tasks.size() && round_error.ok(); ++ti) {
      const std::vector<RoundPart>& parts = tasks[ti].parts;
      for (size_t pi = 0; pi < parts.size(); ++pi) {
        const Status& st = parts[pi].status;
        if (st.ok() || IsRoundAbortMarker(st)) continue;
        round_error = st;
        fail_task = ti;
        fail_part = pi;
        break;
      }
    }
    const bool failed = !round_error.ok();

    for (size_t ti = 0; ti < tasks.size(); ++ti) {
      // Tasks after the failing one ran (or were aborted), but their
      // results and attribution are discarded with the round — the
      // same cutoff a serial run's early return produces.
      if (failed && ti > fail_task) break;
      RoundTask& task = tasks[ti];
      const size_t last_part = (failed && ti == fail_task)
                                   ? fail_part
                                   : task.parts.size() - 1;

      // Fold the parts' private counters into the shared stats; a
      // partitioned task's parts counted disjoint delta slices, so the
      // sum is exactly what one unpartitioned evaluation would count.
      EvalStats task_stats;
      uint64_t task_self_ns = 0;
      for (size_t pi = 0; pi <= last_part; ++pi) {
        task_stats += task.parts[pi].stats;
        task_self_ns += task.parts[pi].self_ns;
      }
      if (ctx.stats != nullptr) *ctx.stats += task_stats;

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
        for (size_t pi = 0; pi <= last_part; ++pi) {
          const auto& src = task.parts[pi].step_stats.steps;
          if (dst.size() != src.size()) continue;
          for (size_t k = 0; k < src.size(); ++k) dst[k] += src[k];
        }
      }

      // Commit: insert this task's staged rows into the full relation,
      // in serial emission order (partitions merged by their delta-row
      // tags). This is the one dedup per derived fact: duplicates within
      // a part, across parts and tasks, and re-derivations from earlier
      // rounds all fall out of the single hashed probe against full. A
      // row found new there is new everywhere, so it joins the next
      // delta under the same hash without a second probe. Skipped for a
      // failed round: the round's results are discarded, exactly as the
      // serial early return discards its staging.
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
        auto commit_tuple = [&](TupleView t, uint32_t hash) {
          if (!full.InsertHashed(t, hash)) return;
          ++inserted;
          *any_new = true;
          if (next_delta != nullptr) {
            if (fresh == nullptr) {
              fresh = &next_delta->try_emplace(task.plan->head_pred,
                                               Relation(full.type()))
                           .first->second;
            }
            fresh->InsertDistinct(t, hash);
          }
          if (ctx.governor != nullptr && commit_status.ok()) {
            commit_status = ctx.governor->OnDerived(
                1, ApproxTupleBytes(task.plan->head_args.size()));
          }
        };
        if (task.partitions > 1) {
          std::vector<size_t> cur(task.parts.size(), 0);
          while (true) {
            size_t best = task.parts.size();
            uint64_t best_tag = 0;
            for (size_t p = 0; p < task.parts.size(); ++p) {
              const auto& order = task.parts[p].staged_order;
              if (cur[p] >= order.size()) continue;
              // No ties across parts: a delta row has one owner.
              if (best == task.parts.size() || order[cur[p]] < best_tag) {
                best = p;
                best_tag = order[cur[p]];
              }
            }
            if (best == task.parts.size()) break;
            const TupleView t = task.parts[best].staged[cur[best]++];
            commit_tuple(t, HashRow(t.data(), t.size()));
          }
          // One breadcrumb per K-way partition merge: which head, how
          // wide the fan-out, how many commits survived dedup.
          FlightRecorder::Record(FlightEventKind::kPartitionCommit,
                                 task.plan->head_pred.c_str(),
                                 task.partitions,
                                 static_cast<int64_t>(inserted),
                                 static_cast<int64_t>(round));
        } else {
          // Hash every staged row first, then probe with the membership
          // slot of a row a few positions ahead already in flight: the
          // probes are independent, so their cache misses overlap.
          const RowBuffer& staged = task.parts[0].staged;
          std::vector<uint32_t> hashes(staged.size());
          for (size_t i = 0; i < staged.size(); ++i) {
            hashes[i] = HashRow(staged[i].data(), staged.arity());
          }
          constexpr size_t kPrefetchDistance = 8;
          for (size_t i = 0; i < staged.size(); ++i) {
            if (i + kPrefetchDistance < staged.size()) {
              full.PrefetchSlot(hashes[i + kPrefetchDistance]);
            }
            commit_tuple(staged[i], hashes[i]);
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

      // Absorb the parts' private derivations, still in task order
      // (partitions merged by record tag): first-derivation-wins
      // against everything absorbed so far makes the combined store
      // identical to what an unpartitioned serial loop records. The
      // retained bytes were deferred by the parts and are charged
      // here, like the committed-insert charges above.
      if (ctx.provenance != nullptr) {
        size_t prov_bytes = 0;
        if (task.partitions > 1) {
          std::vector<ProvenanceStore*> stores;
          std::vector<const std::vector<uint64_t>*> orders;
          for (size_t pi = 0; pi <= last_part; ++pi) {
            stores.push_back(&task.parts[pi].prov);
            orders.push_back(&task.parts[pi].prov_order);
          }
          prov_bytes = ctx.provenance->AbsorbMerged(stores, orders);
        } else {
          for (size_t pi = 0; pi <= last_part; ++pi) {
            prov_bytes += ctx.provenance->Absorb(&task.parts[pi].prov);
          }
        }
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
        rp.firings += task_stats.rule_firings;
        rp.tuples_considered += task_stats.tuples_considered;
        rp.facts_derived += task_stats.facts_derived;
        rp.facts_inserted += inserted;
        rp.self_ns += task_self_ns;
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
          // The partition fanout is deliberately NOT a trace arg: traces
          // are part of the byte-identical --jobs/--partitions contract,
          // and the fanout is physical scheduling detail like thread ids.
        }
        args.push_back(
            TraceArg::Num("considered", task_stats.tuples_considered));
        args.push_back(TraceArg::Num("derived", task_stats.facts_derived));
        args.push_back(TraceArg::Num("inserted", inserted));
        if (failed && ti == fail_task) {
          args.push_back(TraceArg::Str("status", round_error.ToString()));
        }
        ctx.trace->CompleteWithDuration("rule " + task.plan->head_pred,
                                        "rule", task.parts[0].start_us,
                                        task_self_ns / 1000,
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

  // Round 0: all rules over full relations. A resumed stratum skips it
  // — it ran before the checkpoint frame was cut.
  if (!resuming) {
    TraceSpan round_span(ctx.trace, "fixpoint round", "fixpoint");
    round_span.AddArg(TraceArg::Int("stratum", ctx.stratum));
    round_span.AddArg(TraceArg::Num("round", round));
    std::vector<RoundTask> tasks;
    tasks.reserve(plans.size());
    for (const RulePlan* plan : plans) {
      RoundTask task;
      task.plan = plan;
      task.delta_step = -1;
      tasks.push_back(std::move(task));
    }
    bool any = false;
    std::map<std::string, Relation> next_delta;
    FlightRecorder::Record(FlightEventKind::kRoundStart, "round0",
                           ctx.stratum, static_cast<int64_t>(round),
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
      FlightRecorder::Record(FlightEventKind::kRoundCommit, "round0",
                             ctx.stratum, static_cast<int64_t>(round),
                             static_cast<int64_t>(delta_total()));
    }
    if (ctx.trace != nullptr) {
      round_span.AddArg(TraceArg::Num("new_facts", delta_total()));
    }
    if (on_round != nullptr) {
      IDLOG_RETURN_NOT_OK(on_round(round, !any, delta));
    }
    if (!any) return Status::OK();
  }

  // Later rounds. The loop is unbounded by construction (it stops at
  // the least fixpoint); the governor's iteration cap and deadline are
  // what bound it when a program generates values forever.
  while (true) {
    ++round;
    TraceSpan round_span(ctx.trace, "fixpoint round", "fixpoint");
    round_span.AddArg(TraceArg::Int("stratum", ctx.stratum));
    round_span.AddArg(TraceArg::Num("round", round));
    const std::set<std::string>& round_filter =
        first_seeded_round ? seed_filter : stratum_preds;
    first_seeded_round = false;
    std::vector<RoundTask> tasks;
    for (const RulePlan* plan : plans) {
      if (seminaive) {
        for (int step : plan->positive_scan_steps) {
          const std::string& pred =
              plan->steps[static_cast<size_t>(step)].predicate;
          if (round_filter.count(pred) == 0) continue;
          RoundTask task;
          task.plan = plan;
          task.delta_step = step;
          task.partitions = resolve_fanout(*plan, step);
          if (task.partitions > 1) {
            task.partition_cols = JoinKeyPartitionCols(*plan);
          }
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
    if (tasks.empty()) {
      // No recursive rules: the stratum is complete without this round
      // having run. The terminal hook call lets the checkpointer record
      // the stratum as finished.
      if (on_round != nullptr) {
        IDLOG_RETURN_NOT_OK(on_round(round, /*fixpoint=*/true, delta));
      }
      return Status::OK();
    }
    bool any = false;
    std::map<std::string, Relation> next_delta;
    FlightRecorder::Record(FlightEventKind::kRoundStart, "delta",
                           ctx.stratum, static_cast<int64_t>(round),
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
      FlightRecorder::Record(FlightEventKind::kRoundCommit, "delta",
                             ctx.stratum, static_cast<int64_t>(round),
                             static_cast<int64_t>(delta_total()));
    }
    if (ctx.trace != nullptr) {
      round_span.AddArg(TraceArg::Num("new_facts", delta_total()));
    }
    if (on_round != nullptr) {
      IDLOG_RETURN_NOT_OK(on_round(round, !any, delta));
    }
    if (!any) return Status::OK();
  }
}

}  // namespace idlog
