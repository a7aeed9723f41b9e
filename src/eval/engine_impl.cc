#include "eval/engine_impl.h"

#include <chrono>

#include "analysis/classification.h"
#include "analysis/safety.h"
#include "ast/printer.h"
#include "eval/stratum_eval.h"

namespace idlog {

Status EngineImpl::Prepare() {
  TraceSpan span(trace_, "program analysis", "engine");
  span.AddArg(TraceArg::Num("clauses", program_->clauses.size()));
  IDLOG_RETURN_NOT_OK(CheckProgramSafety(*program_, /*allow_choice=*/false));
  IDLOG_ASSIGN_OR_RETURN(strat_, Stratify(*program_));
  span.AddArg(TraceArg::Int("strata", strat_.num_strata));
  if (trace_ != nullptr) {
    std::string sizes;
    for (const auto& clauses : strat_.clauses_by_stratum) {
      if (!sizes.empty()) sizes += ",";
      sizes += std::to_string(clauses.size());
    }
    trace_->Instant("stratification", "engine",
                    {TraceArg::Int("strata", strat_.num_strata),
                     TraceArg::Str("clauses_per_stratum", sizes)});
  }

  plans_.clear();
  plans_.reserve(program_->clauses.size());
  for (size_t i = 0; i < program_->clauses.size(); ++i) {
    IDLOG_ASSIGN_OR_RETURN(RulePlan plan,
                           CompileRule(program_->clauses[i]));
    plan.clause_index = static_cast<int>(i);
    plans_.push_back(std::move(plan));
  }

  PredicateClassification classes = ClassifyPredicates(*program_);
  idb_preds_ = classes.output;
  tid_bounds_ = ComputeTidBounds(*program_);

  // Rewrite provenance for EXPLAIN: note, per clause, which ID-steps
  // the footnote 6/7 tid-bound pushdown will restrict at
  // materialization time.
  pushdown_notes_.Clear();
  if (tid_bound_pushdown_) {
    for (const RulePlan& plan : plans_) {
      for (const PlanStep& step : plan.steps) {
        if (!step.is_id) continue;
        auto bound =
            tid_bounds_.find(TidBoundKey{step.predicate, step.group});
        if (bound == tid_bounds_.end()) continue;
        std::string cols;
        for (int c : step.group) {
          if (!cols.empty()) cols += ",";
          cols += std::to_string(c);
        }
        pushdown_notes_.Note(
            "tid-pushdown", plan.clause_index,
            "id-relation " + step.predicate + "[" + cols +
                "] materializes only tids <= " +
                std::to_string(bound->second));
      }
    }
  }

  // Does the program read `udom` without defining or storing it?
  udom_needed_ = false;
  for (const Clause& clause : program_->clauses) {
    for (const Literal& lit : clause.body) {
      if ((lit.atom.kind == AtomKind::kOrdinary ||
           lit.atom.kind == AtomKind::kId) &&
          lit.atom.predicate == "udom" && idb_preds_.count("udom") == 0 &&
          !database_->HasRelation("udom")) {
        udom_needed_ = true;
      }
    }
  }

  prepared_ = true;
  return Status::OK();
}

const Relation* EngineImpl::FullRelation(const std::string& pred) const {
  auto it = derived_.find(pred);
  if (it != derived_.end()) return &it->second;
  Result<const Relation*> edb = database_->Get(pred);
  if (edb.ok()) return *edb;
  if (pred == "udom" && udom_needed_) return &udom_;
  return nullptr;
}

EvalContext EngineImpl::BuildRunContext() {
  EvalContext ctx;
  ctx.full = [this](const std::string& pred) { return FullRelation(pred); };
  ctx.index_caches = &index_caches_;
  ctx.stats = &stats_;
  ctx.use_indexes = use_indexes_;
  ctx.governor = governor_;
  ctx.trace = trace_;
  ctx.profile = profiling_ ? &profile_ : nullptr;
  // Parallel stratum execution. Provenance-enabled runs parallelize
  // too: workers record into private per-task stores that the round
  // merge absorbs in serial task order (see stratum_eval.cc).
  if (threads_ > 1) {
    if (pool_ == nullptr || pool_->size() != threads_) {
      pool_ = std::make_unique<ThreadPool>(threads_);
    }
    ctx.pool = pool_.get();
  } else {
    pool_.reset();
  }
  if (provenance_enabled_) {
    ctx.provenance = &provenance_;
    ctx.symbols = database_->symbols();
  }
  return ctx;
}

void EngineImpl::InstallResumeState(EvalResumeState state) {
  derived_ = std::move(state.derived);
  // Only IDB relations belong here. A snapshot cut before fact-only
  // predicates became extensional still carries them as derived; the
  // database now holds those facts, and a stale copy would shadow it.
  for (auto it = derived_.begin(); it != derived_.end();) {
    it = idb_preds_.count(it->first) > 0 ? std::next(it) : derived_.erase(it);
  }
  id_relations_ = std::move(state.id_relations);
  stats_ = state.stats;
  plan_analysis_ =
      state.has_analysis ? std::move(state.analysis) : PlanAnalysis();
  profile_ = state.has_profile ? std::move(state.profile) : EvalProfile();
  index_caches_.clear();
  // A snapshot cut from a provenance-enabled run carries the store;
  // adopting it keeps pre-checkpoint facts explainable after resume.
  if (state.has_provenance) {
    provenance_ = std::move(state.provenance);
  } else {
    provenance_.Clear();
  }
  pending_resume_stratum_ = state.stratum;
}

Status EngineImpl::Evaluate(TidAssigner* assigner, bool seminaive) {
  if (!prepared_) {
    return Status::InvalidArgument("Prepare() the engine before Evaluate()");
  }
  const std::optional<int> resume_stratum = pending_resume_stratum_;
  pending_resume_stratum_.reset();
  if (!resume_stratum.has_value()) {
    derived_.clear();
    id_relations_.clear();
    index_caches_.clear();
    stats_.Reset();
    provenance_.Clear();
    profile_.Clear();
    plan_analysis_.Clear();
  }

  if (explain_ && plan_analysis_.rules.size() != plans_.size()) {
    // One counter slot per plan step plus the emit pseudo-step; the
    // executor checks the size before attaching, so sizing here is what
    // arms collection for this run. A resume whose snapshot carried an
    // analysis of this program keeps the restored counters instead.
    plan_analysis_.rules.assign(plans_.size(), RuleStepStats());
    for (size_t i = 0; i < plans_.size(); ++i) {
      plan_analysis_.rules[i].steps.resize(plans_[i].steps.size() + 1);
    }
  }

  if (profiling_) {
    // Same resume contract as the analysis: a restored profile of the
    // right shape keeps its counters, only the static columns are
    // re-derived (they depend on the program text, not the run).
    if (profile_.rules.size() != plans_.size()) {
      profile_.rules.assign(plans_.size(), RuleProfile());
    }
    for (size_t i = 0; i < plans_.size(); ++i) {
      RuleProfile& rp = profile_.rules[i];
      rp.clause_index = plans_[i].clause_index;
      rp.head_pred = plans_[i].head_pred;
      rp.rule = ClauseToString(program_->clauses[i], *database_->symbols());
    }
    for (int s = 0; s < strat_.num_strata; ++s) {
      for (int clause_idx :
           strat_.clauses_by_stratum[static_cast<size_t>(s)]) {
        profile_.rules[static_cast<size_t>(clause_idx)].stratum = s;
      }
    }
  }

  // Stamps the run's wall time into the stats, the profile and the
  // profile totals on every exit path — trips and errors included, so a
  // partial run still reports how long it ran.
  struct WallStamp {
    EngineImpl* engine;
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    ~WallStamp() {
      uint64_t ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      engine->stats_.eval_wall_ns = ns;
      // Provenance footprint: logical quantities of the merged store
      // (identical across --jobs), surfaced as provenance.* metrics.
      engine->stats_.provenance_nodes = engine->provenance_.size();
      engine->stats_.provenance_premises =
          engine->provenance_.num_premises();
      engine->stats_.provenance_bytes = engine->provenance_.approx_bytes();
      if (engine->profiling_) {
        engine->profile_.wall_ns = ns;
        engine->profile_.totals = engine->stats_;
      }
    }
  } wall_stamp{this};
  TraceSpan eval_span(trace_, "evaluate", "engine");
  eval_span.AddArg(TraceArg::Int("strata", strat_.num_strata));
  eval_span.AddArg(TraceArg::Str("mode", seminaive ? "seminaive" : "naive"));

  // The implicit udom(d) facts of the database program (Section 3.1).
  if (udom_needed_) {
    udom_ = Relation(RelationType{Sort::kU});
    for (SymbolId id : database_->u_domain()) {
      udom_.Insert({Value::Symbol(id)});
    }
  }

  // Pre-create IDB relations with their inferred types so that empty
  // results still carry the right schema.
  for (const PredicateInfo& info : program_->predicates) {
    if (idb_preds_.count(info.name) > 0) {
      derived_.emplace(info.name, Relation(info.type));
    }
  }

  EvalContext ctx = BuildRunContext();
  ctx.id_relation =
      [this, assigner](const std::string& pred, const std::vector<int>& group)
      -> Result<const IdRelation*> {
    auto key = std::make_pair(pred, group);
    auto it = id_relations_.find(key);
    if (it != id_relations_.end()) return &it->second;
    TraceSpan id_span(trace_, "id-relation " + pred, "id");
    if (trace_ != nullptr) {
      std::string cols;
      for (int c : group) {
        if (!cols.empty()) cols += ",";
        cols += std::to_string(c);
      }
      id_span.AddArg(TraceArg::Str("group_by", cols));
    }
    // Materialize now: stratification guarantees the base is complete.
    const Relation* base = FullRelation(pred);
    Relation empty_base(RelationType{});
    if (base == nullptr) {
      // Unknown relation: the ID-relation of the empty relation.
      int idx = program_->FindPredicate(pred);
      if (idx >= 0) {
        empty_base = Relation(
            program_->predicates[static_cast<size_t>(idx)].type);
      }
      base = &empty_base;
    }
    int64_t max_tid = -1;
    if (tid_bound_pushdown_) {
      auto bound = tid_bounds_.find(TidBoundKey{pred, group});
      if (bound != tid_bounds_.end()) max_tid = bound->second;
    }
    size_t num_groups = 0;
    IDLOG_ASSIGN_OR_RETURN(
        IdRelation id_rel,
        BuildIdRelation(pred, *base, group, assigner, max_tid,
                        &num_groups));
    stats_.id_groups_assigned += num_groups;
    stats_.id_tuples_materialized += id_rel.size();
    id_span.AddArg(TraceArg::Num("groups", num_groups));
    id_span.AddArg(TraceArg::Num("tuples", id_rel.size()));
    id_span.AddArg(TraceArg::Int("max_tid", max_tid));
    if (governor_ != nullptr) {
      size_t arity = id_rel.type().size();
      IDLOG_RETURN_NOT_OK(governor_->OnDerived(
          id_rel.size(), id_rel.size() * ApproxTupleBytes(arity)));
    }
    auto [pos, inserted] =
        id_relations_.emplace(std::move(key), std::move(id_rel));
    (void)inserted;
    return &pos->second;
  };
  ctx.analyze = explain_ ? &plan_analysis_ : nullptr;
  // A shared governor can outlive this engine (enumerators create
  // stack-local engines against one long-lived governor); the guard
  // withdraws our stats_ pointer and labels on every exit path so a
  // later trip never dereferences a destroyed engine.
  GovernorScope governor_scope(governor_, &stats_, "stratum fixpoint");

  for (int s = resume_stratum.value_or(0); s < strat_.num_strata; ++s) {
    // Stratum entry is the checkpoint cut: strata below are complete
    // and this one's tids are not drawn yet.
    if (checkpoint_hook_ != nullptr) IDLOG_RETURN_NOT_OK(checkpoint_hook_(s));
    ++stats_.strata_evaluated;
    ctx.stratum = s;
    TraceSpan stratum_span(trace_, "stratum " + std::to_string(s),
                           "stratum");
    const uint64_t rounds_before = stats_.iterations;
    const uint64_t inserted_before = stats_.facts_inserted;
    auto stratum_t0 = std::chrono::steady_clock::now();
    if (governor_ != nullptr) {
      governor_->set_stratum(s);
      IDLOG_RETURN_NOT_OK(governor_->CheckPoint(0));
    }
    StratumProfile sp;
    sp.index = s;
    // Materialize the ID-relations this stratum reads, in deterministic
    // clause/step order (ScriptedTidAssigner relies on this order).
    const auto id_t0 = std::chrono::steady_clock::now();
    for (int clause_idx : strat_.clauses_by_stratum[static_cast<size_t>(s)]) {
      const RulePlan& plan = plans_[static_cast<size_t>(clause_idx)];
      for (const PlanStep& step : plan.steps) {
        if ((step.kind == PlanStep::Kind::kScan ||
             step.kind == PlanStep::Kind::kNegation) &&
            step.is_id) {
          IDLOG_ASSIGN_OR_RETURN(const IdRelation* ignored,
                                 ctx.id_relation(step.predicate, step.group));
          (void)ignored;
        }
      }
    }
    sp.id_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - id_t0)
            .count());

    std::vector<const RulePlan*> stratum_plans;
    std::set<std::string> stratum_preds;
    for (int clause_idx : strat_.clauses_by_stratum[static_cast<size_t>(s)]) {
      stratum_plans.push_back(&plans_[static_cast<size_t>(clause_idx)]);
      stratum_preds.insert(plans_[static_cast<size_t>(clause_idx)].head_pred);
    }
    Status stratum_status = Status::OK();
    if (!stratum_plans.empty()) {
      stratum_status =
          EvaluateStratum(stratum_plans, stratum_preds, ctx, &derived_,
                          seminaive, /*seed=*/nullptr,
                          profiling_ ? &sp : nullptr);
    }
    if (profiling_) {
      sp.rules = stratum_plans.size();
      sp.rounds = stats_.iterations - rounds_before;
      sp.wall_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - stratum_t0)
              .count());
      profile_.strata.push_back(sp);
    }
    stratum_span.AddArg(TraceArg::Num("rules", stratum_plans.size()));
    stratum_span.AddArg(
        TraceArg::Num("rounds", stats_.iterations - rounds_before));
    stratum_span.AddArg(
        TraceArg::Num("inserted", stats_.facts_inserted - inserted_before));
    IDLOG_RETURN_NOT_OK(stratum_status);
  }
  return Status::OK();
}

Status EngineImpl::EvaluateIncremental(
    const std::map<std::string, Relation>& changed, bool seminaive) {
  if (!prepared_) {
    return Status::InvalidArgument("Prepare() the engine before Evaluate()");
  }
  if (changed.empty()) return Status::OK();
  if (!seminaive) {
    return Status::Unsupported(
        "incremental re-derivation needs the semi-naive fixpoint; naive "
        "mode re-runs rules in full");
  }
  if (udom_needed_) {
    return Status::Unsupported(
        "the program reads the synthesized u-domain, which inserted "
        "constants extend; re-evaluate in full");
  }

  // Taint closure over positive non-ID scans: every predicate whose
  // contents can grow because of `changed`. ID-scans and negations do
  // not propagate here because reading a tainted predicate through
  // either is grounds for refusal below.
  std::set<std::string> tainted;
  for (const auto& [pred, rel] : changed) {
    (void)rel;
    if (idb_preds_.count(pred) > 0) {
      return Status::Unsupported(
          "'" + pred +
          "' is a derived predicate; EDB changes to it are shadowed");
    }
    tainted.insert(pred);
  }
  bool grew = true;
  while (grew) {
    grew = false;
    for (const RulePlan& plan : plans_) {
      if (tainted.count(plan.head_pred) > 0) continue;
      for (int step : plan.positive_scan_steps) {
        if (tainted.count(
                plan.steps[static_cast<size_t>(step)].predicate) > 0) {
          tainted.insert(plan.head_pred);
          grew = true;
          break;
        }
      }
    }
  }
  for (const RulePlan& plan : plans_) {
    for (const PlanStep& step : plan.steps) {
      if (step.kind == PlanStep::Kind::kBuiltin) continue;
      if (tainted.count(step.predicate) == 0) continue;
      if (step.kind == PlanStep::Kind::kNegation) {
        return Status::Unsupported(
            "a rule negates '" + step.predicate +
            "', which the change can grow; growth under negation is not "
            "monotone");
      }
      if (step.is_id) {
        return Status::Unsupported(
            "a rule reads the ID-relation of '" + step.predicate +
            "', which the change can grow; its tid assignment must be "
            "re-materialized");
      }
    }
  }

  struct WallStamp {
    EngineImpl* engine;
    uint64_t base_ns;
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    ~WallStamp() {
      uint64_t ns =
          base_ns + static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      engine->stats_.eval_wall_ns = ns;
      engine->stats_.provenance_nodes = engine->provenance_.size();
      engine->stats_.provenance_premises =
          engine->provenance_.num_premises();
      engine->stats_.provenance_bytes = engine->provenance_.approx_bytes();
      if (engine->profiling_) {
        engine->profile_.wall_ns = ns;
        engine->profile_.totals = engine->stats_;
      }
    }
  } wall_stamp{this, stats_.eval_wall_ns};
  TraceSpan eval_span(trace_, "evaluate incremental", "engine");
  eval_span.AddArg(TraceArg::Num("changed_preds", changed.size()));

  EvalContext ctx = BuildRunContext();
  // Lookup-only: a completed run materialized (at each stratum's entry)
  // every ID-relation its plans read, and the refusal above rules out
  // tainted bases, so a miss is a broken invariant rather than work.
  ctx.id_relation = [this](const std::string& pred,
                           const std::vector<int>& group)
      -> Result<const IdRelation*> {
    auto it = id_relations_.find(std::make_pair(pred, group));
    if (it == id_relations_.end()) {
      return Status::Internal("ID-relation '" + pred +
                              "' missing from the evaluated state");
    }
    return &it->second;
  };
  // EXPLAIN ANALYZE counters keep describing the last full run: the
  // per-stratum round log is keyed by stratum index and an incremental
  // pass would append duplicate entries.
  ctx.analyze = nullptr;
  GovernorScope governor_scope(governor_, &stats_, "incremental fixpoint");

  // `seed` accumulates every externally-visible change as strata run:
  // the EDB insertions up front (ranges over the `changed` relations),
  // then each stratum's own growth (the tail of each of its relations),
  // so a later stratum differentiates on everything below it at once.
  // Its predicates start as the taint closure (downstream IDBs
  // included).
  StratumResume seed;
  for (const auto& [pred, rel] : changed) {
    seed.delta[pred] = DeltaRange{&rel, 0, rel.size()};
  }
  seed.preds = tainted;
  for (int s = 0; s < strat_.num_strata; ++s) {
    std::vector<const RulePlan*> stratum_plans;
    std::set<std::string> stratum_preds;
    bool touches_seed = false;
    for (int clause_idx : strat_.clauses_by_stratum[static_cast<size_t>(s)]) {
      const RulePlan& plan = plans_[static_cast<size_t>(clause_idx)];
      stratum_plans.push_back(&plan);
      stratum_preds.insert(plan.head_pred);
      for (int step : plan.positive_scan_steps) {
        if (seed.delta.count(
                plan.steps[static_cast<size_t>(step)].predicate) > 0) {
          touches_seed = true;
        }
      }
    }
    // A stratum none of whose rules scans a changed predicate derives
    // exactly what it already derived; skip it without charging rounds.
    if (!touches_seed) continue;
    ++stats_.strata_evaluated;
    ctx.stratum = s;
    TraceSpan stratum_span(trace_,
                           "incremental stratum " + std::to_string(s),
                           "stratum");
    uint64_t rounds_before = stats_.iterations;
    const uint64_t inserted_before = stats_.facts_inserted;
    auto stratum_t0 = std::chrono::steady_clock::now();
    if (governor_ != nullptr) {
      governor_->set_stratum(s);
      IDLOG_RETURN_NOT_OK(governor_->CheckPoint(0));
    }
    // Rows only append to a derived relation within one clear
    // generation, and a continuation never erases, so each stratum
    // predicate's growth is the tail past its pre-stratum size.
    std::map<std::string, size_t> size_before;
    for (const std::string& pred : stratum_preds) {
      auto it = derived_.find(pred);
      if (it != derived_.end()) size_before[pred] = it->second.size();
    }
    StratumProfile sp;
    Status stratum_status =
        EvaluateStratum(stratum_plans, stratum_preds, ctx, &derived_,
                        /*seminaive=*/true, &seed,
                        profiling_ ? &sp : nullptr);
    // Hand this stratum's growth to the strata above.
    for (const auto& [pred, before] : size_before) {
      const Relation& full = derived_.at(pred);
      if (full.size() == before) continue;
      seed.delta[pred] = DeltaRange{&full, before, full.size()};
      seed.preds.insert(pred);
    }
    if (profiling_) {
      // Fold into the stratum's existing profile row (metrics are keyed
      // by stratum index; a duplicate row would collide).
      uint64_t wall = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - stratum_t0)
              .count());
      bool found = false;
      for (StratumProfile& row : profile_.strata) {
        if (row.index == s) {
          row.rounds += stats_.iterations - rounds_before;
          row.wall_ns += wall;
          row.commit_ns += sp.commit_ns;
          found = true;
          break;
        }
      }
      if (!found) {
        sp.index = s;
        sp.rules = stratum_plans.size();
        sp.rounds = stats_.iterations - rounds_before;
        sp.wall_ns = wall;
        profile_.strata.push_back(sp);
      }
    }
    stratum_span.AddArg(TraceArg::Num("rules", stratum_plans.size()));
    stratum_span.AddArg(
        TraceArg::Num("rounds", stats_.iterations - rounds_before));
    stratum_span.AddArg(
        TraceArg::Num("inserted", stats_.facts_inserted - inserted_before));
    IDLOG_RETURN_NOT_OK(stratum_status);
  }
  return Status::OK();
}

Result<const Relation*> EngineImpl::RelationOf(const std::string& pred) const {
  const Relation* rel = FullRelation(pred);
  if (rel == nullptr) {
    return Status::NotFound("no relation computed or stored for '" + pred +
                            "'");
  }
  return rel;
}

Result<bool> EngineImpl::VerifyModel() {
  if (!prepared_) {
    return Status::InvalidArgument("Prepare() and Evaluate() first");
  }
  EvalContext ctx;
  ctx.full = [this](const std::string& pred) { return FullRelation(pred); };
  ctx.id_relation = [this](const std::string& pred,
                           const std::vector<int>& group)
      -> Result<const IdRelation*> {
    auto it = id_relations_.find(std::make_pair(pred, group));
    if (it == id_relations_.end()) {
      return Status::Internal("ID-relation '" + pred +
                              "' missing from the evaluated state");
    }
    return &it->second;
  };
  ctx.index_caches = &index_caches_;
  ctx.stats = nullptr;

  for (const RulePlan& plan : plans_) {
    const Relation* current = FullRelation(plan.head_pred);
    if (current == nullptr) return false;
    RowBuffer derived(plan.head_args.size());
    IDLOG_RETURN_NOT_OK(
        EvaluateRuleInto(plan, ctx, /*delta_step=*/-1, &derived));
    for (TupleView t : derived.rows()) {
      if (!current->Contains(t)) return false;
    }
  }
  return true;
}

Result<std::string> EngineImpl::RenderExplain(bool analyze,
                                              bool json) const {
  if (!prepared_) {
    return Status::InvalidArgument("Prepare() the engine before EXPLAIN");
  }
  RewriteLog merged = rewrite_log_;
  merged.Append(pushdown_notes_);

  std::vector<int> stratum_of(plans_.size(), -1);
  for (int s = 0; s < strat_.num_strata; ++s) {
    for (int clause_idx :
         strat_.clauses_by_stratum[static_cast<size_t>(s)]) {
      stratum_of[static_cast<size_t>(clause_idx)] = s;
    }
  }

  ExplainDoc doc;
  doc.use_indexes = use_indexes_;
  doc.rewrites = &merged;
  doc.rules.reserve(plans_.size());
  for (size_t i = 0; i < plans_.size(); ++i) {
    ExplainRule rule;
    rule.clause_index = plans_[i].clause_index;
    rule.stratum = stratum_of[i];
    rule.text = ClauseToString(program_->clauses[i], *database_->symbols());
    rule.plan = &plans_[i];
    doc.rules.push_back(std::move(rule));
  }
  if (analyze) {
    doc.analysis = &plan_analysis_;
    doc.totals = &stats_;
  }
  return json ? RenderExplainJson(doc) : RenderExplainText(doc);
}

Result<std::string> EngineImpl::ExplainPlanText(bool analyze) const {
  return RenderExplain(analyze, /*json=*/false);
}

Result<std::string> EngineImpl::ExplainPlanJson(bool analyze) const {
  return RenderExplain(analyze, /*json=*/true);
}

Result<const IdRelation*> EngineImpl::IdRelationOf(
    const std::string& pred, const std::vector<int>& group) const {
  auto it = id_relations_.find(std::make_pair(pred, group));
  if (it == id_relations_.end()) {
    return Status::NotFound("ID-relation of '" + pred +
                            "' was not materialized in the last run");
  }
  return &it->second;
}

}  // namespace idlog
