#ifndef IDLOG_EVAL_STRATUM_EVAL_H_
#define IDLOG_EVAL_STRATUM_EVAL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "eval/rule_eval.h"
#include "eval/rule_plan.h"
#include "obs/profile.h"
#include "storage/relation.h"

namespace idlog {

/// An incremental seed for EvaluateStratum: the rows that predicates
/// changed outside the stratum (EDB insertions, lower-stratum growth)
/// gained, as delta ranges keyed by predicate, and the set of predicates
/// whose positive scans the first differentiated round must also read.
struct StratumResume {
  std::map<std::string, DeltaRange> delta;
  std::set<std::string> preds;
};

/// Evaluates one stratum to its least fixpoint.
///
/// `plans` are the compiled rules whose heads belong to this stratum;
/// `stratum_preds` the predicates defined here (everything else the
/// rules read is complete). `derived` maps IDB predicate names to their
/// relations, which this function extends in place. With
/// `seminaive=false` every rule re-runs in full each round (the naive
/// ablation baseline of bench E4); otherwise rounds after the first use
/// delta differentiation on intra-stratum positive scans.
///
/// Round r's delta of a stratum predicate is the row range its commit
/// appended to the full relation; a delta step looked up by key gets a
/// per-round index over that range.
///
/// `seed`, when set (semi-naive mode only), continues a completed
/// fixpoint after its inputs grew: round 0 is skipped (the completed
/// run already ran it) and the first differentiated round reads the
/// seed's delta ranges, also creating tasks for positive scans over
/// `seed->preds` — they are not in `stratum_preds`, so the normal
/// filter would never touch their deltas. Later rounds narrow back to
/// the intra-stratum filter (external predicates are complete; only
/// this stratum's own growth keeps propagating).
///
/// `profile`, when set, accumulates the stratum's commit time.
Status EvaluateStratum(const std::vector<const RulePlan*>& plans,
                       const std::set<std::string>& stratum_preds,
                       const EvalContext& base_ctx,
                       std::map<std::string, Relation>* derived,
                       bool seminaive, const StratumResume* seed = nullptr,
                       StratumProfile* profile = nullptr);

}  // namespace idlog

#endif  // IDLOG_EVAL_STRATUM_EVAL_H_
