#ifndef IDLOG_MODELS_DISJUNCTIVE_H_
#define IDLOG_MODELS_DISJUNCTIVE_H_

#include <set>
#include <vector>

#include "common/limits.h"
#include "common/status.h"
#include "ground/grounder.h"

namespace idlog {

/// A model: the set of ground atoms it makes true.
using AtomSet = std::set<GroundAtom>;

/// Minimal-model semantics of DATALOG^∨ (Section 3.2, first paragraph):
/// disjunctions in clause heads, positive bodies. Enumerates all
/// minimal models of the ground program by branching on unsatisfied
/// disjunctive heads and filtering non-minimal results (every minimal
/// model is reachable by some branch).
///
/// Bodies with negation are rejected — the paper's DATALOG^∨ baseline
/// point is about disjunction; its negation-bearing extension would
/// need perfect models, which the stable-model module covers for the
/// single-head case.
///
/// With a governor, each explored state charges the budgets and
/// checkpoints the deadline/cancellation token; null means ungoverned.
Result<std::vector<AtomSet>> MinimalModels(const GroundProgram& ground,
                                           ResourceGovernor* governor =
                                               nullptr);

/// Projects the answers for `predicate` out of each model, as sorted
/// tuple lists (the possible-answer set format of AnswerSet).
std::set<std::vector<Tuple>> ProjectAnswers(
    const std::vector<AtomSet>& models, const std::string& predicate);

}  // namespace idlog

#endif  // IDLOG_MODELS_DISJUNCTIVE_H_
