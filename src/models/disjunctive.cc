#include "models/disjunctive.h"

#include <algorithm>

#include "obs/trace.h"

namespace idlog {

namespace {

bool Contains(const AtomSet& model, const GroundAtom& atom) {
  return model.count(atom) > 0;
}

// First clause whose body holds in `model` but whose head is entirely
// false; nullptr if the model satisfies the program.
const GroundClause* FindViolated(const GroundProgram& ground,
                                 const AtomSet& model) {
  for (const GroundClause& clause : ground.clauses) {
    bool body_holds = true;
    for (const GroundAtom& a : clause.positive) {
      if (!Contains(model, a)) {
        body_holds = false;
        break;
      }
    }
    if (!body_holds) continue;
    bool head_holds = false;
    for (const GroundAtom& h : clause.head) {
      if (Contains(model, h)) {
        head_holds = true;
        break;
      }
    }
    if (!head_holds) return &clause;
  }
  return nullptr;
}

}  // namespace

Result<std::vector<AtomSet>> MinimalModels(const GroundProgram& ground,
                                           ResourceGovernor* governor) {
  for (const GroundClause& clause : ground.clauses) {
    if (!clause.negative.empty()) {
      return Status::Unsupported(
          "MinimalModels handles positive disjunctive programs; use the "
          "stable-model module for negation");
    }
  }

  // One "tuple" per distinct explored candidate model; unarmed
  // (ungoverned) when no governor is given.
  ResourceGovernor local;
  ResourceGovernor* gov = governor != nullptr ? governor : &local;
  gov->set_scope("minimal-model search");
  TraceSpan span(gov->trace_sink(), "minimal-model search", "models");
  span.AddArg(TraceArg::Num("ground_clauses", ground.clauses.size()));

  std::set<AtomSet> visited;
  std::set<AtomSet> models;
  std::vector<AtomSet> stack = {AtomSet{}};

  while (!stack.empty()) {
    AtomSet state = std::move(stack.back());
    stack.pop_back();
    if (!visited.insert(state).second) continue;
    IDLOG_RETURN_NOT_OK(gov->OnDerived(1, state.size() * 64));
    IDLOG_RETURN_NOT_OK(gov->CheckPoint(ground.clauses.size()));
    const GroundClause* violated = FindViolated(ground, state);
    if (violated == nullptr) {
      models.insert(std::move(state));
      continue;
    }
    for (const GroundAtom& h : violated->head) {
      AtomSet next = state;
      next.insert(h);
      if (visited.count(next) == 0) stack.push_back(std::move(next));
    }
  }

  // Keep only minimal models.
  std::vector<AtomSet> result;
  for (const AtomSet& m : models) {
    bool minimal = true;
    for (const AtomSet& other : models) {
      if (&other == &m || other.size() >= m.size()) continue;
      if (std::includes(m.begin(), m.end(), other.begin(), other.end())) {
        minimal = false;
        break;
      }
    }
    if (minimal) result.push_back(m);
  }
  span.AddArg(TraceArg::Num("candidates_explored", visited.size()));
  span.AddArg(TraceArg::Num("minimal_models", result.size()));
  return result;
}

std::set<std::vector<Tuple>> ProjectAnswers(
    const std::vector<AtomSet>& models, const std::string& predicate) {
  std::set<std::vector<Tuple>> out;
  for (const AtomSet& model : models) {
    std::vector<Tuple> answer;
    for (const GroundAtom& atom : model) {
      if (atom.predicate == predicate) answer.push_back(atom.args);
    }
    std::sort(answer.begin(), answer.end());
    out.insert(std::move(answer));
  }
  return out;
}

}  // namespace idlog
