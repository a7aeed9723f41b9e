#include "ast/program_builder.h"

#include <map>
#include <optional>

namespace idlog {

namespace {

// Tri-state column/variable sort during inference.
enum class SortState : uint8_t { kUnknown, kU, kI };

SortState FromSort(Sort s) {
  return s == Sort::kU ? SortState::kU : SortState::kI;
}

// Meets two sort states; returns nullopt on conflict.
std::optional<SortState> Meet(SortState a, SortState b) {
  if (a == SortState::kUnknown) return b;
  if (b == SortState::kUnknown) return a;
  if (a == b) return a;
  return std::nullopt;
}

// Fixed sorts of builtin argument positions; kUnknown means polymorphic
// (eq/ne compare within either sort).
SortState BuiltinArgSort(BuiltinKind kind) {
  switch (kind) {
    case BuiltinKind::kEq:
    case BuiltinKind::kNe:
      return SortState::kUnknown;
    default:
      return SortState::kI;
  }
}

struct InferenceState {
  // predicate index -> per-column state.
  std::vector<std::vector<SortState>> columns;
  bool changed = false;
  Status error;

  bool MeetInto(SortState* slot, SortState incoming,
                const std::string& where) {
    auto met = Meet(*slot, incoming);
    if (!met.has_value()) {
      if (error.ok()) {
        error = Status::TypeError("sort conflict (u vs i) at " + where);
      }
      return false;
    }
    if (*met != *slot) {
      *slot = *met;
      changed = true;
    }
    return true;
  }
};

}  // namespace

Status InferPredicateTypes(
    Program* program, const std::map<std::string, RelationType>& stored) {
  InferenceState st;
  st.columns.resize(program->predicates.size());
  for (size_t p = 0; p < program->predicates.size(); ++p) {
    const PredicateInfo& info = program->predicates[p];
    st.columns[p].assign(info.type.size(), SortState::kUnknown);
    if (info.declared) {
      for (size_t c = 0; c < info.type.size(); ++c) {
        st.columns[p][c] = FromSort(info.type[c]);
      }
    }
  }

  auto pred_index = [&](const std::string& name) {
    return program->FindPredicate(name);
  };

  // Fixpoint: clause-local variable sorts exchange information with the
  // global per-predicate column sorts. Convergence is detected on the
  // global column states only — clause-local variable slots are rebuilt
  // every round and must not count as change.
  std::vector<std::vector<SortState>> snapshot;
  while (true) {
    do {
      snapshot = st.columns;
      st.changed = false;
      for (const Clause& clause : program->clauses) {
        std::map<std::string, SortState> vars;
        // Several passes per clause so information can flow both ways
        // between literals through shared variables.
        for (int pass = 0; pass < 2; ++pass) {
          auto visit_position = [&](const Term& term, SortState* column_slot,
                                    const std::string& where) {
            if (term.is_constant()) {
              if (column_slot != nullptr) {
                st.MeetInto(column_slot, FromSort(term.value().sort()), where);
              }
              return;
            }
            SortState& var_slot = vars[term.var_name()];
            if (column_slot != nullptr) {
              st.MeetInto(&var_slot, *column_slot, where);
              st.MeetInto(column_slot, var_slot, where);
            }
          };
          auto visit_fixed = [&](const Term& term, SortState fixed,
                                 const std::string& where) {
            if (term.is_constant()) {
              SortState slot = FromSort(term.value().sort());
              st.MeetInto(&slot, fixed, where);
              return;
            }
            SortState& var_slot = vars[term.var_name()];
            st.MeetInto(&var_slot, fixed, where);
          };

          auto visit_atom = [&](const Atom& atom) {
            switch (atom.kind) {
              case AtomKind::kOrdinary: {
                int p = pred_index(atom.predicate);
                if (p < 0) return;
                for (int c = 0; c < atom.arity(); ++c) {
                  visit_position(atom.terms[c], &st.columns[p][c],
                                 atom.predicate);
                }
                break;
              }
              case AtomKind::kId: {
                int p = pred_index(atom.predicate);
                for (int c = 0; c < atom.base_arity(); ++c) {
                  visit_position(atom.terms[c],
                                 p >= 0 ? &st.columns[p][c] : nullptr,
                                 atom.predicate);
                }
                // Trailing tid argument is always sort i.
                visit_fixed(atom.terms.back(), SortState::kI,
                            atom.predicate + "[tid]");
                break;
              }
              case AtomKind::kBuiltin: {
                SortState fixed = BuiltinArgSort(atom.builtin);
                if (fixed == SortState::kI) {
                  for (const Term& t : atom.terms) {
                    visit_fixed(t, SortState::kI, BuiltinName(atom.builtin));
                  }
                } else {
                  // eq/ne: both sides share a sort.
                  const Term& a = atom.terms[0];
                  const Term& b = atom.terms[1];
                  SortState sa = a.is_constant() ? FromSort(a.value().sort())
                                                 : vars[a.var_name()];
                  SortState sb = b.is_constant() ? FromSort(b.value().sort())
                                                 : vars[b.var_name()];
                  auto met = Meet(sa, sb);
                  if (!met.has_value()) {
                    if (st.error.ok()) {
                      st.error = Status::TypeError(
                          "sort conflict across (in)equality");
                    }
                    return;
                  }
                  if (a.is_variable()) {
                    st.MeetInto(&vars[a.var_name()], *met, "=");
                  }
                  if (b.is_variable()) {
                    st.MeetInto(&vars[b.var_name()], *met, "=");
                  }
                }
                break;
              }
              case AtomKind::kChoice:
                // Choice arguments take their sorts from the other literals
                // the variables appear in; nothing fixed here.
                break;
            }
          };

          visit_atom(clause.head);
          for (const Literal& lit : clause.body) visit_atom(lit.atom);
        }
      }
      if (!st.error.ok()) return st.error;
    } while (st.columns != snapshot);

    // Stored relations fill in the columns no clause constrains, then the
    // fixpoint runs again so their sorts flow through shared variables.
    // They never override a sort the program itself forces.
    bool seeded = false;
    for (size_t p = 0; p < program->predicates.size(); ++p) {
      const PredicateInfo& info = program->predicates[p];
      auto it = stored.find(info.name);
      if (info.declared || it == stored.end() ||
          it->second.size() != info.type.size()) {
        continue;
      }
      for (size_t c = 0; c < info.type.size(); ++c) {
        if (st.columns[p][c] == SortState::kUnknown) {
          st.columns[p][c] = FromSort(it->second[c]);
          seeded = true;
        }
      }
    }
    if (!seeded) break;
  }

  // Write back; unconstrained columns default to sort u.
  for (size_t p = 0; p < program->predicates.size(); ++p) {
    PredicateInfo& info = program->predicates[p];
    for (size_t c = 0; c < info.type.size(); ++c) {
      info.type[c] =
          st.columns[p][c] == SortState::kI ? Sort::kI : Sort::kU;
    }
  }
  return Status::OK();
}

ProgramBuilder& ProgramBuilder::AddRule(Atom head, std::vector<Literal> body) {
  program_.GetOrAddPredicate(head.predicate, head.arity());
  for (const Literal& lit : body) {
    if (lit.atom.kind == AtomKind::kOrdinary) {
      program_.GetOrAddPredicate(lit.atom.predicate, lit.atom.arity());
    } else if (lit.atom.kind == AtomKind::kId) {
      program_.GetOrAddPredicate(lit.atom.predicate, lit.atom.base_arity());
    }
  }
  program_.clauses.push_back(Clause{std::move(head), std::move(body)});
  return *this;
}

ProgramBuilder& ProgramBuilder::AddFact(const std::string& pred,
                                        std::vector<Term> args) {
  return AddRule(Atom::Ordinary(pred, std::move(args)), {});
}

ProgramBuilder& ProgramBuilder::Declare(const std::string& pred,
                                        const RelationType& type) {
  PredicateInfo& info =
      program_.GetOrAddPredicate(pred, static_cast<int>(type.size()));
  info.type = type;
  info.declared = true;
  return *this;
}

Result<Program> ProgramBuilder::Build() {
  Status st = InferPredicateTypes(&program_);
  if (!st.ok()) return st;
  return program_;
}

}  // namespace idlog
