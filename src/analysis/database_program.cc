#include "analysis/database_program.h"

#include <set>

#include "analysis/classification.h"
#include "analysis/dependency_graph.h"
#include "ast/program_builder.h"

namespace idlog {

Result<Program> BuildDatabaseProgram(const Program& program,
                                     const std::string& output_pred,
                                     const Database& database) {
  Program out;
  out.predicates = program.predicates;
  out.clauses = ProgramPortion(program, output_pred);
  if (out.clauses.empty()) {
    return Status::NotFound("no clauses related to '" + output_pred + "'");
  }

  // Which input predicates does P/q read (directly or as ID-versions)?
  std::set<std::string> inputs_used;
  PredicateClassification classes = ClassifyPredicates(program);
  for (const Clause& clause : out.clauses) {
    for (const Literal& lit : clause.body) {
      if (lit.atom.kind != AtomKind::kOrdinary &&
          lit.atom.kind != AtomKind::kId) {
        continue;
      }
      if (classes.IsInput(lit.atom.predicate)) {
        inputs_used.insert(lit.atom.predicate);
      }
    }
  }

  // Inline their contents as fact clauses.
  for (const std::string& pred : inputs_used) {
    if (pred == "udom") continue;  // handled below
    Result<const Relation*> rel = database.Get(pred);
    if (!rel.ok()) continue;  // absent input: stays empty
    for (TupleView t : (*rel)->tuples()) {
      Clause fact;
      std::vector<Term> args;
      for (const Value& v : t) args.push_back(Term::Const(v));
      fact.head = Atom::Ordinary(pred, std::move(args));
      out.clauses.push_back(std::move(fact));
    }
  }

  // The explicit udom(d_i) facts.
  bool uses_udom = inputs_used.count("udom") > 0;
  if (uses_udom) {
    for (SymbolId id : database.u_domain()) {
      Clause fact;
      fact.head =
          Atom::Ordinary("udom", {Term::Const(Value::Symbol(id))});
      out.clauses.push_back(std::move(fact));
    }
  }

  IDLOG_RETURN_NOT_OK(InferPredicateTypes(&out));
  return out;
}

}  // namespace idlog
