#ifndef IDLOG_AST_PROGRAM_BUILDER_H_
#define IDLOG_AST_PROGRAM_BUILDER_H_

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "common/symbol_table.h"

namespace idlog {

/// Infers the column sorts (u vs i) of every predicate in `program` from
/// constants, built-in argument positions and variable sharing, by a
/// fixpoint over all clauses. Columns left unconstrained default to
/// sort u. Returns TypeError on a sort conflict.
///
/// `stored` seeds the inference with the column sorts of relations that
/// already hold data (the loaded EDB): an undeclared predicate with a
/// stored relation of the same arity starts from that relation's type,
/// like a declaration would. Without it, a column that no clause
/// constrains defaults to u even when the stored tuples are integers.
Status InferPredicateTypes(
    Program* program,
    const std::map<std::string, RelationType>& stored = {});

/// Convenience builder for constructing programs in C++ (used by the
/// Turing-machine compiler, the DATALOG^C translator and tests). Interns
/// sort-u constants into the SymbolTable supplied at construction.
///
///   ProgramBuilder b(&symbols);
///   b.AddRule(Atom::Ordinary("all_depts", {b.V("D")}),
///             {Literal::Pos(Atom::Id("emp", {1}, {b.V("N"), b.V("D"),
///                                                 b.N(0)}))});
///   Result<Program> p = b.Build();
class ProgramBuilder {
 public:
  explicit ProgramBuilder(SymbolTable* symbols) : symbols_(symbols) {}

  ProgramBuilder(const ProgramBuilder&) = delete;
  ProgramBuilder& operator=(const ProgramBuilder&) = delete;

  /// Term helpers: variable, number constant, interned symbol constant.
  Term V(const std::string& name) const { return Term::Var(name); }
  Term N(int64_t n) const { return Term::Number(n); }
  Term S(const std::string& name) { return Term::Symbol(symbols_->Intern(name)); }

  /// Adds `head :- body.`
  ProgramBuilder& AddRule(Atom head, std::vector<Literal> body);

  /// Adds a ground fact clause `pred(values).`
  ProgramBuilder& AddFact(const std::string& pred, std::vector<Term> args);

  /// Declares a predicate signature explicitly (otherwise inferred).
  ProgramBuilder& Declare(const std::string& pred, const RelationType& type);

  /// Finalizes: runs type inference and returns the program.
  Result<Program> Build();

  /// Access to the program under construction (for advanced callers).
  Program& program() { return program_; }

 private:
  SymbolTable* symbols_;
  Program program_;
};

}  // namespace idlog

#endif  // IDLOG_AST_PROGRAM_BUILDER_H_
