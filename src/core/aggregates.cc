#include "core/aggregates.h"

#include <string>

#include "ast/program_builder.h"
#include "common/symbol_table.h"
#include "eval/engine_impl.h"
#include "storage/database.h"
#include "storage/tid_assigner.h"

namespace idlog {

namespace {

/// Shared driver: installs `rel` as relation "r" in a scratch database,
/// builds the program, evaluates with canonical tids and returns the
/// relation for `answer_pred` by value.
Result<Relation> RunAggregateProgram(
    const Relation& rel,
    const std::function<void(ProgramBuilder*)>& build,
    const std::string& answer_pred) {
  SymbolTable symbols;
  Database db(&symbols);
  IDLOG_RETURN_NOT_OK(db.CreateRelation("r", rel.type()));
  IDLOG_ASSIGN_OR_RETURN(Relation * stored, db.GetMutable("r"));
  for (TupleView t : rel.tuples()) stored->Insert(t);

  ProgramBuilder builder(&symbols);
  builder.Declare("r", rel.type());
  build(&builder);
  IDLOG_ASSIGN_OR_RETURN(Program program, builder.Build());

  EngineImpl engine(&program, &db);
  IDLOG_RETURN_NOT_OK(engine.Prepare());
  IdentityTidAssigner identity;
  IDLOG_RETURN_NOT_OK(engine.Evaluate(&identity));
  IDLOG_ASSIGN_OR_RETURN(const Relation* answer,
                         engine.RelationOf(answer_pred));
  return *answer;
}

/// Fresh variables X1..Xn for the columns of `rel`.
std::vector<Term> ColumnVars(const Relation& rel) {
  std::vector<Term> vars;
  for (int i = 0; i < rel.arity(); ++i) {
    vars.push_back(Term::Var("X" + std::to_string(i + 1)));
  }
  return vars;
}

}  // namespace

Result<int64_t> CountViaTids(const Relation& rel) {
  if (rel.empty()) return int64_t{0};
  auto build = [&](ProgramBuilder* b) {
    // has(T) :- r[](X1..Xn, T).
    std::vector<Term> id_args = ColumnVars(rel);
    id_args.push_back(b->V("T"));
    b->AddRule(Atom::Ordinary("has", {b->V("T")}),
               {Literal::Pos(Atom::Id("r", {}, id_args))});
    // cnt(M) :- has(T), succ(T, M), not has(M).
    b->AddRule(Atom::Ordinary("cnt", {b->V("M")}),
               {Literal::Pos(Atom::Ordinary("has", {b->V("T")})),
                Literal::Pos(Atom::Builtin(BuiltinKind::kSucc,
                                           {b->V("T"), b->V("M")})),
                Literal::Neg(Atom::Ordinary("has", {b->V("M")}))});
  };
  IDLOG_ASSIGN_OR_RETURN(Relation answer,
                         RunAggregateProgram(rel, build, "cnt"));
  if (answer.size() != 1) {
    return Status::Internal("count program produced " +
                            std::to_string(answer.size()) + " answers");
  }
  return answer.tuples()[0][0].number();
}

Result<Relation> GroupCountViaTids(const Relation& rel,
                                   const std::vector<int>& group_cols) {
  for (int c : group_cols) {
    if (c < 0 || c >= rel.arity()) {
      return Status::InvalidArgument("grouping column out of range");
    }
  }
  RelationType out_type;
  for (int c : group_cols) out_type.push_back(rel.type()[static_cast<size_t>(c)]);
  out_type.push_back(Sort::kI);
  if (rel.empty()) return Relation(out_type);

  auto build = [&](ProgramBuilder* b) {
    // has(K.., T) :- r[g](X1..Xn, T).
    std::vector<Term> id_args = ColumnVars(rel);
    id_args.push_back(b->V("T"));
    std::vector<Term> head;
    for (int c : group_cols) {
      head.push_back(Term::Var("X" + std::to_string(c + 1)));
    }
    std::vector<Term> has_head = head;
    has_head.push_back(b->V("T"));
    b->AddRule(Atom::Ordinary("has", has_head),
               {Literal::Pos(Atom::Id("r", group_cols, id_args))});
    // cnt(K.., M) :- has(K.., T), succ(T, M), not has(K.., M).
    std::vector<Term> cnt_head = head;
    cnt_head.push_back(b->V("M"));
    std::vector<Term> neg_args = head;
    neg_args.push_back(b->V("M"));
    b->AddRule(Atom::Ordinary("cnt", cnt_head),
               {Literal::Pos(Atom::Ordinary("has", has_head)),
                Literal::Pos(Atom::Builtin(BuiltinKind::kSucc,
                                           {b->V("T"), b->V("M")})),
                Literal::Neg(Atom::Ordinary("has", neg_args))});
  };
  return RunAggregateProgram(rel, build, "cnt");
}

namespace {

Result<int64_t> Extremum(const Relation& rel, int col, bool minimum) {
  if (col < 0 || col >= rel.arity()) {
    return Status::InvalidArgument("column out of range");
  }
  if (rel.type()[static_cast<size_t>(col)] != Sort::kI) {
    return Status::InvalidArgument("column is not sort i");
  }
  if (rel.empty()) return Status::NotFound("relation is empty");

  auto build = [&](ProgramBuilder* b) {
    std::vector<Term> vars = ColumnVars(rel);
    Term v = Term::Var("X" + std::to_string(col + 1));
    b->AddRule(Atom::Ordinary("val", {v}),
               {Literal::Pos(Atom::Ordinary("r", vars))});
    // beaten(V) :- val(V), val(W), W < V   (or W > V for max).
    b->AddRule(
        Atom::Ordinary("beaten", {b->V("V")}),
        {Literal::Pos(Atom::Ordinary("val", {b->V("V")})),
         Literal::Pos(Atom::Ordinary("val", {b->V("W")})),
         Literal::Pos(Atom::Builtin(
             minimum ? BuiltinKind::kLt : BuiltinKind::kGt,
             {b->V("W"), b->V("V")}))});
    b->AddRule(Atom::Ordinary("best", {b->V("V")}),
               {Literal::Pos(Atom::Ordinary("val", {b->V("V")})),
                Literal::Neg(Atom::Ordinary("beaten", {b->V("V")}))});
  };
  IDLOG_ASSIGN_OR_RETURN(Relation answer,
                         RunAggregateProgram(rel, build, "best"));
  if (answer.size() != 1) {
    return Status::Internal("extremum program produced " +
                            std::to_string(answer.size()) + " answers");
  }
  return answer.tuples()[0][0].number();
}

}  // namespace

Result<int64_t> MinOfColumn(const Relation& rel, int col) {
  return Extremum(rel, col, /*minimum=*/true);
}

Result<int64_t> MaxOfColumn(const Relation& rel, int col) {
  return Extremum(rel, col, /*minimum=*/false);
}

Result<int64_t> SumViaTids(const Relation& rel, int col) {
  if (col < 0 || col >= rel.arity()) {
    return Status::InvalidArgument("column out of range");
  }
  if (rel.type()[static_cast<size_t>(col)] != Sort::kI) {
    return Status::InvalidArgument("column is not sort i");
  }
  if (rel.empty()) return int64_t{0};

  auto build = [&](ProgramBuilder* b) {
    // item(I, V) :- r[](X1..Xn, I): value of the i-th tuple in tid
    // order. The fold accumulates along succ.
    std::vector<Term> id_args = ColumnVars(rel);
    id_args.push_back(b->V("I"));
    Term v = Term::Var("X" + std::to_string(col + 1));
    b->AddRule(Atom::Ordinary("item", {b->V("I"), v}),
               {Literal::Pos(Atom::Id("r", {}, id_args))});
    b->AddRule(Atom::Ordinary("acc", {b->N(0), b->V("V")}),
               {Literal::Pos(Atom::Ordinary("item", {b->N(0), b->V("V")}))});
    b->AddRule(
        Atom::Ordinary("acc", {b->V("J"), b->V("S2")}),
        {Literal::Pos(Atom::Ordinary("acc", {b->V("I"), b->V("S")})),
         Literal::Pos(
             Atom::Builtin(BuiltinKind::kSucc, {b->V("I"), b->V("J")})),
         Literal::Pos(Atom::Ordinary("item", {b->V("J"), b->V("V")})),
         Literal::Pos(Atom::Builtin(BuiltinKind::kAdd,
                                    {b->V("S"), b->V("V"), b->V("S2")}))});
    // total(S) :- acc(I, S), succ(I, J), not item_at(J).
    b->AddRule(Atom::Ordinary("item_at", {b->V("I")}),
               {Literal::Pos(Atom::Ordinary("item", {b->V("I"), b->V("V")}))});
    b->AddRule(
        Atom::Ordinary("total", {b->V("S")}),
        {Literal::Pos(Atom::Ordinary("acc", {b->V("I"), b->V("S")})),
         Literal::Pos(
             Atom::Builtin(BuiltinKind::kSucc, {b->V("I"), b->V("J")})),
         Literal::Neg(Atom::Ordinary("item_at", {b->V("J")}))});
  };
  IDLOG_ASSIGN_OR_RETURN(Relation answer,
                         RunAggregateProgram(rel, build, "total"));
  if (answer.size() != 1) {
    return Status::Internal("sum program produced " +
                            std::to_string(answer.size()) + " answers");
  }
  return answer.tuples()[0][0].number();
}

}  // namespace idlog
