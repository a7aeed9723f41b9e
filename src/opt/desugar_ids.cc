#include "opt/desugar_ids.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/program_builder.h"
#include "common/str_util.h"

namespace idlog {

namespace {

std::string GroupSuffix(const std::vector<int>& group) {
  std::string s;
  for (int c : group) s += Numbered("_", c + 1);
  return s;
}

/// Emits the footnote 5 definition of `pred` grouped by `group` (both
/// identify the ID-relation), defining `<pred>_id<suffix>` with arity
/// base+1. Fresh variable names are prefixed to avoid capture.
void EmitDefinition(const std::string& pred, int arity,
                    const std::vector<int>& group, Program* out) {
  const std::string sfx = GroupSuffix(group);
  const std::string gid = "gid_" + pred + sfx;
  const std::string member = "member_" + pred + sfx;
  const std::string gid_used = "gidused_" + pred + sfx;
  const std::string walk = "walk_" + pred + sfx;
  const std::string rank = "rank_" + pred + sfx;
  const std::string target = pred + "_id" + sfx;

  auto var = [](const std::string& base, int i) {
    return Term::Var(base + std::to_string(i));
  };
  std::vector<Term> xs;
  for (int i = 0; i < arity; ++i) xs.push_back(var("Dx", i));
  std::vector<Term> ks;
  for (int c : group) ks.push_back(var("Dx", c));
  Term g = Term::Var("Dg");
  Term g1 = Term::Var("Dg1");
  Term r = Term::Var("Dr");
  Term r1 = Term::Var("Dr1");
  Term t = Term::Var("Dt");

  auto add = [out](Atom head, std::vector<Literal> body) {
    out->GetOrAddPredicate(head.predicate, head.arity());
    for (const Literal& lit : body) {
      if (lit.atom.kind == AtomKind::kOrdinary) {
        out->GetOrAddPredicate(lit.atom.predicate, lit.atom.arity());
      } else if (lit.atom.kind == AtomKind::kId) {
        out->GetOrAddPredicate(lit.atom.predicate, lit.atom.base_arity());
      }
    }
    out->clauses.push_back(Clause{std::move(head), std::move(body)});
  };

  // gid(X̄, G) :- p[](X̄, G).
  std::vector<Term> id_args = xs;
  id_args.push_back(g);
  std::vector<Term> gid_args = xs;
  gid_args.push_back(g);
  add(Atom::Ordinary(gid, gid_args),
      {Literal::Pos(Atom::Id(pred, {}, id_args))});

  // member(K̄, G) :- gid(X̄, G).   gid_used(G) :- gid(X̄, G).
  std::vector<Term> member_args = ks;
  member_args.push_back(g);
  add(Atom::Ordinary(member, member_args),
      {Literal::Pos(Atom::Ordinary(gid, gid_args))});
  add(Atom::Ordinary(gid_used, {g}),
      {Literal::Pos(Atom::Ordinary(gid, gid_args))});

  // walk(K̄, 0, 0) :- member(K̄, G).
  std::vector<Term> walk0 = ks;
  walk0.push_back(Term::Number(0));
  walk0.push_back(Term::Number(0));
  add(Atom::Ordinary(walk, walk0),
      {Literal::Pos(Atom::Ordinary(member, member_args))});

  std::vector<Term> walk_args = ks;
  walk_args.push_back(g);
  walk_args.push_back(r);
  // walk(K̄, G1, R1) :- walk(K̄, G, R), member(K̄, G), succ(G, G1),
  //                    succ(R, R1).
  std::vector<Term> walk_adv = ks;
  walk_adv.push_back(g1);
  walk_adv.push_back(r1);
  add(Atom::Ordinary(walk, walk_adv),
      {Literal::Pos(Atom::Ordinary(walk, walk_args)),
       Literal::Pos(Atom::Ordinary(member, member_args)),
       Literal::Pos(Atom::Builtin(BuiltinKind::kSucc, {g, g1})),
       Literal::Pos(Atom::Builtin(BuiltinKind::kSucc, {r, r1}))});
  // walk(K̄, G1, R) :- walk(K̄, G, R), not member(K̄, G), gid_used(G),
  //                   succ(G, G1).
  std::vector<Term> walk_skip = ks;
  walk_skip.push_back(g1);
  walk_skip.push_back(r);
  add(Atom::Ordinary(walk, walk_skip),
      {Literal::Pos(Atom::Ordinary(walk, walk_args)),
       Literal::Neg(Atom::Ordinary(member, member_args)),
       Literal::Pos(Atom::Ordinary(gid_used, {g})),
       Literal::Pos(Atom::Builtin(BuiltinKind::kSucc, {g, g1}))});

  // rank(K̄, G, R) :- walk(K̄, G, R), member(K̄, G).
  std::vector<Term> rank_args = ks;
  rank_args.push_back(g);
  rank_args.push_back(r);
  add(Atom::Ordinary(rank, rank_args),
      {Literal::Pos(Atom::Ordinary(walk, walk_args)),
       Literal::Pos(Atom::Ordinary(member, member_args))});

  // target(X̄, T) :- gid(X̄, G), rank(K̄, G, T).
  std::vector<Term> rank_t = ks;
  rank_t.push_back(g);
  rank_t.push_back(t);
  std::vector<Term> target_args = xs;
  target_args.push_back(t);
  add(Atom::Ordinary(target, target_args),
      {Literal::Pos(Atom::Ordinary(gid, gid_args)),
       Literal::Pos(Atom::Ordinary(rank, rank_t))});
}

}  // namespace

Result<DesugarResult> DesugarGroupedIds(const Program& program,
                                        RewriteLog* log) {
  DesugarResult result;
  result.program.predicates = program.predicates;

  std::set<std::pair<std::string, std::vector<int>>> emitted;
  for (const Clause& clause : program.clauses) {
    Clause rewritten = clause;
    for (Literal& lit : rewritten.body) {
      if (lit.atom.kind != AtomKind::kId || lit.atom.group.empty()) {
        continue;
      }
      const std::string& pred = lit.atom.predicate;
      const std::vector<int> group = lit.atom.group;
      int arity = lit.atom.base_arity();
      const std::string target = pred + "_id" + GroupSuffix(group);
      if (emitted.insert({pred, group}).second) {
        EmitDefinition(pred, arity, group, &result.program);
        if (log != nullptr) {
          log->Note("id-desugar", -1,
                    "emitted footnote-5 definition of " + target +
                        " (7 aux clauses) for grouped ID-relation " + pred);
        }
      }
      // Replace p[s](args, T) with p_id_s(args, T).
      lit.atom = Atom::Ordinary(target, lit.atom.terms);
      ++result.literals_desugared;
      if (log != nullptr) {
        // The rewritten clause is pushed after the aux definitions, so
        // its output index is the current clause count.
        log->Note("id-desugar",
                  static_cast<int>(result.program.clauses.size()),
                  "grouped ID-literal " + pred + " -> " + target);
      }
    }
    result.program.GetOrAddPredicate(rewritten.head.predicate,
                                     rewritten.head.arity());
    result.program.clauses.push_back(std::move(rewritten));
  }
  IDLOG_RETURN_NOT_OK(InferPredicateTypes(&result.program));
  return result;
}

}  // namespace idlog
