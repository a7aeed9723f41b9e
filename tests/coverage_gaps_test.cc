// Focused tests for corner cases not exercised elsewhere.
#include <gtest/gtest.h>

#include "choice/choice_semantics.h"
#include "core/answer_enumerator.h"
#include "core/idlog_engine.h"
#include "parser/parser.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

TEST(CoverageGaps, GlobalChoiceWithEmptyDomainPart) {
  // choice((), (N)): one global pick across the whole relation.
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(db.AddRow("emp", {"bob", "dev"}).ok());
  ASSERT_TRUE(db.AddRow("emp", {"cal", "dev"}).ok());
  auto prog = ParseProgram(
      "one(N) :- emp(N, D), choice((), (N)).", &s);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto answers = EnumerateChoiceAnswers(*prog, db, "one");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->answers.size(), 3u);
  for (const auto& a : answers->answers) {
    EXPECT_EQ(a.size(), 1u);
  }
  // The same query via the global ID-relation.
  auto idlog_prog = ParseProgram("one(N) :- emp[](N, D, 0).", &s);
  ASSERT_TRUE(idlog_prog.ok());
  auto idlog_answers = EnumerateAnswers(*idlog_prog, db, "one");
  ASSERT_TRUE(idlog_answers.ok());
  EXPECT_EQ(answers->answers, idlog_answers->answers);
}

TEST(CoverageGaps, NegatedIdLiteralEvaluates) {
  // "employees that are not their department's representative".
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"cal", "dev"}).ok());
  Status st = engine.LoadProgramText(
      "non_rep(N) :- emp(N, D), not emp[2](N, D, 0).");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto r = engine.Query("non_rep");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // One of ann/bob is the sales rep; cal is always the dev rep.
  EXPECT_EQ((*r)->size(), 1u);
  EXPECT_FALSE((*r)->Contains(T(&engine.symbols(), {"cal"})));
}

TEST(CoverageGaps, NegatedIdNeedsFullMaterialization) {
  // A negated ID-literal probing tid 0 still only needs the prefix; the
  // bound analysis treats negative occurrences like positive ones.
  IdlogEngine engine;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.AddRow("emp", {"e" + std::to_string(i), "d"}).ok());
  }
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "non_rep(N) :- emp(N, D), not emp[2](N, D, 0).")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  auto id_rel = engine.QueryIdRelation("emp", {1});
  ASSERT_TRUE(id_rel.ok());
  EXPECT_EQ((*id_rel)->size(), 1u);
  auto r = engine.Query("non_rep");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->size(), 9u);
}

TEST(CoverageGaps, EnumerationOverSmallGroupsIsExhaustive) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("g", {"a", "k"}).ok());
  ASSERT_TRUE(db.AddRow("g", {"b", "k"}).ok());
  auto prog = ParseProgram("first(V) :- g[2](V, K, 0).", &s);
  ASSERT_TRUE(prog.ok());
  auto answers = EnumerateAnswers(*prog, db, "first");
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->exhaustive);
  EXPECT_EQ(answers->answers.size(), 2u);
}

TEST(CoverageGaps, SaturatedGroupMarksEnumerationNonExhaustive) {
  // A 21-tuple group has 21! > 2^64 permutations: its radix saturates
  // to UINT64_MAX and the odometer can never step it past rank 0.
  // The enumeration used to return such a slice silently as if it were
  // the whole answer set; it must be flagged.
  SymbolTable s;
  Database db(&s);
  for (int i = 0; i < 21; ++i) {
    ASSERT_TRUE(db.AddRow("g", {"v" + std::to_string(i), "k"}).ok());
  }
  auto prog = ParseProgram("first(V) :- g[2](V, K, 0).", &s);
  ASSERT_TRUE(prog.ok());
  auto answers = EnumerateAnswers(*prog, db, "first");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_FALSE(answers->exhaustive);
  // Only the rank-0 permutation of the saturated group was explored.
  EXPECT_EQ(answers->assignments_tried, 1u);
  EXPECT_EQ(answers->answers.size(), 1u);
}

TEST(CoverageGaps, EnumeratorBudgetExceeded) {
  SymbolTable s;
  Database db(&s);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.AddRow("item", {"x" + std::to_string(i)}).ok());
  }
  auto prog = ParseProgram("ord(X, I) :- item[](X, I).", &s);
  ASSERT_TRUE(prog.ok());
  EnumerateOptions options;
  options.max_assignments = 10;  // 6! = 720 assignments exist
  auto answers = EnumerateAnswers(*prog, db, "ord", options);
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST(CoverageGaps, ChoiceEnumerationBudgetExceeded) {
  SymbolTable s;
  Database db(&s);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.AddRow("emp", {"e" + std::to_string(i), "d"}).ok());
  }
  auto prog = ParseProgram(
      "one(N) :- emp(N, D), choice((D), (N)).", &s);
  ASSERT_TRUE(prog.ok());
  ResourceGovernor governor;
  governor.Arm(EvalLimits::TupleBudget(3));
  auto answers = EnumerateChoiceAnswers(*prog, db, "one", &governor);
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST(CoverageGaps, IdAtomOverIdbPredicate) {
  // The base of an ID-literal can itself be derived; stratification
  // sequences the materialization after the defining stratum.
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"a", "c"}).ok());
  Status st = engine.LoadProgramText(
      "reach(X, Y) :- edge(X, Y)."
      "reach(X, Z) :- reach(X, Y), edge(Y, Z)."
      "witness(X, Y) :- reach[1](X, Y, 0).");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto w = engine.Query("witness");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  // One witness target per source: sources are a and b.
  EXPECT_EQ((*w)->size(), 2u);
}

TEST(CoverageGaps, TwoIdAtomsSameBaseDifferentGroupsInOneClause) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"cal", "dev"}).ok());
  // Is the per-department representative also the global representative?
  Status st = engine.LoadProgramText(
      "both(N) :- emp[2](N, D, 0), emp[](N, D, 0).");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto r = engine.Query("both");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Exactly one global rep exists; it is also a department rep under
  // the canonical assignment (first tuple of its group).
  EXPECT_LE((*r)->size(), 1u);
}

TEST(CoverageGaps, FactOnlyProgram) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText("p(a). p(b). q(a, 1).").ok());
  auto p = engine.Query("p");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->size(), 2u);
  auto verified = engine.VerifyModel();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
}

TEST(CoverageGaps, EmptyProgramText) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText("").ok());
  EXPECT_TRUE(engine.Run().ok());
}

}  // namespace
}  // namespace idlog
