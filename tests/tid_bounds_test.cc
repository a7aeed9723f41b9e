#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "analysis/tid_bounds.h"
#include "common/str_util.h"
#include "core/answer_enumerator.h"
#include "core/idlog_engine.h"
#include "parser/parser.h"
#include "test_util.h"

namespace idlog {
namespace {

std::map<TidBoundKey, int64_t> BoundsOf(const std::string& text) {
  SymbolTable s;
  auto p = ParseProgram(text, &s);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return ComputeTidBounds(*p);
}

TEST(TidBounds, ConstantTid) {
  auto bounds = BoundsOf("q(D) :- emp[2](N, D, 0).");
  TidBoundKey key{"emp", {1}};
  ASSERT_EQ((bounds.count(key)), 1u);
  EXPECT_EQ(bounds[key], 1);
}

TEST(TidBounds, LessThanComparison) {
  auto bounds = BoundsOf("q(N) :- emp[2](N, D, T), T < 2.");
  EXPECT_EQ((bounds[TidBoundKey{"emp", {1}}]), 2);
}

TEST(TidBounds, LessEqualAndMirroredForms) {
  EXPECT_EQ((BoundsOf("q(N) :- e[1](N, T), T <= 3.")[TidBoundKey{"e", {0}}]), 4);
  EXPECT_EQ((BoundsOf("q(N) :- e[1](N, T), 5 > T.")[TidBoundKey{"e", {0}}]), 5);
  EXPECT_EQ((BoundsOf("q(N) :- e[1](N, T), 5 >= T.")[TidBoundKey{"e", {0}}]), 6);
  EXPECT_EQ((BoundsOf("q(N) :- e[1](N, T), T = 4.")[TidBoundKey{"e", {0}}]), 5);
}

// The largest constant the lexer accepts is a bound too; k + 1 must not
// overflow into a negative bound that would truncate every group to
// nothing.
TEST(TidBounds, LargestConstantDoesNotOverflow) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ((BoundsOf("q(N) :- e[1](N, T), T <= 9223372036854775807.")
                 [TidBoundKey{"e", {0}}]),
            kMax);
  EXPECT_EQ((BoundsOf("q(N) :- e[](N, 9223372036854775807).")
                 [TidBoundKey{"e", {}}]),
            kMax);
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("e", {"a"}).ok());
  ASSERT_TRUE(engine.AddRow("e", {"b"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "q(N) :- e[1](N, T), T <= 9223372036854775807.")
                  .ok());
  auto q = engine.Query("q");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->size(), 2u);
}

TEST(TidBounds, TightestConstraintWins) {
  auto bounds =
      BoundsOf("q(N) :- e[1](N, T), T < 9, T < 2.");
  EXPECT_EQ((bounds[TidBoundKey{"e", {0}}]), 2);
}

TEST(TidBounds, MaxAcrossOccurrences) {
  auto bounds = BoundsOf(
      "a(N) :- e[1](N, T), T < 2."
      "b(N) :- e[1](N, T), T < 5.");
  EXPECT_EQ((bounds[TidBoundKey{"e", {0}}]), 5);
}

TEST(TidBounds, UnboundedOccurrenceDisables) {
  auto bounds = BoundsOf(
      "a(N) :- e[1](N, T), T < 2."
      "b(N, T) :- e[1](N, T).");
  EXPECT_EQ((bounds.count(TidBoundKey{"e", {0}})), 0u);
}

TEST(TidBounds, DifferentGroupsTrackedSeparately) {
  auto bounds = BoundsOf(
      "a(N) :- e[1](N, D, T), T < 2."
      "b(N, T) :- e[2](N, D, T).");
  EXPECT_EQ((bounds.count(TidBoundKey{"e", {0}})), 1u);
  EXPECT_EQ((bounds.count(TidBoundKey{"e", {1}})), 0u);
}

TEST(TidBounds, NegatedComparisonDoesNotBound) {
  auto bounds = BoundsOf("a(N) :- e[1](N, T), f(N), not T < 2.");
  EXPECT_EQ((bounds.count(TidBoundKey{"e", {0}})), 0u);
}

TEST(TidBounds, GreaterThanDoesNotBound) {
  auto bounds = BoundsOf("a(N) :- e[1](N, T), T > 2.");
  EXPECT_EQ((bounds.count(TidBoundKey{"e", {0}})), 0u);
}

TEST(TidBounds, EngineTruncatesMaterialization) {
  IdlogEngine engine;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.AddRow("emp", {Numbered("e", i), "d"}).ok());
  }
  ASSERT_TRUE(
      engine.LoadProgramText("two(N) :- emp[2](N, D, T), T < 2.").ok());
  ASSERT_TRUE(engine.Run().ok());
  auto id_rel = engine.QueryIdRelation("emp", {1});
  ASSERT_TRUE(id_rel.ok());
  EXPECT_EQ((*id_rel)->size(), 2u);  // truncated to tids {0, 1}
  EXPECT_EQ(engine.stats().id_tuples_materialized, 2u);

  // Ablation: disabling the pushdown materializes everything.
  engine.SetTidBoundPushdown(false);
  ASSERT_TRUE(engine.Run().ok());
  auto full = engine.QueryIdRelation("emp", {1});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ((*full)->size(), 50u);
}

TEST(TidBounds, AnswersUnchangedByPushdown) {
  for (bool pushdown : {true, false}) {
    IdlogEngine engine;
    engine.SetTidBoundPushdown(pushdown);
    for (int d = 0; d < 3; ++d) {
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(engine
                        .AddRow("emp", {Numbered("e", d) + "_" +
                                            std::to_string(i),
                                        Numbered("d", d)})
                        .ok());
      }
    }
    ASSERT_TRUE(
        engine.LoadProgramText("two(N) :- emp[2](N, D, T), T < 2.").ok());
    auto q = engine.Query("two");
    ASSERT_TRUE(q.ok());
    EXPECT_EQ((*q)->size(), 6u) << "pushdown=" << pushdown;
  }
}

TEST(TidBounds, EnumerationSeesSameAnswerSets) {
  // The possible-answer sets must be identical with and without the
  // pushdown (the truncated relation is a prefix of a legal one).
  SymbolTable s;
  Database db(&s);
  for (const char* name : {"a1", "a2", "a3"}) {
    ASSERT_TRUE(db.AddRow("emp", {name, "d"}).ok());
  }
  auto prog =
      ParseProgram("two(N) :- emp[2](N, D, T), T < 2.", &s);
  ASSERT_TRUE(prog.ok());
  auto answers = EnumerateAnswers(*prog, db, "two");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->answers.size(), 3u);  // C(3,2)
}

}  // namespace
}  // namespace idlog
