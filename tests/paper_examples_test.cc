// Mechanized versions of the worked examples in the paper (Sections
// 1-4). Each test states which example it reproduces.
#include <gtest/gtest.h>

#include <memory>

#include "common/str_util.h"
#include "core/answer_enumerator.h"
#include "core/idlog_engine.h"
#include "parser/parser.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

// Section 1 / Example 4: all_depts needs only one employee witness per
// department; emp[2](Name, Dept, 0) considers exactly one tuple per
// department, and the answer is the full set of departments under every
// tid assignment (the query is deterministic even though the program is
// non-deterministic).
TEST(PaperExamples, AllDeptsIsDeterministic) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(db.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(db.AddRow("emp", {"cal", "dev"}).ok());
  auto program =
      ParseProgram("all_depts(D) :- emp[2](N, D, 0).", &s);
  ASSERT_TRUE(program.ok());

  auto answers = EnumerateAnswers(*program, db, "all_depts");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // 2! * 1! = 2 assignments, but a single possible answer.
  EXPECT_EQ(answers->assignments_tried, 2u);
  ASSERT_EQ(answers->answers.size(), 1u);
  EXPECT_TRUE(answers->ContainsAnswer(
      {T(&s, {"sales"}), T(&s, {"dev"})}));
}

// Example 2: man/woman guessed via sex_guess tids. With persons {a, b},
// the possible answers for `man` are exactly {}, {a}, {b}, {a, b}.
TEST(PaperExamples, Example2SexGuess) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("person", {"a"}).ok());
  ASSERT_TRUE(db.AddRow("person", {"b"}).ok());
  auto program = ParseProgram(
      "sex_guess(X, male) :- person(X)."
      "sex_guess(X, female) :- person(X)."
      "man(X) :- sex_guess[1](X, male, 1)."
      "woman(X) :- sex_guess[1](X, female, 1).",
      &s);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  for (const char* query : {"man", "woman"}) {
    auto answers = EnumerateAnswers(*program, db, query);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(answers->answers.size(), 4u) << query;
    EXPECT_TRUE(answers->ContainsAnswer({}));
    EXPECT_TRUE(answers->ContainsAnswer({T(&s, {"a"})}));
    EXPECT_TRUE(answers->ContainsAnswer({T(&s, {"b"})}));
    EXPECT_TRUE(answers->ContainsAnswer({T(&s, {"a"}), T(&s, {"b"})}));
  }
}

// Example 5: select exactly two employees from each department. Every
// possible answer has exactly two members per department; every 2-subset
// combination is reachable.
TEST(PaperExamples, Example5SelectTwoPerDept) {
  SymbolTable s;
  Database db(&s);
  for (const char* name : {"a1", "a2", "a3"}) {
    ASSERT_TRUE(db.AddRow("emp", {name, "d1"}).ok());
  }
  for (const char* name : {"b1", "b2"}) {
    ASSERT_TRUE(db.AddRow("emp", {name, "d2"}).ok());
  }
  auto program = ParseProgram(
      "select_two(Name) :- emp[2](Name, Dept, N), N < 2.", &s);
  ASSERT_TRUE(program.ok());

  auto answers = EnumerateAnswers(*program, db, "select_two");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // C(3,2) * C(2,2) = 3 distinct answers.
  EXPECT_EQ(answers->answers.size(), 3u);
  for (const auto& answer : answers->answers) {
    // Exactly two names per department: 2 from d1 + 2 from d2.
    EXPECT_EQ(answer.size(), 4u);
  }
  EXPECT_TRUE(answers->ContainsAnswer({T(&s, {"a1"}), T(&s, {"a2"}),
                                       T(&s, {"b1"}), T(&s, {"b2"})}));
  EXPECT_TRUE(answers->ContainsAnswer({T(&s, {"a1"}), T(&s, {"a3"}),
                                       T(&s, {"b1"}), T(&s, {"b2"})}));
  EXPECT_TRUE(answers->ContainsAnswer({T(&s, {"a2"}), T(&s, {"a3"}),
                                       T(&s, {"b1"}), T(&s, {"b2"})}));
}

// Example 7 part 2: with the body literal of clause [3] replaced by the
// ID-literal p[](Y, 0), the query q1 becomes genuinely
// non-deterministic (TRUE or FALSE on non-empty input, depending on
// which of p(b) / p(c) draws tid 0) while q2 stays deterministically
// FALSE — the argument is 3-existential w.r.t. q2 but not w.r.t. q1.
TEST(PaperExamples, Example7ExistentialDifference) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("y", {"w"}).ok());

  const char* original =
      "q1 :- x(c)."
      "q2 :- x(a)."
      "x(Y) :- p(Y)."
      "p(b) :- y(X)."
      "p(c) :- y(X).";
  const char* rewritten =
      "q1 :- x(c)."
      "q2 :- x(a)."
      "x(Y) :- p[](Y, 0)."
      "p(b) :- y(X)."
      "p(c) :- y(X).";

  auto p_orig = ParseProgram(original, &s);
  ASSERT_TRUE(p_orig.ok()) << p_orig.status().ToString();
  auto p_rew = ParseProgram(rewritten, &s);
  ASSERT_TRUE(p_rew.ok()) << p_rew.status().ToString();

  // Original: q1 is TRUE (x contains c), q2 FALSE.
  auto q1_orig = EnumerateAnswers(*p_orig, db, "q1");
  ASSERT_TRUE(q1_orig.ok());
  EXPECT_EQ(q1_orig->answers.size(), 1u);
  EXPECT_TRUE(q1_orig->ContainsAnswer({Tuple{}}));  // TRUE

  // Rewritten: q1 has both TRUE and FALSE among its answers -> the
  // argument is NOT 3-existential w.r.t. q1.
  auto q1_rew = EnumerateAnswers(*p_rew, db, "q1");
  ASSERT_TRUE(q1_rew.ok());
  EXPECT_EQ(q1_rew->answers.size(), 2u);
  EXPECT_TRUE(q1_rew->ContainsAnswer({}));         // FALSE reachable
  EXPECT_TRUE(q1_rew->ContainsAnswer({Tuple{}}));  // TRUE reachable

  // q2 is FALSE in both programs under every assignment -> the argument
  // IS 3-existential w.r.t. q2.
  for (const Program* prog : {&*p_orig, &*p_rew}) {
    auto q2 = EnumerateAnswers(*prog, db, "q2");
    ASSERT_TRUE(q2.ok());
    EXPECT_EQ(q2->answers.size(), 1u);
    EXPECT_TRUE(q2->ContainsAnswer({}));  // always FALSE
  }
}

// Example 7 part 1: the ∀-existential transform of Definition 1
// replaces the occurrence by p'(Y') where Y' ranges over the whole
// domain (encoded here with udom). Under it, q1 stays TRUE but q2
// *becomes* TRUE on non-empty inputs — so the argument is
// ∀-existential w.r.t. q1 and NOT w.r.t. q2, the mirror image of the
// ∃ case tested above.
TEST(PaperExamples, Example7ForallTransform) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("y", {"w"}).ok());
  // a, b, c must exist in the domain for the transform to range over.
  db.AddDomainConstant(s.Intern("a"));
  db.AddDomainConstant(s.Intern("b"));
  db.AddDomainConstant(s.Intern("c"));

  const char* transformed =
      "q1 :- x(c)."
      "q2 :- x(a)."
      "x(Yp) :- pprime(Yp)."
      "pprime(Yp) :- p(Y), udom(Yp)."  // Definition 1's p'(Y') <- p(Y)
      "p(b) :- y(X)."
      "p(c) :- y(X).";
  auto prog = ParseProgram(transformed, &s);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();

  auto q1 = EnumerateAnswers(*prog, db, "q1");
  auto q2 = EnumerateAnswers(*prog, db, "q2");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  // q1 unchanged (TRUE): the transform is sound for q1.
  EXPECT_EQ(q1->answers.size(), 1u);
  EXPECT_TRUE(q1->ContainsAnswer({Tuple{}}));
  // q2 flipped from FALSE to TRUE: NOT ∀-existential w.r.t. q2.
  EXPECT_TRUE(q2->ContainsAnswer({Tuple{}}));
}

// Section 3.3's other sampling query: "Find an arbitrary cafe at the
// intersection of Blvd. St. Germain and Blvd. St. Michel" [ASV90] —
// pick one tuple from a selection.
TEST(PaperExamples, ArbitraryCafeAtIntersection) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("cafe", {"les_deux_magots", "st_germain"}).ok());
  ASSERT_TRUE(db.AddRow("cafe", {"flore", "st_germain"}).ok());
  ASSERT_TRUE(db.AddRow("cafe", {"cluny", "st_michel"}).ok());
  ASSERT_TRUE(db.AddRow("corner", {"les_deux_magots"}).ok());
  ASSERT_TRUE(db.AddRow("corner", {"flore"}).ok());

  // at_corner holds the cafes at the intersection; pick[] chooses one.
  auto program = ParseProgram(
      "at_corner(C) :- cafe(C, st_germain), corner(C)."
      "pick(C) :- at_corner[](C, 0).",
      &s);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto answers = EnumerateAnswers(*program, db, "pick");
  ASSERT_TRUE(answers.ok());
  // Every possible answer is exactly one cafe from the intersection.
  EXPECT_EQ(answers->answers.size(), 2u);
  EXPECT_TRUE(answers->ContainsAnswer({T(&s, {"les_deux_magots"})}));
  EXPECT_TRUE(answers->ContainsAnswer({T(&s, {"flore"})}));
  EXPECT_FALSE(answers->ContainsAnswer({}));
}

// Section 4 intro example: p(X) :- q(X, Z), z(Z, Y), y(W) can be
// rewritten with ID-literals; both programs define the same query.
TEST(PaperExamples, Section4IntroRewriteEquivalence) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("q", {"x1", "z1"}).ok());
  ASSERT_TRUE(db.AddRow("q", {"x2", "z2"}).ok());
  ASSERT_TRUE(db.AddRow("z", {"z1", "y1"}).ok());
  ASSERT_TRUE(db.AddRow("z", {"z1", "y2"}).ok());
  ASSERT_TRUE(db.AddRow("z", {"z2", "y1"}).ok());
  ASSERT_TRUE(db.AddRow("y", {"w1"}).ok());
  ASSERT_TRUE(db.AddRow("y", {"w2"}).ok());

  auto original =
      ParseProgram("p(X) :- q(X, Z), z(Z, Y), y(W).", &s);
  ASSERT_TRUE(original.ok());
  auto rewritten = ParseProgram(
      "p(X) :- q(X, Z), z[1](Z, Y, 0), y[](W, 0).", &s);
  ASSERT_TRUE(rewritten.ok());

  auto orig_answers = EnumerateAnswers(*original, db, "p");
  ASSERT_TRUE(orig_answers.ok());
  auto rew_answers = EnumerateAnswers(*rewritten, db, "p");
  ASSERT_TRUE(rew_answers.ok());
  EXPECT_EQ(orig_answers->answers, rew_answers->answers);
  EXPECT_EQ(rew_answers->answers.size(), 1u);  // deterministic
}

// The rewritten program inspects far fewer tuples than the original —
// the quantitative claim behind Section 4 (checked as a strict
// inequality here; bench E2 measures the magnitude).
TEST(PaperExamples, Section4RewriteReducesWork) {
  IdlogEngine original;
  IdlogEngine rewritten;
  for (IdlogEngine* e : {&original, &rewritten}) {
    for (int i = 0; i < 10; ++i) {
      std::string zi = Numbered("z", i);
      ASSERT_TRUE(e->AddRow("q", {"x", zi}).ok());
      for (int j = 0; j < 10; ++j) {
        ASSERT_TRUE(
            e->AddRow("z", {zi, Numbered("y", j)}).ok());
      }
    }
    for (int w = 0; w < 10; ++w) {
      ASSERT_TRUE(e->AddRow("y", {Numbered("w", w)}).ok());
    }
  }
  ASSERT_TRUE(
      original.LoadProgramText("p(X) :- q(X, Z), z(Z, Y), y(W).").ok());
  ASSERT_TRUE(rewritten
                  .LoadProgramText(
                      "p(X) :- q(X, Z), z[1](Z, Y, 0), y[](W, 0).")
                  .ok());
  ASSERT_TRUE(original.Run().ok());
  ASSERT_TRUE(rewritten.Run().ok());
  EXPECT_LT(rewritten.stats().tuples_considered,
            original.stats().tuples_considered);
  auto a = original.Query("p");
  auto b = rewritten.Query("p");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*a)->SetEquals(**b));
}

}  // namespace
}  // namespace idlog
