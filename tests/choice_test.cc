#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "analysis/stratifier.h"
#include "choice/choice_program.h"
#include "choice/choice_semantics.h"
#include "choice/choice_to_idlog.h"
#include "common/str_util.h"
#include "core/answer_enumerator.h"
#include "parser/parser.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

Program MustParse(const std::string& text, SymbolTable* s) {
  auto p = ParseProgram(text, s);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).ValueOrDie();
}

Database EmpDatabase(SymbolTable* s) {
  Database db(s);
  EXPECT_TRUE(db.AddRow("emp", {"ann", "sales"}).ok());
  EXPECT_TRUE(db.AddRow("emp", {"bob", "sales"}).ok());
  EXPECT_TRUE(db.AddRow("emp", {"cal", "dev"}).ok());
  EXPECT_TRUE(db.AddRow("emp", {"dee", "dev"}).ok());
  return db;
}

// The KN88 program of Section 3.2.2: one employee per department.
const char* kSelectEmp =
    "select_emp(Name) :- emp(Name, Dept), choice((Dept), (Name)).";

TEST(ChoiceProgram, AnalyzeFindsOccurrences) {
  SymbolTable s;
  Program p = MustParse(kSelectEmp, &s);
  auto occ = AnalyzeChoiceProgram(p);
  ASSERT_TRUE(occ.ok()) << occ.status().ToString();
  ASSERT_EQ(occ->size(), 1u);
  EXPECT_EQ((*occ)[0].domain_vars, std::vector<std::string>{"Dept"});
  EXPECT_EQ((*occ)[0].range_vars, std::vector<std::string>{"Name"});
}

TEST(ChoiceProgram, C1ViolationRejected) {
  SymbolTable s;
  Program p = MustParse(
      "q(N) :- emp(N, D), choice((D), (N)), choice((N), (D)).", &s);
  EXPECT_EQ(AnalyzeChoiceProgram(p).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ChoiceProgram, C2ViolationRejected) {
  SymbolTable s;
  // The second choice clause consumes the first one's head predicate.
  Program p = MustParse(
      "first(N) :- emp(N, D), choice((D), (N))."
      "second(N) :- first(N), emp(N, D), choice((N), (D)).",
      &s);
  EXPECT_EQ(AnalyzeChoiceProgram(p).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ChoiceProgram, IndependentChoicesAllowed) {
  SymbolTable s;
  Program p = MustParse(
      "one(N) :- emp(N, D), choice((D), (N))."
      "other(D) :- emp(N, D), choice((N), (D)).",
      &s);
  auto occ = AnalyzeChoiceProgram(p);
  EXPECT_TRUE(occ.ok()) << occ.status().ToString();
  EXPECT_EQ(occ->size(), 2u);
}

TEST(ChoiceProgram, ChoiceVariableMustBeBound) {
  SymbolTable s;
  Program p = MustParse("q(N) :- emp(N, D), choice((Z), (N)).", &s);
  EXPECT_EQ(AnalyzeChoiceProgram(p).status().code(),
            StatusCode::kUnsafeProgram);
}

TEST(ChoiceSemantics, OneEmployeePerDepartment) {
  SymbolTable s;
  Program p = MustParse(kSelectEmp, &s);
  Database db = EmpDatabase(&s);

  ChoicePolicy policy;
  policy.kind = ChoicePolicy::Kind::kFirst;
  auto model = EvaluateChoiceProgram(p, db, policy);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const Relation* sel = *model->Get("select_emp");
  EXPECT_EQ(sel->size(), 2u);  // one per department
}

TEST(ChoiceSemantics, RandomPolicyIsSeedStable) {
  SymbolTable s;
  Program p = MustParse(kSelectEmp, &s);
  Database db = EmpDatabase(&s);
  ChoicePolicy policy;
  policy.kind = ChoicePolicy::Kind::kRandom;
  policy.seed = 3;
  auto m1 = EvaluateChoiceProgram(p, db, policy);
  auto m2 = EvaluateChoiceProgram(p, db, policy);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_TRUE((*m1->Get("select_emp"))->SetEquals(**m2->Get("select_emp")));
}

TEST(ChoiceSemantics, EnumerationYieldsAllFunctionalSubsets) {
  SymbolTable s;
  Program p = MustParse(kSelectEmp, &s);
  Database db = EmpDatabase(&s);
  auto answers = EnumerateChoiceAnswers(p, db, "select_emp");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // 2 sales x 2 dev picks = 4 models, all distinct answers.
  EXPECT_EQ(answers->assignments_tried, 4u);
  EXPECT_EQ(answers->answers.size(), 4u);
  EXPECT_TRUE(
      answers->ContainsAnswer({T(&s, {"ann"}), T(&s, {"cal"})}));
  EXPECT_TRUE(
      answers->ContainsAnswer({T(&s, {"bob"}), T(&s, {"dee"})}));
}

// Theorem 2: the translated IDLOG program is q-equivalent — identical
// possible-answer sets.
TEST(ChoiceToIdlog, Theorem2Equivalence) {
  SymbolTable s;
  Program p = MustParse(kSelectEmp, &s);
  Database db = EmpDatabase(&s);

  auto translated = TranslateChoiceToIdlog(p);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();

  auto choice_answers = EnumerateChoiceAnswers(p, db, "select_emp");
  ASSERT_TRUE(choice_answers.ok());
  auto idlog_answers = EnumerateAnswers(*translated, db, "select_emp");
  ASSERT_TRUE(idlog_answers.ok()) << idlog_answers.status().ToString();
  EXPECT_EQ(choice_answers->answers, idlog_answers->answers);
}

TEST(ChoiceToIdlog, TranslationIsFourStratum) {
  SymbolTable s;
  Program p = MustParse(kSelectEmp, &s);
  auto translated = TranslateChoiceToIdlog(p);
  ASSERT_TRUE(translated.ok());
  auto strat = Stratify(*translated);
  ASSERT_TRUE(strat.ok()) << strat.status().ToString();
  // choice_body < chosen (ID edge) < select_emp: three derivation
  // strata above the inputs.
  EXPECT_LT(strat->StratumOf("choice_body_0"),
            strat->StratumOf("chosen_0"));
  EXPECT_LE(strat->StratumOf("chosen_0"),
            strat->StratumOf("select_emp"));
}

// Theorem 2 stress: several program shapes, several random databases —
// the translated IDLOG program always has the same possible-answer set
// as the native KN88 semantics.
struct TranslationCase {
  const char* name;
  const char* program;
  const char* query;
};

class Theorem2Sweep
    : public ::testing::TestWithParam<std::tuple<TranslationCase, int>> {};

TEST_P(Theorem2Sweep, AnswerSetsCoincide) {
  const auto& [tc, seed] = GetParam();
  SymbolTable s;
  Database db(&s);
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 31 + 5);
  // Small random emp + dept_ok tables (sizes bounded for enumeration).
  int people = 3 + static_cast<int>(rng() % 3);
  for (int i = 0; i < people; ++i) {
    ASSERT_TRUE(db.AddRow("emp", {Numbered("p", i),
                                  Numbered("d", rng() % 2)})
                    .ok());
  }
  ASSERT_TRUE(db.AddRow("dept_ok", {"d0"}).ok());

  auto program = ParseProgram(tc.program, &s);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto translated = TranslateChoiceToIdlog(*program);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();

  auto native = EnumerateChoiceAnswers(*program, db, tc.query);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  auto via_idlog = EnumerateAnswers(*translated, db, tc.query,
                                    EnumerateOptions{.max_assignments =
                                                         1000000});
  ASSERT_TRUE(via_idlog.ok()) << via_idlog.status().ToString();
  EXPECT_EQ(native->answers, via_idlog->answers)
      << tc.name << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Theorem2Sweep,
    ::testing::Combine(
        ::testing::Values(
            TranslationCase{"one_per_dept",
                            "q(N) :- emp(N, D), choice((D), (N)).", "q"},
            TranslationCase{"one_dept_per_name",
                            "q(D) :- emp(N, D), choice((N), (D)).", "q"},
            TranslationCase{"global_pick",
                            "q(N) :- emp(N, D), choice((), (N)).", "q"},
            TranslationCase{
                "filtered",
                "q(N) :- emp(N, D), dept_ok(D), choice((D), (N)).", "q"},
            TranslationCase{
                "two_independent",
                "one(N) :- emp(N, D), choice((D), (N))."
                "other(D) :- emp(N, D), choice((N), (D))."
                "q(N, D) :- one(N), other(D).",
                "q"}),
        ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<TranslationCase, int>>&
           info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// Example 4: the sex-guess DATALOG^C program of Section 3.2.2 is man-
// and woman-equivalent to the Example 2 IDLOG program.
TEST(ChoiceToIdlog, Example4SexGuessEquivalence) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("person", {"a"}).ok());
  ASSERT_TRUE(db.AddRow("person", {"b"}).ok());

  Program choice_prog = MustParse(
      "sex_guess(X, male) :- person(X)."
      "sex_guess(X, female) :- person(X)."
      "sex(X, Y) :- sex_guess(X, Y), choice((X), (Y))."
      "man(X) :- sex(X, male)."
      "woman(X) :- sex(X, female).",
      &s);
  Program idlog_prog = MustParse(
      "sex_guess(X, male) :- person(X)."
      "sex_guess(X, female) :- person(X)."
      "man(X) :- sex_guess[1](X, male, 1)."
      "woman(X) :- sex_guess[1](X, female, 1).",
      &s);

  for (const char* query : {"man", "woman"}) {
    auto via_choice = EnumerateChoiceAnswers(choice_prog, db, query);
    ASSERT_TRUE(via_choice.ok()) << via_choice.status().ToString();
    auto via_idlog = EnumerateAnswers(idlog_prog, db, query);
    ASSERT_TRUE(via_idlog.ok());
    EXPECT_EQ(via_choice->answers, via_idlog->answers) << query;
  }
}

// Example 5's failure mode: the two-independent-choices DATALOG^C
// program does NOT define "two employees per department" — some of its
// intended models pick fewer than two from a department.
TEST(ChoiceSemantics, Example5IndependentChoicesAreWrong) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("emp", {"a1", "d1"}).ok());
  ASSERT_TRUE(db.AddRow("emp", {"a2", "d1"}).ok());
  ASSERT_TRUE(db.AddRow("emp", {"a3", "d1"}).ok());

  Program p = MustParse(
      "emp1(Name, Dept) :- emp(Name, Dept), choice((Dept), (Name))."
      "emp2(Name, Dept) :- emp(Name, Dept), choice((Dept), (Name))."
      "select_two(N1) :- emp1(N1, D), emp2(N2, D), N1 != N2.",
      &s);
  auto answers = EnumerateChoiceAnswers(p, db, "select_two");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // When both choices pick the same employee, the answer is empty —
  // the query can fail to produce any sample.
  EXPECT_TRUE(answers->ContainsAnswer({}));

  // The IDLOG one-liner never fails: every answer has exactly 2 names.
  Program idlog_prog = MustParse(
      "select_two(Name) :- emp[2](Name, Dept, N), N < 2.", &s);
  auto idlog_answers = EnumerateAnswers(idlog_prog, db, "select_two");
  ASSERT_TRUE(idlog_answers.ok());
  EXPECT_FALSE(idlog_answers->ContainsAnswer({}));
  for (const auto& a : idlog_answers->answers) {
    EXPECT_EQ(a.size(), 2u);
  }
}

}  // namespace
}  // namespace idlog
