// The C-genericity property of Section 3.1: for every permutation σ of
// the universal domain fixing the program's own constants,
//   r ∈ f(τ)  iff  σ(r) ∈ f(σ(τ)).
// For the possible-answer sets our enumerator computes, this means:
// renaming the database constants by σ renames the answer set by σ —
// answers never depend on spellings or insertion identities, only on
// structure. This is the property that makes IDLOG queries *queries*
// in the Chandra–Harel sense despite the non-determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "common/str_util.h"
#include "core/answer_enumerator.h"
#include "parser/parser.h"
#include "test_util.h"

namespace idlog {
namespace {

// Renames sort-u constants of a tuple via `sigma` (a map over symbol
// spellings applied in a shared symbol table).
Tuple RenameTuple(const Tuple& t, const std::map<SymbolId, SymbolId>& sigma) {
  Tuple out = t;
  for (Value& v : out) {
    if (v.is_symbol()) {
      auto it = sigma.find(v.symbol());
      if (it != sigma.end()) v = Value::Symbol(it->second);
    }
  }
  return out;
}

std::set<std::vector<Tuple>> RenameAnswers(
    const std::set<std::vector<Tuple>>& answers,
    const std::map<SymbolId, SymbolId>& sigma) {
  std::set<std::vector<Tuple>> out;
  for (const auto& answer : answers) {
    std::vector<Tuple> renamed;
    for (const Tuple& t : answer) renamed.push_back(RenameTuple(t, sigma));
    std::sort(renamed.begin(), renamed.end());
    out.insert(std::move(renamed));
  }
  return out;
}

struct GenericityCase {
  const char* name;
  const char* program;
  const char* query;
};

class Genericity : public ::testing::TestWithParam<GenericityCase> {};

TEST_P(Genericity, AnswerSetsCommuteWithRenaming) {
  const GenericityCase& tc = GetParam();
  SymbolTable s;

  // Base database over constants k0..k3 (disjoint from program text).
  // Kept small: the enumerator explores every permutation of every
  // ID-group, and the global emp[] group has |emp|! of them.
  std::vector<SymbolId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(s.Intern(Numbered("k", i)));
  }
  std::mt19937_64 rng(99);
  Database db(&s);
  std::uniform_int_distribution<size_t> pick(0, ids.size() - 1);
  for (int i = 0; i < 5; ++i) {
    (void)db.AddTuple("emp", {Value::Symbol(ids[pick(rng)]),
                              Value::Symbol(ids[pick(rng)])});
  }

  // σ: a permutation of the database constants onto fresh spellings
  // (injective, fixes the program constants trivially).
  std::map<SymbolId, SymbolId> sigma;
  std::vector<SymbolId> targets;
  for (int i = 0; i < 4; ++i) {
    targets.push_back(s.Intern(Numbered("m", i)));
  }
  std::shuffle(targets.begin(), targets.end(), rng);
  for (size_t i = 0; i < ids.size(); ++i) sigma[ids[i]] = targets[i];

  Database renamed_db(&s);
  const Relation* emp = *db.Get("emp");
  for (const Tuple& t : emp->tuples()) {
    (void)renamed_db.AddTuple("emp", RenameTuple(t, sigma));
  }

  auto prog = ParseProgram(tc.program, &s);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();

  auto base = EnumerateAnswers(*prog, db, tc.query);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto renamed = EnumerateAnswers(*prog, renamed_db, tc.query);
  ASSERT_TRUE(renamed.ok()) << renamed.status().ToString();

  EXPECT_EQ(RenameAnswers(base->answers, sigma), renamed->answers)
      << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, Genericity,
    ::testing::Values(
        GenericityCase{"plain_join", "q(X, Z) :- emp(X, Y), emp(Y, Z).",
                       "q"},
        GenericityCase{"one_per_group", "q(D) :- emp[2](N, D, 0).", "q"},
        GenericityCase{"sample_two",
                       "q(N) :- emp[2](N, D, T), T < 2.", "q"},
        GenericityCase{"global_order_size",
                       // |emp| via the global ID-relation: the max tid
                       // is order-independent even though tids are not.
                       "cnt(M) :- emp[](X, Y, T), succ(T, M), "
                       "not bigger(M)."
                       "bigger(M) :- emp[](X, Y, T), succ(T, M), "
                       "emp[](X2, Y2, T2), T2 >= M.",
                       "cnt"},
        GenericityCase{"negation",
                       "q(X) :- emp(X, Y), not emp(Y, X).", "q"}),
    [](const ::testing::TestParamInfo<GenericityCase>& info) {
      return info.param.name;
    });

// A sharper structural check: insertion order of the same tuples must
// not change the possible-answer set either (order-genericity of the
// canonical enumeration).
TEST(Genericity, InsertionOrderIrrelevantForAnswerSets) {
  SymbolTable s;
  auto prog = ParseProgram("q(N) :- emp[2](N, D, T), T < 2.", &s);
  ASSERT_TRUE(prog.ok());

  std::vector<std::vector<std::string>> rows = {
      {"a", "d1"}, {"b", "d1"}, {"c", "d1"}, {"x", "d2"}, {"y", "d2"}};
  std::set<std::vector<Tuple>> previous;
  std::mt19937_64 rng(5);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(rows.begin(), rows.end(), rng);
    Database db(&s);
    for (const auto& r : rows) {
      ASSERT_TRUE(db.AddRow("emp", r).ok());
    }
    auto answers = EnumerateAnswers(*prog, db, "q");
    ASSERT_TRUE(answers.ok());
    if (round > 0) {
      EXPECT_EQ(answers->answers, previous) << "round " << round;
    }
    previous = answers->answers;
  }
}

}  // namespace
}  // namespace idlog
