#include <gtest/gtest.h>

#include "eval/builtin_eval.h"

namespace idlog {
namespace {

std::vector<std::vector<int64_t>> Solutions(
    BuiltinKind kind, const std::vector<std::optional<int64_t>>& args) {
  std::vector<std::optional<Value>> vals;
  for (const auto& a : args) {
    if (a.has_value()) {
      vals.push_back(Value::Number(*a));
    } else {
      vals.push_back(std::nullopt);
    }
  }
  std::vector<std::vector<int64_t>> out;
  Status st = EnumerateBuiltin(kind, vals, [&](const std::vector<Value>& v) {
    std::vector<int64_t> row;
    for (const Value& x : v) row.push_back(x.number());
    out.push_back(row);
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(BuiltinHolds, Comparisons) {
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kLt,
                           {Value::Number(1), Value::Number(2)}));
  EXPECT_FALSE(BuiltinHolds(BuiltinKind::kLt,
                            {Value::Number(2), Value::Number(2)}));
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kLe,
                           {Value::Number(2), Value::Number(2)}));
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kGt,
                           {Value::Number(3), Value::Number(2)}));
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kGe,
                           {Value::Number(2), Value::Number(2)}));
}

TEST(BuiltinHolds, EqualityAcrossSorts) {
  Value sym = Value::Symbol(0);
  Value num = Value::Number(0);
  EXPECT_FALSE(BuiltinHolds(BuiltinKind::kEq, {sym, num}));
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kNe, {sym, num}));
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kEq, {sym, sym}));
}

TEST(BuiltinHolds, ComparingSymbolsIsFalse) {
  // Order comparisons are only defined on sort i.
  Value sym = Value::Symbol(1);
  EXPECT_FALSE(BuiltinHolds(BuiltinKind::kLt, {sym, Value::Number(5)}));
}

TEST(BuiltinHolds, Arithmetic) {
  auto n = [](int64_t v) { return Value::Number(v); };
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kSucc, {n(4), n(5)}));
  EXPECT_FALSE(BuiltinHolds(BuiltinKind::kSucc, {n(5), n(5)}));
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kAdd, {n(2), n(3), n(5)}));
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kSub, {n(5), n(3), n(2)}));
  // 3 - 5 has no natural result; -2 is not a value at all (numbers are
  // naturals), so the absolute difference is the candidate to reject.
  EXPECT_FALSE(BuiltinHolds(BuiltinKind::kSub, {n(3), n(5), n(2)}));
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kMul, {n(3), n(4), n(12)}));
  EXPECT_TRUE(BuiltinHolds(BuiltinKind::kDiv, {n(7), n(2), n(3)}));
  EXPECT_FALSE(BuiltinHolds(BuiltinKind::kDiv, {n(7), n(0), n(0)}));
}

TEST(EnumerateBuiltin, SuccForward) {
  EXPECT_EQ(Solutions(BuiltinKind::kSucc, {4, std::nullopt}),
            (std::vector<std::vector<int64_t>>{{4, 5}}));
}

TEST(EnumerateBuiltin, SuccBackward) {
  EXPECT_EQ(Solutions(BuiltinKind::kSucc, {std::nullopt, 5}),
            (std::vector<std::vector<int64_t>>{{4, 5}}));
  // 0 has no predecessor in the naturals.
  EXPECT_TRUE(Solutions(BuiltinKind::kSucc, {std::nullopt, 0}).empty());
}

TEST(EnumerateBuiltin, AddForwardAndSolve) {
  EXPECT_EQ(Solutions(BuiltinKind::kAdd, {2, 3, std::nullopt}),
            (std::vector<std::vector<int64_t>>{{2, 3, 5}}));
  EXPECT_EQ(Solutions(BuiltinKind::kAdd, {2, std::nullopt, 5}),
            (std::vector<std::vector<int64_t>>{{2, 3, 5}}));
  EXPECT_EQ(Solutions(BuiltinKind::kAdd, {std::nullopt, 3, 5}),
            (std::vector<std::vector<int64_t>>{{2, 3, 5}}));
  // Natural arithmetic: no solution when the difference is negative.
  EXPECT_TRUE(Solutions(BuiltinKind::kAdd, {7, std::nullopt, 5}).empty());
}

TEST(EnumerateBuiltin, AddNnbEnumeratesDecompositions) {
  // The paper's nnb case: L + M = 3 has the four solutions.
  auto sols =
      Solutions(BuiltinKind::kAdd, {std::nullopt, std::nullopt, 3});
  EXPECT_EQ(sols, (std::vector<std::vector<int64_t>>{
                      {0, 3, 3}, {1, 2, 3}, {2, 1, 3}, {3, 0, 3}}));
}

TEST(EnumerateBuiltin, SubBnnEnumerates) {
  auto sols =
      Solutions(BuiltinKind::kSub, {2, std::nullopt, std::nullopt});
  EXPECT_EQ(sols, (std::vector<std::vector<int64_t>>{
                      {2, 0, 2}, {2, 1, 1}, {2, 2, 0}}));
}

TEST(EnumerateBuiltin, SubSolvesEachPosition) {
  EXPECT_EQ(Solutions(BuiltinKind::kSub, {5, 2, std::nullopt}),
            (std::vector<std::vector<int64_t>>{{5, 2, 3}}));
  EXPECT_EQ(Solutions(BuiltinKind::kSub, {5, std::nullopt, 2}),
            (std::vector<std::vector<int64_t>>{{5, 3, 2}}));
  EXPECT_EQ(Solutions(BuiltinKind::kSub, {std::nullopt, 3, 2}),
            (std::vector<std::vector<int64_t>>{{5, 3, 2}}));
  // 2 - 5 has no natural solution.
  EXPECT_TRUE(Solutions(BuiltinKind::kSub, {2, 5, std::nullopt}).empty());
}

TEST(EnumerateBuiltin, MulAndDivForward) {
  EXPECT_EQ(Solutions(BuiltinKind::kMul, {3, 4, std::nullopt}),
            (std::vector<std::vector<int64_t>>{{3, 4, 12}}));
  EXPECT_EQ(Solutions(BuiltinKind::kDiv, {7, 2, std::nullopt}),
            (std::vector<std::vector<int64_t>>{{7, 2, 3}}));
  EXPECT_TRUE(
      Solutions(BuiltinKind::kDiv, {7, 0, std::nullopt}).empty());
}

TEST(EnumerateBuiltin, EqBindsUnboundSide) {
  EXPECT_EQ(Solutions(BuiltinKind::kEq, {7, std::nullopt}),
            (std::vector<std::vector<int64_t>>{{7, 7}}));
  EXPECT_EQ(Solutions(BuiltinKind::kEq, {std::nullopt, 7}),
            (std::vector<std::vector<int64_t>>{{7, 7}}));
  EXPECT_TRUE(Solutions(BuiltinKind::kEq, {7, 8}).empty());
}

TEST(EnumerateBuiltin, FullyBoundActsAsFilter) {
  EXPECT_EQ(Solutions(BuiltinKind::kLt, {1, 2}).size(), 1u);
  EXPECT_TRUE(Solutions(BuiltinKind::kLt, {2, 1}).empty());
  EXPECT_EQ(Solutions(BuiltinKind::kAdd, {2, 2, 4}).size(), 1u);
  EXPECT_TRUE(Solutions(BuiltinKind::kAdd, {2, 2, 5}).empty());
}

TEST(EnumerateBuiltin, UnsafePatternsRejected) {
  std::vector<std::optional<Value>> args = {std::nullopt, std::nullopt};
  Status st =
      EnumerateBuiltin(BuiltinKind::kEq, args, [](const auto&) {});
  EXPECT_EQ(st.code(), StatusCode::kUnsafeProgram);
  std::vector<std::optional<Value>> args3 = {std::nullopt, std::nullopt,
                                             std::nullopt};
  st = EnumerateBuiltin(BuiltinKind::kMul, args3, [](const auto&) {});
  EXPECT_EQ(st.code(), StatusCode::kUnsafeProgram);
}

TEST(EnumerateBuiltin, NonNaturalInputsYieldNothing) {
  // Generation from a symbol or out-of-sort value produces no tuples.
  std::vector<std::optional<Value>> args = {Value::Symbol(3), std::nullopt};
  int count = 0;
  Status st = EnumerateBuiltin(BuiltinKind::kSucc, args,
                               [&](const auto&) { ++count; });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace idlog
