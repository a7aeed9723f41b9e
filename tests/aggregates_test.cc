#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "common/str_util.h"
#include "core/aggregates.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

Relation EmpSalary(SymbolTable* s) {
  Relation r(TypeFromString("001"));
  r.Insert(T(s, {"ann", "sales", "10"}));
  r.Insert(T(s, {"bob", "sales", "20"}));
  r.Insert(T(s, {"cal", "dev", "30"}));
  r.Insert(T(s, {"dee", "dev", "25"}));
  r.Insert(T(s, {"eli", "dev", "15"}));
  return r;
}

TEST(Aggregates, Count) {
  SymbolTable s;
  Relation r = EmpSalary(&s);
  auto count = CountViaTids(r);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 5);
}

TEST(Aggregates, CountEmpty) {
  Relation r(TypeFromString("00"));
  auto count = CountViaTids(r);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0);
}

TEST(Aggregates, CountOne) {
  SymbolTable s;
  Relation r(TypeFromString("0"));
  r.Insert(T(&s, {"only"}));
  EXPECT_EQ(*CountViaTids(r), 1);
}

TEST(Aggregates, GroupCount) {
  SymbolTable s;
  Relation r = EmpSalary(&s);
  auto counts = GroupCountViaTids(r, {1});
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(counts->size(), 2u);
  EXPECT_TRUE(counts->Contains(T(&s, {"sales", "2"})));
  EXPECT_TRUE(counts->Contains(T(&s, {"dev", "3"})));
}

TEST(Aggregates, GroupCountEmptyAndErrors) {
  Relation r(TypeFromString("00"));
  auto counts = GroupCountViaTids(r, {0});
  ASSERT_TRUE(counts.ok());
  EXPECT_TRUE(counts->empty());
  EXPECT_EQ(GroupCountViaTids(r, {7}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Aggregates, MinMax) {
  SymbolTable s;
  Relation r = EmpSalary(&s);
  EXPECT_EQ(*MinOfColumn(r, 2), 10);
  EXPECT_EQ(*MaxOfColumn(r, 2), 30);
}

TEST(Aggregates, MinMaxErrors) {
  SymbolTable s;
  Relation r = EmpSalary(&s);
  EXPECT_EQ(MinOfColumn(r, 0).status().code(),
            StatusCode::kInvalidArgument);  // u column
  EXPECT_EQ(MaxOfColumn(r, 9).status().code(),
            StatusCode::kInvalidArgument);
  Relation empty(TypeFromString("1"));
  EXPECT_EQ(MinOfColumn(empty, 0).status().code(), StatusCode::kNotFound);
}

TEST(Aggregates, Sum) {
  SymbolTable s;
  Relation r = EmpSalary(&s);
  auto sum = SumViaTids(r, 2);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, 100);
}

TEST(Aggregates, SumEmptyAndSingle) {
  Relation empty(TypeFromString("1"));
  EXPECT_EQ(*SumViaTids(empty, 0), 0);
  Relation one(TypeFromString("1"));
  one.Insert({Value::Number(42)});
  EXPECT_EQ(*SumViaTids(one, 0), 42);
}

// Property: the IDLOG aggregates agree with direct C++ computation on
// random relations — and are insensitive to insertion order (they are
// deterministic queries over non-deterministic programs).
class AggregateProperty : public ::testing::TestWithParam<int> {};

TEST_P(AggregateProperty, MatchesDirectComputation) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  std::mt19937_64 rng(seed);
  SymbolTable s;
  Relation r(TypeFromString("01"));
  int n = 1 + static_cast<int>(rng() % 12);
  std::vector<int64_t> values;
  for (int i = 0; i < n; ++i) {
    int64_t v = static_cast<int64_t>(rng() % 50);
    // Distinct first column => no set-collapse; values may repeat.
    if (r.Insert(T(&s, {Numbered("k", i), std::to_string(v)}))) {
      values.push_back(v);
    }
  }
  EXPECT_EQ(*CountViaTids(r), static_cast<int64_t>(values.size()));
  EXPECT_EQ(*SumViaTids(r, 1),
            std::accumulate(values.begin(), values.end(), int64_t{0}));
  EXPECT_EQ(*MinOfColumn(r, 1),
            *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(*MaxOfColumn(r, 1),
            *std::max_element(values.begin(), values.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateProperty, ::testing::Range(0, 15));

}  // namespace
}  // namespace idlog
