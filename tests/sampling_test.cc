#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/str_util.h"
#include "core/sampling.h"
#include "storage/tid_assigner.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

Relation MakeEmp(SymbolTable* s, int depts, int per_dept) {
  Relation r(TypeFromString("00"));
  for (int d = 0; d < depts; ++d) {
    for (int e = 0; e < per_dept; ++e) {
      r.Insert(T(s, {Numbered("e", d) + "_" + std::to_string(e),
                     Numbered("d", d)}));
    }
  }
  return r;
}

std::map<Value, int> CountPerGroup(const Relation& samples, int group_col) {
  std::map<Value, int> counts;
  for (const Tuple& t : samples.tuples()) {
    counts[t[static_cast<size_t>(group_col)]]++;
  }
  return counts;
}

TEST(Sampling, ExactlyKPerGroup) {
  SymbolTable s;
  Relation emp = MakeEmp(&s, 4, 6);
  auto samples = SampleKPerGroup(emp, {1}, 2, /*seed=*/1);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  EXPECT_EQ(samples->size(), 8u);
  for (const auto& [dept, count] : CountPerGroup(*samples, 1)) {
    (void)dept;
    EXPECT_EQ(count, 2);
  }
}

TEST(Sampling, SamplesAreSubsetOfInput) {
  SymbolTable s;
  Relation emp = MakeEmp(&s, 3, 5);
  auto samples = SampleKPerGroup(emp, {1}, 3, 99);
  ASSERT_TRUE(samples.ok());
  for (const Tuple& t : samples->tuples()) {
    EXPECT_TRUE(emp.Contains(t));
  }
}

TEST(Sampling, SmallGroupsReturnedWhole) {
  SymbolTable s;
  Relation emp(TypeFromString("00"));
  emp.Insert(T(&s, {"solo", "tiny"}));
  emp.Insert(T(&s, {"e1", "big"}));
  emp.Insert(T(&s, {"e2", "big"}));
  emp.Insert(T(&s, {"e3", "big"}));
  auto samples = SampleKPerGroup(emp, {1}, 2, 5);
  ASSERT_TRUE(samples.ok());
  auto counts = CountPerGroup(*samples, 1);
  EXPECT_EQ(counts[Value::Symbol(s.Intern("tiny"))], 1);
  EXPECT_EQ(counts[Value::Symbol(s.Intern("big"))], 2);
}

TEST(Sampling, KZeroIsEmpty) {
  SymbolTable s;
  Relation emp = MakeEmp(&s, 2, 3);
  auto samples = SampleKPerGroup(emp, {1}, 0, 7);
  ASSERT_TRUE(samples.ok());
  EXPECT_TRUE(samples->empty());
}

TEST(Sampling, NegativeKRejected) {
  SymbolTable s;
  Relation emp = MakeEmp(&s, 1, 1);
  EXPECT_EQ(SampleKPerGroup(emp, {1}, -1, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Sampling, EmptyGroupingSamplesGlobally) {
  SymbolTable s;
  Relation emp = MakeEmp(&s, 3, 4);
  auto samples = SampleKPerGroup(emp, {}, 5, 11);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples->size(), 5u);
}

TEST(Sampling, SeedReproducesAndVaries) {
  SymbolTable s;
  Relation emp = MakeEmp(&s, 5, 10);
  auto a = SampleKPerGroup(emp, {1}, 3, 42);
  auto b = SampleKPerGroup(emp, {1}, 3, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->SetEquals(*b));
  // Across many seeds, at least one sample differs (overwhelmingly
  // likely; deterministic given fixed RNG implementation).
  bool varied = false;
  for (uint64_t seed = 0; seed < 10 && !varied; ++seed) {
    auto c = SampleKPerGroup(emp, {1}, 3, seed);
    ASSERT_TRUE(c.ok());
    varied = !a->SetEquals(*c);
  }
  EXPECT_TRUE(varied);
}

TEST(Sampling, IdentityAssignerTakesCanonicalPrefix) {
  SymbolTable s;
  Relation emp = MakeEmp(&s, 1, 4);
  IdentityTidAssigner identity;
  auto samples = SampleKPerGroupWith(emp, {1}, 2, &identity);
  ASSERT_TRUE(samples.ok());
  // Identity tids select the first two tuples in canonical order.
  EXPECT_TRUE(samples->Contains(T(&s, {"e0_0", "d0"})));
  EXPECT_TRUE(samples->Contains(T(&s, {"e0_1", "d0"})));
  EXPECT_EQ(samples->size(), 2u);
}

TEST(Sampling, UniformityAcrossSeeds) {
  // Every member of a 4-element group should be picked sometimes when
  // sampling 1 of 4 across 200 seeds; counts should be roughly 50 each.
  SymbolTable s;
  Relation emp = MakeEmp(&s, 1, 4);
  std::map<Tuple, int> hits;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    auto sample = SampleKPerGroup(emp, {1}, 1, seed);
    ASSERT_TRUE(sample.ok());
    ASSERT_EQ(sample->size(), 1u);
    hits[sample->tuples()[0]]++;
  }
  EXPECT_EQ(hits.size(), 4u);
  for (const auto& [t, count] : hits) {
    (void)t;
    EXPECT_GT(count, 20);  // far from degenerate
    EXPECT_LT(count, 90);
  }
}

TEST(Sampling, ProgramTextRendering) {
  EXPECT_EQ(SamplingProgramText("emp", 2, {1}, 2),
            "sample(X1, X2) :- emp[2](X1, X2, T), T < 2.");
  EXPECT_EQ(SamplingProgramText("r", 1, {}, 5),
            "sample(X1) :- r[](X1, T), T < 5.");
}

}  // namespace
}  // namespace idlog
