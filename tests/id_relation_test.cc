#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include "common/str_util.h"
#include "storage/id_relation.h"
#include "storage/tid_assigner.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

// Example 1 of the paper: r = {(a,c), (a,d), (b,c)} grouped by the
// first attribute has sub-relations {(a,c),(a,d)} and {(b,c)}; the two
// ID-relations on {1} assign tids 0/1 within the first group.
TEST(IdRelation, PaperExample1) {
  SymbolTable s;
  Relation r(TypeFromString("00"));
  r.Insert(T(&s, {"a", "c"}));
  r.Insert(T(&s, {"a", "d"}));
  r.Insert(T(&s, {"b", "c"}));

  IdentityTidAssigner identity;
  auto id_rel = BuildIdRelation("r", r, {0}, &identity);
  ASSERT_TRUE(id_rel.ok()) << id_rel.status().ToString();
  EXPECT_EQ(id_rel->size(), 3u);
  EXPECT_TRUE(ValidateIdRelation(r, *id_rel, {0}).ok());

  // (b, c) is alone in its group, so its tid is always 0.
  EXPECT_TRUE(id_rel->Contains(T(&s, {"b", "c", "0"})));
  // The a-group holds tids {0, 1} in some order.
  bool order1 = id_rel->Contains(T(&s, {"a", "c", "0"})) &&
                id_rel->Contains(T(&s, {"a", "d", "1"}));
  bool order2 = id_rel->Contains(T(&s, {"a", "c", "1"})) &&
                id_rel->Contains(T(&s, {"a", "d", "0"}));
  EXPECT_TRUE(order1 || order2);
}

TEST(IdRelation, EmptyGroupSetIsGlobal) {
  SymbolTable s;
  Relation r(TypeFromString("0"));
  for (const char* name : {"a", "b", "c", "d"}) {
    r.Insert(T(&s, {name}));
  }
  IdentityTidAssigner identity;
  auto id_rel = BuildIdRelation("r", r, {}, &identity);
  ASSERT_TRUE(id_rel.ok());
  // One global group: tids are 0..3, a bijection.
  std::set<int64_t> tids;
  for (const Tuple& t : id_rel->tuples()) tids.insert(t.back().number());
  EXPECT_EQ(tids, (std::set<int64_t>{0, 1, 2, 3}));
  EXPECT_TRUE(ValidateIdRelation(r, *id_rel, {}).ok());
}

TEST(IdRelation, EmptyRelation) {
  Relation r(TypeFromString("00"));
  IdentityTidAssigner identity;
  auto id_rel = BuildIdRelation("r", r, {0}, &identity);
  ASSERT_TRUE(id_rel.ok());
  EXPECT_EQ(id_rel->size(), 0u);
  EXPECT_EQ(id_rel->arity(), 3);
}

TEST(IdRelation, OutOfRangeGroupColumn) {
  Relation r(TypeFromString("00"));
  IdentityTidAssigner identity;
  auto bad = BuildIdRelation("r", r, {5}, &identity);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(IdRelation, TidColumnHasSortI) {
  SymbolTable s;
  Relation r(TypeFromString("00"));
  r.Insert(T(&s, {"a", "b"}));
  IdentityTidAssigner identity;
  auto id_rel = BuildIdRelation("r", r, {0}, &identity);
  ASSERT_TRUE(id_rel.ok());
  EXPECT_EQ(TypeToString(id_rel->type()), "001");
}

// Property: for any random assignment, the ID-relation invariant holds
// and projecting the tid away recovers the base relation exactly.
class IdRelationProperty : public ::testing::TestWithParam<int> {};

TEST_P(IdRelationProperty, RandomAssignmentsAreValid) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  SymbolTable s;
  Relation r(TypeFromString("00"));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> groups(1, 5);
  std::uniform_int_distribution<int> members(1, 6);
  int n_groups = groups(rng);
  for (int g = 0; g < n_groups; ++g) {
    int n = members(rng);
    for (int m = 0; m < n; ++m) {
      r.Insert(T(&s, {Numbered("m", g) + "_" + std::to_string(m),
                      Numbered("g", g)}));
    }
  }
  for (const std::vector<int>& group :
       {std::vector<int>{1}, std::vector<int>{0}, std::vector<int>{},
        std::vector<int>{0, 1}}) {
    RandomTidAssigner assigner(seed * 31 + group.size());
    auto id_rel = BuildIdRelation("r", r, group, &assigner);
    ASSERT_TRUE(id_rel.ok());
    EXPECT_TRUE(ValidateIdRelation(r, *id_rel, group).ok())
        << "group size " << group.size() << " seed " << seed;
    // Projection recovers the base.
    Relation projected(r.type());
    for (const Tuple& t : id_rel->tuples()) {
      projected.Insert(Tuple(t.begin(), t.end() - 1));
    }
    EXPECT_TRUE(projected.SetEquals(r));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdRelationProperty,
                         ::testing::Range(0, 20));

TEST(TidAssigner, IdentityIsCanonical) {
  IdentityTidAssigner identity;
  std::vector<uint32_t> tids;
  Tuple key;
  std::vector<int> group;
  std::string pred = "p";
  GroupContext ctx{pred, group, key};
  identity.AssignGroup(ctx, 4, &tids);
  EXPECT_EQ(tids, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(TidAssigner, RandomIsAPermutationAndSeedRepeatable) {
  Tuple key;
  std::vector<int> group;
  std::string pred = "p";
  GroupContext ctx{pred, group, key};

  RandomTidAssigner a(7);
  RandomTidAssigner b(7);
  std::vector<uint32_t> ta;
  std::vector<uint32_t> tb;
  for (int round = 0; round < 5; ++round) {
    a.AssignGroup(ctx, 6, &ta);
    b.AssignGroup(ctx, 6, &tb);
    EXPECT_EQ(ta, tb) << "same seed must reproduce";
    std::vector<uint32_t> sorted = ta;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
  }
}

TEST(TidAssigner, UnrankPermutationCoversAll) {
  // All 3! = 6 ranks yield distinct permutations of {0,1,2}.
  std::set<std::vector<uint32_t>> perms;
  for (uint64_t rank = 0; rank < 6; ++rank) {
    std::vector<uint32_t> p;
    UnrankPermutation(rank, 3, &p);
    perms.insert(p);
  }
  EXPECT_EQ(perms.size(), 6u);
  std::vector<uint32_t> id;
  UnrankPermutation(0, 3, &id);
  EXPECT_EQ(id, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(TidAssigner, SaturatingFactorial) {
  EXPECT_EQ(SaturatingFactorial(0), 1u);
  EXPECT_EQ(SaturatingFactorial(1), 1u);
  EXPECT_EQ(SaturatingFactorial(5), 120u);
  EXPECT_EQ(SaturatingFactorial(20), 2432902008176640000ull);
  EXPECT_EQ(SaturatingFactorial(21), UINT64_MAX);
  EXPECT_EQ(SaturatingFactorial(100), UINT64_MAX);
}

TEST(TidAssigner, ScriptedRecordsRadicesAndReplays) {
  Tuple key;
  std::vector<int> group;
  std::string pred = "p";
  GroupContext ctx{pred, group, key};

  ScriptedTidAssigner scripted;
  scripted.ResetRadices();
  std::vector<uint32_t> tids;
  scripted.AssignGroup(ctx, 3, &tids);  // beyond script: rank 0
  EXPECT_EQ(tids, (std::vector<uint32_t>{0, 1, 2}));
  ASSERT_EQ(scripted.radices().size(), 1u);
  EXPECT_EQ(scripted.radices()[0], 6u);

  // Replaying rank 1 gives the next permutation deterministically.
  scripted.SetScript({1});
  scripted.ResetRadices();
  scripted.AssignGroup(ctx, 3, &tids);
  std::vector<uint32_t> expected;
  UnrankPermutation(1, 3, &expected);
  EXPECT_EQ(tids, expected);
  EXPECT_TRUE(scripted.radices().empty());
}

}  // namespace
}  // namespace idlog
