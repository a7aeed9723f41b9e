// Semi-naive deltas as row ranges: the naive fixpoint, the semi-naive
// fixpoint and the pooled (--jobs 4) fixpoint agree byte for byte on
// answers, and serial and pooled runs of each mode on every logical
// counter, over the seeded corpus and over recursion shapes whose delta
// step is scanned or looked up by key. Session insert commits (seeded
// from ranges over the inserted tuples) match a from-scratch run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::Dump;
using testing_util::T;

struct Outcome {
  std::string answers;
  EvalStats stats;
  std::string explain_json;
};

Outcome RunProgram(const std::string& program,
                   const std::vector<std::vector<std::string>>& edb,
                   const std::vector<std::string>& queries, bool seminaive,
                   int threads) {
  IdlogEngine engine;
  for (const auto& row : edb) {
    std::vector<std::string> fields(row.begin() + 1, row.end());
    EXPECT_TRUE(engine.AddRow(row[0], fields).ok());
  }
  engine.SetSeminaive(seminaive);
  engine.SetThreads(threads);
  engine.EnableExplain(true);
  Status st = engine.LoadProgramText(program);
  EXPECT_TRUE(st.ok()) << st.ToString();
  Outcome out;
  for (const std::string& q : queries) {
    auto rel = engine.Query(q);
    EXPECT_TRUE(rel.ok()) << q << ": " << rel.status().ToString();
    if (rel.ok()) out.answers += q + ":\n" + Dump(**rel, engine.symbols());
  }
  out.stats = engine.stats();
  auto doc = engine.ExplainPlanJson(/*analyze=*/true);
  EXPECT_TRUE(doc.ok());
  if (doc.ok()) out.explain_json = *doc;
  return out;
}

void ExpectSameCounters(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.stats.tuples_considered, b.stats.tuples_considered);
  EXPECT_EQ(a.stats.facts_derived, b.stats.facts_derived);
  EXPECT_EQ(a.stats.facts_inserted, b.stats.facts_inserted);
  EXPECT_EQ(a.stats.rule_firings, b.stats.rule_firings);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.id_tuples_materialized, b.stats.id_tuples_materialized);
  EXPECT_EQ(a.stats.index_probes, b.stats.index_probes);
  EXPECT_EQ(a.explain_json, b.explain_json);
}

/// Naive and semi-naive, each serial and at --jobs 4: one answer text
/// for all four, and per mode one set of logical counters.
void ExpectModesAgree(const std::string& program,
                      const std::vector<std::vector<std::string>>& edb,
                      const std::vector<std::string>& queries) {
  SCOPED_TRACE(program);
  const Outcome semi = RunProgram(program, edb, queries, true, 1);
  const Outcome semi4 = RunProgram(program, edb, queries, true, 4);
  const Outcome naive = RunProgram(program, edb, queries, false, 1);
  const Outcome naive4 = RunProgram(program, edb, queries, false, 4);
  EXPECT_EQ(semi.answers, naive.answers);
  EXPECT_EQ(semi.answers, semi4.answers);
  EXPECT_EQ(semi.answers, naive4.answers);
  ExpectSameCounters(semi, semi4);
  ExpectSameCounters(naive, naive4);
}

class DeltaRangeCorpus : public ::testing::TestWithParam<int> {};

TEST_P(DeltaRangeCorpus, NaiveSeminaiveAndPooledAgree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  testing_util::CorpusGenerator gen(seed);
  const std::string text = gen.Generate();
  ExpectModesAgree(text, testing_util::CorpusEdb(seed), gen.queries());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaRangeCorpus, ::testing::Range(0, 40));

/// A branchy random graph, so closures take several rounds.
std::vector<std::vector<std::string>> Graph(int nodes, int edges,
                                            uint64_t seed) {
  std::vector<std::vector<std::string>> edb;
  std::set<std::pair<int, int>> seen;
  uint64_t x = seed;
  while (static_cast<int>(seen.size()) < edges) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const int a = static_cast<int>((x >> 33) % static_cast<uint64_t>(nodes));
    const int b = static_cast<int>((x >> 13) % static_cast<uint64_t>(nodes));
    if (seen.insert({a, b}).second) {
      edb.push_back({"e", Numbered("n", a), Numbered("n", b)});
    }
  }
  return edb;
}

// The recursive subgoal last: the delta step `tc(Y, Z)` is looked up by
// its bound first column, through the per-round index over its range.
TEST(DeltaRanges, RightRecursiveKeyedDeltaStep) {
  const std::string program =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- e(X, Y), tc(Y, Z).\n";
  const auto edb = Graph(40, 90, 3);
  ExpectModesAgree(program, edb, {"tc"});

  // The step is entered once per e row in every round; round 0 finds
  // tc empty, and every later round probes the index over its delta.
  IdlogEngine engine;
  for (const auto& row : edb) {
    ASSERT_TRUE(engine.AddRow("e", {row[1], row[2]}).ok());
  }
  engine.EnableExplain(true);
  ASSERT_TRUE(engine.LoadProgramText(program).ok());
  ASSERT_TRUE(engine.Run().ok());
  const uint64_t rounds = engine.stats().iterations;
  ASSERT_GT(rounds, 3u);
  const StepCounters& delta_step = engine.plan_analysis().rules[1].steps[1];
  EXPECT_EQ(delta_step.rows_in, 90u * rounds);
  EXPECT_EQ(delta_step.index_probes, 90u * (rounds - 1));
  EXPECT_GT(delta_step.rows_scanned, 0u);
}

// Mutual and nonlinear recursion: several delta steps per rule, keyed
// and unkeyed, over ranges of more than one relation per round.
TEST(DeltaRanges, NonlinearAndMutualRecursion) {
  ExpectModesAgree(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), tc(Y, Z).\n"
      "odd(X, Y) :- e(X, Y).\n"
      "odd(X, Z) :- even(X, Y), e(Y, Z).\n"
      "even(X, Z) :- odd(X, Y), e(Y, Z).\n",
      Graph(25, 50, 7), {"tc", "odd", "even"});
}

// ---------------------------------------------------------------------
// Session inserts: the seed of an incremental commit is a range over the
// inserted tuples, and each stratum hands the strata above the range its
// relations grew by.

class ScratchDir {
 public:
  ScratchDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("idlog_delta_range_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

TEST(DeltaRanges, SessionInsertCommitsMatchFromScratch) {
  // Left recursion (keyed delta on the inserted e tuples), right
  // recursion (keyed delta on tc), and two strata above reading the
  // growth of the ones below.
  const std::string program =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), e(Y, Z).\n"
      "rc(X, Y) :- e(X, Y).\n"
      "rc(X, Z) :- e(X, Y), rc(Y, Z).\n"
      "from0(Y) :- tc(n0, Y).\n"
      "both(X) :- from0(X), rc(X, n1).\n";
  const std::vector<std::string> queries = {"tc", "rc", "from0", "both"};
  auto edb = Graph(30, 35, 5);

  ScratchDir scratch;
  IdlogEngine session;
  for (const auto& row : edb) {
    ASSERT_TRUE(session.AddRow("e", {row[1], row[2]}).ok());
  }
  ASSERT_TRUE(session.LoadProgramText(program).ok());
  ASSERT_TRUE(session.AttachWal(scratch.Path("s.wal")).ok());

  const std::vector<std::vector<std::pair<int, int>>> commits = {
      {{0, 29}}, {{29, 1}, {1, 28}}, {{28, 0}}, {{5, 6}, {6, 7}, {7, 1}}};
  for (const auto& commit : commits) {
    ASSERT_TRUE(session.Begin().ok());
    for (const auto& [a, b] : commit) {
      ASSERT_TRUE(session
                      .Insert("e", T(&session.symbols(),
                                     {Numbered("n", a), Numbered("n", b)}))
                      .ok());
      edb.push_back({"e", Numbered("n", a), Numbered("n", b)});
    }
    ASSERT_TRUE(session.Commit().ok());
    EXPECT_TRUE(session.last_commit_incremental());

    const Outcome fresh = RunProgram(program, edb, queries, true, 1);
    std::string answers;
    for (const std::string& q : queries) {
      auto rel = session.Query(q);
      ASSERT_TRUE(rel.ok());
      answers += q + ":\n" + Dump(**rel, session.symbols());
    }
    EXPECT_EQ(answers, fresh.answers);
  }
}

}  // namespace
}  // namespace idlog
