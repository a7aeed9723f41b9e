// Checkpoint/resume equivalence: a run interrupted by a governor trip
// and resumed from its stratum-boundary snapshot must be indistinguishable
// from a run that never stopped — same answers, same logical EvalStats,
// same EXPLAIN ANALYZE document, same tid choices under a random
// assigner — across the randomized corpus and at every --jobs setting
// (thread count is physical and may differ between save and resume).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "store/snapshot.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::Dump;

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("idlog_resume_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

void SeedEdb(IdlogEngine* engine,
             const std::vector<std::vector<std::string>>& edb) {
  for (const auto& row : edb) {
    std::vector<std::string> fields(row.begin() + 1, row.end());
    ASSERT_TRUE(engine->AddRow(row[0], fields).ok());
  }
}

/// What a run looks like to a caller who only sees logical outputs.
struct Observed {
  std::string answers;
  EvalStats stats;
  std::string explain_json;
};

Observed Observe(IdlogEngine* engine,
                 const std::vector<std::string>& queries) {
  Observed out;
  for (const std::string& q : queries) {
    auto rel = engine->Query(q);
    EXPECT_TRUE(rel.ok()) << q << ": " << rel.status().ToString();
    if (rel.ok()) {
      out.answers += q + ":\n" + Dump(**rel, engine->symbols());
    }
  }
  out.stats = engine->stats();
  auto doc = engine->ExplainPlanJson(/*analyze=*/true);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (doc.ok()) out.explain_json = *doc;
  return out;
}

void ExpectSameLogicalStats(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.tuples_considered, b.tuples_considered);
  EXPECT_EQ(a.facts_derived, b.facts_derived);
  EXPECT_EQ(a.facts_inserted, b.facts_inserted);
  EXPECT_EQ(a.rule_firings, b.rule_firings);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.strata_evaluated, b.strata_evaluated);
  EXPECT_EQ(a.id_groups_assigned, b.id_groups_assigned);
  EXPECT_EQ(a.id_tuples_materialized, b.id_tuples_materialized);
  EXPECT_EQ(a.index_probes, b.index_probes);
  // index_builds, index_cache_misses and eval_wall_ns are physical —
  // legitimately different between an uninterrupted run and a resumed
  // one (the resumed engine rebuilds its indexes from scratch).
}

/// Runs `program` to completion in one engine (jobs = `full_jobs`), and
/// again in a second engine that trips an iteration budget while
/// checkpointing (jobs = `trip_jobs`), then resumes the checkpoint in a
/// third, fresh engine (jobs = `resume_jobs`). The resumed engine must
/// be observationally identical to the uninterrupted one.
void ExpectResumeMatchesFullRun(
    const std::string& program,
    const std::vector<std::vector<std::string>>& edb,
    const std::vector<std::string>& queries, const std::string& snap_path,
    int full_jobs, int trip_jobs, int resume_jobs,
    uint64_t trip_iterations) {
  SCOPED_TRACE(Numbered("jobs ", full_jobs) + "/" +
               std::to_string(trip_jobs) + "/" +
               std::to_string(resume_jobs) + ", trip after " +
               std::to_string(trip_iterations) + ": " + program);

  IdlogEngine full;
  SeedEdb(&full, edb);
  full.SetThreads(full_jobs);
  full.EnableExplain(true);
  ASSERT_TRUE(full.LoadProgramText(program).ok());
  ASSERT_TRUE(full.Run().ok());
  Observed expected = Observe(&full, queries);

  IdlogEngine tripper;
  SeedEdb(&tripper, edb);
  tripper.SetThreads(trip_jobs);
  tripper.EnableExplain(true);
  ASSERT_TRUE(tripper.LoadProgramText(program).ok());
  EvalLimits limits;
  limits.max_iterations = trip_iterations;
  tripper.SetLimits(limits);
  tripper.SetPartialResults(true);
  tripper.SetCheckpoint(snap_path);
  ASSERT_TRUE(tripper.Run().ok());
  // Small corpus programs may finish inside the budget; both outcomes
  // must resume correctly (mid-fixpoint frame vs completed frame).

  IdlogEngine resumed;
  resumed.SetThreads(resume_jobs);
  resumed.EnableExplain(true);
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap_path).ok());
  ASSERT_TRUE(resumed.LoadProgramText(program).ok());
  ASSERT_TRUE(resumed.Run().ok());
  Observed actual = Observe(&resumed, queries);

  EXPECT_EQ(actual.answers, expected.answers);
  ExpectSameLogicalStats(expected.stats, actual.stats);
  // The EXPLAIN ANALYZE document carries only logical counters, so a
  // resumed run must reproduce it byte for byte.
  EXPECT_EQ(actual.explain_json, expected.explain_json);
}

// --------------------------------------------------------------------
// Randomized corpus, the same 40 seeds as parallel_eval_test: each
// program is interrupted early and resumed, serially and in parallel.

class ResumeCorpus : public ::testing::TestWithParam<int> {};

TEST_P(ResumeCorpus, ResumedRunMatchesUninterrupted) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  testing_util::CorpusGenerator gen(seed);
  std::string program = gen.Generate();
  auto edb = testing_util::CorpusEdb(seed);
  ScratchDir scratch(Numbered("corpus", seed));

  ExpectResumeMatchesFullRun(program, edb, gen.queries(),
                             scratch.Path("serial.snap"),
                             /*full_jobs=*/1, /*trip_jobs=*/1,
                             /*resume_jobs=*/1, /*trip_iterations=*/3);
  ExpectResumeMatchesFullRun(program, edb, gen.queries(),
                             scratch.Path("parallel.snap"),
                             /*full_jobs=*/4, /*trip_jobs=*/4,
                             /*resume_jobs=*/4, /*trip_iterations=*/3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResumeCorpus, ::testing::Range(0, 40));

// --------------------------------------------------------------------
// Cross-jobs resume: a snapshot saved under one thread count must
// resume under another with identical logical outcomes, both ways.

TEST(CheckpointResume, CrossJobsResume) {
  ScratchDir scratch("crossjobs");
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 60; ++i) {
    edb.push_back({"edge", Numbered("n", i),
                   Numbered("n", i + 1)});
  }
  std::string program =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
      "also(X, Y) :- tc(X, Y).\n";
  ExpectResumeMatchesFullRun(program, edb, {"tc", "also"},
                             scratch.Path("save4.snap"),
                             /*full_jobs=*/1, /*trip_jobs=*/4,
                             /*resume_jobs=*/1, /*trip_iterations=*/10);
  ExpectResumeMatchesFullRun(program, edb, {"tc", "also"},
                             scratch.Path("save1.snap"),
                             /*full_jobs=*/4, /*trip_jobs=*/1,
                             /*resume_jobs=*/4, /*trip_iterations=*/10);
}

// --------------------------------------------------------------------
// Random-tid stability: resuming must not re-draw tids the snapshot
// already fixed, at several interruption depths. The query selects by
// tid bound, so any re-draw changes the visible answer.

TEST(CheckpointResume, RandomTidsSurviveResumeAtEveryDepth) {
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < 40; ++i) {
    edb.push_back({"edge", Numbered("n", i),
                   Numbered("n", i + 1)});
  }
  std::string program =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
      "picked(X, Y) :- tc[1](X, Y, T), T < 3.\n";

  IdlogEngine full;
  SeedEdb(&full, edb);
  full.SetTidAssigner(std::make_unique<RandomTidAssigner>(99));
  ASSERT_TRUE(full.LoadProgramText(program).ok());
  auto expected_rel = full.Query("picked");
  ASSERT_TRUE(expected_rel.ok());
  std::string expected = Dump(**expected_rel, full.symbols());

  for (uint64_t depth : {1u, 2u, 5u, 20u}) {
    SCOPED_TRACE(Numbered("interrupted after ", depth) + " rounds");
    ScratchDir scratch(Numbered("tids", depth));
    std::string snap = scratch.Path("trip.snap");

    IdlogEngine tripper;
    SeedEdb(&tripper, edb);
    tripper.SetTidAssigner(std::make_unique<RandomTidAssigner>(99));
    ASSERT_TRUE(tripper.LoadProgramText(program).ok());
    EvalLimits limits;
    limits.max_iterations = depth;
    tripper.SetLimits(limits);
    tripper.SetPartialResults(true);
    tripper.SetCheckpoint(snap);
    ASSERT_TRUE(tripper.Run().ok());

    IdlogEngine resumed;
    ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
    ASSERT_TRUE(resumed.LoadProgramText(program).ok());
    auto rel = resumed.Query("picked");
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    EXPECT_EQ(Dump(**rel, resumed.symbols()), expected);
  }
}

// --------------------------------------------------------------------
// Frames are cut at stratum boundaries only. Three strata: a chain
// closure of 45+ rounds, a random-tid pick over it with its closure,
// and a negation over that pick with its own closure.

constexpr const char* kThreeStrata =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
    "first(X, Y) :- tc[1](X, Y, T), T < 3.\n"
    "hop(X, Y) :- first(X, Y).\n"
    "hop(X, Z) :- hop(X, Y), first(Y, Z).\n"
    "gap(X, Y) :- tc(X, Y), not hop(X, Y).\n"
    "far(X, Y) :- gap(X, Y).\n"
    "far(X, Z) :- far(X, Y), gap(Y, Z).\n";

std::vector<std::vector<std::string>> ChainEdb(int edges) {
  std::vector<std::vector<std::string>> edb;
  for (int i = 0; i < edges; ++i) {
    edb.push_back({"edge", Numbered("n", i),
                   Numbered("n", i + 1)});
  }
  return edb;
}

TEST(CheckpointResume, FramesAreCutAtStratumEntryAndCompletionOnly) {
  ScratchDir scratch("frames");
  std::string snap = scratch.Path("frames.snap");
  IdlogEngine engine;
  SeedEdb(&engine, ChainEdb(45));
  engine.SetTidAssigner(std::make_unique<RandomTidAssigner>(5));
  engine.EnableProfiling(true);
  ASSERT_TRUE(engine.LoadProgramText(kThreeStrata).ok());
  engine.SetCheckpoint(snap);
  // Armed far past any run, the site only counts its passes.
  Failpoints::Instance().Reset();
  ASSERT_TRUE(
      Failpoints::Instance().ArmFromSpec("engine.checkpoint.frame:1000000")
          .ok());
  Status st = engine.Run();
  const uint64_t frames =
      Failpoints::Instance().HitCount("engine.checkpoint.frame");
  Failpoints::Instance().Reset();
  ASSERT_TRUE(st.ok()) << st.ToString();

  auto strat = engine.stratification();
  ASSERT_TRUE(strat.ok());
  ASSERT_EQ((*strat)->num_strata, 3);
  ASSERT_EQ(engine.profile().strata.size(), 3u);
  EXPECT_GE(engine.profile().strata[0].rounds, 40u);
  // One frame per stratum entry plus the completed one — not one per
  // round.
  EXPECT_EQ(frames, 4u);
  auto done = LoadSnapshotFile(snap);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_TRUE(done->progress.completed);
  EXPECT_EQ(done->progress.stratum, 3);
}

// A trip leaves the interrupted stratum's entry frame on disk: the
// strata below it complete, the ones from it on empty, and the
// assigner state that redraws the same tids. Resuming redoes that
// stratum and matches the uninterrupted run.
TEST(CheckpointResume, TripResumesFromTheInterruptedStratumEntry) {
  const std::vector<std::string> preds = {"tc", "first", "hop", "gap",
                                          "far"};
  const auto edb = ChainEdb(45);
  IdlogEngine full;
  SeedEdb(&full, edb);
  full.SetTidAssigner(std::make_unique<RandomTidAssigner>(5));
  full.EnableExplain(true);
  full.EnableProfiling(true);
  ASSERT_TRUE(full.LoadProgramText(kThreeStrata).ok());
  ASSERT_TRUE(full.Run().ok());
  Observed expected = Observe(&full, preds);
  const std::vector<StratumProfile> strata = full.profile().strata;
  ASSERT_EQ(strata.size(), 3u);
  auto strat = full.stratification();
  ASSERT_TRUE(strat.ok());

  for (int trip_stratum : {1, 2}) {
    SCOPED_TRACE(Numbered("trip in stratum ", trip_stratum));
    ASSERT_GE(strata[static_cast<size_t>(trip_stratum)].rounds, 2u);
    ScratchDir scratch(Numbered("entry", trip_stratum));
    std::string snap = scratch.Path("trip.snap");

    // Trip on the second round of `trip_stratum`.
    EvalLimits limits;
    limits.max_iterations = 1;
    for (int s = 0; s < trip_stratum; ++s) {
      limits.max_iterations += strata[static_cast<size_t>(s)].rounds;
    }
    IdlogEngine tripper;
    SeedEdb(&tripper, edb);
    tripper.SetTidAssigner(std::make_unique<RandomTidAssigner>(5));
    tripper.EnableExplain(true);
    ASSERT_TRUE(tripper.LoadProgramText(kThreeStrata).ok());
    tripper.SetLimits(limits);
    tripper.SetPartialResults(true);
    tripper.SetCheckpoint(snap);
    ASSERT_TRUE(tripper.Run().ok());
    ASSERT_FALSE(tripper.last_trip().ok());

    auto frame = LoadSnapshotFile(snap);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_FALSE(frame->progress.completed);
    EXPECT_EQ(frame->progress.stratum, trip_stratum);
    for (const std::string& pred : preds) {
      auto saved = frame->derived.find(pred);
      ASSERT_NE(saved, frame->derived.end()) << pred;
      auto complete = full.Query(pred);
      ASSERT_TRUE(complete.ok());
      const int s = (*strat)->StratumOf(pred);
      if (s < trip_stratum) {
        EXPECT_EQ(Dump(saved->second, frame->symbols),
                  Dump(**complete, full.symbols()))
            << pred << " of stratum " << s << " is incomplete";
      } else {
        EXPECT_TRUE(saved->second.empty()) << pred << " of stratum " << s;
      }
    }

    IdlogEngine resumed;
    resumed.EnableExplain(true);
    ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
    ASSERT_TRUE(resumed.LoadProgramText(kThreeStrata).ok());
    ASSERT_TRUE(resumed.Run().ok());
    Observed actual = Observe(&resumed, preds);
    EXPECT_EQ(actual.answers, expected.answers);
    ExpectSameLogicalStats(expected.stats, actual.stats);
    EXPECT_EQ(actual.explain_json, expected.explain_json);
  }
}

// --------------------------------------------------------------------
// Completed-snapshot resume: adopting a finished model answers queries
// without re-evaluating, and preserves the run's stats.

TEST(CheckpointResume, CompletedSnapshotResumesWithoutReevaluation) {
  ScratchDir scratch("completed");
  std::string snap = scratch.Path("done.snap");

  IdlogEngine source;
  SeedEdb(&source, {{"edge", "a", "b"}, {"edge", "b", "c"}});
  ASSERT_TRUE(source.LoadProgramText("tc(X, Y) :- edge(X, Y).\n"
                                     "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n")
                  .ok());
  ASSERT_TRUE(source.Run().ok());
  ASSERT_TRUE(source.SaveCheckpoint(snap).ok());

  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
  ASSERT_TRUE(resumed.LoadProgramText("tc(X, Y) :- edge(X, Y).\n"
                                      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n")
                  .ok());
  auto rel = resumed.Query("tc");
  ASSERT_TRUE(rel.ok());
  auto src = source.Query("tc");
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(Dump(**rel, resumed.symbols()), Dump(**src, source.symbols()));
  // No re-evaluation happened: the resumed engine reports the original
  // run's logical counters, not a fresh run's worth on top.
  ExpectSameLogicalStats(source.stats(), resumed.stats());
}

// --------------------------------------------------------------------
// Cold-start snapshot: saving before any run captures config + EDB and
// resumes into a full evaluation with matching answers.

TEST(CheckpointResume, ColdStartSnapshotResumes) {
  ScratchDir scratch("coldstart");
  std::string snap = scratch.Path("cold.snap");

  IdlogEngine source;
  SeedEdb(&source, {{"edge", "a", "b"}, {"edge", "b", "c"},
                    {"edge", "c", "d"}});
  ASSERT_TRUE(source.SaveCheckpoint(snap).ok());  // before any program

  std::string program =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n";
  ASSERT_TRUE(source.LoadProgramText(program).ok());
  auto src = source.Query("tc");
  ASSERT_TRUE(src.ok());

  IdlogEngine resumed;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(snap).ok());
  ASSERT_TRUE(resumed.LoadProgramText(program).ok());
  auto rel = resumed.Query("tc");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(Dump(**rel, resumed.symbols()), Dump(**src, source.symbols()));
}

// A tripped run that never armed checkpointing has no consistent frame
// to save after the fact.

TEST(CheckpointResume, TrippedRunWithoutCheckpointingCannotSave) {
  ScratchDir scratch("notripframe");
  IdlogEngine engine;
  SeedEdb(&engine, {{"edge", "a", "b"}, {"edge", "b", "c"},
                    {"edge", "c", "d"}, {"edge", "d", "e"}});
  ASSERT_TRUE(engine.LoadProgramText("tc(X, Y) :- edge(X, Y).\n"
                                     "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n")
                  .ok());
  EvalLimits limits;
  limits.max_iterations = 1;
  engine.SetLimits(limits);
  engine.SetPartialResults(true);
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_FALSE(engine.last_trip().ok());
  EXPECT_FALSE(engine.SaveCheckpoint(scratch.Path("late.snap")).ok());
}

}  // namespace
}  // namespace idlog
