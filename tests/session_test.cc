// Durable update sessions: Begin/Insert/Retract/Commit/Abort semantics,
// incremental re-derivation of committed insertions (asserted via round
// counters on a transitive-closure workload), the full-re-run fallbacks
// (retraction, negation, ID-relations, naive mode), and the protocol
// errors the session API refuses.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/idlog_engine.h"
#include "storage/csv.h"
#include "store/wal.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::Dump;
using testing_util::T;

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("idlog_session_test_" + tag + "_" + std::to_string(::getpid()));
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

constexpr const char* kTcProgram =
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Z) :- edge(X, Y), path(Y, Z).\n";

/// A chain a0 -> a1 -> ... -> a{n}: the full fixpoint needs ~n rounds.
void AddChain(IdlogEngine* engine, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(engine
                    ->AddRow("edge", {"a" + std::to_string(i),
                                      "a" + std::to_string(i + 1)})
                    .ok());
  }
}

std::string QueryDump(IdlogEngine* engine, const std::string& pred) {
  auto rel = engine->Query(pred);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  return rel.ok() ? Dump(**rel, engine->symbols()) : std::string();
}

TEST(Session, LifecycleAndProtocolErrors) {
  ScratchDir scratch("protocol");
  IdlogEngine engine;

  // No program yet.
  EXPECT_FALSE(engine.AttachWal(scratch.Path("s.wal")).ok());
  // No WAL yet.
  EXPECT_FALSE(engine.Begin().ok());

  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  EXPECT_TRUE(engine.wal_attached());
  // Double attach.
  EXPECT_FALSE(engine.AttachWal(scratch.Path("other.wal")).ok());

  // Operations need an open transaction; Begin twice is an error.
  EXPECT_FALSE(engine.Insert("edge", T(&engine.symbols(), {"x", "y"})).ok());
  EXPECT_FALSE(engine.Commit().ok());
  EXPECT_FALSE(engine.Abort().ok());
  ASSERT_TRUE(engine.Begin().ok());
  EXPECT_TRUE(engine.in_transaction());
  EXPECT_FALSE(engine.Begin().ok());

  // IDB predicates are refused: their contents belong to the rules.
  Status idb = engine.Insert("path", T(&engine.symbols(), {"x", "y"}));
  EXPECT_FALSE(idb.ok());
  EXPECT_NE(idb.message().find("derived by rules"), std::string::npos);

  // Sort/arity mismatches are refused at staging time.
  EXPECT_EQ(engine.Insert("edge", T(&engine.symbols(), {"x"})).code(),
            StatusCode::kTypeError);
  EXPECT_EQ(
      engine.Insert("edge", {Value::Number(1), Value::Number(2)}).code(),
      StatusCode::kTypeError);

  ASSERT_TRUE(engine.Abort().ok());
  EXPECT_FALSE(engine.in_transaction());
}

TEST(Session, InsertCommitExtendsTheModelIncrementally) {
  ScratchDir scratch("incremental");
  constexpr int kChain = 12;

  IdlogEngine engine;
  AddChain(&engine, kChain);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  const uint64_t full_rounds = engine.stats().iterations;
  ASSERT_GE(full_rounds, static_cast<uint64_t>(kChain) - 1);

  // Prepend an edge: the delta machinery joins the one new edge against
  // the existing closure, so the whole commit costs a handful of rounds
  // where the full fixpoint needed ~kChain.
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.last_commit_incremental());
  EXPECT_EQ(engine.wal_commits(), 1u);
  const uint64_t incremental_rounds =
      engine.stats().iterations - full_rounds;
  EXPECT_GE(incremental_rounds, 1u);
  EXPECT_LT(incremental_rounds, full_rounds / 2)
      << "incremental commit re-ran a full-sized fixpoint";

  // The extended model matches a from-scratch evaluation of the same
  // EDB exactly.
  IdlogEngine fresh;
  AddChain(&fresh, kChain);
  ASSERT_TRUE(fresh.AddRow("edge", {"z", "a0"}).ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  EXPECT_EQ(QueryDump(&engine, "path"), QueryDump(&fresh, "path"));

  // A duplicate insertion commits durably but changes nothing and runs
  // no fixpoint rounds.
  const uint64_t before = engine.stats().iterations;
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.stats().iterations, before);
  EXPECT_EQ(engine.wal_commits(), 2u);
}

TEST(Session, MultiFactCommitAndNewPredicates) {
  ScratchDir scratch("multi");
  IdlogEngine engine;
  AddChain(&engine, 4);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"b0", "b1"})).ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"b1", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.last_commit_incremental());

  IdlogEngine fresh;
  AddChain(&fresh, 4);
  ASSERT_TRUE(fresh.AddRow("edge", {"b0", "b1"}).ok());
  ASSERT_TRUE(fresh.AddRow("edge", {"b1", "a0"}).ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  EXPECT_EQ(QueryDump(&engine, "path"), QueryDump(&fresh, "path"));
}

TEST(Session, RetractionRecomputesFromTheEdb) {
  ScratchDir scratch("retract");
  IdlogEngine engine;
  AddChain(&engine, 5);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Retract("edge", T(&engine.symbols(), {"a2", "a3"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.last_commit_incremental());

  IdlogEngine fresh;
  AddChain(&fresh, 5);
  SymbolTable* symbols = &fresh.symbols();
  ASSERT_TRUE(fresh.database().EraseTuple("edge", T(symbols, {"a2", "a3"}))
                  .ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  EXPECT_EQ(QueryDump(&engine, "path"), QueryDump(&fresh, "path"));

  // Retracting an absent tuple is a durable no-op commit.
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Retract("edge", T(&engine.symbols(), {"nope", "nope"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.wal_commits(), 2u);
}

TEST(Session, NegationFallsBackToAFullRun) {
  ScratchDir scratch("negation");
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("node", {"a"}).ok());
  ASSERT_TRUE(engine.AddRow("node", {"b"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "reach(Y) :- edge(X, Y).\n"
                      "isolated(X) :- node(X), not reach(X).\n")
                  .ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  EXPECT_EQ(QueryDump(&engine, "isolated"), "(a)\n");

  // edge feeds reach, which is negated: the commit must recompute in
  // full (monotone delta rules cannot shrink `isolated`).
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"b", "a"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.last_commit_incremental());
  EXPECT_EQ(QueryDump(&engine, "isolated"), "");
}

TEST(Session, IdLiteralFallsBackToAFullRun) {
  ScratchDir scratch("idlit");
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(
      engine.LoadProgramText("tag(N, D, I) :- emp[2](N, D, I).\n").ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("emp", T(&engine.symbols(), {"cal", "dev"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.last_commit_incremental());

  IdlogEngine fresh;
  ASSERT_TRUE(fresh.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(fresh.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(fresh.AddRow("emp", {"cal", "dev"}).ok());
  ASSERT_TRUE(
      fresh.LoadProgramText("tag(N, D, I) :- emp[2](N, D, I).\n").ok());
  EXPECT_EQ(QueryDump(&engine, "tag"), QueryDump(&fresh, "tag"));
}

TEST(Session, NaiveModeFallsBackToAFullRun) {
  ScratchDir scratch("naive");
  IdlogEngine engine;
  engine.SetSeminaive(false);
  AddChain(&engine, 4);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.last_commit_incremental());

  IdlogEngine fresh;
  AddChain(&fresh, 4);
  ASSERT_TRUE(fresh.AddRow("edge", {"z", "a0"}).ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  EXPECT_EQ(QueryDump(&engine, "path"), QueryDump(&fresh, "path"));
}

TEST(Session, AbortDiscardsWithoutLogging) {
  ScratchDir scratch("abort");
  IdlogEngine engine;
  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  std::string wal_path = scratch.Path("s.wal");
  ASSERT_TRUE(engine.AttachWal(wal_path).ok());
  const std::string before = QueryDump(&engine, "path");

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"x", "y"})).ok());
  ASSERT_TRUE(engine.Abort().ok());
  EXPECT_EQ(QueryDump(&engine, "path"), before);
  EXPECT_EQ(engine.wal_commits(), 0u);

  auto scan = ScanWal(wal_path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 0u);
}

TEST(Session, LogWriteFailurePoisonsTheSession) {
  ScratchDir scratch("poison");
  IdlogEngine engine;
  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  const std::string before = QueryDump(&engine, "path");

  Failpoints::Instance().Reset();
  ASSERT_TRUE(Failpoints::Instance().ArmFromSpec("wal.append:1").ok());
  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"x", "y"})).ok());
  Status commit = engine.Commit();
  EXPECT_FALSE(commit.ok());
  Failpoints::Instance().Reset();

  // Durability failed before anything applied: the model is unchanged
  // and the session refuses further work until recovery.
  EXPECT_EQ(QueryDump(&engine, "path"), before);
  Status next = engine.Begin();
  EXPECT_FALSE(next.ok());
  EXPECT_NE(next.message().find("recover"), std::string::npos);
}

TEST(Session, ApplyFailureAfterDurableCommitPoisonsTheSession) {
  // The mirror image of a log-write failure: the commit IS durably
  // logged, but applying it to the in-memory store fails partway. The
  // session must latch — further commits would diverge from the log —
  // and recovery must replay the logged commit successfully.
  ScratchDir scratch("apply_poison");
  std::string wal_path = scratch.Path("s.wal");
  {
    IdlogEngine engine;
    AddChain(&engine, 3);
    ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
    ASSERT_TRUE(engine.AttachWal(wal_path).ok());

    ASSERT_TRUE(engine.Begin().ok());
    ASSERT_TRUE(
        engine.Insert("edge", T(&engine.symbols(), {"x", "y"})).ok());
    Failpoints::Instance().Reset();
    ASSERT_TRUE(
        Failpoints::Instance().ArmFromSpec("storage.relation.insert:1").ok());
    Status commit = engine.Commit();
    EXPECT_FALSE(commit.ok());
    Failpoints::Instance().Reset();

    // The commit reached the log before the apply broke.
    auto scan = ScanWal(wal_path);
    ASSERT_TRUE(scan.ok());
    uint64_t logged_commits = 0;
    for (const WalRecord& r : scan->records) {
      if (r.type == WalRecordType::kCommit) ++logged_commits;
    }
    EXPECT_EQ(logged_commits, 1u);

    // In-memory state is now untrusted: the session refuses further
    // work until recovery, exactly like a log-write failure.
    Status next = engine.Begin();
    EXPECT_FALSE(next.ok());
    EXPECT_NE(next.message().find("recover"), std::string::npos);
  }

  // Recovery replays the durably-logged commit (the failpoint is gone)
  // and the fact is present.
  IdlogEngine fresh;
  ASSERT_TRUE(fresh.PrepareRecovery(wal_path).ok());
  ASSERT_TRUE(fresh.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(fresh.CompleteRecovery().ok());
  EXPECT_EQ(fresh.wal_commits(), 1u);
  EXPECT_NE(QueryDump(&fresh, "path").find("x, y"),
            std::string::npos);
}

// Regression: with no .decl, nothing in the closure rules constrains
// a column sort, so inference typed e and tc as "uu" while the CSV rows
// are integers. The base snapshot then held sort-i tuples under a sort-u
// type and recovery refused it ("section DERIVED tuple sort disagrees
// with type"). Stored relations now seed inference.
TEST(Session, UndeclaredIntegerEdbRecovers) {
  ScratchDir scratch("int_edb");
  const std::string wal_path = scratch.Path("s.wal");
  const char* program =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), e(Y, Z).\n";
  std::string live;
  {
    IdlogEngine engine;
    ASSERT_TRUE(LoadCsvRelationFromString(&engine.database(), "e",
                                          "1,2\n2,3\n3,1\n")
                    .ok());
    ASSERT_TRUE(engine.LoadProgramText(program).ok());
    ASSERT_TRUE(engine.AttachWal(wal_path).ok());
    ASSERT_TRUE(engine.Begin().ok());
    ASSERT_TRUE(engine.Insert("e", {Value::Number(3), Value::Number(4)}).ok());
    ASSERT_TRUE(engine.Commit().ok());
    auto tc = engine.Query("tc");
    ASSERT_TRUE(tc.ok());
    EXPECT_EQ(TypeToString((*tc)->type()), "11");
    live = QueryDump(&engine, "tc");
  }
  IdlogEngine fresh;
  Status prepared = fresh.PrepareRecovery(wal_path);
  ASSERT_TRUE(prepared.ok()) << prepared.ToString();
  ASSERT_TRUE(fresh.LoadProgramText(program).ok());
  Status completed = fresh.CompleteRecovery();
  ASSERT_TRUE(completed.ok()) << completed.ToString();
  EXPECT_EQ(fresh.wal_commits_replayed(), 1u);
  EXPECT_EQ(QueryDump(&fresh, "tc"), live);
  EXPECT_NE(live.find("(3, 4)"), std::string::npos) << live;
}

// Regression: a program fact for a predicate that also has stored rows
// made the predicate derived, so its fact shadowed every CSV row and
// session updates to it were refused. A fact-only predicate is now
// extensional: its facts merge into the stored relation.
TEST(Session, ProgramFactsMergeWithStoredRows) {
  ScratchDir scratch("facts");
  IdlogEngine engine;
  ASSERT_TRUE(
      LoadCsvRelationFromString(&engine.database(), "edge", "c,d\n").ok());
  ASSERT_TRUE(engine
                  .LoadProgramText("edge(a, b).\n"
                                   "path(X, Y) :- edge(X, Y).\n")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(testing_util::Rows(**engine.Query("edge"), engine.symbols()),
            (std::vector<std::string>{"(a, b)", "(c, d)"}));
  EXPECT_EQ(testing_util::Rows(**engine.Query("path"), engine.symbols()),
            (std::vector<std::string>{"(a, b)", "(c, d)"}));

  ASSERT_TRUE(engine.AttachWal(scratch.Path("s.wal")).ok());
  ASSERT_TRUE(engine.Begin().ok());
  Status inserted = engine.Insert("edge", T(&engine.symbols(), {"x", "y"}));
  ASSERT_TRUE(inserted.ok()) << inserted.ToString();
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_NE(QueryDump(&engine, "path").find("x, y"), std::string::npos);

  // A fact that does not fit the stored relation is refused, not
  // silently dropped.
  IdlogEngine clash;
  ASSERT_TRUE(
      LoadCsvRelationFromString(&clash.database(), "edge", "c,d\n").ok());
  Status st = clash.LoadProgramText("edge(1, b).\n");
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st.ToString();

  // Stored rows under a rule-defined predicate would be replaced by the
  // derived relation; that is refused too.
  IdlogEngine ruled;
  ASSERT_TRUE(
      LoadCsvRelationFromString(&ruled.database(), "edge", "c,d\n").ok());
  st = ruled.LoadProgramText("edge(a, b).\nedge(X, Y) :- link(X, Y).\n");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST(Session, CheckpointRotatesAndCommitsContinue) {
  ScratchDir scratch("checkpoint");
  IdlogEngine engine;
  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  std::string wal_path = scratch.Path("s.wal");
  ASSERT_TRUE(engine.AttachWal(wal_path).ok());

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z", "a0"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  ASSERT_TRUE(engine.WalCheckpoint().ok());

  auto scan = ScanWal(wal_path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->epoch, 2u);  // rotated
  EXPECT_EQ(scan->records.size(), 0u);
  auto snap = LoadSnapshotFile(wal_path + ".snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->wal_pos.present);
  EXPECT_EQ(snap->wal_pos.commits, 1u);

  ASSERT_TRUE(engine.Begin().ok());
  ASSERT_TRUE(
      engine.Insert("edge", T(&engine.symbols(), {"z2", "z"})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.wal_commits(), 2u);
}

TEST(Session, AutoCheckpointEveryNCommits) {
  ScratchDir scratch("autockpt");
  IdlogEngine engine;
  AddChain(&engine, 3);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  IdlogEngine::WalOptions options;
  options.checkpoint_every_commits = 2;
  std::string wal_path = scratch.Path("s.wal");
  ASSERT_TRUE(engine.AttachWal(wal_path, options).ok());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Begin().ok());
    ASSERT_TRUE(engine
                    .Insert("edge", T(&engine.symbols(),
                                      {"n" + std::to_string(i),
                                       "n" + std::to_string(i + 1)}))
                    .ok());
    ASSERT_TRUE(engine.Commit().ok());
  }
  // Two auto-checkpoints: epoch 1 -> 2 -> 3, log freshly rotated.
  auto scan = ScanWal(wal_path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->epoch, 3u);
  EXPECT_EQ(scan->records.size(), 0u);
  auto snap = LoadSnapshotFile(wal_path + ".snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->wal_pos.commits, 4u);
}

}  // namespace
}  // namespace idlog
