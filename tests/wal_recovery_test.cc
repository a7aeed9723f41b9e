// Kill-anywhere recovery: a session crashed at any WAL byte boundary or
// any injected failure site must recover — base snapshot + committed
// log tail + re-applied script suffix — to a state equivalent to the
// uninterrupted run: identical answers, identical idlog-dbstats-v1
// JSON, identical WHY proof trees, and (when no checkpoint intervenes)
// a byte-identical WAL. Plus the recovery edge cases: empty WAL, torn
// first record, missing partner files, foreign snapshots, program-hash
// mismatches and double recovery.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "store/snapshot.h"
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
           ("idlog_wal_recovery_test_" + tag + "_" +
            std::to_string(::getpid()));
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

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

constexpr const char* kTcProgram =
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Z) :- edge(X, Y), path(Y, Z).\n";

void SeedEdb(IdlogEngine* engine) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine
                    ->AddRow("edge", {Numbered("a", i),
                                      Numbered("a", i + 1)})
                    .ok());
  }
}

/// The scripted update session: three transactions (insert / two-op
/// insert / retract) with an optional checkpoint after the first. The
/// first `skip` transactions are assumed durable (recovered) and are
/// not re-applied; a checkpoint inside the skipped prefix is skipped
/// with it (compaction has no logical effect).
Status DriveSession(IdlogEngine* engine, uint64_t skip, bool checkpoint) {
  uint64_t done = 0;
  SymbolTable* symbols = &engine->symbols();
  // txn 1: insert edge(z, a0)
  if (done++ >= skip) {
    IDLOG_RETURN_NOT_OK(engine->Begin());
    IDLOG_RETURN_NOT_OK(engine->Insert("edge", T(symbols, {"z", "a0"})));
    IDLOG_RETURN_NOT_OK(engine->Commit());
  }
  if (checkpoint && done > skip) {
    IDLOG_RETURN_NOT_OK(engine->WalCheckpoint());
  }
  // txn 2: insert edge(a4, w), edge(w, w2)
  if (done++ >= skip) {
    IDLOG_RETURN_NOT_OK(engine->Begin());
    IDLOG_RETURN_NOT_OK(engine->Insert("edge", T(symbols, {"a4", "w"})));
    IDLOG_RETURN_NOT_OK(engine->Insert("edge", T(symbols, {"w", "w2"})));
    IDLOG_RETURN_NOT_OK(engine->Commit());
  }
  // txn 3: retract edge(a1, a2) — exercises the full-recompute path.
  if (done++ >= skip) {
    IDLOG_RETURN_NOT_OK(engine->Begin());
    IDLOG_RETURN_NOT_OK(engine->Retract("edge", T(symbols, {"a1", "a2"})));
    IDLOG_RETURN_NOT_OK(engine->Commit());
  }
  return Status::OK();
}

constexpr uint64_t kScriptTxns = 3;

/// Everything the equivalence contract compares.
struct Outputs {
  std::string path;
  std::string dbstats;
  std::string why;
};

Outputs Collect(IdlogEngine* engine) {
  Outputs out;
  auto rel = engine->Query("path");
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  if (rel.ok()) out.path = Dump(**rel, engine->symbols());
  out.dbstats = engine->DbStatsJson();
  auto why = engine->Why("path", T(&engine->symbols(), {"z", "a1"}));
  out.why = why.ok() ? *why : why.status().ToString();
  return out;
}

void ExpectEqualOutputs(const Outputs& got, const Outputs& want,
                        const std::string& label) {
  EXPECT_EQ(got.path, want.path) << label;
  EXPECT_EQ(got.dbstats, want.dbstats) << label;
  EXPECT_EQ(got.why, want.why) << label;
  EXPECT_FALSE(got.path.empty()) << label;
}

/// Runs the whole session uninterrupted; optionally hands back the WAL
/// bytes and the base (post-AttachWal) snapshot bytes.
Outputs RunUninterrupted(const std::string& wal_path, int jobs,
                         bool checkpoint, std::string* wal_bytes,
                         std::string* base_snapshot) {
  IdlogEngine engine;
  engine.SetThreads(jobs);
  engine.EnableProvenance(true);
  SeedEdb(&engine);
  EXPECT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  EXPECT_TRUE(engine.AttachWal(wal_path).ok());
  if (base_snapshot != nullptr) {
    *base_snapshot = Slurp(wal_path + ".snap");
  }
  EXPECT_TRUE(DriveSession(&engine, 0, checkpoint).ok());
  if (wal_bytes != nullptr) *wal_bytes = Slurp(wal_path);
  return Collect(&engine);
}

/// Recovers from whatever is on disk at `wal_path`, re-applies the
/// script suffix, and returns the final outputs.
Outputs RecoverAndFinish(const std::string& wal_path, int jobs,
                         bool checkpoint, const std::string& label) {
  IdlogEngine engine;
  engine.SetThreads(jobs);
  engine.EnableProvenance(true);
  Status prep = engine.PrepareRecovery(wal_path);
  EXPECT_TRUE(prep.ok()) << label << ": " << prep.ToString();
  Status load = engine.LoadProgramText(kTcProgram);
  EXPECT_TRUE(load.ok()) << label << ": " << load.ToString();
  Status complete = engine.CompleteRecovery();
  EXPECT_TRUE(complete.ok()) << label << ": " << complete.ToString();
  EXPECT_LE(engine.wal_commits(), kScriptTxns) << label;
  Status drive = DriveSession(&engine, engine.wal_commits(), checkpoint);
  EXPECT_TRUE(drive.ok()) << label << ": " << drive.ToString();
  EXPECT_EQ(engine.wal_commits(), kScriptTxns) << label;
  return Collect(&engine);
}

// ---------------------------------------------------------------------
// The tentpole sweep: kill the session at EVERY byte of the WAL.

void EveryByteSweep(int jobs) {
  ScratchDir reference(Numbered("ref_j", jobs));
  std::string ref_wal = reference.Path("s.wal");
  std::string wal_bytes;
  std::string base_snapshot;
  Outputs want = RunUninterrupted(ref_wal, jobs, /*checkpoint=*/false,
                                  &wal_bytes, &base_snapshot);
  ASSERT_GT(wal_bytes.size(), kWalHeaderSize);

  // At --jobs 1 every byte length is swept; at higher job counts the
  // sweep narrows to record boundaries (the same recovery decisions,
  // exercised under the parallel evaluator).
  std::vector<uint64_t> lengths;
  if (jobs == 1) {
    for (uint64_t len = kWalHeaderSize; len <= wal_bytes.size(); ++len) {
      lengths.push_back(len);
    }
  } else {
    auto scan = ScanWal(ref_wal);
    ASSERT_TRUE(scan.ok());
    lengths.push_back(kWalHeaderSize);
    for (const WalRecord& record : scan->records) {
      lengths.push_back(record.offset);
      lengths.push_back(record.offset + 3);  // mid-frame
    }
    lengths.push_back(wal_bytes.size());
  }

  for (uint64_t len : lengths) {
    ScratchDir crashed(Numbered("crash_j", jobs) + "_" +
                       std::to_string(len));
    std::string wal_path = crashed.Path("s.wal");
    Spit(wal_path, wal_bytes.substr(0, len));
    Spit(wal_path + ".snap", base_snapshot);
    std::string label =
        Numbered("jobs ", jobs) + ", kill at byte " +
        std::to_string(len);
    Outputs got = RecoverAndFinish(wal_path, jobs, /*checkpoint=*/false,
                                   label);
    ExpectEqualOutputs(got, want, label);
    // With no checkpoint in the script, the recovered-and-finished WAL
    // is byte-identical to the uninterrupted one: replay preserved txn
    // ids and the format carries no timestamps.
    EXPECT_EQ(Slurp(wal_path), wal_bytes) << label;
  }
}

TEST(WalRecovery, EveryByteKillRecoversEquivalently_Jobs1) {
  EveryByteSweep(1);
}

TEST(WalRecovery, RecordBoundaryKillsRecoverEquivalently_Jobs4) {
  EveryByteSweep(4);
}

// ---------------------------------------------------------------------
// Failure-site sweep: crash the session at every WAL failpoint site and
// every occurrence of it, then recover from whatever reached disk.

TEST(WalRecovery, EveryWalFailpointSiteRecoversEquivalently) {
  ScratchDir reference("fp_ref");
  Outputs want = RunUninterrupted(reference.Path("s.wal"), 1,
                                  /*checkpoint=*/true, nullptr, nullptr);

  const std::vector<std::string> sites = {
      "wal.append", "wal.commit", "wal.fsync", "wal.rotate",
      "store.write.rename"};
  for (const std::string& site : sites) {
    for (int occurrence = 1; occurrence <= 16; ++occurrence) {
      ScratchDir crashed("fp_" + site + "_" + std::to_string(occurrence));
      std::string wal_path = crashed.Path("s.wal");
      std::string label = site + ":" + std::to_string(occurrence);

      Failpoints::Instance().Reset();
      ASSERT_TRUE(Failpoints::Instance()
                      .ArmFromSpec(site + ":" +
                                   std::to_string(occurrence))
                      .ok());
      bool failed = false;
      {
        IdlogEngine session;
        session.SetThreads(1);
        session.EnableProvenance(true);
        SeedEdb(&session);
        ASSERT_TRUE(session.LoadProgramText(kTcProgram).ok());
        Status st = session.AttachWal(wal_path);
        if (st.ok()) st = DriveSession(&session, 0, /*checkpoint=*/true);
        failed = !st.ok();
      }
      Failpoints::Instance().Reset();
      if (!failed) break;  // The site fires fewer times than that.

      // Whatever the crash left behind — possibly nothing — must
      // recover to the uninterrupted state.
      IdlogEngine engine;
      engine.SetThreads(1);
      engine.EnableProvenance(true);
      Status prep = engine.PrepareRecovery(wal_path);
      ASSERT_TRUE(prep.ok()) << label << ": " << prep.ToString();
      // The crash may predate the base snapshot (AttachWal itself
      // failed); the operator re-seeds the EDB. When the snapshot WAS
      // adopted these AddRows are duplicate-insert no-ops.
      SeedEdb(&engine);
      ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok()) << label;
      ASSERT_TRUE(engine.CompleteRecovery().ok()) << label;
      ASSERT_TRUE(
          DriveSession(&engine, engine.wal_commits(), /*checkpoint=*/true)
              .ok())
          << label;
      ExpectEqualOutputs(Collect(&engine), want, label);
    }
  }
}

// ---------------------------------------------------------------------
// Edge cases.

TEST(WalRecovery, EmptyWalRecoversTheBaseState) {
  ScratchDir scratch("empty");
  std::string wal_path = scratch.Path("s.wal");
  IdlogEngine session;
  session.EnableProvenance(true);
  SeedEdb(&session);
  ASSERT_TRUE(session.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(session.AttachWal(wal_path).ok());
  Outputs want = Collect(&session);

  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.PrepareRecovery(wal_path).ok());
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.CompleteRecovery().ok());
  EXPECT_EQ(engine.wal_commits(), 0u);
  EXPECT_EQ(engine.wal_commits_replayed(), 0u);
  ExpectEqualOutputs(Collect(&engine), want, "empty WAL");
}

TEST(WalRecovery, TornFirstRecordReplaysNothing) {
  ScratchDir scratch("torn_first");
  std::string wal_path = scratch.Path("s.wal");
  std::string wal_bytes;
  std::string base_snapshot;
  Outputs want = RunUninterrupted(wal_path, 1, /*checkpoint=*/false,
                                  &wal_bytes, &base_snapshot);

  // Garbage where the first record should be: the committed prefix is
  // empty, recovery starts from the base snapshot and re-applies all.
  Spit(wal_path, wal_bytes.substr(0, kWalHeaderSize) +
                     std::string(13, '\x5a'));
  Spit(wal_path + ".snap", base_snapshot);
  Outputs got =
      RecoverAndFinish(wal_path, 1, /*checkpoint=*/false, "torn first");
  ExpectEqualOutputs(got, want, "torn first");
  EXPECT_EQ(Slurp(wal_path), wal_bytes);
}

TEST(WalRecovery, DoubleRecoveryIsIdempotent) {
  ScratchDir scratch("double");
  std::string wal_path = scratch.Path("s.wal");
  std::string wal_bytes;
  std::string base_snapshot;
  Outputs want = RunUninterrupted(wal_path, 1, /*checkpoint=*/false,
                                  &wal_bytes, &base_snapshot);

  // Crash mid-txn-3, recover, and crash again immediately: the second
  // recovery sees the first one's truncated-and-replayed log and lands
  // in the same state.
  Spit(wal_path, wal_bytes.substr(0, wal_bytes.size() - 7));
  Spit(wal_path + ".snap", base_snapshot);
  uint64_t first_commits = 0;
  {
    IdlogEngine first;
    first.EnableProvenance(true);
    ASSERT_TRUE(first.PrepareRecovery(wal_path).ok());
    ASSERT_TRUE(first.LoadProgramText(kTcProgram).ok());
    ASSERT_TRUE(first.CompleteRecovery().ok());
    first_commits = first.wal_commits();
    EXPECT_EQ(first_commits, 2u);  // txn 3's tail was torn off
  }
  IdlogEngine second;
  second.EnableProvenance(true);
  ASSERT_TRUE(second.PrepareRecovery(wal_path).ok());
  ASSERT_TRUE(second.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(second.CompleteRecovery().ok());
  EXPECT_EQ(second.wal_commits(), first_commits);
  EXPECT_EQ(second.wal_commits_replayed(), first_commits);
  ASSERT_TRUE(
      DriveSession(&second, second.wal_commits(), /*checkpoint=*/false)
          .ok());
  ExpectEqualOutputs(Collect(&second), want, "double recovery");
  EXPECT_EQ(Slurp(wal_path), wal_bytes);
}

TEST(WalRecovery, ColdStartDegradesToAttach) {
  ScratchDir scratch("cold");
  std::string wal_path = scratch.Path("s.wal");
  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.PrepareRecovery(wal_path).ok());
  SeedEdb(&engine);
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.CompleteRecovery().ok());
  EXPECT_TRUE(engine.wal_attached());
  EXPECT_EQ(engine.wal_commits(), 0u);
  ASSERT_TRUE(DriveSession(&engine, 0, /*checkpoint=*/false).ok());
  EXPECT_EQ(engine.wal_commits(), kScriptTxns);
}

TEST(WalRecovery, WalWithoutSnapshotIsRefused) {
  ScratchDir scratch("no_snap");
  std::string wal_path = scratch.Path("s.wal");
  RunUninterrupted(wal_path, 1, /*checkpoint=*/false, nullptr, nullptr);
  fs::remove(wal_path + ".snap");

  IdlogEngine engine;
  Status st = engine.PrepareRecovery(wal_path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("no base snapshot"), std::string::npos);
}

TEST(WalRecovery, SnapshotWithoutWalRecreatesTheLog) {
  ScratchDir scratch("no_wal");
  std::string wal_path = scratch.Path("s.wal");
  std::string base_snapshot;
  Outputs want = RunUninterrupted(wal_path, 1, /*checkpoint=*/false,
                                  nullptr, &base_snapshot);
  // Simulate a crash between the base-snapshot write and the log
  // creation inside AttachWal: only the snapshot exists.
  fs::remove(wal_path);
  Spit(wal_path + ".snap", base_snapshot);

  Outputs got = RecoverAndFinish(wal_path, 1, /*checkpoint=*/false,
                                 "snapshot without WAL");
  ExpectEqualOutputs(got, want, "snapshot without WAL");
}

TEST(WalRecovery, NonSessionSnapshotIsRefused) {
  ScratchDir scratch("foreign_snap");
  std::string wal_path = scratch.Path("s.wal");
  IdlogEngine source;
  SeedEdb(&source);
  ASSERT_TRUE(source.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(source.Run().ok());
  ASSERT_TRUE(source.SaveCheckpoint(wal_path + ".snap").ok());

  IdlogEngine engine;
  Status st = engine.PrepareRecovery(wal_path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("no WAL position"), std::string::npos);
}

TEST(WalRecovery, ProgramHashMismatchIsPrecise) {
  ScratchDir scratch("hash");
  std::string wal_path = scratch.Path("s.wal");
  RunUninterrupted(wal_path, 1, /*checkpoint=*/false, nullptr, nullptr);

  // Loading a different program against the session snapshot trips the
  // snapshot's own hash guard at load time.
  {
    IdlogEngine engine;
    ASSERT_TRUE(engine.PrepareRecovery(wal_path).ok());
    Status st =
        engine.LoadProgramText("other(X, Y) :- edge(X, Y).\n");
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("hash mismatch"), std::string::npos);
  }

  // A WAL written under a different program than the snapshot's is the
  // deeper corruption; CompleteRecovery names it precisely.
  Spit(wal_path, SerializeWalHeader(/*epoch=*/1, /*program_hash=*/999));
  IdlogEngine engine;
  ASSERT_TRUE(engine.PrepareRecovery(wal_path).ok());
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  Status st = engine.CompleteRecovery();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("different program (hash mismatch)"),
            std::string::npos);
}

TEST(WalRecovery, UnrelatedEpochIsRefused) {
  ScratchDir scratch("epoch");
  std::string wal_path = scratch.Path("s.wal");
  RunUninterrupted(wal_path, 1, /*checkpoint=*/false, nullptr, nullptr);

  // Same program, but an epoch that neither matches the snapshot nor
  // continues it: files from different sessions.
  auto scan = ScanWal(wal_path);
  ASSERT_TRUE(scan.ok());
  Spit(wal_path, SerializeWalHeader(/*epoch=*/7, scan->program_hash));
  IdlogEngine engine;
  ASSERT_TRUE(engine.PrepareRecovery(wal_path).ok());
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  Status st = engine.CompleteRecovery();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("different sessions"), std::string::npos);
}

TEST(WalRecovery, RecoveryNeedsAFreshEngine) {
  ScratchDir scratch("fresh");
  std::string wal_path = scratch.Path("s.wal");
  RunUninterrupted(wal_path, 1, /*checkpoint=*/false, nullptr, nullptr);

  IdlogEngine dirty;
  ASSERT_TRUE(dirty.AddRow("edge", {"q", "r"}).ok());
  Status st = dirty.PrepareRecovery(wal_path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fresh engine"), std::string::npos);
}

TEST(WalRecovery, GroupCommitCheckpointCoversOnlyDurableBytes) {
  // With group commit > 1 the append buffer can hold fsync-pending
  // frames; a checkpoint must flush them before recording its covered
  // offset, or the snapshot points past the on-disk log and a crash
  // before the CHECKPOINT-REF lands leaves recovery replaying from
  // beyond the file.
  ScratchDir scratch("group_ckpt");
  std::string wal_path = scratch.Path("s.wal");
  IdlogEngine::WalOptions opts;
  opts.group_commit_every = 8;

  Failpoints::Instance().Reset();
  {
    IdlogEngine session;
    session.EnableProvenance(true);
    SeedEdb(&session);
    ASSERT_TRUE(session.LoadProgramText(kTcProgram).ok());
    ASSERT_TRUE(session.AttachWal(wal_path, opts).ok());
    ASSERT_TRUE(session.Begin().ok());
    ASSERT_TRUE(
        session.Insert("edge", T(&session.symbols(), {"z", "a0"})).ok());
    ASSERT_TRUE(session.Commit().ok());  // 1 of 8: stays buffered

    // Crash the checkpoint after its snapshot is written: the next
    // wal.append from here is the CHECKPOINT-REF.
    ASSERT_TRUE(Failpoints::Instance().ArmFromSpec("wal.append:1").ok());
    EXPECT_FALSE(session.WalCheckpoint().ok());
    Failpoints::Instance().Reset();

    auto snap = LoadSnapshotFile(wal_path + ".snap");
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE(snap->wal_pos.present);
    auto scan = ScanWal(wal_path);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(snap->wal_pos.epoch, scan->epoch);
    // The regression: the covered offset never exceeds the durable
    // committed prefix.
    EXPECT_LE(snap->wal_pos.offset, scan->committed_length);
  }

  ScratchDir reference("group_ckpt_ref");
  Outputs want = RunUninterrupted(reference.Path("s.wal"), 1,
                                  /*checkpoint=*/false, nullptr, nullptr);
  Outputs got = RecoverAndFinish(wal_path, 1, /*checkpoint=*/false,
                                 "group-commit checkpoint crash");
  ExpectEqualOutputs(got, want, "group-commit checkpoint crash");
}

TEST(WalRecovery, SnapshotAheadOfTruncatedLogIsClampedNotSkipped) {
  ScratchDir scratch("clamp");
  std::string wal_path = scratch.Path("s.wal");
  ScratchDir reference("clamp_ref");
  Outputs want = RunUninterrupted(reference.Path("s.wal"), 1,
                                  /*checkpoint=*/false, nullptr, nullptr);

  // Build a same-epoch pair where the snapshot's WAL position points
  // past the log: run txn 1, crash the checkpoint's rotation (snapshot
  // and CHECKPOINT-REF durable, epoch bump lost), then truncate the
  // log to its bare header — as if the device lost the flushed tail
  // behind the snapshot's back.
  Failpoints::Instance().Reset();
  {
    IdlogEngine session;
    session.EnableProvenance(true);
    SeedEdb(&session);
    ASSERT_TRUE(session.LoadProgramText(kTcProgram).ok());
    ASSERT_TRUE(session.AttachWal(wal_path).ok());
    ASSERT_TRUE(session.Begin().ok());
    ASSERT_TRUE(
        session.Insert("edge", T(&session.symbols(), {"z", "a0"})).ok());
    ASSERT_TRUE(session.Commit().ok());
    ASSERT_TRUE(Failpoints::Instance().ArmFromSpec("wal.rotate:1").ok());
    EXPECT_FALSE(session.WalCheckpoint().ok());
    Failpoints::Instance().Reset();
  }
  auto stale = LoadSnapshotFile(wal_path + ".snap");
  ASSERT_TRUE(stale.ok());
  ASSERT_GT(stale->wal_pos.offset, kWalHeaderSize);
  Spit(wal_path, Slurp(wal_path).substr(0, kWalHeaderSize));

  // First recovery: the snapshot covers commit 1 but points past the
  // truncated log. Recovery clamps (the snapshot is self-contained, so
  // nothing is lost) and rewrites the snapshot's WAL position so later
  // recoveries agree with the truncated file.
  {
    IdlogEngine engine;
    engine.EnableProvenance(true);
    ASSERT_TRUE(engine.PrepareRecovery(wal_path).ok());
    ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
    ASSERT_TRUE(engine.CompleteRecovery().ok());
    EXPECT_EQ(engine.wal_commits(), 1u);
    ASSERT_TRUE(
        DriveSession(&engine, engine.wal_commits(), /*checkpoint=*/false)
            .ok());
    EXPECT_EQ(engine.wal_commits(), kScriptTxns);
  }
  auto rewritten = LoadSnapshotFile(wal_path + ".snap");
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->wal_pos.offset, kWalHeaderSize);

  // Second recovery: txns 2 and 3 live at offsets below the stale
  // snapshot position; without the clamp they would be silently
  // skipped here and the commits durably lost.
  IdlogEngine second;
  second.EnableProvenance(true);
  ASSERT_TRUE(second.PrepareRecovery(wal_path).ok());
  ASSERT_TRUE(second.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(second.CompleteRecovery().ok());
  EXPECT_EQ(second.wal_commits(), kScriptTxns);
  EXPECT_EQ(second.wal_commits_replayed(), kScriptTxns - 1);
  ExpectEqualOutputs(Collect(&second), want, "clamped recovery");
}

TEST(WalRecovery, CheckpointedSessionRecoversAcrossTheRotation) {
  // Kill after the checkpoint: the snapshot is the checkpoint's, the
  // WAL is the rotated (epoch 2) log holding txns 2 and 3.
  ScratchDir scratch("rotation");
  std::string wal_path = scratch.Path("s.wal");
  Outputs want = RunUninterrupted(wal_path, 1, /*checkpoint=*/true,
                                  nullptr, nullptr);

  auto snap = LoadSnapshotFile(wal_path + ".snap");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->wal_pos.commits, 1u);
  auto scan = ScanWal(wal_path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->epoch, 2u);

  IdlogEngine engine;
  engine.EnableProvenance(true);
  ASSERT_TRUE(engine.PrepareRecovery(wal_path).ok());
  ASSERT_TRUE(engine.LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(engine.CompleteRecovery().ok());
  EXPECT_EQ(engine.wal_commits(), kScriptTxns);
  EXPECT_EQ(engine.wal_commits_replayed(), kScriptTxns - 1);
  ExpectEqualOutputs(Collect(&engine), want, "post-rotation recovery");
}

}  // namespace
}  // namespace idlog
