// Fault-injection harness tests: the Failpoints registry semantics, a
// drift check that the central Catalog() matches the sites actually
// planted in src/, and the headline sweep — for EVERY catalogued site,
// injecting a failure into a composite workload (CSV load, snapshot
// resume, checkpointed evaluation, query) must surface one clean Status,
// never crash, and never leave a torn snapshot or stray temp file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/idlog_engine.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "test_util.h"

namespace idlog {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("idlog_failpoint_test_" + tag + "_" +
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
  const fs::path& dir() const { return dir_; }

 private:
  fs::path dir_;
};

int TmpFileCount(const fs::path& dir) {
  int n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string().find(".tmp") != std::string::npos) ++n;
  }
  return n;
}

// --------------------------------------------------------------------
// Registry semantics.

class FailpointRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().Reset(); }
  void TearDown() override { Failpoints::Instance().Reset(); }
};

TEST_F(FailpointRegistryTest, RejectsMalformedSpecs) {
  auto& fp = Failpoints::Instance();
  EXPECT_FALSE(fp.ArmFromSpec("").ok());
  EXPECT_FALSE(fp.ArmFromSpec("csv.load.row").ok());       // no count
  EXPECT_FALSE(fp.ArmFromSpec("csv.load.row:").ok());      // empty count
  EXPECT_FALSE(fp.ArmFromSpec("csv.load.row:abc").ok());   // not a number
  EXPECT_FALSE(fp.ArmFromSpec("csv.load.row:0").ok());     // 1-based
  EXPECT_FALSE(fp.ArmFromSpec("csv.load.row:1:boom").ok()); // bad action

  Status st = fp.ArmFromSpec("no.such.site:1");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown failpoint site"), std::string::npos);
  EXPECT_FALSE(Failpoints::AnyArmed());
}

TEST_F(FailpointRegistryTest, NthCountingAndHitCounts) {
  auto& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.ArmFromSpec("storage.relation.insert:3").ok());
  EXPECT_TRUE(Failpoints::AnyArmed());

  SymbolTable symbols;
  Relation rel(RelationType{Sort::kI});
  int failures = 0;
  for (int i = 0; i < 5; ++i) {
    Status st = rel.InsertChecked({Value::Number(i)});
    if (!st.ok()) {
      ++failures;
      EXPECT_EQ(i, 2) << "the third execution must be the failing one";
      EXPECT_NE(st.message().find("storage.relation.insert"),
                std::string::npos);
      EXPECT_NE(st.message().find("execution 3"), std::string::npos);
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(rel.size(), 4u);  // the injected row was rejected
  EXPECT_EQ(fp.HitCount("storage.relation.insert"), 5u);

  fp.Reset();
  EXPECT_FALSE(Failpoints::AnyArmed());
  EXPECT_EQ(fp.HitCount("storage.relation.insert"), 0u);
  EXPECT_TRUE(rel.InsertChecked({Value::Number(99)}).ok());
}

TEST_F(FailpointRegistryTest, ThrowActionThrows) {
  auto& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.ArmFromSpec("storage.relation.insert:1:throw").ok());
  Relation rel(RelationType{Sort::kI});
  EXPECT_THROW(rel.InsertChecked({Value::Number(1)}).ok(),
               std::runtime_error);
}

TEST_F(FailpointRegistryTest, RearmingResetsTheCounter) {
  auto& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.ArmFromSpec("storage.relation.insert:2").ok());
  Relation rel(RelationType{Sort::kI});
  EXPECT_TRUE(rel.InsertChecked({Value::Number(1)}).ok());
  EXPECT_FALSE(rel.InsertChecked({Value::Number(2)}).ok());
  ASSERT_TRUE(fp.ArmFromSpec("storage.relation.insert:2").ok());  // re-arm
  EXPECT_TRUE(rel.InsertChecked({Value::Number(3)}).ok());
  EXPECT_FALSE(rel.InsertChecked({Value::Number(4)}).ok());
}

TEST_F(FailpointRegistryTest, CatalogIsSortedAndUnique) {
  const auto& catalog = Failpoints::Catalog();
  ASSERT_FALSE(catalog.empty());
  for (size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(catalog[i - 1], catalog[i])
        << "catalog must stay sorted and duplicate-free";
  }
}

// --------------------------------------------------------------------
// Catalog drift: every IDLOG_FAILPOINT("...") / OnHit("...") literal in
// src/ must appear in Catalog() and vice versa, so --fail-at can always
// reach every planted site and the catalog never advertises dead ones.

std::set<std::string> PlantedSites() {
  std::set<std::string> sites;
  const std::string root = std::string(IDLOG_SOURCE_ROOT) + "/src";
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    // The registry's own files mention sites in comments, not plants.
    if (name == "failpoint.h" || name == "failpoint.cc") continue;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    for (const char* needle : {"IDLOG_FAILPOINT(\"", "OnHit(\""}) {
      const std::string n = needle;
      for (size_t pos = text.find(n); pos != std::string::npos;
           pos = text.find(n, pos + 1)) {
        size_t start = pos + n.size();
        size_t end = text.find('"', start);
        if (end == std::string::npos) break;
        sites.insert(text.substr(start, end - start));
      }
    }
  }
  return sites;
}

TEST(FailpointCatalog, MatchesSitesPlantedInSources) {
  std::set<std::string> planted = PlantedSites();
  ASSERT_FALSE(planted.empty()) << "source scan found no failpoints";
  std::set<std::string> catalog(Failpoints::Catalog().begin(),
                                Failpoints::Catalog().end());
  for (const std::string& site : planted) {
    EXPECT_TRUE(catalog.count(site) > 0)
        << site << " is planted in src/ but missing from Catalog()";
  }
  for (const std::string& site : catalog) {
    EXPECT_TRUE(planted.count(site) > 0)
        << site << " is catalogued but no longer planted anywhere in src/";
  }
}

// --------------------------------------------------------------------
// The sweep: arm each site in turn against a composite workload that
// exercises every subsystem a site lives in. Assertions per site:
//   - the workload actually executes the site (at jobs 1 or jobs 4);
//   - the run that consumed the injection surfaced a non-OK Status
//     carrying the injected message (no crash, no silent success);
//   - the pre-existing snapshot is untouched, any checkpoint the run
//     managed to write still validates, and no temp files leak.

struct WorkloadOutcome {
  bool all_ok = true;
  std::string first_error;
};

void Note(WorkloadOutcome* out, const Status& st) {
  if (!st.ok() && out->all_ok) {
    out->all_ok = false;
    out->first_error = st.ToString();
  }
}

const char* kSweepProgram =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
    "also(X, Y) :- tc(X, Y).\n";

/// A snapshot to resume from: a 25-round transitive closure
/// interrupted after 2 rounds, which leaves the entry frame of its
/// only recursive stratum on disk.
void MakePrevSnapshot(const std::string& path) {
  IdlogEngine engine;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(engine
                    .AddRow("edge", {"n" + std::to_string(i),
                                     "n" + std::to_string(i + 1)})
                    .ok());
  }
  ASSERT_TRUE(engine.LoadProgramText(kSweepProgram).ok());
  EvalLimits limits;
  limits.max_iterations = 2;
  engine.SetLimits(limits);
  engine.SetPartialResults(true);
  engine.SetCheckpoint(path);
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_FALSE(engine.last_trip().ok()) << "the run must trip";
}

WorkloadOutcome RunCompositeWorkload(const std::string& csv_path,
                                     const std::string& prev_snap,
                                     const std::string& checkpoint,
                                     int jobs) {
  WorkloadOutcome out;
  {
    SymbolTable symbols;
    Database db(&symbols);
    Note(&out, LoadCsvRelation(&db, "rows", csv_path));
  }
  IdlogEngine engine;
  engine.SetThreads(jobs);
  Status resume = engine.ResumeFromCheckpoint(prev_snap);
  Note(&out, resume);
  if (resume.ok()) {
    Status load = engine.LoadProgramText(kSweepProgram);
    Note(&out, load);
    if (load.ok()) {
      engine.SetCheckpoint(checkpoint);
      Note(&out, engine.Run());
      auto rel = engine.Query("tc");
      Note(&out, rel.status());
      // A durable update session — attach, one committed transaction, a
      // recovery scan, and a checkpoint rotation — so every wal.* site
      // is on the sweep's path.
      std::string wal_path = checkpoint + ".wal";
      Status wal = engine.AttachWal(wal_path);
      Note(&out, wal);
      if (wal.ok()) {
        Status txn = engine.Begin();
        if (txn.ok()) {
          txn = engine.Insert(
              "edge", testing_util::T(&engine.symbols(), {"zz", "n0"}));
        }
        if (txn.ok()) txn = engine.Commit();
        Note(&out, txn);
        if (txn.ok()) Note(&out, ScanWal(wal_path).status());
        if (txn.ok()) Note(&out, engine.WalCheckpoint());
      }
    }
  }
  return out;
}

TEST(FailpointSweep, EverySiteFailsCleanlyAndLeavesNoTornState) {
  for (const std::string& site : Failpoints::Catalog()) {
    SCOPED_TRACE(site);
    ScratchDir scratch("sweep_" + site);
    std::string csv_path = scratch.Path("rows.csv");
    {
      std::ofstream csv(csv_path);
      csv << "a,b\nc,d\ne,f\n";
    }
    std::string prev = scratch.Path("prev.snap");
    MakePrevSnapshot(prev);

    Failpoints::Instance().Reset();
    ASSERT_TRUE(Failpoints::Instance().ArmFromSpec(site + ":1").ok());

    WorkloadOutcome serial =
        RunCompositeWorkload(csv_path, prev, scratch.Path("ck1.snap"), 1);
    bool hit_serial = Failpoints::Instance().HitCount(site) > 0;
    WorkloadOutcome parallel;
    bool hit_parallel = false;
    if (!hit_serial) {
      // Sites on the parallel-only path (e.g. exec.round.task) need a
      // threaded run to execute.
      parallel = RunCompositeWorkload(csv_path, prev,
                                      scratch.Path("ck4.snap"), 4);
      hit_parallel = Failpoints::Instance().HitCount(site) > 0;
    }
    Failpoints::Instance().Reset();

    EXPECT_TRUE(hit_serial || hit_parallel)
        << "the sweep workload never executes this site — extend it";
    if (hit_serial) {
      EXPECT_FALSE(serial.all_ok)
          << "injection was consumed but every step reported OK";
      EXPECT_NE(serial.first_error.find("injected failure at failpoint"),
                std::string::npos)
          << serial.first_error;
      EXPECT_NE(serial.first_error.find(site), std::string::npos)
          << serial.first_error;
    } else if (hit_parallel) {
      EXPECT_FALSE(parallel.all_ok)
          << "injection was consumed but every step reported OK";
      EXPECT_NE(parallel.first_error.find(site), std::string::npos)
          << parallel.first_error;
    }

    // No torn state, whatever happened: the input snapshot is pristine,
    // any checkpoint that exists parses and validates, no temp files.
    EXPECT_EQ(TmpFileCount(scratch.dir()), 0);
    EXPECT_TRUE(ValidateSnapshotFile(prev).ok())
        << "the resumed-from snapshot was modified";
    for (const char* ck : {"ck1.snap", "ck4.snap"}) {
      if (fs::exists(scratch.Path(ck))) {
        EXPECT_TRUE(ValidateSnapshotFile(scratch.Path(ck)).ok())
            << ck << " is torn";
      }
    }
  }
}

}  // namespace
}  // namespace idlog
