#include "common/failpoint.h"

#include <stdexcept>

#include "obs/flight_recorder.h"

namespace idlog {

std::atomic<int> Failpoints::armed_count_{0};

Failpoints& Failpoints::Instance() {
  static Failpoints* instance = new Failpoints();
  return *instance;
}

const std::vector<std::string>& Failpoints::Catalog() {
  // Every IDLOG_FAILPOINT site in the library and the snapshot/output
  // I/O helpers. tests/failpoint_test.cc greps the sources and fails if
  // this list and the planted sites ever diverge.
  static const std::vector<std::string>* catalog =
      new std::vector<std::string>{
          "csv.load.open",           // CSV file open
          "csv.load.row",            // per-row CSV ingestion
          "engine.checkpoint.frame", // stratum-entry/completed frame write
          "eval.emit.insert",        // staged insert of a derived fact
          "eval.index.build",        // column-index (re)build for a scan
          "exec.round.task",         // parallel round task boundary
          "storage.relation.insert", // checked EDB tuple insert
          "store.read.header",       // snapshot magic/version check
          "store.read.open",         // snapshot file open
          "store.read.section",      // snapshot section decode
          "store.write.data",        // temp-file payload write
          "store.write.fsync",       // temp-file fsync
          "store.write.open",        // temp-file creation
          "store.write.rename",      // atomic rename into place
          "wal.append",              // WAL record append to the buffer
          "wal.commit",              // commit-mark append (the COMMIT record)
          "wal.fsync",               // WAL fsync of a committed group
          "wal.replay.decode",       // per-record decode during recovery
          "wal.rotate",              // fresh-epoch header rename on rotation
      };
  return *catalog;
}

Status Failpoints::ArmFromSpec(const std::string& spec) {
  size_t colon = spec.rfind(':');
  bool throws = false;
  std::string rest = spec;
  if (colon != std::string::npos && spec.substr(colon + 1) == "throw") {
    throws = true;
    rest = spec.substr(0, colon);
    colon = rest.rfind(':');
  } else {
    colon = rest.rfind(':');
  }
  if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
    return Status::InvalidArgument(
        "failpoint spec must be 'site:nth' or 'site:nth:throw', got '" +
        spec + "'");
  }
  const std::string site = rest.substr(0, colon);
  const std::string count = rest.substr(colon + 1);
  uint64_t nth = 0;
  for (char c : count) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("failpoint count '" + count +
                                     "' is not a number in '" + spec + "'");
    }
    nth = nth * 10 + static_cast<uint64_t>(c - '0');
  }
  if (nth == 0) {
    return Status::InvalidArgument(
        "failpoint count is 1-based; ':0' never fires in '" + spec + "'");
  }
  bool known = false;
  for (const std::string& s : Catalog()) {
    if (s == site) {
      known = true;
      break;
    }
  }
  if (!known) {
    return Status::InvalidArgument("unknown failpoint site '" + site +
                                   "' (see Failpoints::Catalog())");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_.emplace(site, Armed{nth, throws, 0}).second) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  } else {
    armed_[site] = Armed{nth, throws, 0};
  }
  return Status::OK();
}

void Failpoints::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_count_.fetch_sub(static_cast<int>(armed_.size()),
                         std::memory_order_relaxed);
  armed_.clear();
}

uint64_t Failpoints::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = armed_.find(site);
  return it == armed_.end() ? 0 : it->second.hits;
}

Status Failpoints::OnHit(const char* site) {
  bool throws = false;
  bool fired = false;
  uint64_t hits = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = armed_.find(site);
    if (it == armed_.end()) return Status::OK();
    hits = ++it->second.hits;
    if (hits == it->second.nth) {
      fired = true;
      throws = it->second.throws;
    }
  }
  // Breadcrumb for every pass through an *armed* site (disarmed sites
  // return above without reaching this): hit ordinal + whether it fired.
  FlightRecorder::Record(FlightEventKind::kFailpointHit, site,
                         static_cast<int64_t>(hits), fired ? 1 : 0);
  if (!fired) return Status::OK();
  std::string what = std::string("injected failure at failpoint '") + site +
                     "' (execution " + std::to_string(hits) + ")";
  if (throws) throw std::runtime_error(what);
  return Status::Internal(std::move(what));
}

}  // namespace idlog
