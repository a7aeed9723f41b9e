#include "storage/index.h"

#include <cstdio>

#include "obs/flight_recorder.h"

namespace idlog {

namespace {

/// Black-box breadcrumb for one physical index build/refresh. The
/// label names the key columns; the payload carries the rows indexed
/// and distinct keys. Physical-only (never part of the --jobs
/// byte-identity contract), like the index_builds counter it mirrors.
void RecordIndexBuildEvent(const ColumnIndex& index) {
  if (!FlightRecorder::Enabled()) return;
  char cols[sizeof(FlightEvent::label)];
  size_t n = 0;
  for (size_t i = 0; i < index.cols().size() && n + 4 < sizeof(cols); ++i) {
    n += static_cast<size_t>(std::snprintf(
        cols + n, sizeof(cols) - n, i == 0 ? "%d" : ",%d",
        index.cols()[i]));
  }
  cols[n < sizeof(cols) ? n : sizeof(cols) - 1] = '\0';
  FlightRecorder::Record(FlightEventKind::kIndexBuild, cols,
                         static_cast<int64_t>(index.num_entries()),
                         static_cast<int64_t>(index.num_keys()));
}

}  // namespace

ColumnIndex::ColumnIndex(const Relation* relation, std::vector<int> cols)
    : relation_(relation), cols_(std::move(cols)) {
  Build();
}

void ColumnIndex::Build() {
  keys_.assign(kMinKeySlots, KeySlot{0, 0, 0, 0});
  num_keys_ = 0;
  next_.clear();
  AddRows();
  built_uid_ = relation_->uid();
  built_clear_generation_ = relation_->clear_generation();
}

bool ColumnIndex::KeyMatches(const KeySlot& slot, TupleView key) const {
  const TupleView row = relation_->row(slot.first - 1);
  for (size_t k = 0; k < cols_.size(); ++k) {
    if (row[static_cast<size_t>(cols_[k])] != key[k]) return false;
  }
  return true;
}

void ColumnIndex::GrowKeys() {
  std::vector<KeySlot> old = std::move(keys_);
  keys_.assign(old.size() * 2, KeySlot{0, 0, 0, 0});
  const size_t mask = keys_.size() - 1;
  for (const KeySlot& slot : old) {
    if (slot.first == 0) continue;
    size_t i = slot.hash & mask;
    while (keys_[i].first != 0) i = (i + 1) & mask;
    keys_[i] = slot;
  }
}

void ColumnIndex::AddRows() {
  const size_t n = relation_->size();
  const size_t ncols = cols_.size();
  Tuple key(ncols);
  for (size_t r = next_.size(); r < n; ++r) {
    const TupleView row = relation_->row(r);
    RowHasher hasher;
    for (size_t k = 0; k < ncols; ++k) {
      key[k] = row[static_cast<size_t>(cols_[k])];
      hasher.Add(key[k]);
    }
    const uint32_t hash = hasher.Finish();
    const uint32_t posting = static_cast<uint32_t>(r + 1);
    next_.push_back(0);
    const size_t mask = keys_.size() - 1;
    size_t i = hash & mask;
    bool appended = false;
    for (; keys_[i].first != 0; i = (i + 1) & mask) {
      KeySlot& slot = keys_[i];
      if (slot.hash == hash && KeyMatches(slot, key)) {
        next_[slot.last - 1] = posting;  // extend the key's chain
        slot.last = posting;
        ++slot.count;
        appended = true;
        break;
      }
    }
    if (appended) continue;
    keys_[i] = KeySlot{hash, posting, posting, 1};
    ++num_keys_;
    if (num_keys_ * 2 > keys_.size()) GrowKeys();
  }
  built_version_ = relation_->version();
}

bool ColumnIndex::fresh() const {
  return built_version_ == relation_->version() &&
         built_uid_ == relation_->uid();
}

void ColumnIndex::Refresh() {
  if (fresh()) return;
  // Within one identity (uid) and clear generation, relations only
  // grow; extend incrementally then. A Clear() keeps the uid and may be
  // followed by regrowth past the old row count, so the generation
  // check is what forces the rebuild that drops the stale postings.
  if (built_uid_ == relation_->uid() &&
      built_clear_generation_ == relation_->clear_generation() &&
      relation_->size() >= next_.size()) {
    AddRows();
  } else {
    Build();
  }
}

PostingList ColumnIndex::Lookup(TupleView key) const {
  const uint32_t hash = HashRow(key.data(), key.size());
  const size_t mask = keys_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const KeySlot& slot = keys_[i];
    if (slot.first == 0) return PostingList();
    if (slot.hash == hash && KeyMatches(slot, key)) {
      return PostingList(next_.data(), slot.first, slot.count);
    }
  }
}

const ColumnIndex& IndexCache::Get(const std::vector<int>& cols,
                                   bool* rebuilt) {
  auto it = indexes_.find(cols);
  if (it == indexes_.end()) {
    it = indexes_.emplace(cols, ColumnIndex(relation_, cols)).first;
    if (rebuilt != nullptr) *rebuilt = true;
    RecordIndexBuildEvent(it->second);
  } else if (!it->second.fresh()) {
    it->second.Refresh();
    if (rebuilt != nullptr) *rebuilt = true;
    RecordIndexBuildEvent(it->second);
  }
  return it->second;
}

const ColumnIndex* IndexCache::FindFresh(const std::vector<int>& cols) const {
  auto it = indexes_.find(cols);
  if (it == indexes_.end() || !it->second.fresh()) return nullptr;
  return &it->second;
}

}  // namespace idlog
