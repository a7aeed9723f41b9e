#include "storage/relation.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "common/failpoint.h"

namespace idlog {

uint64_t Relation::NextUid() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

size_t Relation::FindSlot(TupleView t, uint32_t hash) const {
  if (slots_.empty()) return npos;
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return npos;
    if (SlotHash(slot) == hash && rows_[SlotRow(slot)] == t) return i;
  }
}

void Relation::ReserveSlot() {
  if ((rows_.size() + 1) * 2 <= slots_.size()) return;
  if (rows_.size() >= kMaxRows) {
    throw std::length_error("relation exceeds " + std::to_string(kMaxRows) +
                            " rows");
  }
  Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
}

void Relation::Rehash(size_t capacity) {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = SlotHash(slot) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

bool Relation::InsertHashed(TupleView t, uint32_t hash) {
  ReserveSlot();
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) break;
    if (SlotHash(slot) == hash && rows_[SlotRow(slot)] == t) return false;
  }
  slots_[i] = PackSlot(hash, rows_.size());
  rows_.Append(t);
  ++version_;
  return true;
}

void Relation::InsertDistinct(TupleView t, uint32_t hash) {
  ReserveSlot();
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = PackSlot(hash, rows_.size());
  rows_.Append(t);
  ++version_;
}

Status Relation::InsertChecked(TupleView t) {
  IDLOG_FAILPOINT("storage.relation.insert");
  if (t.size() != type_.size()) {
    return Status::TypeError("tuple arity " + std::to_string(t.size()) +
                             " does not match relation arity " +
                             std::to_string(type_.size()));
  }
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].sort() != type_[i]) {
      return Status::TypeError("column " + std::to_string(i) +
                               " expects sort " + SortName(type_[i]));
    }
  }
  Insert(t);
  return Status::OK();
}

void Relation::DeleteSlot(size_t i) {
  const size_t mask = slots_.size() - 1;
  size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    const uint64_t slot = slots_[j];
    if (slot == 0) break;
    // The entry at j may fill the hole at i unless its home position
    // lies cyclically in (i, j] — then moving it would put it before
    // its home and make it unreachable.
    const size_t home = SlotHash(slot) & mask;
    const bool stays = i <= j ? (i < home && home <= j)
                              : (i < home || home <= j);
    if (!stays) {
      slots_[i] = slot;
      i = j;
    }
  }
  slots_[i] = 0;
}

bool Relation::Erase(TupleView t) {
  if (t.size() != rows_.arity()) return false;
  const size_t found = FindSlot(t, HashRow(t.data(), t.size()));
  if (found == npos) return false;
  // Swap-and-pop keeps erasure O(1); the order perturbation is
  // deterministic, so replayed and uninterrupted runs still agree.
  const size_t idx = SlotRow(slots_[found]);
  DeleteSlot(found);
  const size_t last = rows_.size() - 1;
  if (idx != last) {
    // Re-point the moved row's slot: same hash, new row index.
    const size_t moved = FindSlot(rows_[last], HashRow(rows_[last].data(),
                                                       rows_.arity()));
    slots_[moved] = PackSlot(SlotHash(slots_[moved]), idx);
    rows_.CopyRow(last, idx);
  }
  rows_.PopBack();
  ++version_;
  ++clear_generation_;
  return true;
}

void Relation::Clear() {
  rows_.Clear();
  std::fill(slots_.begin(), slots_.end(), 0);
  ++version_;
  ++clear_generation_;
}

void Relation::Reserve(size_t rows) {
  rows_.Reserve(rows);
  size_t capacity = slots_.empty() ? kMinSlots : slots_.size();
  while (capacity < rows * 2) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (TupleView t : tuples()) out.push_back(t.ToTuple());
  std::sort(out.begin(), out.end());
  return out;
}

bool Relation::SetEquals(const Relation& other) const {
  if (size() != other.size()) return false;
  for (TupleView t : tuples()) {
    if (!other.Contains(t)) return false;
  }
  return true;
}

Tuple ProjectTuple(TupleView t, const std::vector<int>& cols) {
  Tuple out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(t[static_cast<size_t>(c)]);
  return out;
}

}  // namespace idlog
