#ifndef IDLOG_STORAGE_RELATION_H_
#define IDLOG_STORAGE_RELATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace idlog {

/// Random-access range of fixed-arity rows laid out back to back in one
/// value array; iterating yields TupleViews. Invalidated, like the views
/// it hands out, when the underlying storage grows or shrinks.
class RowRange {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TupleView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TupleView;

    iterator(const Value* base, size_t arity, size_t row)
        : base_(base), arity_(arity), row_(row) {}
    TupleView operator*() const {
      return TupleView(base_ + row_ * arity_, arity_);
    }
    iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const iterator& o) const { return row_ == o.row_; }
    bool operator!=(const iterator& o) const { return row_ != o.row_; }

   private:
    const Value* base_;
    size_t arity_;
    size_t row_;  // Rows, not pointers: arity-0 rows occupy no values.
  };

  RowRange(const Value* base, size_t arity, size_t rows)
      : base_(base), arity_(arity), rows_(rows) {}

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  TupleView operator[](size_t i) const {
    return TupleView(base_ + i * arity_, arity_);
  }
  iterator begin() const { return iterator(base_, arity_, 0); }
  iterator end() const { return iterator(base_, arity_, rows_); }

 private:
  const Value* base_;
  size_t arity_;
  size_t rows_;
};

/// Append-only, arity-strided rows with no membership structure: the
/// staging buffer a round task emits derived facts into. Duplicates are
/// kept; dedup happens once, when the driver commits the rows into the
/// full Relation.
class RowBuffer {
 public:
  explicit RowBuffer(size_t arity = 0) : arity_(arity) {}

  /// Appends one row and returns its `arity()` values for the caller to
  /// fill in place.
  Value* AppendRow() {
    values_.resize(values_.size() + arity_);
    ++rows_;
    return values_.data() + values_.size() - arity_;
  }
  /// Appends a copy of `t` (whose size must equal arity()).
  void Append(TupleView t) {
    values_.insert(values_.end(), t.begin(), t.end());
    ++rows_;
  }

  size_t arity() const { return arity_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  TupleView operator[](size_t i) const {
    return TupleView(values_.data() + i * arity_, arity_);
  }
  RowRange rows() const { return RowRange(values_.data(), arity_, rows_); }

  /// Overwrites row `dst` with a copy of row `src`.
  void CopyRow(size_t src, size_t dst) {
    std::copy(values_.begin() + static_cast<ptrdiff_t>(src * arity_),
              values_.begin() + static_cast<ptrdiff_t>((src + 1) * arity_),
              values_.begin() + static_cast<ptrdiff_t>(dst * arity_));
  }
  void PopBack() {
    values_.resize(values_.size() - arity_);
    --rows_;
  }
  void Clear() {
    values_.clear();
    rows_ = 0;
  }
  void Reserve(size_t rows) { values_.reserve(rows * arity_); }
  /// Heap bytes held by the value array.
  size_t capacity_bytes() const { return values_.capacity() * sizeof(Value); }

 private:
  size_t arity_;
  size_t rows_ = 0;
  std::vector<Value> values_;
};

/// A finite, typed, duplicate-free set of tuples.
///
/// Storage is flat: the rows live back to back in one arity-strided
/// value array (a RowBuffer), and membership is an open-addressing
/// (linear probing) table of row indices that compares probes against
/// those rows, so each tuple is stored exactly once and needs no heap
/// allocation of its own. A table slot packs the low 32 bits of the
/// row hash (the probe filter and the home position) with the row
/// index + 1 (0 marks an empty slot); the table doubles at load 1/2.
///
/// Iteration order is insertion order (with Erase moving the last row
/// into the vacated slot), which makes runs repeatable: the same
/// operation sequence always yields the same order, and the "canonical"
/// tid assignment (IdentityTidAssigner) enumerates group members in
/// this order. No semantic meaning attaches to it — IDLOG queries are
/// generic, so any order yields *a* legal ID-function.
///
/// A relation adopted from rows known to be distinct (AdoptDistinctRows)
/// defers its membership table: a reader that only scans it never pays
/// for one, and the first probe (Find/Contains) builds it under a
/// std::call_once, so concurrent probes from parallel round tasks are
/// race-free. Mutations build it first as well.
class Relation {
 public:
  Relation() : uid_(NextUid()) {}
  explicit Relation(RelationType type)
      : type_(std::move(type)), rows_(type_.size()), uid_(NextUid()) {}

  /// A relation of `rows` (whose arity must match `type`), which the
  /// caller guarantees are pairwise distinct. No membership table is
  /// built until the first probe or mutation; the version reads as if
  /// every row had been inserted.
  static Relation AdoptDistinctRows(RelationType type, RowBuffer rows);

  // Copies and moves are not thread-safe against a concurrent first
  // probe of the source; evaluation never copies a relation mid-round.
  Relation(const Relation& o)
      : type_(o.type_), rows_(o.rows_), slots_(o.slots_),
        membership_pending_(PendingCopyOf(o)), version_(o.version_),
        uid_(NextUid()), clear_generation_(o.clear_generation_) {}
  Relation& operator=(const Relation& o) {
    type_ = o.type_;
    rows_ = o.rows_;
    slots_ = o.slots_;
    membership_pending_ = PendingCopyOf(o);
    version_ = o.version_;
    uid_ = NextUid();  // contents replaced wholesale: new identity
    clear_generation_ = o.clear_generation_;
    return *this;
  }
  Relation(Relation&& o) noexcept
      : type_(std::move(o.type_)), rows_(std::move(o.rows_)),
        slots_(std::move(o.slots_)),
        membership_pending_(std::move(o.membership_pending_)),
        version_(o.version_), uid_(NextUid()),
        clear_generation_(o.clear_generation_) {
    o.Reset();
  }
  Relation& operator=(Relation&& o) noexcept {
    type_ = std::move(o.type_);
    rows_ = std::move(o.rows_);
    slots_ = std::move(o.slots_);
    membership_pending_ = std::move(o.membership_pending_);
    version_ = o.version_;
    uid_ = NextUid();
    clear_generation_ = o.clear_generation_;
    o.Reset();
    return *this;
  }

  /// Inserts `t`; returns true if the tuple was new. The tuple arity
  /// must match the relation type (mismatches are rejected with false).
  bool Insert(TupleView t) {
    if (t.size() != rows_.arity()) return false;
    return InsertHashed(t, HashRow(t.data(), t.size()));
  }

  /// Owned-tuple form, so braced lists work: `rel.Insert({a, b})`.
  bool Insert(const Tuple& t) { return Insert(TupleView(t)); }

  /// Insert with the row hash (HashRow over `t`) already computed —
  /// the commit path hashes its staged rows up front so it can prefetch
  /// their membership slots. `t.size()` must equal arity().
  bool InsertHashed(TupleView t, uint32_t hash);

  /// Hints the cache to load the membership slot a probe with `hash`
  /// starts at (no effect on contents).
  void PrefetchSlot(uint32_t hash) const {
    if (membership_pending_ == nullptr && !slots_.empty()) {
      __builtin_prefetch(slots_.data() + (hash & (slots_.size() - 1)));
    }
  }

  /// Inserts with sort checking against the relation type.
  Status InsertChecked(TupleView t);
  Status InsertChecked(const Tuple& t) { return InsertChecked(TupleView(t)); }

  bool Contains(TupleView t) const { return Find(t) != npos; }

  /// Row index of `t`, or npos when absent.
  static constexpr size_t npos = ~size_t{0};
  size_t Find(TupleView t) const {
    if (t.size() != rows_.arity()) return npos;
    if (membership_pending_ != nullptr) BuildPendingMembership();
    const size_t slot = FindSlot(t, HashRow(t.data(), t.size()));
    return slot == npos ? npos : SlotRow(slots_[slot]);
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Tuples in insertion order, as views into the flat row array.
  RowRange tuples() const { return rows_.rows(); }
  TupleView row(size_t i) const { return rows_[i]; }

  const RelationType& type() const { return type_; }
  int arity() const { return static_cast<int>(type_.size()); }

  /// Monotonically increasing change counter (for index invalidation).
  uint64_t version() const { return version_; }

  /// Identity token: unique per logical relation instance; changes when
  /// the relation is wholesale replaced by assignment, so pointer-keyed
  /// index caches can detect that incremental refresh is invalid.
  uint64_t uid() const { return uid_; }

  /// Bumped by every Clear(). Within one uid, rows only grow between
  /// clear generations — an index built at an older generation must
  /// rebuild even if the row count has grown back past what it indexed
  /// (the rows at those positions are different tuples now).
  uint64_t clear_generation() const { return clear_generation_; }

  /// Removes one tuple; returns true if it was present. O(1): the last
  /// row moves into the erased slot (so erasure perturbs iteration
  /// order — deterministically, which is what replay equivalence
  /// needs). Bumps the version *and* the clear generation: erasure
  /// breaks the "rows only grow within a generation" contract that
  /// incremental index refresh relies on, so indexes built earlier must
  /// rebuild from scratch.
  bool Erase(TupleView t);

  /// Removes all tuples.
  void Clear();

  /// Overwrites the change counters. Snapshot decode only: a relation
  /// rebuilt from its serialized rows must report the same logical
  /// version / clear generation as the live relation it was cut from,
  /// or recovered db-stats would disagree with an uninterrupted run.
  void RestoreCounters(uint64_t version, uint64_t clear_generation) {
    version_ = version;
    clear_generation_ = clear_generation;
  }

  /// Returns the tuples as a sorted vector (value order) — a canonical
  /// form for set comparison in tests.
  std::vector<Tuple> SortedTuples() const;

  /// Set equality regardless of insertion order.
  bool SetEquals(const Relation& other) const;

  /// Heap bytes actually held (row array plus membership table, once
  /// built) — tests compare ApproxTupleBytes against it.
  size_t heap_bytes() const {
    return rows_.capacity_bytes() + slots_.capacity() * sizeof(uint64_t);
  }

 private:
  /// Row indices are 32-bit in the membership table.
  static constexpr size_t kMaxRows = (size_t{1} << 31) - 1;
  static constexpr size_t kMinSlots = 8;

  static uint64_t NextUid();
  static uint64_t PackSlot(uint32_t hash, size_t row) {
    return (uint64_t{hash} << 32) | static_cast<uint64_t>(row + 1);
  }
  static size_t SlotRow(uint64_t slot) {
    return static_cast<size_t>(static_cast<uint32_t>(slot)) - 1;
  }
  static uint32_t SlotHash(uint64_t slot) {
    return static_cast<uint32_t>(slot >> 32);
  }

  static std::unique_ptr<std::once_flag> PendingCopyOf(const Relation& o) {
    return o.membership_pending_ != nullptr && o.slots_.empty()
               ? std::make_unique<std::once_flag>()
               : nullptr;
  }
  /// Builds the deferred membership table; any number of concurrent
  /// readers may call it, one of them does the work.
  void BuildPendingMembership() const;
  /// The mutators' form: builds a deferred table and drops the flag.
  void MaterializeMembership() {
    if (membership_pending_ == nullptr) return;
    BuildPendingMembership();
    membership_pending_.reset();
  }

  /// Slot index holding `t`, or npos.
  size_t FindSlot(TupleView t, uint32_t hash) const;
  /// Grows the table (if needed) so one more row keeps load <= 1/2.
  void ReserveSlot();
  /// Rebuilds the table at `capacity` slots from the stored hashes.
  void Rehash(size_t capacity);
  /// Empties slot `i`, shifting later entries of its probe run back
  /// (no tombstones).
  void DeleteSlot(size_t i);
  void Reset() {
    type_.clear();
    rows_ = RowBuffer();
    slots_.clear();
    membership_pending_.reset();
  }

  RelationType type_;
  RowBuffer rows_;
  /// Open-addressing membership table; size 0 or a power of two.
  /// Mutable only so a deferred table can be built on a const probe.
  mutable std::vector<uint64_t> slots_;
  /// Non-null while the membership table is deferred; set and reset
  /// only by single-threaded operations (adoption, mutation, copy).
  std::unique_ptr<std::once_flag> membership_pending_;
  uint64_t version_ = 0;
  uint64_t uid_ = 0;
  uint64_t clear_generation_ = 0;
};

/// Projects `t` onto `cols` (0-based), preserving the column order given.
Tuple ProjectTuple(TupleView t, const std::vector<int>& cols);

}  // namespace idlog

#endif  // IDLOG_STORAGE_RELATION_H_
