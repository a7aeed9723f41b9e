#ifndef IDLOG_STORAGE_INDEX_H_
#define IDLOG_STORAGE_INDEX_H_

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "common/value.h"
#include "storage/relation.h"

namespace idlog {

/// Row positions of one index key, ascending: a chain through the
/// index's per-row successor array. Invalidated by the next Refresh()
/// or rebuild of the index it came from.
class PostingList {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = size_t;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = size_t;

    iterator(const uint32_t* next, uint32_t cur, size_t base)
        : next_(next), cur_(cur), base_(base) {}
    size_t operator*() const { return base_ + cur_ - 1; }
    iterator& operator++() {
      cur_ = next_[cur_ - 1];
      return *this;
    }
    bool operator==(const iterator& o) const { return cur_ == o.cur_; }
    bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

   private:
    const uint32_t* next_;
    uint32_t cur_;  ///< Posting (row - base) + 1; 0 ends the chain.
    size_t base_;
  };

  PostingList() = default;
  PostingList(const uint32_t* next, uint32_t first, uint32_t count,
              size_t base)
      : next_(next), first_(first), count_(count), base_(base) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  iterator begin() const { return iterator(next_, first_, base_); }
  iterator end() const { return iterator(next_, 0, base_); }

 private:
  const uint32_t* next_ = nullptr;
  uint32_t first_ = 0;
  uint32_t count_ = 0;
  size_t base_ = 0;  ///< Row of posting 1 (the index's first row).
};

/// A hash index over a column subset of a Relation. Maps a key (the
/// projection of a tuple onto `cols`) to the row positions holding it.
/// It covers the rows from `first_row` on: 0 for a relation's cached
/// indexes, the start of the range for a semi-naive delta's per-round
/// index (a delta is the tail a relation grew by).
///
/// Layout: an open-addressing key table (linear probing, doubling at
/// load 1/2) whose entries hold the key hash, the first and last row of
/// the key's posting chain and its length; plus one successor entry per
/// indexed row. A key is never stored — probes compare against the
/// projection of the key's first row in the relation — so an index adds
/// no per-key heap allocation.
class ColumnIndex {
 public:
  ColumnIndex(const Relation* relation, std::vector<int> cols,
              size_t first_row = 0);

  /// Rebuilds if the relation changed since construction/last refresh.
  void Refresh();

  /// True when the index matches the relation's current contents (same
  /// uid and version), i.e. Lookup() is safe without a Refresh().
  bool fresh() const;

  /// Returns the row positions matching `key` (values in `cols` order)
  /// in ascending order; empty if none.
  PostingList Lookup(TupleView key) const;

  const std::vector<int>& cols() const { return cols_; }

  /// Storage accounting (obs/dbstats). Entry counts reflect the last
  /// Build/Refresh, like Lookup() results.
  size_t num_keys() const { return num_keys_; }
  /// One posting per indexed row.
  size_t num_entries() const { return next_.size(); }
  /// Heap bytes of the layout above: the key table (whose size is a
  /// function of num_keys alone, since it only grows by doubling from
  /// kMinKeySlots) plus 4 bytes of successor per posting.
  uint64_t approx_bytes() const {
    return static_cast<uint64_t>(keys_.size()) * sizeof(KeySlot) +
           static_cast<uint64_t>(next_.size()) * sizeof(uint32_t);
  }

 private:
  /// One key-table entry; `first` == 0 marks an empty slot.
  struct KeySlot {
    uint32_t hash;
    uint32_t first;  ///< First row + 1.
    uint32_t last;   ///< Last row + 1 (the chain's append point).
    uint32_t count;
  };
  static constexpr size_t kMinKeySlots = 8;

  void Build();
  /// Indexes rows [first_row_ + next_.size(), relation size).
  void AddRows();
  bool KeyMatches(const KeySlot& slot, TupleView key) const;
  void GrowKeys();

  const Relation* relation_;
  std::vector<int> cols_;
  size_t first_row_ = 0;
  uint64_t built_version_ = 0;
  uint64_t built_uid_ = 0;
  uint64_t built_clear_generation_ = 0;
  std::vector<KeySlot> keys_;
  size_t num_keys_ = 0;
  /// next_[p] = successor posting + 1 of posting p (row first_row_ + p)
  /// in its key's chain (0 = end). Key-table entries hold postings + 1.
  std::vector<uint32_t> next_;
};

/// Caches ColumnIndexes per column subset for one Relation.
class IndexCache {
 public:
  explicit IndexCache(const Relation* relation) : relation_(relation) {}

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// Returns a fresh index on `cols` (built or refreshed on demand).
  /// When `rebuilt` is non-null it is set to true if the call did
  /// physical work — constructed the index or refreshed a stale one —
  /// and left untouched otherwise (callers initialize it false), which
  /// is what backs the index_builds/index_cache_misses counters.
  const ColumnIndex& Get(const std::vector<int>& cols,
                         bool* rebuilt = nullptr);

  /// Read-only lookup for concurrent readers: the index on `cols` if it
  /// exists and is fresh for the relation's current contents, nullptr
  /// otherwise. Never builds or refreshes, so any number of threads may
  /// call it while no thread mutates the cache. Callers falling back on
  /// nullptr must verify key columns themselves.
  const ColumnIndex* FindFresh(const std::vector<int>& cols) const;

  /// The cached indexes, keyed by column subset (obs/dbstats walks
  /// these for per-index entry counts and byte attribution).
  const std::map<std::vector<int>, ColumnIndex>& indexes() const {
    return indexes_;
  }
  size_t size() const { return indexes_.size(); }

 private:
  const Relation* relation_;
  std::map<std::vector<int>, ColumnIndex> indexes_;
};

}  // namespace idlog

#endif  // IDLOG_STORAGE_INDEX_H_
