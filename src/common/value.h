#ifndef IDLOG_COMMON_VALUE_H_
#define IDLOG_COMMON_VALUE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/symbol_table.h"

namespace idlog {

/// The paper's two sorts: `u` (uninterpreted constants drawn from the
/// universal domain U) and `i` (the interpreted domain, natural numbers).
/// Relation types are written as 0/1 strings in the paper; kU==0, kI==1.
enum class Sort : uint8_t {
  kU = 0,  ///< Uninterpreted constant (interned symbol).
  kI = 1,  ///< Natural number.
};

/// Returns "u" or "i".
const char* SortName(Sort sort);

/// A single two-sorted value, packed into 8 bytes: the top bit is the
/// sort (0 = u, 1 = i) and the low 63 bits the payload. Sort-u values
/// carry a SymbolId into a SymbolTable; sort-i values carry a natural
/// number in [0, 2^63 - 1]. The packing is lossless because numbers are
/// never negative (builtins cap their results at INT64_MAX / 2, and the
/// lexer, CSV loader, snapshot and WAL decoders reject anything outside
/// the range).
///
/// Ordering compares sort first (u < i), then payload, which is the
/// unsigned order of the packed word; for sort-u values this is
/// interning order, which is arbitrary but stable within a run — exactly
/// the "some order, not a semantic one" the genericity condition of
/// Section 3.1 requires us not to depend on.
class Value {
 public:
  static constexpr uint64_t kSortBit = uint64_t{1} << 63;
  static constexpr uint64_t kPayloadMask = kSortBit - 1;
  /// Largest representable sort-i payload (2^63 - 1).
  static constexpr int64_t kMaxNumber = INT64_MAX;

  Value() : bits_(0) {}

  static Value Symbol(SymbolId id) { return Value(uint64_t{id}); }
  /// `n` must be a natural number (n >= 0).
  static Value Number(int64_t n) {
    assert(n >= 0);
    return Value(kSortBit | static_cast<uint64_t>(n));
  }

  Sort sort() const { return static_cast<Sort>(bits_ >> 63); }
  bool is_symbol() const { return (bits_ & kSortBit) == 0; }
  bool is_number() const { return (bits_ & kSortBit) != 0; }

  /// SymbolId payload; only meaningful when is_symbol().
  SymbolId symbol() const { return static_cast<SymbolId>(bits_); }
  /// Numeric payload; only meaningful when is_number().
  int64_t number() const { return static_cast<int64_t>(bits_ & kPayloadMask); }

  /// The packed word (sort bit + payload); equal values have equal bits.
  uint64_t bits() const { return bits_; }

  bool operator==(const Value& o) const { return bits_ == o.bits_; }
  bool operator!=(const Value& o) const { return bits_ != o.bits_; }
  bool operator<(const Value& o) const { return bits_ < o.bits_; }

  /// Renders the value using `symbols` for sort-u spellings.
  std::string ToString(const SymbolTable& symbols) const;

  size_t Hash() const {
    uint64_t h = (bits_ & kPayloadMask) * 0x9E3779B97F4A7C15ull;
    h ^= (bits_ >> 63) << 62;
    return static_cast<size_t>(h ^ (h >> 29));
  }

 private:
  explicit Value(uint64_t bits) : bits_(bits) {}

  uint64_t bits_;
};

static_assert(sizeof(Value) == 8, "Value must pack into one word");

/// An owned database tuple: a fixed-arity sequence of values. Stored
/// relations keep their rows flat (see Relation) and hand out
/// TupleViews; Tuple is the currency at API boundaries.
using Tuple = std::vector<Value>;

/// A read-only view of `size()` consecutive values — one row of a flat
/// relation or row buffer, or the contents of a Tuple. Like
/// std::string_view it does not own its values: it is valid only while
/// the storage it points into is neither destroyed nor grown.
class TupleView {
 public:
  TupleView() = default;
  TupleView(const Value* data, size_t size) : data_(data), size_(size) {}
  // NOLINTNEXTLINE(google-explicit-constructor): a Tuple is a view.
  TupleView(const Tuple& t) : data_(t.data()), size_(t.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Value* data() const { return data_; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }
  const Value& operator[](size_t i) const { return data_[i]; }
  const Value& back() const { return data_[size_ - 1]; }

  /// Copies the viewed values into an owned Tuple.
  Tuple ToTuple() const { return Tuple(begin(), end()); }
  // NOLINTNEXTLINE(google-explicit-constructor): copy-out at API edges.
  operator Tuple() const { return ToTuple(); }

  friend bool operator==(TupleView a, TupleView b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(TupleView a, TupleView b) { return !(a == b); }

 private:
  const Value* data_ = nullptr;
  size_t size_ = 0;
};

/// Combines hashes (boost::hash_combine recipe).
inline size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9E3779B9u + (seed << 6) + (seed >> 2));
}

/// Hash functor for tuples, for use with unordered containers.
struct TupleHash {
  size_t operator()(TupleView t) const {
    size_t seed = t.size();
    for (const Value& v : t) seed = HashCombine(seed, v.Hash());
    return seed;
  }
};

/// The row hash of the flat storage layer (relation membership and
/// column-index key tables): values are folded in order, so hashing a
/// row's projection column by column equals hashing the projected key.
class RowHasher {
 public:
  void Add(Value v) {
    h_ = ((h_ << 5 | h_ >> 59) ^ v.bits()) * 0x9E3779B97F4A7C15ull;
  }
  /// Final avalanche (murmur3 fmix64); the low 32 bits are what the
  /// open-addressing tables keep.
  uint32_t Finish() const {
    uint64_t h = h_;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ull;
    h ^= h >> 33;
    return static_cast<uint32_t>(h);
  }

 private:
  uint64_t h_ = 0x243F6A8885A308D3ull;
};

/// RowHasher over `n` consecutive values.
inline uint32_t HashRow(const Value* values, size_t n) {
  RowHasher h;
  for (size_t i = 0; i < n; ++i) h.Add(values[i]);
  return h.Finish();
}

/// Renders "(v1, v2, ...)".
std::string TupleToString(TupleView t, const SymbolTable& symbols);

/// A relation type: the sort of each column (the paper's 0/1 strings).
using RelationType = std::vector<Sort>;

/// Parses a 0/1 string such as "001" into a RelationType.
RelationType TypeFromString(std::string_view bits);

/// Renders a RelationType back into a 0/1 string.
std::string TypeToString(const RelationType& type);

}  // namespace idlog

#endif  // IDLOG_COMMON_VALUE_H_
