#ifndef IDLOG_COMMON_SYMBOL_TABLE_H_
#define IDLOG_COMMON_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace idlog {

/// Identifier of an interned uninterpreted constant (sort-u value).
using SymbolId = uint32_t;

/// Interns uninterpreted-domain constants (the paper's universal domain U)
/// as dense integer ids so tuples are flat 64-bit arrays.
///
/// Storage is flat, like Relation's: every spelling is copied once into
/// one arena string, back to back, with symbol `id` spanning
/// [offsets_[id], offsets_[id + 1]). Lookup is an open-addressing
/// (linear probing) table whose 8-byte slots pack the low 32 bits of the
/// spelling hash (probe filter and home position) with id + 1 (0 marks
/// an empty slot); the table doubles at load 1/2. Ids are dense and in
/// first-seen order, so interning order alone fixes symbol order.
///
/// Not thread-safe; one table per engine / test.
class SymbolTable {
 public:
  SymbolTable() = default;

  /// Returns the id of `name`, interning it if new.
  SymbolId Intern(std::string_view name);

  /// Returns the id of `name` or kNoSymbol if it was never interned.
  SymbolId Lookup(std::string_view name) const;

  /// Returns the spelling of an interned symbol. `id` must be valid.
  /// The view points into the arena: like any string_view it is
  /// invalidated by the next Intern of a new name.
  std::string_view NameOf(SymbolId id) const {
    return std::string_view(arena_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

  /// Number of interned symbols.
  size_t size() const { return offsets_.size() - 1; }

  /// Approximate heap bytes of the intern pool: the spelling arena,
  /// 4 bytes per arena offset (symbols + 1) and 8 per lookup slot. A
  /// logical quantity — interning happens during parse/load, so it is
  /// identical across --jobs settings.
  uint64_t approx_bytes() const {
    return arena_.size() + 4 * static_cast<uint64_t>(offsets_.size()) +
           8 * static_cast<uint64_t>(slots_.size());
  }

  /// Heap bytes actually held (capacities) — tests compare
  /// approx_bytes against it.
  size_t heap_bytes() const {
    return arena_.capacity() + offsets_.capacity() * sizeof(uint32_t) +
           slots_.capacity() * sizeof(uint64_t);
  }

  static constexpr SymbolId kNoSymbol = UINT32_MAX;

 private:
  static constexpr size_t kMinSlots = 16;

  static uint32_t Hash(std::string_view name);
  static uint64_t PackSlot(uint32_t hash, SymbolId id) {
    return (uint64_t{hash} << 32) | (uint64_t{id} + 1);
  }
  static SymbolId SlotId(uint64_t slot) {
    return static_cast<SymbolId>(static_cast<uint32_t>(slot) - 1);
  }
  static uint32_t SlotHash(uint64_t slot) {
    return static_cast<uint32_t>(slot >> 32);
  }

  /// Slot index holding `name` or, when absent, the empty slot where
  /// its probe run ends. The table must be non-empty.
  size_t Probe(std::string_view name, uint32_t hash) const;
  /// Rebuilds the table at `capacity` slots from the stored hashes.
  void Rehash(size_t capacity);

  std::string arena_;
  std::vector<uint32_t> offsets_{0};
  /// Open-addressing lookup table; size 0 or a power of two.
  std::vector<uint64_t> slots_;
};

}  // namespace idlog

#endif  // IDLOG_COMMON_SYMBOL_TABLE_H_
