#ifndef IDLOG_COMMON_SYMBOL_TABLE_H_
#define IDLOG_COMMON_SYMBOL_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace idlog {

/// Identifier of an interned uninterpreted constant (sort-u value).
using SymbolId = uint32_t;

/// Interns uninterpreted-domain constants (the paper's universal domain U)
/// as dense integer ids so tuples are flat 64-bit arrays.
///
/// Not thread-safe; one table per engine / test.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = default;
  SymbolTable& operator=(const SymbolTable&) = default;

  /// Returns the id of `name`, interning it if new.
  SymbolId Intern(std::string_view name);

  /// Returns the id of `name` or kNoSymbol if it was never interned.
  SymbolId Lookup(std::string_view name) const;

  /// Returns the spelling of an interned symbol. `id` must be valid.
  const std::string& NameOf(SymbolId id) const { return names_[id]; }

  /// Number of interned symbols.
  size_t size() const { return names_.size(); }

  /// Approximate heap bytes of the intern pool: every spelling is
  /// stored twice (names_ vector and ids_ map key) plus per-symbol
  /// container overhead. A logical quantity — interning happens during
  /// parse/load, so it is identical across --jobs settings.
  uint64_t approx_bytes() const {
    uint64_t bytes = 0;
    for (const std::string& name : names_) {
      bytes += 2 * (name.size() + 1);
    }
    return bytes + static_cast<uint64_t>(names_.size()) * 64;
  }

  static constexpr SymbolId kNoSymbol = UINT32_MAX;

 private:
  /// Transparent hash: lookups by string_view build no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, SymbolId, NameHash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
};

}  // namespace idlog

#endif  // IDLOG_COMMON_SYMBOL_TABLE_H_
