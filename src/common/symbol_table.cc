#include "common/symbol_table.h"

#include <functional>
#include <stdexcept>

namespace idlog {

uint32_t SymbolTable::Hash(std::string_view name) {
  const uint64_t h = std::hash<std::string_view>{}(name);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t SymbolTable::Probe(std::string_view name, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0 || (SlotHash(slot) == hash && NameOf(SlotId(slot)) == name)) {
      return i;
    }
  }
}

void SymbolTable::Rehash(size_t capacity) {
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

SymbolId SymbolTable::Intern(std::string_view name) {
  const uint32_t hash = Hash(name);
  size_t i = 0;
  if (!slots_.empty()) {
    i = Probe(name, hash);
    if (slots_[i] != 0) return SlotId(slots_[i]);
  }
  if (size() >= kNoSymbol - 1 || arena_.size() + name.size() > UINT32_MAX) {
    throw std::length_error("symbol table exceeds its 32-bit id or arena range");
  }
  // Grow only for a new name, so the table size is a function of the
  // symbol count alone.
  if ((size() + 1) * 2 > slots_.size()) {
    Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    i = Probe(name, hash);
  }
  const SymbolId id = static_cast<SymbolId>(size());
  arena_.append(name);
  offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  slots_[i] = PackSlot(hash, id);
  return id;
}

SymbolId SymbolTable::Lookup(std::string_view name) const {
  if (slots_.empty()) return kNoSymbol;
  const uint64_t slot = slots_[Probe(name, Hash(name))];
  return slot == 0 ? kNoSymbol : SlotId(slot);
}

}  // namespace idlog
