#include "common/value.h"

namespace idlog {

const char* SortName(Sort sort) { return sort == Sort::kU ? "u" : "i"; }

std::string Value::ToString(const SymbolTable& symbols) const {
  if (is_number()) return std::to_string(number());
  if (symbol() < symbols.size()) return std::string(symbols.NameOf(symbol()));
  return "<sym#" + std::to_string(symbol()) + ">";
}

std::string TupleToString(TupleView t, const SymbolTable& symbols) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += t[i].ToString(symbols);
  }
  out += ")";
  return out;
}

RelationType TypeFromString(std::string_view bits) {
  RelationType type;
  type.reserve(bits.size());
  for (char c : bits) type.push_back(c == '1' ? Sort::kI : Sort::kU);
  return type;
}

std::string TypeToString(const RelationType& type) {
  std::string out;
  out.reserve(type.size());
  for (Sort s : type) out += (s == Sort::kI ? '1' : '0');
  return out;
}

}  // namespace idlog
