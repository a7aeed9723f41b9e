#ifndef IDLOG_STORAGE_DATABASE_H_
#define IDLOG_STORAGE_DATABASE_H_

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "common/value.h"
#include "storage/relation.h"

namespace idlog {

/// A set of symbol ids kept as a dense bitmap — ids are interned
/// densely from 0 — iterated in ascending id order.
class SymbolSet {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SymbolId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = SymbolId;

    iterator(const std::vector<uint64_t>* words, size_t bit)
        : words_(words), bit_(bit) {
      Settle();
    }
    SymbolId operator*() const { return static_cast<SymbolId>(bit_); }
    iterator& operator++() {
      ++bit_;
      Settle();
      return *this;
    }
    bool operator==(const iterator& o) const { return bit_ == o.bit_; }
    bool operator!=(const iterator& o) const { return bit_ != o.bit_; }

   private:
    /// Advances to the first set bit at or after bit_ (or the end).
    void Settle() {
      const size_t end = words_->size() * 64;
      while (bit_ < end) {
        const uint64_t rest = (*words_)[bit_ / 64] >> (bit_ % 64);
        if (rest != 0) {
          bit_ += static_cast<size_t>(__builtin_ctzll(rest));
          return;
        }
        bit_ = (bit_ / 64 + 1) * 64;
      }
      bit_ = end;
    }

    const std::vector<uint64_t>* words_;
    size_t bit_;
  };

  /// Adds `id`; true if it was new.
  bool insert(SymbolId id) {
    const size_t word = id / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const uint64_t bit = uint64_t{1} << (id % 64);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    ++size_;
    return true;
  }
  size_t size() const { return size_; }
  iterator begin() const { return iterator(&words_, 0); }
  iterator end() const { return iterator(&words_, words_.size() * 64); }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

/// The one spelling rule for a constant written as text — CSV fields,
/// REPL facts, update-script atoms and the CLI's --why/--explain
/// arguments: a non-empty all-digit field is a sort-i number (leading
/// zeros allowed; ParseError past 2^63 - 1), any other field interns as
/// a sort-u symbol. Inline because the CSV loader calls it per field.
inline Status FieldToValue(std::string_view f, SymbolTable* symbols,
                           Value* out) {
  bool numeric = !f.empty();
  for (char c : f) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      numeric = false;
      break;
    }
  }
  if (!numeric) {
    *out = Value::Symbol(symbols->Intern(f));
    return Status::OK();
  }
  // Reject fields past int64 range (19 significant digits, compared
  // lexicographically at 19); what passes cannot overflow below.
  size_t nz = f.find_first_not_of('0');
  size_t digits = nz == std::string_view::npos ? 0 : f.size() - nz;
  if (digits > 19 ||
      (digits == 19 && f.compare(nz, 19, "9223372036854775807") > 0)) {
    return Status::ParseError("integer field '" + std::string(f) +
                              "' overflows 64-bit range");
  }
  uint64_t number = 0;
  for (char c : f) number = number * 10 + static_cast<uint64_t>(c - '0');
  *out = Value::Number(static_cast<int64_t>(number));
  return Status::OK();
}

/// An extensional database: named typed relations over a shared symbol
/// table, plus the explicit uninterpreted domain D of Section 2.1.
///
/// The u-domain is maintained as the set of all sort-u constants in any
/// stored tuple plus any constants registered explicitly (the paper's
/// database is a pair (u-domain=D; r1..rn) where D may exceed the active
/// domain).
class Database {
 public:
  explicit Database(SymbolTable* symbols) : symbols_(symbols) {}

  Database(const Database&) = default;
  Database& operator=(const Database&) = default;

  SymbolTable* symbols() const { return symbols_; }

  /// Creates an empty relation. Error if the name is already taken with
  /// a different type.
  Status CreateRelation(const std::string& name, RelationType type);

  bool HasRelation(const std::string& name) const {
    return relations_.count(name) > 0;
  }

  /// Returns the relation or NotFound.
  Result<const Relation*> Get(const std::string& name) const;
  Result<Relation*> GetMutable(const std::string& name);

  /// Adds a tuple, creating the relation from the tuple's sorts if it
  /// does not exist yet. Sort-u constants are added to the u-domain.
  Status AddTuple(const std::string& name, Tuple t) {
    return AddValues(name, t);
  }

  /// Adds one row of `n` text fields, creating the relation as
  /// AddTuple does. Each field converts by FieldToValue, in field
  /// order. Digits are parsed in place and the
  /// row is built on the stack, so a row costs no heap allocation of
  /// its own — the CSV loader calls this once per record.
  Status AddRow(const std::string& name, const std::string_view* fields,
                size_t n);
  /// Convenience over the view form.
  Status AddRow(const std::string& name, const std::vector<std::string>& fields);

  /// Removes one tuple from an existing relation; true if it was
  /// present. The u-domain is deliberately NOT shrunk: the paper's
  /// database pairs relations with a domain D that may exceed the
  /// active domain, and retractions never retroactively narrow D.
  Result<bool> EraseTuple(const std::string& name, const Tuple& t);

  /// Registers an extra u-domain constant not present in any tuple.
  void AddDomainConstant(SymbolId id) { u_domain_.insert(id); }

  /// The u-domain as a set of symbol ids, iterated in id order.
  const SymbolSet& u_domain() const { return u_domain_; }

  /// Relation names in creation order.
  const std::vector<std::string>& relation_names() const { return names_; }

 private:
  Status AddValues(const std::string& name, TupleView t);

  SymbolTable* symbols_;
  std::map<std::string, Relation> relations_;
  std::vector<std::string> names_;
  SymbolSet u_domain_;
};

}  // namespace idlog

#endif  // IDLOG_STORAGE_DATABASE_H_
