#include "test_util.h"

#include <algorithm>
#include <cctype>

#include "common/str_util.h"

namespace idlog {
namespace testing_util {

Tuple T(SymbolTable* symbols, const std::vector<std::string>& fields) {
  Tuple t;
  for (const std::string& f : fields) {
    bool numeric = !f.empty();
    for (char c : f) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        numeric = false;
        break;
      }
    }
    if (numeric) {
      t.push_back(Value::Number(std::stoll(f)));
    } else {
      t.push_back(Value::Symbol(symbols->Intern(f)));
    }
  }
  return t;
}

std::vector<std::string> Rows(const Relation& rel,
                              const SymbolTable& symbols) {
  std::vector<std::string> rows;
  for (const Tuple& t : rel.SortedTuples()) {
    rows.push_back(TupleToString(t, symbols));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string Dump(const Relation& rel, const SymbolTable& symbols) {
  std::string out;
  for (const std::string& row : Rows(rel, symbols)) {
    out += row;
    out += "\n";
  }
  return out;
}

std::string CorpusGenerator::Generate() {
  std::string text;
  std::vector<std::pair<std::string, int>> lower = {{"e0", 2}, {"e1", 1}};
  int layers = 2 + static_cast<int>(rng_() % 3);
  for (int layer = 0; layer < layers; ++layer) {
    std::string p = Numbered("p", layer);
    std::string q = Numbered("q", layer);
    int arity = 2;
    // Negation (and ID-literals, whose base must be complete before
    // the stratum) may only reach strictly lower layers — predicates
    // added for *this* layer share p's stratum.
    const std::vector<std::pair<std::string, int>> strictly_lower = lower;
    // Base rules (1-2) from lower layers.
    int bases = 1 + static_cast<int>(rng_() % 2);
    for (int b = 0; b < bases; ++b) {
      text += BaseRule(p, arity, lower);
    }
    switch (rng_() % 3) {
      case 0:  // direct recursion
        text += p + "(X, Z) :- " + p + "(X, Y), e0(Y, Z).\n";
        break;
      case 1:  // mutual recursion: p and q share a stratum
        text += q + "(X, Y) :- " + p + "(X, Y).\n";
        text += p + "(X, Z) :- " + q + "(X, Y), e0(Y, Z).\n";
        lower.push_back({q, arity});
        break;
      default:  // non-recursive layer
        break;
    }
    // Optional negation of a lower-layer predicate.
    if (layer > 0 && rng_() % 2 == 0) {
      auto [neg, neg_arity] =
          strictly_lower[rng_() % strictly_lower.size()];
      if (neg_arity == 2) {
        text += p + "(X, X) :- e1(X), not " + neg + "(X, X).\n";
      } else {
        text += p + "(X, X) :- e1(X), not " + neg + "(X).\n";
      }
    }
    // Optional ID-literal over a lower-layer predicate.
    if (rng_() % 3 == 0) {
      auto [base, base_arity] =
          strictly_lower[rng_() % strictly_lower.size()];
      if (base_arity == 2) {
        text += p + "(A, B) :- " + base + "[1](A, B, 0).\n";
      }
    }
    lower.push_back({p, arity});
    queries_.push_back(p);
  }
  return text;
}

std::string CorpusGenerator::BaseRule(
    const std::string& head, int arity,
    const std::vector<std::pair<std::string, int>>& lower) {
  auto [b, b_arity] = lower[rng_() % lower.size()];
  if (b_arity == 2) {
    return head + "(X, Y) :- " + b + "(X, Y).\n";
  }
  (void)arity;
  return head + "(X, X) :- " + b + "(X).\n";
}

std::vector<std::vector<std::string>> CorpusEdb(uint64_t seed) {
  std::vector<std::vector<std::string>> edb;
  std::mt19937_64 rng(seed * 31 + 7);
  for (int i = 0; i < 14; ++i) {
    edb.push_back({"e0", Numbered("c", rng() % 6),
                   Numbered("c", rng() % 6)});
  }
  for (int i = 0; i < 5; ++i) {
    edb.push_back({"e1", Numbered("c", rng() % 6)});
  }
  return edb;
}

}  // namespace testing_util
}  // namespace idlog
