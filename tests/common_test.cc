#include <gtest/gtest.h>

#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"
#include "common/symbol_table.h"
#include "common/value.h"

namespace idlog {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kParseError, StatusCode::kTypeError,
        StatusCode::kUnsafeProgram, StatusCode::kNotStratified,
        StatusCode::kUnsupported, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.status(), Status::OK());
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MacroPropagation) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    IDLOG_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInternal);
}

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable t;
  SymbolId a = t.Intern("alpha");
  SymbolId b = t.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Intern("alpha"), a);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.NameOf(a), "alpha");
  EXPECT_EQ(t.NameOf(b), "beta");
}

TEST(SymbolTable, LookupMissing) {
  SymbolTable t;
  EXPECT_EQ(t.Lookup("ghost"), SymbolTable::kNoSymbol);
  t.Intern("ghost");
  EXPECT_NE(t.Lookup("ghost"), SymbolTable::kNoSymbol);
}

// Differential: the arena/open-addressing table against a std::
// unordered_map model, across many growths of both the slot table and
// the arena.
TEST(SymbolTableDifferential, MatchesHashMapModel) {
  std::mt19937 rng(13);
  SymbolTable table;
  std::unordered_map<std::string, SymbolId> model;
  std::vector<std::string> names;  // by id
  auto check_lookups = [&](const SymbolTable& t,
                           const std::vector<std::string>& by_id) {
    ASSERT_EQ(t.size(), by_id.size());
    for (SymbolId id = 0; id < by_id.size(); ++id) {
      ASSERT_EQ(t.NameOf(id), by_id[id]) << id;
      ASSERT_EQ(t.Lookup(by_id[id]), id) << by_id[id];
    }
  };
  // Names of varied length that share prefixes, so probes meet equal
  // lengths, prefixes and extensions of each other.
  auto random_name = [&]() {
    std::string name = Numbered("n", rng() % 150000);
    if (rng() % 4 == 0) name += std::string(rng() % 40, 'z');
    if (rng() % 8 == 0) name.pop_back();
    return name;
  };
  SymbolTable copy;
  std::vector<std::string> copy_names;
  for (int step = 0; step < 250000; ++step) {
    // The empty name is interned once, mid-growth.
    const bool empty = step == 777;
    const std::string name = empty ? std::string() : random_name();
    if (!empty && rng() % 5 == 0) {
      auto it = model.find(name);
      const SymbolId want =
          it == model.end() ? SymbolTable::kNoSymbol : it->second;
      ASSERT_EQ(table.Lookup(name), want) << name;
      continue;
    }
    auto [it, fresh] =
        model.emplace(name, static_cast<SymbolId>(names.size()));
    if (fresh) names.push_back(name);
    ASSERT_EQ(table.Intern(name), it->second) << name;
    ASSERT_EQ(table.size(), names.size());
    if (step == 60000) {
      copy = table;
      copy_names = names;
    }
  }
  ASSERT_GE(names.size(), 100000u);
  check_lookups(table, names);
  EXPECT_EQ(table.Lookup(""), model.at(""));
  EXPECT_EQ(table.NameOf(model.at("")), "");
  for (int miss = 0; miss < 1000; ++miss) {
    const std::string ghost = Numbered("ghost", miss);
    EXPECT_EQ(table.Lookup(ghost), SymbolTable::kNoSymbol);
  }

  // The copy is independent: it kept its own contents, and interning
  // into it does not touch the original.
  check_lookups(copy, copy_names);
  const SymbolId only_in_copy = copy.Intern("only-in-copy");
  EXPECT_EQ(only_in_copy, copy_names.size());
  EXPECT_EQ(table.Lookup("only-in-copy"), SymbolTable::kNoSymbol);
  EXPECT_EQ(table.size(), names.size());
  EXPECT_EQ(copy.Lookup(names.back()), SymbolTable::kNoSymbol);
}

TEST(Value, SortsAndPayloads) {
  SymbolTable t;
  Value sym = Value::Symbol(t.Intern("x"));
  Value num = Value::Number(12);
  EXPECT_TRUE(sym.is_symbol());
  EXPECT_FALSE(sym.is_number());
  EXPECT_TRUE(num.is_number());
  EXPECT_EQ(num.number(), 12);
  EXPECT_EQ(sym.ToString(t), "x");
  EXPECT_EQ(num.ToString(t), "12");
}

TEST(Value, EqualityDistinguishesSorts) {
  // The symbol with id 3 and the number 3 are different values.
  Value sym = Value::Symbol(3);
  Value num = Value::Number(3);
  EXPECT_NE(sym, num);
  EXPECT_NE(sym.Hash(), num.Hash());
}

TEST(Value, OrderingIsTotalWithinSort) {
  EXPECT_LT(Value::Number(1), Value::Number(2));
  EXPECT_LT(Value::Symbol(0), Value::Symbol(1));
  // u sorts before i by convention.
  EXPECT_LT(Value::Symbol(99), Value::Number(0));
}

TEST(Tuple, HashTreatsContentNotIdentity) {
  TupleHash h;
  Tuple a = {Value::Number(1), Value::Symbol(2)};
  Tuple b = {Value::Number(1), Value::Symbol(2)};
  Tuple c = {Value::Symbol(2), Value::Number(1)};
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // order matters
}

TEST(RelationType, RoundTripsThroughString) {
  RelationType t = TypeFromString("0110");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], Sort::kU);
  EXPECT_EQ(t[1], Sort::kI);
  EXPECT_EQ(TypeToString(t), "0110");
}

TEST(RelationType, TupleToStringFormat) {
  SymbolTable t;
  Tuple tup = {Value::Symbol(t.Intern("a")), Value::Number(5)};
  EXPECT_EQ(TupleToString(tup, t), "(a, 5)");
  EXPECT_EQ(TupleToString({}, t), "()");
}

}  // namespace
}  // namespace idlog
