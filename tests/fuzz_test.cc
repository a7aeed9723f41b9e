// Randomized properties:
//  - generated safe stratified programs evaluate to a fixpoint model
//    (VerifyModel), identically under naive/semi-naive and with the
//    tid pushdown on/off;
//  - a tiny independent brute-force evaluator agrees with the engine on
//    positive Datalog;
//  - the lexer/parser never crash or hang on random input and always
//    return a Status.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "parser/parser.h"
#include "test_util.h"

namespace idlog {
namespace {

// ---------------------------------------------------------------------
// Random safe stratified program generator.
//
// Layered construction: layer 0 = EDB e0(u,u), e1(u); each later layer
// defines one predicate with 1-3 rules whose bodies use positive
// literals from lower layers (sharing variables), optional negation of
// a lower-layer predicate over bound variables, and optional ID-atoms
// over lower-layer predicates with a bounded tid. Heads project bound
// variables, so every rule is safe by construction, and negation/ID
// edges only point downward, so the program is stratified.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::string text;
    std::vector<std::pair<std::string, int>> available = {{"e0", 2},
                                                          {"e1", 1}};
    int layers = 2 + static_cast<int>(rng_() % 3);
    for (int layer = 0; layer < layers; ++layer) {
      std::string pred = Numbered("p", layer);
      int arity = 1 + static_cast<int>(rng_() % 2);
      int rules = 1 + static_cast<int>(rng_() % 2);
      for (int r = 0; r < rules; ++r) {
        text += GenerateRule(pred, arity, available);
      }
      available.push_back({pred, arity});
    }
    last_query_ = available.back().first;
    return text;
  }

  const std::string& last_query() const { return last_query_; }

 private:
  std::pair<std::string, int> Pick(
      const std::vector<std::pair<std::string, int>>& from) {
    return from[rng_() % from.size()];
  }

  std::string Var(int i) { return Numbered("V", i); }

  std::string GenerateRule(
      const std::string& head, int head_arity,
      const std::vector<std::pair<std::string, int>>& available) {
    int var_count = 0;
    std::vector<std::string> bound;
    std::string body;

    int positives = 1 + static_cast<int>(rng_() % 2);
    for (int i = 0; i < positives; ++i) {
      auto [pred, arity] = Pick(available);
      std::string lit = pred + "(";
      for (int a = 0; a < arity; ++a) {
        if (a > 0) lit += ", ";
        // Reuse a bound variable half the time to create joins.
        if (!bound.empty() && rng_() % 2 == 0) {
          lit += bound[rng_() % bound.size()];
        } else {
          std::string v = Var(var_count++);
          bound.push_back(v);
          lit += v;
        }
      }
      lit += ")";
      if (!body.empty()) body += ", ";
      body += lit;
    }

    // Optional ID-atom over a lower predicate, tid always bounded.
    if (rng_() % 3 == 0) {
      auto [pred, arity] = Pick(available);
      int group_col = arity > 1 ? static_cast<int>(rng_() % arity) + 1 : 1;
      std::string lit = pred + "[" + std::to_string(group_col) + "](";
      for (int a = 0; a < arity; ++a) {
        std::string v = Var(var_count++);
        bound.push_back(v);
        lit += v + ", ";
      }
      std::string tid = Var(var_count++);
      lit += tid + ")";
      body += (body.empty() ? "" : ", ") + lit + ", " + tid + " < " +
              std::to_string(1 + rng_() % 2);
      // tid variables are sort i; keep them out of u-sorted heads.
    }

    // Optional negation over bound u-variables.
    if (!bound.empty() && rng_() % 3 == 0) {
      auto [pred, arity] = Pick(available);
      std::string lit = "not " + pred + "(";
      for (int a = 0; a < arity; ++a) {
        if (a > 0) lit += ", ";
        lit += bound[rng_() % bound.size()];
      }
      lit += ")";
      body += ", " + lit;
    }

    std::string head_text = head + "(";
    for (int a = 0; a < head_arity; ++a) {
      if (a > 0) head_text += ", ";
      head_text += bound[rng_() % bound.size()];
    }
    head_text += ")";
    return head_text + " :- " + body + ".\n";
  }

  std::mt19937_64 rng_;
  std::string last_query_;
};

class RandomPrograms : public ::testing::TestWithParam<int> {};

TEST_P(RandomPrograms, ModelAndModeInvariants) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGenerator gen(seed);
  std::string text = gen.Generate();
  SCOPED_TRACE(text);

  auto build = [&](bool seminaive, bool pushdown) {
    auto engine = std::make_unique<IdlogEngine>();
    std::mt19937_64 rng(seed * 17 + 1);
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE(engine
                      ->AddRow("e0", {Numbered("c", rng() % 5),
                                      Numbered("c", rng() % 5)})
                      .ok());
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(
          engine->AddRow("e1", {Numbered("c", rng() % 5)}).ok());
    }
    engine->SetSeminaive(seminaive);
    engine->SetTidBoundPushdown(pushdown);
    Status st = engine->LoadProgramText(text);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return engine;
  };

  auto reference = build(true, true);
  auto query = gen.last_query();
  auto ref_result = reference->Query(query);
  ASSERT_TRUE(ref_result.ok()) << ref_result.status().ToString();
  std::string ref_dump =
      testing_util::Dump(**ref_result, reference->symbols());

  // Soundness: the computed state is a fixpoint model.
  auto verified = reference->VerifyModel();
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_TRUE(*verified);

  // Mode invariance (identity assigner => same tid choices).
  for (auto [seminaive, pushdown] :
       {std::pair<bool, bool>{false, true}, {true, false},
        {false, false}}) {
    auto other = build(seminaive, pushdown);
    auto result = other->Query(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(testing_util::Dump(**result, other->symbols()), ref_dump)
        << "seminaive=" << seminaive << " pushdown=" << pushdown;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(0, 100));

// Every generated program re-run under a tight resource governor:
// each run must finish promptly with either OK or a structured
// ResourceExhausted — any hang or other failure mode is a bug. This
// turns would-be timeouts in the suite into ordinary test failures.
class GovernedRandomPrograms : public ::testing::TestWithParam<int> {};

TEST_P(GovernedRandomPrograms, TightBudgetsTerminateCleanly) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGenerator gen(seed);
  std::string text = gen.Generate();
  SCOPED_TRACE(text);

  IdlogEngine engine;
  std::mt19937_64 rng(seed * 17 + 1);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(engine
                    .AddRow("e0", {Numbered("c", rng() % 5),
                                   Numbered("c", rng() % 5)})
                    .ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        engine.AddRow("e1", {Numbered("c", rng() % 5)}).ok());
  }
  ASSERT_TRUE(engine.LoadProgramText(text).ok());

  EvalLimits limits;
  limits.timeout_ms = 2000;
  limits.max_tuples = 5000;
  limits.max_memory_bytes = 4 * 1024 * 1024;
  engine.SetLimits(limits);
  Status st = engine.Run();
  EXPECT_TRUE(st.ok() || st.code() == StatusCode::kResourceExhausted)
      << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GovernedRandomPrograms,
                         ::testing::Range(0, 50));

// ---------------------------------------------------------------------
// Brute-force oracle for positive Datalog: repeat "apply every rule on
// every substitution" until fixpoint, with no indexes, plans, deltas or
// strata. Dumb on purpose.
std::set<Tuple> OracleEval(
    const std::vector<std::vector<std::vector<std::string>>>& rules,
    // rules: each rule is a list of atoms; atom = [pred, term...];
    // first atom is the head. Terms starting uppercase are variables.
    const std::map<std::string, std::set<Tuple>>& edb,
    const std::string& query, SymbolTable* symbols) {
  std::map<std::string, std::set<Tuple>> state = edb;
  auto term_is_var = [](const std::string& t) {
    return !t.empty() && (std::isupper(static_cast<unsigned char>(t[0])));
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& rule : rules) {
      // Enumerate substitutions by nested scans.
      std::vector<std::map<std::string, Value>> partial = {{}};
      for (size_t i = 1; i < rule.size(); ++i) {
        const auto& atom = rule[i];
        std::vector<std::map<std::string, Value>> next;
        for (const auto& binding : partial) {
          for (const Tuple& t : state[atom[0]]) {
            if (t.size() + 1 != atom.size()) continue;
            std::map<std::string, Value> extended = binding;
            bool ok = true;
            for (size_t a = 1; a < atom.size(); ++a) {
              const std::string& term = atom[a];
              Value v = t[a - 1];
              if (term_is_var(term)) {
                auto it = extended.find(term);
                if (it == extended.end()) {
                  extended[term] = v;
                } else if (it->second != v) {
                  ok = false;
                  break;
                }
              } else if (Value::Symbol(symbols->Intern(term)) != v) {
                ok = false;
                break;
              }
            }
            if (ok) next.push_back(std::move(extended));
          }
        }
        partial = std::move(next);
      }
      for (const auto& binding : partial) {
        Tuple head;
        for (size_t a = 1; a < rule[0].size(); ++a) {
          const std::string& term = rule[0][a];
          head.push_back(term_is_var(term)
                             ? binding.at(term)
                             : Value::Symbol(symbols->Intern(term)));
        }
        if (state[rule[0][0]].insert(head).second) changed = true;
      }
    }
  }
  return state[query];
}

TEST(Oracle, EngineMatchesBruteForceOnPositiveDatalog) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng(seed);
    IdlogEngine engine;
    std::map<std::string, std::set<Tuple>> edb;
    for (int i = 0; i < 15; ++i) {
      std::string a = Numbered("c", rng() % 6);
      std::string b = Numbered("c", rng() % 6);
      ASSERT_TRUE(engine.AddRow("edge", {a, b}).ok());
      edb["edge"].insert({Value::Symbol(engine.symbols().Intern(a)),
                          Value::Symbol(engine.symbols().Intern(b))});
    }
    ASSERT_TRUE(engine
                    .LoadProgramText(
                        "tc(X, Y) :- edge(X, Y)."
                        "tc(X, Z) :- tc(X, Y), edge(Y, Z)."
                        "both(X, Y) :- tc(X, Y), tc(Y, X).")
                    .ok());
    std::vector<std::vector<std::vector<std::string>>> rules = {
        {{"tc", "X", "Y"}, {"edge", "X", "Y"}},
        {{"tc", "X", "Z"}, {"tc", "X", "Y"}, {"edge", "Y", "Z"}},
        {{"both", "X", "Y"}, {"tc", "X", "Y"}, {"tc", "Y", "X"}},
    };
    for (const char* query : {"tc", "both"}) {
      auto engine_result = engine.Query(query);
      ASSERT_TRUE(engine_result.ok());
      std::set<Tuple> oracle =
          OracleEval(rules, edb, query, &engine.symbols());
      std::set<Tuple> got((*engine_result)->tuples().begin(),
                          (*engine_result)->tuples().end());
      EXPECT_EQ(got, oracle) << "seed " << seed << " query " << query;
    }
  }
}

// ---------------------------------------------------------------------
// Parser robustness: random garbage and random token soup must produce
// a Status (usually ParseError) without crashing; valid-ish fragments
// must round-trip through error handling repeatedly.
TEST(ParserFuzz, RandomBytesNeverCrash) {
  std::mt19937_64 rng(2026);
  SymbolTable s;
  for (int round = 0; round < 300; ++round) {
    std::string input;
    size_t len = rng() % 60;
    for (size_t i = 0; i < len; ++i) {
      input += static_cast<char>(32 + rng() % 95);
    }
    auto result = ParseProgram(input, &s);
    // Either parses or reports an error; must not crash or hang.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(ParserFuzz, TokenSoupNeverCrashes) {
  const char* pieces[] = {"p",  "q(",  "X",  ")", ",", ":-", ".",
                          "[",  "]",   "1",  "<", "=", "not", "\"s\"",
                          "choice", "succ", "(", "+", "_"};
  std::mt19937_64 rng(7);
  SymbolTable s;
  for (int round = 0; round < 300; ++round) {
    std::string input;
    size_t len = rng() % 25;
    for (size_t i = 0; i < len; ++i) {
      input += pieces[rng() % (sizeof(pieces) / sizeof(pieces[0]))];
      input += " ";
    }
    auto result = ParseProgram(input, &s);
    (void)result;
  }
  SUCCEED();
}

}  // namespace
}  // namespace idlog
