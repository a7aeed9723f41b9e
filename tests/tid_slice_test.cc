// Tid slice reads (IdRelation::SliceRows) and the group layout they
// read: checked in the language itself — a rule whose ID scan is a slice
// must derive, in insertion order, exactly what the same rule derives by
// filtering an unconstrained copy of the ID-relation — plus the layout
// invariants, the deferred membership table, and the counters and
// EXPLAIN lines the slice reads change.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "storage/id_relation.h"
#include "storage/tid_assigner.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

/// Rows of `rel` rendered in insertion order.
std::vector<std::string> InOrder(const Relation& rel,
                                 const SymbolTable& symbols) {
  std::vector<std::string> out;
  for (TupleView t : rel.tuples()) out.push_back(TupleToString(t, symbols));
  return out;
}

/// emp(Name, Dept): 7 departments of sizes 1..7 plus one of 40, rows
/// interleaved so that row order and group order differ.
std::vector<std::vector<std::string>> Employees() {
  std::vector<std::vector<std::string>> rows;
  std::vector<int> left = {1, 2, 3, 4, 5, 6, 7, 40};
  std::mt19937_64 rng(11);
  int name = 0;
  for (bool any = true; any;) {
    any = false;
    for (size_t d = 0; d < left.size(); ++d) {
      if (left[d] == 0 || rng() % 3 == 0) continue;
      --left[d];
      any = true;
      rows.push_back({Numbered("e", name++), Numbered("d", d)});
    }
    for (int l : left) any = any || l > 0;
  }
  return rows;
}

struct SliceForm {
  const char* name;
  const char* sliced;    ///< s(...) :- emp[2](...), constraint.
  const char* filtered;  ///< f(...) :- all(...), same constraint.
  int64_t max_tid;       ///< The tid bound the constraint implies.
};

const SliceForm kForms[] = {
    {"constant", "s(N, D) :- emp[2](N, D, 1).",
     "f(N, D) :- all(N, D, 1).", 2},
    {"lt", "s(N, D, T) :- emp[2](N, D, T), T < 3.",
     "f(N, D, T) :- all(N, D, T), T < 3.", 3},
    {"le", "s(N, D, T) :- emp[2](N, D, T), T <= 3.",
     "f(N, D, T) :- all(N, D, T), T <= 3.", 4},
    {"gt_mirrored", "s(N, D, T) :- emp[2](N, D, T), 2 > T.",
     "f(N, D, T) :- all(N, D, T), 2 > T.", 2},
    {"eq", "s(N, D, T) :- emp[2](N, D, T), T = 4.",
     "f(N, D, T) :- all(N, D, T), T = 4.", 5},
    {"wide", "s(N, D, T) :- emp[2](N, D, T), T < 30.",
     "f(N, D, T) :- all(N, D, T), T < 30.", 30},
};

enum class Assigner { kIdentity, kRandom, kScripted };

std::unique_ptr<TidAssigner> MakeAssigner(Assigner kind) {
  switch (kind) {
    case Assigner::kIdentity:
      return std::make_unique<IdentityTidAssigner>();
    case Assigner::kRandom:
      return std::make_unique<RandomTidAssigner>(3);
    case Assigner::kScripted: {
      auto scripted = std::make_unique<ScriptedTidAssigner>();
      scripted->SetScript({1, 0, 5, 17, 3, 700, 4000, 123456789});
      return scripted;
    }
  }
  return nullptr;
}

/// Runs `program` over Employees() and returns `pred` in insertion
/// order, validating the ID-relation against its base on the way.
std::vector<std::string> RunAndRead(const std::string& program,
                                    const std::string& pred,
                                    Assigner assigner, bool pushdown,
                                    int64_t max_tid) {
  IdlogEngine engine;
  for (const auto& row : Employees()) {
    EXPECT_TRUE(engine.AddRow("emp", row).ok());
  }
  engine.SetTidAssigner(MakeAssigner(assigner));
  engine.SetTidBoundPushdown(pushdown);
  Status st = engine.LoadProgramText(program);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto rel = engine.Query(pred);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  if (!rel.ok()) return {};

  auto id_rel = engine.QueryIdRelation("emp", {1});
  auto base = engine.Query("emp");
  EXPECT_TRUE(id_rel.ok() && base.ok());
  if (id_rel.ok() && base.ok()) {
    Status valid = ValidateIdRelation(**base, **id_rel, {1}, max_tid);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
  return InOrder(**rel, engine.symbols());
}

class TidSliceInLanguage
    : public ::testing::TestWithParam<std::tuple<int, bool, Assigner>> {};

TEST_P(TidSliceInLanguage, SliceEqualsFilteredUnconstrainedCopy) {
  const SliceForm& form = kForms[std::get<0>(GetParam())];
  const bool pushdown = std::get<1>(GetParam());
  const Assigner assigner = std::get<2>(GetParam());
  SCOPED_TRACE(form.name);

  // One program holds the sliced rule and the unconstrained copy: the
  // copy keeps the ID-relation whole, whatever the pushdown setting.
  const std::string both = std::string(form.sliced) + "\n" +
                           "all(N, D, T) :- emp[2](N, D, T).\n" +
                           form.filtered + "\n";
  const std::vector<std::string> sliced =
      RunAndRead(both, "s", assigner, pushdown, -1);
  const std::vector<std::string> filtered =
      RunAndRead(both, "f", assigner, pushdown, -1);
  EXPECT_FALSE(filtered.empty());
  EXPECT_EQ(sliced, filtered);

  // The sliced rule alone: with pushdown on, the ID-relation is a
  // prefix of each group, and the slice must still read the same rows
  // (the tids are drawn over the full groups either way).
  const std::vector<std::string> alone =
      RunAndRead(std::string(form.sliced) + "\n", "s", assigner, pushdown,
                 pushdown ? form.max_tid : -1);
  EXPECT_EQ(alone, filtered);
}

INSTANTIATE_TEST_SUITE_P(
    Forms, TidSliceInLanguage,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Bool(),
                       ::testing::Values(Assigner::kIdentity,
                                         Assigner::kRandom,
                                         Assigner::kScripted)));

// ---------------------------------------------------------------------
// The layout itself.

Relation EmployeeRelation(SymbolTable* symbols) {
  Relation emp(TypeFromString("00"));
  for (const auto& row : Employees()) emp.Insert(T(symbols, row));
  return emp;
}

// SliceRows returns, in ascending row order, exactly the rows whose tid
// is in range — for slices narrower than, as wide as and wider than a
// group, and over pushdown prefixes.
TEST(IdRelationLayout, SliceRowsMatchesFilteringTheRows) {
  SymbolTable symbols;
  const Relation emp = EmployeeRelation(&symbols);
  for (int64_t max_tid : {-1, 3, 25}) {
    RandomTidAssigner assigner(5);
    auto id_rel = BuildIdRelation("emp", emp, {1}, &assigner, max_tid);
    ASSERT_TRUE(id_rel.ok()) << id_rel.status().ToString();
    ASSERT_TRUE(ValidateIdRelation(emp, *id_rel, {1}, max_tid).ok());
    for (int64_t lo = -1; lo <= 42; ++lo) {
      for (int64_t hi = lo; hi <= 43; hi += 3) {
        std::vector<uint32_t> want;
        for (size_t r = 0; r < id_rel->size(); ++r) {
          const int64_t tid = id_rel->row(r)[2].number();
          if (tid >= lo && tid < hi) want.push_back(static_cast<uint32_t>(r));
        }
        std::vector<uint32_t> got;
        id_rel->SliceRows(lo, hi, &got);
        ASSERT_EQ(got, want) << "max_tid " << max_tid << " slice [" << lo
                             << "," << hi << ")";
      }
    }
  }
}

// A snapshot stores only the rows; FromRows recovers the layout, and
// refuses rows that are not an ID-relation's.
TEST(IdRelationLayout, FromRowsRecoversAndValidates) {
  SymbolTable symbols;
  const Relation emp = EmployeeRelation(&symbols);
  RandomTidAssigner assigner(9);
  auto built = BuildIdRelation("emp", emp, {1}, &assigner);
  ASSERT_TRUE(built.ok());
  auto rebuilt =
      IdRelation::FromRows(static_cast<const Relation&>(*built), {1});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->ValidateLayout({1}).ok());
  EXPECT_EQ(rebuilt->num_groups(), built->num_groups());
  std::vector<uint32_t> a, b;
  built->SliceRows(1, 3, &a);
  rebuilt->SliceRows(1, 3, &b);
  EXPECT_EQ(a, b);

  // Interleaved groups are not a layout.
  Relation interleaved(TypeFromString("001"));
  interleaved.Insert(T(&symbols, {"x", "g", "0"}));
  interleaved.Insert(T(&symbols, {"y", "h", "0"}));
  interleaved.Insert(T(&symbols, {"z", "g", "1"}));
  EXPECT_FALSE(IdRelation::FromRows(interleaved, {1}).ok());

  // Nor is a group whose tids skip one.
  Relation gap(TypeFromString("001"));
  gap.Insert(T(&symbols, {"x", "g", "0"}));
  gap.Insert(T(&symbols, {"y", "g", "2"}));
  EXPECT_FALSE(IdRelation::FromRows(gap, {1}).ok());
}

// The membership table is deferred until a full-tuple probe needs it.
TEST(IdRelationLayout, MembershipIsBuiltOnFirstProbe) {
  SymbolTable symbols;
  const Relation emp = EmployeeRelation(&symbols);
  IdentityTidAssigner identity;
  auto id_rel = BuildIdRelation("emp", emp, {1}, &identity);
  ASSERT_TRUE(id_rel.ok());
  const size_t rows_only = id_rel->heap_bytes();
  Tuple probe = id_rel->row(7).ToTuple();
  EXPECT_TRUE(id_rel->Contains(probe));
  EXPECT_GT(id_rel->heap_bytes(), rows_only);
  probe.back() = Value::Number(999);
  EXPECT_FALSE(id_rel->Contains(probe));
  // A copy of an unprobed relation still answers probes.
  IdentityTidAssigner again;
  auto fresh = BuildIdRelation("emp", emp, {1}, &again);
  ASSERT_TRUE(fresh.ok());
  IdRelation copy = *fresh;
  EXPECT_TRUE(copy.Contains(id_rel->row(3)));
  EXPECT_TRUE(copy.SetEquals(*id_rel));
}

// ---------------------------------------------------------------------
// Counters and EXPLAIN lines.

// The paper's Example 5 program over a skewed company: constant tids
// and `T < 2` read slices, so only the in-range rows are considered and
// no index is probed. tuples_considered = N (ranked) + 3G (reps, and
// solo's scan and negation) + sum min(k, 2) (survey) + #{k >= 2}
// (multi), for N employees in G departments of sizes k.
TEST(TidSliceCounters, ExampleFiveConsidersOnlyTheSlices) {
  IdlogEngine engine;
  std::mt19937_64 rng(1);
  constexpr int kEmployees = 3000;
  constexpr int kDepartments = 120;
  std::vector<int> size(kDepartments + 10, 0);
  for (int i = 0; i < kEmployees; ++i) {
    const double u = static_cast<double>(rng() % 1000000) / 1e6;
    int d = static_cast<int>(kDepartments * u * u * u);
    if (i >= kEmployees - 10) d = kDepartments + (kEmployees - 1 - i);
    ++size[static_cast<size_t>(d)];
    ASSERT_TRUE(
        engine.AddRow("emp", {Numbered("e", i), Numbered("d", d)}).ok());
  }
  uint64_t groups = 0, survey = 0, multi = 0;
  for (int k : size) {
    if (k == 0) continue;
    ++groups;
    survey += static_cast<uint64_t>(std::min(k, 2));
    multi += k >= 2 ? 1 : 0;
  }
  engine.SetTidAssigner(std::make_unique<RandomTidAssigner>(1));
  engine.EnableExplain(true);
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "reps(N, D) :- emp[2](N, D, 0).\n"
                      "survey(N, D) :- emp[2](N, D, T), T < 2.\n"
                      "multi(D) :- emp[2](N, D, 1).\n"
                      "ranked(N, D, T) :- emp[2](N, D, T).\n"
                      "solo(D) :- reps(N, D), not multi(D).\n")
                  .ok());
  auto answers = engine.Query("survey");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ((*answers)->size(), survey);
  const EvalStats& stats = engine.stats();
  EXPECT_EQ(stats.tuples_considered,
            kEmployees + 3 * groups + survey + multi);
  EXPECT_EQ(stats.index_probes, 0u);
  EXPECT_EQ(stats.tuples_considered, 3760u);

  // EXPLAIN: the three tid-constrained steps read slices; the
  // unconstrained one still scans in full. Fields of a step line: name,
  // kind, target, keys, modes, access, delta, then rows_in, scanned,
  // probes, idx_hit, idx_miss, emitted, sel.
  auto text = engine.ExplainAnalyze();
  ASSERT_TRUE(text.ok());
  auto fields_of = [&](const std::string& clause) {
    std::vector<std::string> fields;
    const size_t at = text->find(clause);
    if (at == std::string::npos) return fields;
    const size_t s0 = text->find("  s0 ", at);
    std::istringstream line(text->substr(s0, text->find('\n', s0) - s0));
    for (std::string f; line >> f;) fields.push_back(f);
    return fields;
  };
  auto slice_line = [&](uint64_t rows) {
    const std::string n = std::to_string(rows);
    return std::vector<std::string>{"1", n, "0", "0", "0", n, "100.0%"};
  };
  auto tail = [](const std::vector<std::string>& f) {
    return f.size() < 7 ? f : std::vector<std::string>(f.end() - 7, f.end());
  };
  const auto reps = fields_of("reps(N, D) :-");
  const auto survey_step = fields_of("survey(N, D) :-");
  const auto multi_step = fields_of("multi(D) :-");
  const auto ranked = fields_of("ranked(N, D, T) :-");
  ASSERT_EQ(reps.size(), 14u);
  ASSERT_EQ(survey_step.size(), 14u);
  ASSERT_EQ(multi_step.size(), 14u);
  ASSERT_EQ(ranked.size(), 14u);
  EXPECT_EQ(reps[5], "slice[0,1)");
  EXPECT_EQ(survey_step[5], "slice[0,2)");
  EXPECT_EQ(multi_step[5], "slice[1,2)");
  EXPECT_EQ(ranked[5], "full-scan");
  // One entry each, the slice's rows scanned and emitted, no probes and
  // no index traffic.
  EXPECT_EQ(tail(reps), slice_line(groups));
  EXPECT_EQ(tail(survey_step), slice_line(survey));
  EXPECT_EQ(tail(multi_step), slice_line(multi));
}

}  // namespace
}  // namespace idlog
