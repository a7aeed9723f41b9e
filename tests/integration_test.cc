// End-to-end scenarios exercising the public API on realistic program
// shapes, including the tid-as-total-order idioms that give IDLOG its
// expressive power (Section 5): counting, extrema, parity and
// ordered traversal over unordered input.
#include <gtest/gtest.h>

#include <memory>

#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "storage/csv.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::Rows;

// Counting with tids: |r| is the successor of the maximum global tid —
// a deterministic query computed through non-deterministic machinery.
TEST(Integration, CountViaGlobalTids) {
  IdlogEngine engine;
  for (const char* item : {"a", "b", "c", "d", "e"}) {
    ASSERT_TRUE(engine.AddRow("item", {item}).ok());
  }
  Status st = engine.LoadProgramText(R"(
    has_tid(T) :- item[](X, T).
    bigger(M) :- has_tid(M).
    count(M) :- has_tid(T), succ(T, M), not bigger(M).
  )");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto count = engine.Query("count");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(Rows(**count, engine.symbols()),
            std::vector<std::string>{"(5)"});
}

// Parity: |r| is even iff the maximum tid is odd.
TEST(Integration, ParityViaTids) {
  auto parity_of = [](int n) {
    IdlogEngine engine;
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(engine.AddRow("item", {Numbered("x", i)}).ok());
    }
    Status st = engine.LoadProgramText(R"(
      even_tid(0) :- item[](X, T).
      even_tid(M) :- even_tid(T), item[](X, M), M = T + 2.
      odd_tid(M) :- even_tid(T), item[](X, M), M = T + 1.
      has(T) :- item[](X, T).
      bigger(M) :- has(M).
      max_tid(T) :- has(T), succ(T, M), not bigger(M).
      even_count :- max_tid(T), odd_tid(T).
      even_count :- empty.
    )");
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto result = engine.Query("even_count");
    EXPECT_TRUE(result.ok());
    return !(*result)->empty();
  };
  EXPECT_FALSE(parity_of(1));
  EXPECT_TRUE(parity_of(2));
  EXPECT_FALSE(parity_of(3));
  EXPECT_TRUE(parity_of(4));
  EXPECT_FALSE(parity_of(7));
  EXPECT_TRUE(parity_of(8));
}

// Ordered traversal: fold an unordered relation left-to-right in tid
// order — here, "the first item alphabetically never matters", we just
// check the chain next/first/last is a path through all items.
TEST(Integration, OrderedTraversal) {
  IdlogEngine engine;
  for (const char* item : {"w", "x", "y", "z"}) {
    ASSERT_TRUE(engine.AddRow("item", {item}).ok());
  }
  Status st = engine.LoadProgramText(R"(
    ord(X, I) :- item[](X, I).
    first(X) :- ord(X, 0).
    next(X, Y) :- ord(X, I), ord(Y, J), succ(I, J).
    reach(X) :- first(X).
    reach(Y) :- reach(X), next(X, Y).
  )");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto reach = engine.Query("reach");
  ASSERT_TRUE(reach.ok());
  EXPECT_EQ((*reach)->size(), 4u);  // the chain visits every item
  auto first = engine.Query("first");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->size(), 1u);
  auto next = engine.Query("next");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->size(), 3u);
}

// A department dashboard: combines negation, arithmetic, sampling and
// witnesses in one program over CSV-loaded data.
TEST(Integration, DepartmentDashboard) {
  IdlogEngine engine;
  ASSERT_TRUE(LoadCsvRelationFromString(&engine.database(), "emp",
                                        "ann,sales\n"
                                        "bob,sales\n"
                                        "cal,sales\n"
                                        "dee,dev\n"
                                        "eli,dev\n"
                                        "fay,ops\n")
                  .ok());
  ASSERT_TRUE(LoadCsvRelationFromString(&engine.database(), "dept_floor",
                                        "sales,1\ndev,2\nops,2\n")
                  .ok());
  Status st = engine.LoadProgramText(R"(
    % one representative per department
    rep(N, D) :- emp[2](N, D, 0).
    % departments with at least 2 employees: tid 1 exists
    multi(D) :- emp[2](N, D, 1).
    solo(D) :- rep(N, D), not multi(D).
    % reps sitting above floor 1
    upstairs(N) :- rep(N, D), dept_floor(D, F), F > 1.
  )");
  ASSERT_TRUE(st.ok()) << st.ToString();

  auto solo = engine.Query("solo");
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(Rows(**solo, engine.symbols()),
            std::vector<std::string>{"(ops)"});
  auto multi = engine.Query("multi");
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ((*multi)->size(), 2u);
  auto upstairs = engine.Query("upstairs");
  ASSERT_TRUE(upstairs.ok());
  EXPECT_EQ((*upstairs)->size(), 2u);  // dev + ops reps
  auto verified = engine.VerifyModel();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
}

TEST(Integration, QueryPortionEvaluatesOnlyRelatedClauses) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddRow("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "cheap(X, Y) :- edge(X, Y)."
                      // `expensive` is a cross product we never want to
                      // evaluate when asking for `cheap`.
                      "expensive(X, Y) :- edge(X, A), edge(B, Y), "
                      "edge(C, C2).")
                  .ok());
  auto portion = engine.QueryPortion("cheap");
  ASSERT_TRUE(portion.ok()) << portion.status().ToString();
  EXPECT_EQ(portion->size(), 2u);

  // Unknown predicates report NotFound.
  EXPECT_EQ(engine.QueryPortion("ghost").status().code(),
            StatusCode::kNotFound);
  // EDB relations resolve even with no defining clauses.
  auto edb = engine.QueryPortion("edge");
  ASSERT_TRUE(edb.ok());
  EXPECT_EQ(edb->size(), 2u);
}

TEST(Integration, RandomAssignerVariesWitnesses) {
  // Seeds that pick different representatives demonstrate that the
  // non-determinism is real, while each individual answer is legal.
  IdlogEngine engine;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.AddRow("emp", {Numbered("e", i), "d"}).ok());
  }
  ASSERT_TRUE(engine.LoadProgramText("rep(N) :- emp[2](N, D, 0).").ok());

  std::set<std::string> reps;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    engine.SetTidAssigner(std::make_unique<RandomTidAssigner>(seed));
    auto rep = engine.Query("rep");
    ASSERT_TRUE(rep.ok());
    ASSERT_EQ((*rep)->size(), 1u);
    reps.insert(
        TupleToString((*rep)->tuples()[0], engine.symbols()));
  }
  EXPECT_GT(reps.size(), 2u);  // several distinct witnesses observed
}

// Incremental workflow: add facts, re-run, add more, re-run.
TEST(Integration, IncrementalFactLoading) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.LoadProgramText(
      "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).").ok());
  ASSERT_TRUE(engine.AddRow("e", {"a", "b"}).ok());
  auto tc1 = engine.Query("tc");
  ASSERT_TRUE(tc1.ok());
  EXPECT_EQ((*tc1)->size(), 1u);

  ASSERT_TRUE(engine.AddRow("e", {"b", "c"}).ok());
  auto tc2 = engine.Query("tc");
  ASSERT_TRUE(tc2.ok());
  EXPECT_EQ((*tc2)->size(), 3u);
}

}  // namespace
}  // namespace idlog
