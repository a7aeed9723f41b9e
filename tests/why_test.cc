// Answer-level explanation: WHY proof trees over the provenance store
// and WHY NOT rule-walks over the computed model. Covers every
// Premise::Kind in a proof, every WhyNotFailure::Class, budget
// truncation, strict-JSON well-formedness of both idlog-why-v1 modes,
// and byte-equality of all four renderings across --jobs.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "obs/json.h"
#include "obs/why.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

// One rule touching all four premise kinds: an ordinary fact, a
// built-in, a negation and an ID-literal, plus a derived interior node
// above it.
void LoadAllKinds(IdlogEngine* engine) {
  ASSERT_TRUE(engine->AddRow("v", {"x", "3"}).ok());
  ASSERT_TRUE(engine->AddRow("item", {"x"}).ok());
  ASSERT_TRUE(engine
                  ->LoadProgramText(
                      "q(X, M) :- v(X, N), M = N + 1, not blocked(X), "
                      "item[1](X, 0)."
                      "r(X, M) :- q(X, M).")
                  .ok());
}

TEST(Why, ProofTreeCoversEveryPremiseKind) {
  IdlogEngine engine;
  engine.EnableProvenance(true);
  LoadAllKinds(&engine);
  auto text = engine.Why("r", T(&engine.symbols(), {"x", "4"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("WHY r(x, 4)"), std::string::npos) << *text;
  EXPECT_NE(text->find("<= clause #1"), std::string::npos) << *text;
  EXPECT_NE(text->find("q(x, 4)   <= clause #0"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("[database fact]"), std::string::npos) << *text;
  EXPECT_NE(text->find("[built-in]"), std::string::npos) << *text;
  EXPECT_NE(text->find("not blocked(x)"), std::string::npos) << *text;
  EXPECT_NE(text->find("[absent]"), std::string::npos) << *text;
  EXPECT_NE(text->find("item[1](x, 0)"), std::string::npos) << *text;
  EXPECT_NE(text->find("[tid choice]"), std::string::npos) << *text;
}

TEST(Why, JsonIsStrictAndTagged) {
  IdlogEngine engine;
  engine.EnableProvenance(true);
  LoadAllKinds(&engine);
  auto doc = engine.WhyJson("r", T(&engine.symbols(), {"x", "4"}));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Status v = ValidateJson(*doc);
  EXPECT_TRUE(v.ok()) << v.ToString() << "\n" << *doc;
  EXPECT_NE(doc->find("\"schema\":\"idlog-why-v1\""), std::string::npos);
  EXPECT_NE(doc->find("\"mode\":\"why\""), std::string::npos);
  EXPECT_NE(doc->find("\"kind\":\"tid-choice\""), std::string::npos);
  EXPECT_NE(doc->find("\"kind\":\"negation\""), std::string::npos);
  EXPECT_NE(doc->find("\"kind\":\"builtin\""), std::string::npos);
  EXPECT_NE(doc->find("\"kind\":\"database-fact\""), std::string::npos);
}

TEST(Why, RequiresProvenanceAndPresence) {
  IdlogEngine off;
  ASSERT_TRUE(off.AddRow("e", {"a"}).ok());
  ASSERT_TRUE(off.LoadProgramText("p(X) :- e(X).").ok());
  EXPECT_EQ(off.Why("p", T(&off.symbols(), {"a"})).status().code(),
            StatusCode::kInvalidArgument);

  IdlogEngine on;
  on.EnableProvenance(true);
  ASSERT_TRUE(on.AddRow("e", {"a"}).ok());
  ASSERT_TRUE(on.LoadProgramText("p(X) :- e(X).").ok());
  auto absent = on.Why("p", T(&on.symbols(), {"zzz"}));
  EXPECT_EQ(absent.status().code(), StatusCode::kNotFound);
  // The error points at the WHY NOT side of the API.
  EXPECT_NE(absent.status().ToString().find("WhyNot"), std::string::npos)
      << absent.status().ToString();
}

TEST(Why, DepthBudgetTruncatesAndReportsNumbers) {
  IdlogEngine engine;
  engine.EnableProvenance(true);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(engine
                    .AddRow("edge", {Numbered("n", i),
                                     Numbered("n", i + 1)})
                    .ok());
  }
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "path(X, Y) :- edge(X, Y)."
                      "path(X, Z) :- path(X, Y), edge(Y, Z).")
                  .ok());
  WhyBudget tight;
  tight.max_depth = 3;
  auto text = engine.Why("path", T(&engine.symbols(), {"n0", "n12"}),
                         tight);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[... depth limit (3)]"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("(truncated at depth 3 / 512 nodes)"),
            std::string::npos)
      << *text;

  WhyBudget few;
  few.max_nodes = 4;
  auto doc = engine.WhyJson("path", T(&engine.symbols(), {"n0", "n12"}),
                            few);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(ValidateJson(*doc).ok()) << *doc;
  EXPECT_NE(doc->find("\"truncated\":true"), std::string::npos) << *doc;
  EXPECT_NE(doc->find("\"max_nodes\":4"), std::string::npos) << *doc;
}

TEST(WhyNot, MissingSubgoalRecursesIntoGroundPremise) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "hop(X) :- edge(X, Y)."
                      "far(X) :- hop(X), hop2(X)."
                      "hop2(X) :- edge2(X).")
                  .ok());
  auto text = engine.WhyNot("far", T(&engine.symbols(), {"a"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("WHY NOT far(a)"), std::string::npos) << *text;
  EXPECT_NE(text->find("does not hold"), std::string::npos) << *text;
  EXPECT_NE(text->find("first failing premise: hop2(a)"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("[missing subgoal]"), std::string::npos) << *text;
  // The ground missing premise is analyzed one level deeper: hop2's own
  // first failing premise is the ground edge2(a), which nothing derives
  // or stores.
  EXPECT_NE(text->find("hop2(a)   does not hold"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("edge2(a)"), std::string::npos) << *text;
  EXPECT_NE(
      text->find("[no rule derives this predicate and it is not stored]"),
      std::string::npos)
      << *text;
}

TEST(WhyNot, BlockedNegation) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("p", {"a"}).ok());
  ASSERT_TRUE(engine.AddRow("m", {"a"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("solo(X) :- p(X), not m(X).").ok());
  auto text = engine.WhyNot("solo", T(&engine.symbols(), {"a"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("first failing premise: not m(a)"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("[blocked: fact is present]"), std::string::npos)
      << *text;
}

TEST(WhyNot, FailedBuiltin) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("v", {"x", "3"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("big(X) :- v(X, N), N > 10.").ok());
  auto text = engine.WhyNot("big", T(&engine.symbols(), {"x"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[built-in unsatisfied]"), std::string::npos)
      << *text;
}

TEST(WhyNot, TidMismatchNamesTheChosenTid) {
  IdlogEngine engine;
  // Without tid-bound pushdown the full id-relation materializes, so
  // the analysis can name the tid the model actually chose for bob.
  engine.SetTidBoundPushdown(false);
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("rep(N) :- emp[2](N, D, 0).").ok());
  ASSERT_TRUE(engine.Run().ok());
  // The identity assigner numbers (ann, sales) as tid 0 within the
  // sales group, so rep(bob) fails only on its tid.
  auto text = engine.WhyNot("rep", T(&engine.symbols(), {"bob"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[tid mismatch]"), std::string::npos) << *text;
  EXPECT_NE(text->find("(the model chose tid 1)"), std::string::npos)
      << *text;

  auto doc = engine.WhyNotJson("rep", T(&engine.symbols(), {"bob"}));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(ValidateJson(*doc).ok()) << *doc;
  EXPECT_NE(doc->find("\"class\":\"tid-mismatch\""), std::string::npos)
      << *doc;
  EXPECT_NE(doc->find("\"chosen_tid\":\"1\""), std::string::npos) << *doc;
}

TEST(WhyNot, TidMismatchSurvivesTidBoundPushdown) {
  // Pushdown materializes only the tids the rule can use, so the row
  // carrying bob's actual tid is elided; the base relation still
  // witnesses that only the tid choice is to blame.
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("emp", {"ann", "sales"}).ok());
  ASSERT_TRUE(engine.AddRow("emp", {"bob", "sales"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("rep(N) :- emp[2](N, D, 0).").ok());
  ASSERT_TRUE(engine.Run().ok());
  auto text = engine.WhyNot("rep", T(&engine.symbols(), {"bob"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[tid mismatch]"), std::string::npos) << *text;
  EXPECT_NE(text->find("unmaterialized tid"), std::string::npos) << *text;
  auto doc = engine.WhyNotJson("rep", T(&engine.symbols(), {"bob"}));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(ValidateJson(*doc).ok()) << *doc;
  EXPECT_NE(doc->find("\"class\":\"tid-mismatch\""), std::string::npos)
      << *doc;
  EXPECT_EQ(doc->find("chosen_tid"), std::string::npos) << *doc;
}

TEST(WhyNot, PresentFactReportsHolds) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("e", {"a"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("p(X) :- e(X).").ok());
  auto text = engine.WhyNot("p", T(&engine.symbols(), {"a"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("holds in the computed model"), std::string::npos)
      << *text;
}

TEST(WhyNot, JsonIsStrictAndTagged) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "hop(X) :- edge(X, Y)."
                      "far(X) :- hop(X), hop2(X)."
                      "hop2(X) :- edge2(X, Y).")
                  .ok());
  auto doc = engine.WhyNotJson("far", T(&engine.symbols(), {"a"}));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Status v = ValidateJson(*doc);
  EXPECT_TRUE(v.ok()) << v.ToString() << "\n" << *doc;
  EXPECT_NE(doc->find("\"schema\":\"idlog-why-v1\""), std::string::npos);
  EXPECT_NE(doc->find("\"mode\":\"why-not\""), std::string::npos);
  EXPECT_NE(doc->find("\"class\":\"missing-subgoal\""),
            std::string::npos)
      << *doc;
}

TEST(WhyNot, CycleAndBudgetStayBounded) {
  IdlogEngine engine;
  // Mutual recursion with no base case: the analysis must cut the
  // a-derives-b-derives-a loop instead of spinning.
  ASSERT_TRUE(engine.AddRow("seed", {"s"}).ok());
  ASSERT_TRUE(engine
                  .LoadProgramText(
                      "a(X) :- b(X)."
                      "b(X) :- a(X).")
                  .ok());
  auto text = engine.WhyNot("a", T(&engine.symbols(), {"s"}));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[cycle — already being analyzed]"),
            std::string::npos)
      << *text;

  WhyBudget one;
  one.max_depth = 1;
  auto tight = engine.WhyNot("a", T(&engine.symbols(), {"s"}), one);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  EXPECT_NE(tight->find("depth budget (1) reached"), std::string::npos)
      << *tight;
}

TEST(WhyAcrossJobs, AllFourRenderingsAreByteIdentical) {
  auto build = [](int threads) {
    auto engine = std::make_unique<IdlogEngine>();
    EXPECT_TRUE(engine->AddRow("edge", {"a", "b"}).ok());
    EXPECT_TRUE(engine->AddRow("edge", {"b", "c"}).ok());
    EXPECT_TRUE(engine->AddRow("edge", {"c", "d"}).ok());
    EXPECT_TRUE(engine->AddRow("emp", {"ann", "sales"}).ok());
    EXPECT_TRUE(engine->AddRow("emp", {"bob", "sales"}).ok());
    engine->SetThreads(threads);
    engine->EnableProvenance(true);
    EXPECT_TRUE(engine
                    ->LoadProgramText(
                        "path(X, Y) :- edge(X, Y)."
                        "path(X, Z) :- path(X, Y), edge(Y, Z)."
                        "rep(N) :- emp[2](N, D, 0).")
                    .ok());
    EXPECT_TRUE(engine->Run().ok());
    return engine;
  };
  auto serial = build(1);
  auto parallel = build(4);
  for (IdlogEngine* e : {serial.get(), parallel.get()}) {
    SCOPED_TRACE(e == serial.get() ? "serial" : "parallel");
    ASSERT_TRUE(e->Why("path", T(&e->symbols(), {"a", "d"})).ok());
  }
  EXPECT_EQ(*serial->Why("path", T(&serial->symbols(), {"a", "d"})),
            *parallel->Why("path", T(&parallel->symbols(), {"a", "d"})));
  EXPECT_EQ(
      *serial->WhyJson("path", T(&serial->symbols(), {"a", "d"})),
      *parallel->WhyJson("path", T(&parallel->symbols(), {"a", "d"})));
  EXPECT_EQ(*serial->WhyNot("rep", T(&serial->symbols(), {"bob"})),
            *parallel->WhyNot("rep", T(&parallel->symbols(), {"bob"})));
  EXPECT_EQ(
      *serial->WhyNotJson("rep", T(&serial->symbols(), {"bob"})),
      *parallel->WhyNotJson("rep", T(&parallel->symbols(), {"bob"})));
}

}  // namespace
}  // namespace idlog
