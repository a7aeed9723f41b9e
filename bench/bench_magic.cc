// Experiment E11 (Section 3.2's "existing evaluation strategies" point):
// goal-directed evaluation via the magic-sets transform, run on the
// unmodified IDLOG engine. A point query path(src, X) over a graph of
// many components should only explore the source's component.
#include <chrono>
#include <cstdio>

#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "opt/magic_sets.h"
#include "parser/parser.h"
#include "util.h"

namespace idlog {
namespace {

using Clock = std::chrono::steady_clock;

const char* kTc =
    "path(X, Y) :- edge(X, Y)."
    "path(X, Z) :- path(X, Y), edge(Y, Z).";

// `components` disjoint chains of `chain_len` nodes each; the query
// asks for reachability from the head of component 0.
void FillChains(Database* db, int components, int chain_len) {
  for (int c = 0; c < components; ++c) {
    for (int i = 0; i + 1 < chain_len; ++i) {
      (void)db->AddRow("edge",
                       {Numbered("c", c) + "_" + std::to_string(i),
                        Numbered("c", c) + "_" +
                            std::to_string(i + 1)});
    }
  }
}

void RunScale(int components, int chain_len) {
  // Full evaluation + filter.
  IdlogEngine full_engine;
  FillChains(&full_engine.database(), components, chain_len);
  Program tc_full =
      std::move(ParseProgram(kTc, &full_engine.symbols())).ValueOrDie();
  (void)full_engine.LoadProgram(tc_full);
  auto t0 = Clock::now();
  auto full = full_engine.Query("path");
  double full_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  size_t full_size = full.ok() ? (*full)->size() : 0;
  uint64_t full_tuples = full_engine.stats().tuples_considered;

  // Magic evaluation.
  IdlogEngine magic_engine;
  FillChains(&magic_engine.database(), components, chain_len);
  Program tc =
      std::move(ParseProgram(kTc, &magic_engine.symbols())).ValueOrDie();
  MagicQuery query;
  query.predicate = "path";
  query.bindings = {
      Value::Symbol(magic_engine.symbols().Intern("c0_0")), std::nullopt};
  auto magic = MagicSetTransform(tc, query);
  if (!magic.ok()) {
    std::fprintf(stderr, "%s\n", magic.status().ToString().c_str());
    return;
  }
  (void)magic_engine.LoadProgram(magic->program);
  t0 = Clock::now();
  auto answers = magic_engine.Query(magic->answer_pred);
  double magic_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  size_t magic_size = answers.ok() ? (*answers)->size() : 0;
  uint64_t magic_tuples = magic_engine.stats().tuples_considered;

  auto fmt = [](double v) { return std::to_string(v).substr(0, 7); };
  bench_util::PrintRow(
      {std::to_string(components) + "x" + std::to_string(chain_len),
       std::to_string(full_size), fmt(full_ms),
       std::to_string(full_tuples), std::to_string(magic_size),
       fmt(magic_ms), std::to_string(magic_tuples),
       fmt(full_ms / (magic_ms > 0 ? magic_ms : 1e-9)) + "x"});
}

}  // namespace
}  // namespace idlog

int main() {
  std::printf(
      "E11: point queries — full bottom-up vs magic-sets transform on "
      "the same engine\n"
      "Query: path(c0_0, X) over `components` disjoint chains.\n\n");
  idlog::bench_util::PrintHeader({"comp x len", "full |path|", "full ms",
                                  "full tup", "magic |ans|", "magic ms",
                                  "magic tup", "speedup"});
  for (auto [components, chain_len] :
       {std::pair<int, int>{4, 16}, {16, 16}, {64, 16}, {16, 64},
        {64, 64}}) {
    idlog::RunScale(components, chain_len);
  }
  return 0;
}
