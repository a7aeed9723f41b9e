// Optimizer walk-through (Section 4, Examples 6 and 8): shows the
// adornment analysis, the projection-pushing transform and the
// ∃-existential ID-literal rewrite on the RBK88 reachability program,
// then runs original and optimized side by side and reports the
// redundant-tuple reduction.
#include <cstdio>

#include "ast/printer.h"
#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "opt/adornment.h"
#include "opt/id_rewrite.h"
#include "parser/parser.h"

int main() {
  const char* kProgram =
      "q(X) :- a(X, Y)."
      "a(X, Y) :- p(X, Z), a(Z, Y)."
      "a(X, Y) :- p(X, Y).";

  idlog::SymbolTable symbols;
  auto program = idlog::ParseProgram(kProgram, &symbols);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }

  std::printf("Original program (Example 6):\n%s\n",
              idlog::ProgramToString(*program, symbols).c_str());

  idlog::ExistentialAnalysis analysis =
      idlog::DetectExistentialArguments(*program, "q");
  std::printf("Existential argument positions w.r.t. q:\n");
  for (const auto& [pred, pos] : analysis.positions) {
    std::printf("  %s argument %d\n", pred.c_str(), pos + 1);
  }

  auto optimized = idlog::OptimizeForOutput(*program, "q");
  if (!optimized.ok()) {
    std::fprintf(stderr, "%s\n", optimized.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nAfter projection pushing + ID-literal rewrite (Example 8):\n%s\n",
      idlog::ProgramToString(optimized->program, symbols).c_str());

  // Run both on a dense graph and compare the work counters.
  auto run = [&](const idlog::Program& prog) {
    idlog::IdlogEngine engine;
    for (int i = 0; i < 30; ++i) {
      for (int j = 0; j < 30; j += (i % 3) + 1) {
        (void)engine.AddRow("p", {idlog::Numbered("n", i),
                                  idlog::Numbered("n", j)});
      }
    }
    idlog::Status st =
        engine.LoadProgramText(idlog::ProgramToString(prog, symbols));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return std::pair<size_t, uint64_t>{0, 0};
    }
    auto q = engine.Query("q");
    size_t answer = q.ok() ? (*q)->size() : 0;
    return std::pair<size_t, uint64_t>{answer,
                                       engine.stats().tuples_considered};
  };

  auto [orig_answer, orig_tuples] = run(*program);
  auto [opt_answer, opt_tuples] = run(optimized->program);
  std::printf("original : |q| = %zu, tuples considered = %llu\n",
              orig_answer,
              static_cast<unsigned long long>(orig_tuples));
  std::printf("optimized: |q| = %zu, tuples considered = %llu\n",
              opt_answer, static_cast<unsigned long long>(opt_tuples));
  if (orig_answer == opt_answer && opt_tuples < orig_tuples) {
    std::printf("same answer with %.1fx fewer tuples.\n",
                static_cast<double>(orig_tuples) /
                    static_cast<double>(opt_tuples));
  }
  return 0;
}
