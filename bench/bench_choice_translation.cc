// Experiment E5 (Theorem 2): DATALOG^C programs evaluated natively
// (KN88 two-phase semantics) vs through their IDLOG translation.
// Verifies answer agreement on every scale and reports the overhead
// factor of the 4-stratum translation.
#include <chrono>
#include <cstdio>

#include "ast/printer.h"
#include "choice/choice_semantics.h"
#include "choice/choice_to_idlog.h"
#include "common/str_util.h"
#include "core/idlog_engine.h"
#include "parser/parser.h"
#include "util.h"

namespace idlog {
namespace {

using Clock = std::chrono::steady_clock;

// A choice program with some surrounding computation: pick one manager
// per department, then report the cities those managers sit in.
const char* kProgram =
    "mgr(N, D) :- emp(N, D), choice((D), (N))."
    "mgr_city(C) :- mgr(N, D), office(N, C).";

void FillOffices(Database* db, int depts, int per_dept) {
  bench_util::MakeEmpDatabase(db, depts, per_dept);
  for (int d = 0; d < depts; ++d) {
    for (int e = 0; e < per_dept; ++e) {
      (void)db->AddRow("office",
                       {Numbered("e", d) + "_" + std::to_string(e),
                        Numbered("c", e % 7)});
    }
  }
}

void RunScale(int depts, int per_dept) {
  // Native KN88 semantics.
  SymbolTable s;
  Database db(&s);
  FillOffices(&db, depts, per_dept);
  auto prog = ParseProgram(kProgram, &s);
  if (!prog.ok()) {
    std::fprintf(stderr, "%s\n", prog.status().ToString().c_str());
    return;
  }
  ChoicePolicy policy;
  auto t0 = Clock::now();
  auto native = EvaluateChoiceProgram(*prog, db, policy);
  double native_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  size_t native_size = 0;
  if (native.ok() && native->HasRelation("mgr_city")) {
    native_size = (*native->Get("mgr_city"))->size();
  }

  // Theorem 2 translation, identity assigner (the "first" policy's
  // counterpart: both pick a canonical representative per group).
  auto translated = TranslateChoiceToIdlog(*prog);
  if (!translated.ok()) return;
  IdlogEngine engine;
  FillOffices(&engine.database(), depts, per_dept);
  Status st = engine.LoadProgramText(ProgramToString(*translated, s));
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return;
  }
  t0 = Clock::now();
  auto q = engine.Query("mgr_city");
  double idlog_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  size_t idlog_size = q.ok() ? (*q)->size() : 0;

  auto fmt = [](double v) { return std::to_string(v).substr(0, 6); };
  bench_util::PrintRow(
      {std::to_string(depts) + "x" + std::to_string(per_dept),
       std::to_string(native_size), fmt(native_ms),
       std::to_string(idlog_size), fmt(idlog_ms),
       fmt(idlog_ms / (native_ms > 0 ? native_ms : 1e-9)) + "x",
       native_size == idlog_size ? "yes" : "MISMATCH"});
}

}  // namespace
}  // namespace idlog

int main() {
  std::printf(
      "E5: DATALOG^C native semantics vs Theorem 2 IDLOG translation\n"
      "Both compute one manager per department; answer cardinalities "
      "must agree (the specific picks are both canonical-first).\n\n");
  idlog::bench_util::PrintHeader({"depts x emps", "native |ans|",
                                  "native ms", "idlog |ans|", "idlog ms",
                                  "overhead", "sizes agree"});
  for (auto [depts, per_dept] :
       {std::pair<int, int>{10, 50}, {50, 50}, {200, 50}, {500, 50},
        {200, 500}}) {
    idlog::RunScale(depts, per_dept);
  }
  return 0;
}
