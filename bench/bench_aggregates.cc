// Experiment E10 (Section 5, applied): aggregates computed as generated
// IDLOG programs vs direct C++ loops — the "expressiveness tax" of
// doing arithmetic folds through the logic engine. The shape claim
// being exercised: counting and summing are *possible at all* only
// because tids order the relation; the cost is linear-with-overhead in
// the relation size (the sum fold is inherently sequential).
#include <chrono>
#include <cstdio>
#include <numeric>

#include "common/str_util.h"
#include "core/aggregates.h"
#include "common/symbol_table.h"
#include "util.h"

namespace idlog {
namespace {

using Clock = std::chrono::steady_clock;

Relation MakeValues(SymbolTable* symbols, int n) {
  Relation r(TypeFromString("01"));
  for (int i = 0; i < n; ++i) {
    r.Insert({Value::Symbol(symbols->Intern(Numbered("k", i))),
              Value::Number(i % 97)});
  }
  return r;
}

void RunScale(int n) {
  SymbolTable symbols;
  Relation r = MakeValues(&symbols, n);

  auto t0 = Clock::now();
  int64_t direct_sum = 0;
  for (const Tuple& t : r.tuples()) direct_sum += t[1].number();
  double direct_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  t0 = Clock::now();
  auto count = CountViaTids(r);
  double count_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  t0 = Clock::now();
  auto sum = SumViaTids(r, 1);
  double sum_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  t0 = Clock::now();
  auto max = MaxOfColumn(r, 1);
  double max_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  bool correct = count.ok() && sum.ok() && max.ok() &&
                 *count == static_cast<int64_t>(r.size()) &&
                 *sum == direct_sum;
  auto fmt = [](double v) { return std::to_string(v).substr(0, 7); };
  bench_util::PrintRow(
      {std::to_string(n), fmt(direct_ms), fmt(count_ms), fmt(sum_ms),
       fmt(max_ms),
       count.ok() ? std::to_string(*count) : "-",
       sum.ok() ? std::to_string(*sum) : "-",
       correct ? "yes" : "NO"});
}

}  // namespace
}  // namespace idlog

int main() {
  std::printf(
      "E10: aggregates as IDLOG programs vs direct C++ "
      "(the Section 5 expressiveness made practical)\n\n");
  idlog::bench_util::PrintHeader({"rows", "c++ ms", "count ms", "sum ms",
                                  "max ms", "count", "sum", "correct"});
  for (int n : {100, 500, 1000, 2000, 5000}) {
    idlog::RunScale(n);
  }
  std::printf(
      "\nThe sum fold is sequential (one acc fact per prefix), so its "
      "cost is the engine's per-derivation overhead times the relation "
      "size.\n");
  return 0;
}
