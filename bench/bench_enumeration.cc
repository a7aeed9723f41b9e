// Experiment E6 (Section 3.1, Example 2): the size of the possible-
// answer space. For the sex-guess program over n persons, each person's
// 2-tuple group contributes 2 ID-functions, so the enumerator explores
// 2^n assignments and finds exactly 2^n distinct answers for `man`.
// Measures enumeration cost and verifies the combinatorial counts.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/str_util.h"
#include "core/answer_enumerator.h"
#include "parser/parser.h"
#include "storage/database.h"
#include "util.h"

namespace idlog {
namespace {

using Clock = std::chrono::steady_clock;

void RunGuess(int persons) {
  SymbolTable s;
  Database db(&s);
  for (int i = 0; i < persons; ++i) {
    (void)db.AddRow("person", {Numbered("p", i)});
  }
  auto prog = ParseProgram(
      "sex_guess(X, male) :- person(X)."
      "sex_guess(X, female) :- person(X)."
      "man(X) :- sex_guess[1](X, male, 1).",
      &s);
  if (!prog.ok()) return;

  EnumerateOptions options;
  options.max_assignments = 10000000;
  auto t0 = Clock::now();
  auto answers = EnumerateAnswers(*prog, db, "man", options);
  double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!answers.ok()) {
    std::fprintf(stderr, "%s\n", answers.status().ToString().c_str());
    return;
  }
  uint64_t expected = 1ull << persons;
  bench_util::PrintRow(
      {std::to_string(persons), std::to_string(answers->assignments_tried),
       std::to_string(answers->answers.size()), std::to_string(expected),
       answers->answers.size() == expected ? "yes" : "NO",
       std::to_string(ms).substr(0, 7)});
}

void RunSampling(int group_size) {
  // One department of `group_size` employees, pick 2: answers must
  // number C(group_size, 2), although group_size! assignments exist.
  SymbolTable s;
  Database db(&s);
  for (int i = 0; i < group_size; ++i) {
    (void)db.AddRow("emp", {Numbered("e", i), "d"});
  }
  auto prog = ParseProgram(
      "two(N) :- emp[2](N, D, T), T < 2.", &s);
  if (!prog.ok()) return;
  EnumerateOptions options;
  options.max_assignments = 10000000;
  auto t0 = Clock::now();
  auto answers = EnumerateAnswers(*prog, db, "two", options);
  double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!answers.ok()) {
    std::fprintf(stderr, "%s\n", answers.status().ToString().c_str());
    return;
  }
  uint64_t expected =
      static_cast<uint64_t>(group_size) * (group_size - 1) / 2;
  bench_util::PrintRow(
      {Numbered("pick2 of ", group_size),
       std::to_string(answers->assignments_tried),
       std::to_string(answers->answers.size()), std::to_string(expected),
       answers->answers.size() == expected ? "yes" : "NO",
       std::to_string(ms).substr(0, 7)});
}

}  // namespace
}  // namespace idlog

int main() {
  std::printf(
      "E6: possible-answer enumeration (Example 2 semantics)\n"
      "sex-guess over n persons: 2^n assignments, 2^n distinct answers; "
      "pick-2-of-k: k! assignments collapse to C(k,2) answers.\n\n");
  idlog::bench_util::PrintHeader({"instance", "assignments", "answers",
                                  "expected", "match", "ms"});
  for (int persons : {1, 2, 4, 8, 12}) {
    idlog::RunGuess(persons);
  }
  for (int k : {3, 4, 5, 6, 7}) {
    idlog::RunSampling(k);
  }
  return 0;
}
