// idlog — command-line front end for the IDLOG engine.
//
// Batch mode: `idlog run PROGRAM.idl FLAG...`. Every flag, its help
// line and the rules between flags live in one table, RunFlags() in
// tools/cli_flags.cc; any invocation other than `run` or none prints
// the usage generated from it.
//
// A batch run installs SIGINT/SIGTERM handlers: the first signal cancels
// the resource governor, so the run winds down through the normal trip
// path (final checkpoint frame, metrics / db-stats / flight-recorder
// dumps, partial results with --partial) and the process exits 130; a
// second signal force-exits immediately.
//
// Interactive mode (no arguments): a small REPL. Clauses typed at the
// prompt accumulate into the program; dot-commands drive the engine:
//   .load FILE          load program text from a file (replaces rules)
//   .csv REL FILE       load a CSV file into relation REL
//   .fact REL v1 v2 ..  add one fact
//   .seed N             switch to a random tid assigner with seed N
//   .identity           switch back to the canonical assigner
//   .query PRED         evaluate and print PRED
//   .explain PRED v...  show the derivation tree of one fact
//   .enumerate PRED     print every possible answer of PRED
//   .program            show the accumulated program
//   .stats              show evaluation counters from the last run
//   .help               this text
//   .quit               exit
#include <atomic>
#include <cstdio>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <cstdlib>
#include <unistd.h>

#include "ast/printer.h"
#include "cli_flags.h"
#include "common/failpoint.h"
#include "core/answer_enumerator.h"
#include "core/idlog_engine.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "storage/csv.h"
#include "store/atomic_file.h"

namespace {

using idlog::IdlogEngine;
using idlog::Status;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Graceful-shutdown plumbing. The handler may only touch sig_atomic_t
// and lock-free atomics; ResourceGovernor::Cancel() is a relaxed store,
// so the first signal asks the run to wind down through the normal
// governor-trip path (final checkpoint frame, metrics/flight dumps,
// partial results). A second signal force-exits.
volatile std::sig_atomic_t g_signals = 0;
std::atomic<idlog::ResourceGovernor*> g_cancel_target{nullptr};

extern "C" void OnTerminationSignal(int) {
  const std::sig_atomic_t seen = g_signals;
  g_signals = seen + 1;
  if (seen > 0) _exit(130);
  idlog::ResourceGovernor* governor =
      g_cancel_target.load(std::memory_order_relaxed);
  if (governor != nullptr) governor->Cancel();
}

void InstallSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnTerminationSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return std::string();
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// Parses "pred(c1, c2, ...)" into a predicate name and constant fields
// (no variables — WHY/WHY NOT explain one ground fact). "pred()" is a
// zero-arity atom.
Status ParseGroundAtom(const std::string& flag, const std::string& text,
                       std::string* pred,
                       std::vector<std::string>* fields) {
  auto fail = [&]() {
    return Status::InvalidArgument(
        flag + ": cannot parse '" + text +
        "'; expected a ground atom like pred(c1, c2)");
  };
  size_t open = text.find('(');
  if (open == std::string::npos || text.empty() || text.back() != ')') {
    return fail();
  }
  std::string name = Trim(text.substr(0, open));
  if (name.empty() ||
      name.find_first_of(" \t(),") != std::string::npos) {
    return fail();
  }
  std::string inner = text.substr(open + 1, text.size() - open - 2);
  if (inner.find('(') != std::string::npos ||
      inner.find(')') != std::string::npos) {
    return fail();
  }
  if (!Trim(inner).empty()) {
    size_t start = 0;
    while (true) {
      size_t comma = inner.find(',', start);
      std::string field = Trim(
          comma == std::string::npos ? inner.substr(start)
                                     : inner.substr(start, comma - start));
      if (field.empty() ||
          field.find_first_of(" \t") != std::string::npos) {
        return fail();
      }
      fields->push_back(std::move(field));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  *pred = std::move(name);
  return Status::OK();
}

// Constant fields to a tuple under the library's one spelling rule
// (idlog::FieldToValue): digits are a number, anything else a symbol.
idlog::Result<idlog::Tuple> FieldsToTuple(
    idlog::SymbolTable* symbols, const std::vector<std::string>& fields) {
  idlog::Tuple tuple(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    IDLOG_RETURN_NOT_OK(idlog::FieldToValue(fields[i], symbols, &tuple[i]));
  }
  return tuple;
}

// Whitespace-separated fields (the --explain and .explain form).
std::vector<std::string> SplitFields(const std::string& text) {
  std::istringstream words(text);
  std::vector<std::string> fields;
  std::string field;
  while (words >> field) fields.push_back(field);
  return fields;
}

idlog::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void PrintRelation(const idlog::Relation& rel,
                   const idlog::SymbolTable& symbols) {
  for (const idlog::Tuple& t : rel.SortedTuples()) {
    std::printf("  %s\n", idlog::TupleToString(t, symbols).c_str());
  }
  std::printf("(%zu tuples)\n", rel.size());
}

void PrintAnswers(const idlog::AnswerSet& answers,
                  const idlog::SymbolTable& symbols) {
  for (const auto& answer : answers.answers) {
    std::printf("  {");
    for (size_t i = 0; i < answer.size(); ++i) {
      std::printf("%s%s", i > 0 ? ", " : "",
                  idlog::TupleToString(answer[i], symbols).c_str());
    }
    std::printf("}\n");
  }
}

void PrintStats(const idlog::EvalStats& stats) {
  std::printf(
      "tuples considered: %llu\nfacts derived: %llu (new: %llu)\n"
      "rule firings: %llu, fixpoint rounds: %llu, strata: %llu\n"
      "ID tuples materialized: %llu\n"
      "evaluation wall time: %.3f ms\n",
      static_cast<unsigned long long>(stats.tuples_considered),
      static_cast<unsigned long long>(stats.facts_derived),
      static_cast<unsigned long long>(stats.facts_inserted),
      static_cast<unsigned long long>(stats.rule_firings),
      static_cast<unsigned long long>(stats.iterations),
      static_cast<unsigned long long>(stats.strata_evaluated),
      static_cast<unsigned long long>(stats.id_tuples_materialized),
      static_cast<double>(stats.eval_wall_ns) / 1e6);
}

// Executes a --update-script against a WAL-attached engine. Lines:
//   begin / commit / abort       transaction brackets
//   insert pred(c1, c2)          stage an EDB insertion
//   retract pred(c1, c2)         stage an EDB retraction
//   query PRED                   print the predicate's current model
//   why pred(c1, ...)            print a proof tree from the model
//   checkpoint                   snapshot + log rotation
// Bare insert/retract lines outside begin..commit are one-op
// transactions. Blank lines and '#' comments are ignored.
//
// `skip_units` replays recovery: that many transaction units (each
// begin..commit block, or each bare insert/retract, is one unit) are
// already durable in the recovered state, so they — and any query / why
// / checkpoint lines interleaved among them — are skipped; execution
// resumes at the first non-durable unit.
Status RunUpdateScript(IdlogEngine* engine, const std::string& text,
                       uint64_t skip_units) {
  std::istringstream lines(text);
  std::string raw;
  uint64_t units_done = 0;
  bool skip_in_block = false;
  int line_no = 0;
  while (std::getline(lines, raw)) {
    ++line_no;
    if (g_signals > 0) {
      // Wind down through the normal cancelled-run path; the driver in
      // RunBatch turns the trip into exit code 130.
      return Status::OK();
    }
    std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string cmd;
    words >> cmd;
    std::string rest = Trim(line.substr(cmd.size()));
    auto fail_here = [&](Status st) {
      if (st.ok()) return st;
      return Status(st.code(), "update script line " +
                                   std::to_string(line_no) + ": " +
                                   st.message());
    };
    if (units_done < skip_units) {
      // Already durable before the crash: advance the unit counter
      // without touching the engine.
      if (cmd == "begin") {
        skip_in_block = true;
      } else if (cmd == "commit") {
        skip_in_block = false;
        ++units_done;
      } else if (cmd == "abort") {
        skip_in_block = false;  // Aborted blocks were never durable.
      } else if ((cmd == "insert" || cmd == "retract") && !skip_in_block) {
        ++units_done;
      } else if (cmd != "insert" && cmd != "retract" && cmd != "query" &&
                 cmd != "why" && cmd != "checkpoint") {
        return fail_here(
            Status::InvalidArgument("unknown command '" + cmd + "'"));
      }
      continue;
    }
    if (cmd == "begin") {
      IDLOG_RETURN_NOT_OK(fail_here(engine->Begin()));
    } else if (cmd == "commit") {
      IDLOG_RETURN_NOT_OK(fail_here(engine->Commit()));
      ++units_done;
    } else if (cmd == "abort") {
      IDLOG_RETURN_NOT_OK(fail_here(engine->Abort()));
    } else if (cmd == "insert" || cmd == "retract") {
      std::string pred;
      std::vector<std::string> fields;
      IDLOG_RETURN_NOT_OK(
          fail_here(ParseGroundAtom(cmd, rest, &pred, &fields)));
      auto tuple = FieldsToTuple(&engine->symbols(), fields);
      IDLOG_RETURN_NOT_OK(fail_here(tuple.status()));
      const bool one_op = !engine->in_transaction();
      if (one_op) IDLOG_RETURN_NOT_OK(fail_here(engine->Begin()));
      Status st = cmd == "insert" ? engine->Insert(pred, std::move(*tuple))
                                  : engine->Retract(pred, std::move(*tuple));
      IDLOG_RETURN_NOT_OK(fail_here(st));
      if (one_op) {
        IDLOG_RETURN_NOT_OK(fail_here(engine->Commit()));
        ++units_done;
      }
    } else if (cmd == "query") {
      if (rest.empty()) {
        return fail_here(Status::InvalidArgument("query PRED"));
      }
      auto result = engine->Query(rest);
      IDLOG_RETURN_NOT_OK(fail_here(result.status()));
      std::printf("query %s\n", rest.c_str());
      PrintRelation(**result, engine->symbols());
    } else if (cmd == "why") {
      std::string pred;
      std::vector<std::string> fields;
      IDLOG_RETURN_NOT_OK(
          fail_here(ParseGroundAtom("why", rest, &pred, &fields)));
      auto tuple = FieldsToTuple(&engine->symbols(), fields);
      IDLOG_RETURN_NOT_OK(fail_here(tuple.status()));
      auto proof = engine->Why(pred, *tuple);
      IDLOG_RETURN_NOT_OK(fail_here(proof.status()));
      std::printf("%s", proof->c_str());
    } else if (cmd == "checkpoint") {
      IDLOG_RETURN_NOT_OK(fail_here(engine->WalCheckpoint()));
    } else {
      return fail_here(
          Status::InvalidArgument("unknown command '" + cmd + "'"));
    }
  }
  if (engine->in_transaction()) {
    return Status::InvalidArgument(
        "update script ended inside a begin..commit block");
  }
  return Status::OK();
}

int RunBatch(int argc, char** argv) {
  auto parsed = idlog::ParseRunFlags(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status());
  const idlog::RunOptions& opt = *parsed;
  const bool why = !opt.why.empty();
  const bool why_not = !opt.why_not.empty();
  // Parse the WHY/WHY NOT atom up front so a malformed argument is a
  // clear usage error, not a late engine failure.
  std::string why_pred;
  std::vector<std::string> why_fields;
  if (why || why_not) {
    Status ast = ParseGroundAtom(why ? "--why" : "--why-not",
                                 why ? opt.why : opt.why_not, &why_pred,
                                 &why_fields);
    if (!ast.ok()) return Fail(ast);
  }
  // Deterministic fault injection: flag specs first, then the
  // IDLOG_FAIL_AT environment variable (comma-separated specs).
  std::vector<std::string> fail_specs = opt.fail_at;
  if (const char* env = std::getenv("IDLOG_FAIL_AT")) {
    std::istringstream specs(env);
    for (std::string spec; std::getline(specs, spec, ',');) {
      if (!spec.empty()) fail_specs.push_back(spec);
    }
  }
  for (const std::string& spec : fail_specs) {
    Status st = idlog::Failpoints::Instance().ArmFromSpec(spec);
    if (!st.ok()) return Fail(st);
  }

  // The flight recorder runs for every batch invocation: the black box
  // must already hold events when a run fails unexpectedly, and its
  // disarmed-path design makes the armed overhead a ring-slot write per
  // recorded event (measured <= 2% end to end in BENCH_core E8).
  const std::string flight_dump_path =
      opt.flight_recorder.empty() ? std::string("idlog-flight.json")
                                  : opt.flight_recorder;
  idlog::FlightRecorder::Instance().Arm(
      static_cast<size_t>(opt.flight_events));

  // Read the update script up front: a missing file is a usage error
  // before any evaluation, and a `why` line means the session needs
  // provenance recorded from round 0.
  std::string update_script_text;
  bool script_wants_why = false;
  if (!opt.update_script.empty()) {
    auto text = ReadFile(opt.update_script);
    if (!text.ok()) return Fail(text.status());
    update_script_text = *text;
    std::istringstream lines(update_script_text);
    std::string line;
    while (std::getline(lines, line)) {
      if (Trim(line).rfind("why", 0) == 0) script_wants_why = true;
    }
  }

  IdlogEngine engine;
  engine.SetSeminaive(!opt.naive);
  engine.SetThreads(static_cast<int>(opt.jobs));
  engine.SetTidBoundPushdown(opt.pushdown);
  engine.SetLimits(opt.limits);
  engine.SetPartialResults(opt.partial);
  // A failure Status out of Run() dumps the black box at the failure
  // site, before any further teardown; finish() below re-dumps for the
  // paths that never enter Run (both writes are atomic whole-files).
  engine.SetFlightRecorderDump(flight_dump_path);
  // --why needs the lineage store; --why-not only walks rule plans
  // against the computed model, so it costs nothing extra. A resumed
  // run restores pre-crash derivations from the snapshot's DERIV
  // section, which is why --why (unlike --explain) composes with
  // --resume.
  if (!opt.explain.empty() || why || script_wants_why) {
    engine.EnableProvenance(true);
  }
  // Graceful shutdown: after this point a first SIGINT/SIGTERM cancels
  // the governor (the run winds down through the normal trip path and
  // finish() maps the exit code to 130); a second force-exits.
  g_cancel_target.store(&engine.governor(), std::memory_order_relaxed);
  InstallSignalHandlers();
  if (opt.explain_analyze) engine.EnableExplain(true);
  idlog::TraceSink trace_sink;
  const bool tracing = !opt.trace_out.empty();
  if (tracing) engine.SetTraceSink(&trace_sink);
  // --metrics-json implies profiling: the report is the flattened
  // profile, so there is nothing to write without it.
  if (opt.profile || !opt.metrics_json.empty()) engine.EnableProfiling(true);

  // Final reporting, shared by every exit path past this point: the
  // trace and metrics files are written even when the run tripped a
  // budget or failed — a truncated run is exactly when they matter.
  auto finish = [&](int code) {
    // A signalled run exits 130 regardless of how the cancellation
    // surfaced (governor trip, partial results, or a clean wind-down),
    // after every dump below has been written.
    if (g_signals > 0) code = 130;
    // A dump that fails is reported and fails an otherwise clean exit.
    auto check = [&code](const Status& st) {
      if (st.ok()) return;
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      if (code == 0) code = 1;
    };
    // Atomic (temp + fsync + rename): every machine-readable output the
    // CLI produces is either the previous complete file or the new one.
    auto write = [&](const std::string& path,
                     const idlog::Result<std::string>& doc) {
      check(doc.ok() ? idlog::WriteFileAtomic(path, *doc) : doc.status());
    };
    if (tracing) check(trace_sink.WriteJson(opt.trace_out));
    // The engine's composed document: profile counters plus the
    // governor/storage gauges (totals.memory_bytes, db.*).
    if (!opt.metrics_json.empty()) {
      write(opt.metrics_json, engine.MetricsJson());
    }
    // Written on trips and failures too: what the storage held when the
    // run stopped is front-line post-mortem material.
    if (!opt.db_stats_json.empty()) {
      write(opt.db_stats_json, engine.DbStatsJson());
    }
    // Black-box dump policy: always when --flight-recorder was given;
    // otherwise only when something went wrong (non-zero exit or a
    // governor trip in partial-results mode).
    if (!opt.flight_recorder.empty() || code != 0 ||
        !engine.last_trip().ok()) {
      check(idlog::FlightRecorder::Instance().Dump(flight_dump_path));
    }
    // Like the trace and metrics, the plan counters of a truncated run
    // are exactly what a post-mortem wants. Static document when
    // --explain-plan.
    if (!opt.explain_json.empty()) {
      write(opt.explain_json,
            engine.ExplainPlanJson(/*analyze=*/!opt.explain_plan));
    }
    // An explanation of what a truncated run *did* derive (or why it did
    // not) is post-mortem material just like the trace.
    if (!opt.why_json.empty()) {
      auto tuple = FieldsToTuple(&engine.symbols(), why_fields);
      write(opt.why_json,
            !tuple.ok() ? idlog::Result<std::string>(tuple.status())
            : why       ? engine.WhyJson(why_pred, *tuple)
                        : engine.WhyNotJson(why_pred, *tuple));
    }
    if (opt.profile) {
      std::printf("%s", engine.profile().ToTable().c_str());
    }
    if (opt.db_stats) {
      std::printf("%s", engine.DbStatsText().c_str());
    }
    return code;
  };

  // Arm the governor over the bulk loads too, so --max-tuples /
  // --max-memory-mb also bound CSV ingestion. Run() re-arms it for
  // evaluation.
  engine.governor().Arm(opt.limits);
  for (const auto& [rel, file] : opt.csvs) {
    Status st = idlog::LoadCsvRelation(&engine.database(), rel, file,
                                       /*skip_header=*/false,
                                       &engine.governor());
    if (!st.ok()) return finish(Fail(st));
  }
  // Resume before the program loads: the snapshot restores symbols and
  // database first, then the (hash-guarded) program parses against them.
  if (!opt.resume.empty()) {
    Status rst = engine.ResumeFromCheckpoint(opt.resume);
    if (!rst.ok()) return finish(Fail(rst));
  }
  // Recovery follows the same ordering: stage one restores the session
  // snapshot into the fresh engine, the program parses against it, and
  // stage two (below) replays the log's committed tail.
  if (opt.recover) {
    Status rst = engine.PrepareRecovery(opt.wal);
    if (!rst.ok()) return finish(Fail(rst));
  }
  auto text = ReadFile(opt.program_path);
  if (!text.ok()) return finish(Fail(text.status()));
  Status st = engine.LoadProgramText(*text);
  if (!st.ok()) return finish(Fail(st));
  if (opt.seed.has_value()) {
    engine.SetTidAssigner(
        std::make_unique<idlog::RandomTidAssigner>(*opt.seed));
  }
  if (!opt.checkpoint.empty()) {
    engine.SetCheckpoint(opt.checkpoint, opt.checkpoint_every);
  }
  if (!opt.wal.empty()) {
    Status wst = opt.recover ? engine.CompleteRecovery(opt.wal_options)
                             : engine.AttachWal(opt.wal, opt.wal_options);
    if (!wst.ok()) return finish(Fail(wst));
    if (!update_script_text.empty()) {
      // In --recover mode the first wal_commits() transaction units of
      // the script are already durable (snapshot + replayed tail) and
      // are skipped; execution resumes at the first lost unit.
      const uint64_t skip = opt.recover ? engine.wal_commits() : 0;
      Status sst = RunUpdateScript(&engine, update_script_text, skip);
      if (!sst.ok()) return finish(Fail(sst));
    }
  }

  // Prints a rendered document and ends the run, or fails it.
  auto print = [&](const idlog::Result<std::string>& doc) {
    if (!doc.ok()) return finish(Fail(doc.status()));
    std::printf("%s", doc->c_str());
    return finish(0);
  };
  if (opt.explain_plan) return print(engine.ExplainPlan());

  if (opt.enumerate) {
    idlog::EnumerateOptions options;
    engine.governor().Arm(opt.limits);
    options.governor = &engine.governor();
    auto answers = idlog::EnumerateAnswers(engine.program(),
                                           engine.database(), opt.query,
                                           options);
    if (!answers.ok()) return finish(Fail(answers.status()));
    std::printf("%zu possible answer(s) over %llu tid assignment(s):\n",
                answers->answers.size(),
                static_cast<unsigned long long>(
                    answers->assignments_tried));
    if (!answers->exhaustive) {
      std::fprintf(stderr,
                   "warning: enumeration not exhaustive — an ID-group "
                   "exceeds 20 tuples (n! > 2^64 permutations), only a "
                   "sample of the answer set was explored\n");
    }
    PrintAnswers(*answers, engine.symbols());
    return finish(0);
  }

  if (!opt.explain.empty()) {
    auto tuple = FieldsToTuple(&engine.symbols(), SplitFields(opt.explain));
    if (!tuple.ok()) return finish(Fail(tuple.status()));
    return print(engine.Explain(opt.query, *tuple));
  }
  if (why || why_not) {
    auto tuple = FieldsToTuple(&engine.symbols(), why_fields);
    if (!tuple.ok()) return finish(Fail(tuple.status()));
    return print(why ? engine.Why(why_pred, *tuple)
                     : engine.WhyNot(why_pred, *tuple));
  }

  if (opt.query.empty()) return finish(0);  // Update-script-only run.
  auto result = engine.Query(opt.query);
  if (!result.ok()) return finish(Fail(result.status()));
  if (!engine.last_trip().ok()) {
    std::fprintf(stderr, "warning: partial results — %s\n",
                 engine.last_trip().ToString().c_str());
  }
  PrintRelation(**result, engine.symbols());
  if (opt.stats) PrintStats(engine.stats());
  if (opt.explain_analyze) {
    auto analyzed = engine.ExplainAnalyze();
    if (!analyzed.ok()) return finish(Fail(analyzed.status()));
    std::printf("%s", analyzed->c_str());
  }
  return finish(0);
}

int RunRepl() {
  IdlogEngine engine;
  std::string program_text;
  std::printf("idlog shell — type .help for commands\n");
  std::string line;
  while (true) {
    std::printf("idlog> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;

    if (line[0] == '.' &&
        !(line.size() >= 5 && line.substr(0, 5) == ".decl")) {
      std::istringstream words(line);
      std::string cmd;
      words >> cmd;
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        std::printf(
            ".load FILE | .csv REL FILE | .fact REL v... | .seed N | "
            ".explain PRED v... | "
            ".identity | .query PRED | .enumerate PRED | .program | "
            ".stats | .quit\n");
      } else if (cmd == ".load") {
        std::string path;
        words >> path;
        auto text = ReadFile(path);
        if (!text.ok()) {
          std::printf("error: %s\n", text.status().ToString().c_str());
          continue;
        }
        program_text = *text;
        Status st = engine.LoadProgramText(program_text);
        std::printf("%s\n", st.ToString().c_str());
      } else if (cmd == ".csv") {
        std::string rel;
        std::string path;
        words >> rel >> path;
        Status st = idlog::LoadCsvRelation(&engine.database(), rel, path);
        engine.InvalidateRun();
        std::printf("%s\n", st.ToString().c_str());
      } else if (cmd == ".fact") {
        std::string rel;
        words >> rel;
        std::vector<std::string> fields;
        std::string f;
        while (words >> f) fields.push_back(f);
        Status st = engine.AddRow(rel, fields);
        std::printf("%s\n", st.ToString().c_str());
      } else if (cmd == ".seed") {
        uint64_t seed = 0;
        words >> seed;
        engine.SetTidAssigner(
            std::make_unique<idlog::RandomTidAssigner>(seed));
        std::printf("random tids, seed %llu\n",
                    static_cast<unsigned long long>(seed));
      } else if (cmd == ".identity") {
        engine.SetTidAssigner(
            std::make_unique<idlog::IdentityTidAssigner>());
        std::printf("canonical tids\n");
      } else if (cmd == ".query") {
        std::string pred;
        words >> pred;
        if (!engine.has_program() && !program_text.empty()) {
          (void)engine.LoadProgramText(program_text);
        }
        auto result = engine.Query(pred);
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          PrintRelation(**result, engine.symbols());
        }
      } else if (cmd == ".explain") {
        std::string pred;
        words >> pred;
        std::string rest;
        std::getline(words, rest);
        engine.EnableProvenance(true);
        auto tuple = FieldsToTuple(&engine.symbols(), SplitFields(rest));
        auto text = tuple.ok() ? engine.Explain(pred, *tuple)
                               : idlog::Result<std::string>(tuple.status());
        if (!text.ok()) {
          std::printf("error: %s\n", text.status().ToString().c_str());
        } else {
          std::printf("%s", text->c_str());
        }
      } else if (cmd == ".enumerate") {
        std::string pred;
        words >> pred;
        if (!engine.has_program()) {
          std::printf("error: no program loaded\n");
          continue;
        }
        auto answers = idlog::EnumerateAnswers(engine.program(),
                                               engine.database(), pred);
        if (!answers.ok()) {
          std::printf("error: %s\n",
                      answers.status().ToString().c_str());
          continue;
        }
        PrintAnswers(*answers, engine.symbols());
        std::printf("(%zu possible answers)\n", answers->answers.size());
        if (!answers->exhaustive) {
          std::printf(
              "warning: not exhaustive — an ID-group exceeds 20 tuples, "
              "only a sample of the answer set was explored\n");
        }
      } else if (cmd == ".program") {
        if (engine.has_program()) {
          std::printf("%s", idlog::ProgramToString(engine.program(),
                                                   engine.symbols())
                                .c_str());
        }
      } else if (cmd == ".stats") {
        PrintStats(engine.stats());
      } else {
        std::printf("unknown command %s (try .help)\n", cmd.c_str());
      }
      continue;
    }

    // Anything else: accumulate program text and reload.
    std::string candidate = program_text + line + "\n";
    Status st = engine.LoadProgramText(candidate);
    if (st.ok()) {
      program_text = std::move(candidate);
    } else {
      std::printf("error: %s\n", st.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "run") {
    return RunBatch(argc, argv);
  }
  if (argc > 1) {
    std::fprintf(stderr, "%s", idlog::UsageText().c_str());
    return 2;
  }
  return RunRepl();
}
