#include "obs/explain.h"

#include <cstdarg>
#include <cstdio>

#include "common/str_util.h"
#include "obs/json.h"

namespace idlog {

namespace {

void AppendRow(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  *out += buf;
}

std::string ColsToString(const std::vector<int>& cols) {
  std::string s;
  for (int c : cols) {
    if (!s.empty()) s += ",";
    s += std::to_string(c);
  }
  return s;
}

/// Compact ArgMode string, one letter per argument position:
/// k = key (bound before the step), w = write (binds a slot),
/// f = filter (must equal a slot already written).
std::string ModesToString(const PlanStep& step) {
  std::string s;
  for (ArgMode m : step.modes) {
    switch (m) {
      case ArgMode::kKey: s += 'k'; break;
      case ArgMode::kWrite: s += 'w'; break;
      case ArgMode::kFilter: s += 'f'; break;
    }
  }
  return s.empty() ? "-" : s;
}

const char* StepKindName(const PlanStep& step) {
  switch (step.kind) {
    case PlanStep::Kind::kScan: return "scan";
    case PlanStep::Kind::kNegation: return "negation";
    case PlanStep::Kind::kBuiltin: return "builtin";
  }
  return "?";
}

std::string StepTarget(const PlanStep& step) {
  if (step.kind == PlanStep::Kind::kBuiltin) {
    std::string s = step.negated ? "not " : "";
    s += BuiltinName(step.builtin);
    return s;
  }
  std::string s = step.predicate;
  if (step.is_id) s.append("[").append(ColsToString(step.group)).append("]");
  s.append("/").append(std::to_string(step.sources.size()));
  return s;
}

/// How the step reaches its rows: the index choice for scans, a hash
/// probe for negation, enumeration/check for built-ins.
std::string StepAccess(const PlanStep& step, bool use_indexes) {
  switch (step.kind) {
    case PlanStep::Kind::kScan:
      if (step.key_cols.empty()) return "full-scan";
      if (!use_indexes) return "filter-scan";
      return "index(" + ColsToString(step.key_cols) + ")";
    case PlanStep::Kind::kNegation:
      return "probe";
    case PlanStep::Kind::kBuiltin:
      return step.negated ? "check" : "enumerate";
  }
  return "-";
}

bool IsDeltaCandidate(const RulePlan& plan, size_t step) {
  for (int s : plan.positive_scan_steps) {
    if (static_cast<size_t>(s) == step) return true;
  }
  return false;
}

const StepCounters* CountersFor(const ExplainDoc& doc, int clause_index,
                                size_t step) {
  if (doc.analysis == nullptr || clause_index < 0) return nullptr;
  size_t ci = static_cast<size_t>(clause_index);
  if (ci >= doc.analysis->rules.size()) return nullptr;
  const auto& steps = doc.analysis->rules[ci].steps;
  return step < steps.size() ? &steps[step] : nullptr;
}

void AppendCounters(std::string* out, const StepCounters* c,
                    bool with_selectivity) {
  if (c == nullptr) {
    AppendRow(out, " %10s %10s %9s %8s %8s %10s %7s", "-", "-", "-", "-",
              "-", "-", "-");
    return;
  }
  std::string sel = "-";
  if (with_selectivity && c->rows_scanned > 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%",
                  100.0 * static_cast<double>(c->rows_emitted) /
                      static_cast<double>(c->rows_scanned));
    sel = buf;
  }
  AppendRow(out, " %10llu %10llu %9llu %8llu %8llu %10llu %7s",
            static_cast<unsigned long long>(c->rows_in),
            static_cast<unsigned long long>(c->rows_scanned),
            static_cast<unsigned long long>(c->index_probes),
            static_cast<unsigned long long>(c->index_hits),
            static_cast<unsigned long long>(c->index_misses),
            static_cast<unsigned long long>(c->rows_emitted), sel.c_str());
}

void AppendNotes(std::string* out, const RewriteLog* log, int clause_index,
                 const char* indent) {
  if (log == nullptr) return;
  for (const RewriteNote& n : log->notes()) {
    if (n.clause_index != clause_index) continue;
    AppendRow(out, "%s- %s: %s\n", indent, n.pass.c_str(),
              n.detail.c_str());
  }
}

bool HasNotes(const RewriteLog* log, int clause_index) {
  if (log == nullptr) return false;
  for (const RewriteNote& n : log->notes()) {
    if (n.clause_index == clause_index) return true;
  }
  return false;
}

}  // namespace

std::string RenderExplainText(const ExplainDoc& doc) {
  const bool analyze = doc.analysis != nullptr;
  std::string out;
  int strata = 0;
  for (const ExplainRule& r : doc.rules) {
    if (r.stratum + 1 > strata) strata = r.stratum + 1;
  }
  AppendRow(&out, "EXPLAIN%s (%zu rules, %d strata)\n",
            analyze ? " ANALYZE" : "", doc.rules.size(), strata);

  if (HasNotes(doc.rewrites, -1)) {
    out += "program rewrites:\n";
    AppendNotes(&out, doc.rewrites, -1, "  ");
  }

  for (const ExplainRule& r : doc.rules) {
    out += "\n";
    AppendRow(&out, "clause %d  [stratum %d]  %s\n", r.clause_index,
              r.stratum, r.text.c_str());
    if (HasNotes(doc.rewrites, r.clause_index)) {
      out += "  rewrites:\n";
      AppendNotes(&out, doc.rewrites, r.clause_index, "    ");
    }
    if (r.plan == nullptr) continue;
    const RulePlan& plan = *r.plan;

    AppendRow(&out, "  %-5s %-9s %-22s %-6s %-6s %-12s %-5s", "step",
              "kind", "target", "keys", "modes", "access", "delta");
    if (analyze) {
      AppendRow(&out, " %10s %10s %9s %8s %8s %10s %7s", "rows_in",
                "scanned", "probes", "idx_hit", "idx_miss", "emitted",
                "sel");
    }
    out += "\n";

    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const PlanStep& step = plan.steps[i];
      std::string name = Numbered("s", i);
      std::string keys =
          step.key_cols.empty() ? "-" : ColsToString(step.key_cols);
      AppendRow(&out, "  %-5s %-9s %-22s %-6s %-6s %-12s %-5s",
                name.c_str(), StepKindName(step), StepTarget(step).c_str(),
                keys.c_str(), ModesToString(step).c_str(),
                StepAccess(step, doc.use_indexes).c_str(),
                IsDeltaCandidate(plan, i) ? "cand" : "-");
      if (analyze) {
        AppendCounters(&out, CountersFor(doc, r.clause_index, i),
                       /*with_selectivity=*/true);
      }
      out += "\n";
    }
    std::string head =
        plan.head_pred + "/" + std::to_string(plan.head_args.size());
    AppendRow(&out, "  %-5s %-9s %-22s %-6s %-6s %-12s %-5s", "emit",
              "emit", head.c_str(), "-", "-", "-", "-");
    if (analyze) {
      // The emit pseudo-step: rows_in is the rule's facts_derived,
      // rows_emitted its facts_inserted (new in the round's staging).
      AppendCounters(&out, CountersFor(doc, r.clause_index,
                                       plan.steps.size()),
                     /*with_selectivity=*/false);
    }
    out += "\n";
  }

  if (analyze && !doc.analysis->strata.empty()) {
    out += "\nfixpoint rounds:\n";
    for (const StratumRoundStats& s : doc.analysis->strata) {
      AppendRow(&out, "  stratum %d: %zu round(s), new facts per round:",
                s.stratum, s.new_facts_per_round.size());
      for (uint64_t n : s.new_facts_per_round) {
        AppendRow(&out, " %llu", static_cast<unsigned long long>(n));
      }
      out += "\n";
    }
  }

  if (analyze && doc.totals != nullptr) {
    const EvalStats& t = *doc.totals;
    AppendRow(&out,
              "\ntotals: tuples_considered=%llu facts_derived=%llu "
              "facts_inserted=%llu rule_firings=%llu iterations=%llu "
              "index_probes=%llu index_builds=%llu "
              "index_cache_misses=%llu\n",
              static_cast<unsigned long long>(t.tuples_considered),
              static_cast<unsigned long long>(t.facts_derived),
              static_cast<unsigned long long>(t.facts_inserted),
              static_cast<unsigned long long>(t.rule_firings),
              static_cast<unsigned long long>(t.iterations),
              static_cast<unsigned long long>(t.index_probes),
              static_cast<unsigned long long>(t.index_builds),
              static_cast<unsigned long long>(t.index_cache_misses));
  }
  return out;
}

std::string RenderExplainJson(const ExplainDoc& doc) {
  const bool analyze = doc.analysis != nullptr;
  std::string out = "{\"schema\":\"idlog-explain-v1\"";
  out += ",\"analyze\":";
  out += analyze ? "true" : "false";
  out += ",\"use_indexes\":";
  out += doc.use_indexes ? "true" : "false";

  auto append_notes = [&](int clause_index) {
    bool first = true;
    out += "[";
    if (doc.rewrites != nullptr) {
      for (const RewriteNote& n : doc.rewrites->notes()) {
        if (n.clause_index != clause_index) continue;
        if (!first) out += ",";
        first = false;
        out += "{\"pass\":" + JsonQuote(n.pass) +
               ",\"detail\":" + JsonQuote(n.detail) + "}";
      }
    }
    out += "]";
  };

  out += ",\"program_rewrites\":";
  append_notes(-1);

  auto append_int_array = [&](const std::vector<int>& v) {
    out += "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(v[i]);
    }
    out += "]";
  };

  out += ",\"rules\":[";
  for (size_t ri = 0; ri < doc.rules.size(); ++ri) {
    const ExplainRule& r = doc.rules[ri];
    if (ri > 0) out += ",";
    out += "{\"clause\":" + std::to_string(r.clause_index);
    out += ",\"stratum\":" + std::to_string(r.stratum);
    out += ",\"rule\":" + JsonQuote(r.text);
    if (r.plan != nullptr) {
      out += ",\"head\":" + JsonQuote(r.plan->head_pred);
    }
    out += ",\"rewrites\":";
    append_notes(r.clause_index);
    out += ",\"steps\":[";
    if (r.plan != nullptr) {
      const RulePlan& plan = *r.plan;
      // Only logical counters go into the JSON (rows in/scanned/
      // emitted, index probes): they are identical whatever --jobs is,
      // which keeps the whole document byte-identical across runs.
      // Physical cache counters (hits/misses) live in the text output.
      auto append_step_counters = [&](size_t i) {
        const StepCounters* c = CountersFor(doc, r.clause_index, i);
        if (!analyze || c == nullptr) return;
        out += ",\"rows_in\":" + std::to_string(c->rows_in);
        out += ",\"rows_scanned\":" + std::to_string(c->rows_scanned);
        out += ",\"index_probes\":" + std::to_string(c->index_probes);
        out += ",\"rows_emitted\":" + std::to_string(c->rows_emitted);
      };
      for (size_t i = 0; i < plan.steps.size(); ++i) {
        const PlanStep& step = plan.steps[i];
        if (i > 0) out += ",";
        out += "{\"step\":" + std::to_string(i);
        out += ",\"kind\":" + JsonQuote(StepKindName(step));
        out += ",\"target\":" + JsonQuote(StepTarget(step));
        if (step.kind != PlanStep::Kind::kBuiltin) {
          out += ",\"predicate\":" + JsonQuote(step.predicate);
          out += ",\"id\":";
          out += step.is_id ? "true" : "false";
          if (step.is_id) {
            out += ",\"group\":";
            append_int_array(step.group);
          }
        }
        out += ",\"keys\":";
        append_int_array(step.key_cols);
        out += ",\"modes\":" + JsonQuote(ModesToString(step));
        out += ",\"access\":" + JsonQuote(StepAccess(step, doc.use_indexes));
        out += ",\"delta_candidate\":";
        out += IsDeltaCandidate(plan, i) ? "true" : "false";
        append_step_counters(i);
        out += "}";
      }
      if (!plan.steps.empty()) out += ",";
      out += "{\"step\":" + std::to_string(plan.steps.size());
      out += ",\"kind\":\"emit\"";
      out += ",\"target\":" + JsonQuote(plan.head_pred);
      append_step_counters(plan.steps.size());
      out += "}";
    }
    out += "]}";
  }
  out += "]";

  if (analyze) {
    out += ",\"strata\":[";
    for (size_t si = 0; si < doc.analysis->strata.size(); ++si) {
      const StratumRoundStats& s = doc.analysis->strata[si];
      if (si > 0) out += ",";
      out += "{\"stratum\":" + std::to_string(s.stratum);
      out += ",\"new_facts_per_round\":[";
      for (size_t i = 0; i < s.new_facts_per_round.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(s.new_facts_per_round[i]);
      }
      out += "]}";
    }
    out += "]";
  }

  if (analyze && doc.totals != nullptr) {
    const EvalStats& t = *doc.totals;
    // Logical counters only — no wall time, no build/miss counts.
    out += ",\"totals\":{";
    out += "\"tuples_considered\":" + std::to_string(t.tuples_considered);
    out += ",\"facts_derived\":" + std::to_string(t.facts_derived);
    out += ",\"facts_inserted\":" + std::to_string(t.facts_inserted);
    out += ",\"rule_firings\":" + std::to_string(t.rule_firings);
    out += ",\"iterations\":" + std::to_string(t.iterations);
    out += ",\"strata_evaluated\":" + std::to_string(t.strata_evaluated);
    out += ",\"id_groups_assigned\":" + std::to_string(t.id_groups_assigned);
    out += ",\"id_tuples_materialized\":" +
           std::to_string(t.id_tuples_materialized);
    out += ",\"index_probes\":" + std::to_string(t.index_probes);
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace idlog
