#include "sql/explain.h"

#include <algorithm>

#include "util/string_util.h"

namespace pdb {

namespace {

std::string DurationText(uint64_t ns) {
  if (ns >= 1'000'000) return StrFormat("%.3fms", ns / 1e6);
  if (ns >= 1'000) return StrFormat("%.3fus", ns / 1e3);
  return StrFormat("%lluns", static_cast<unsigned long long>(ns));
}

std::string EstimateText(double est) {
  if (est < 0) return "-";
  return StrFormat("%.2f", est);
}

std::string PlanJson(const JoinPlanProfile& plan) {
  std::string out = "{\"steps\":[";
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const JoinStepProfile& step = plan.steps[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"atom_index\":%zu,\"predicate\":\"%s\",\"relation_rows\":%llu,"
        "\"estimated_rows\":%.17g,\"actual_rows\":%llu}",
        step.atom_index, JsonEscape(step.predicate).c_str(),
        static_cast<unsigned long long>(step.relation_rows),
        step.estimated_rows,
        static_cast<unsigned long long>(step.actual_rows));
  }
  out += StrFormat(
      "],\"matches\":%llu,\"executed\":%s}",
      static_cast<unsigned long long>(plan.matches),
      plan.executed ? "true" : "false");
  return out;
}

std::string ReportJson(const ExecReport& report) {
  return StrFormat(
      "{\"lineage_matches\":%llu,\"lineage_nodes\":%llu,"
      "\"dpll_decisions\":%llu,\"dpll_cache_hits\":%llu,"
      "\"dpll_component_splits\":%llu,\"samples_drawn\":%llu,"
      "\"index_builds\":%llu,\"index_cache_hits\":%llu,"
      "\"wmc_shared_hits\":%llu,\"wmc_shared_misses\":%llu,"
      "\"tasks_run\":%llu,\"num_threads\":%d,"
      "\"deadline_exceeded\":%s,\"cancelled\":%s}",
      static_cast<unsigned long long>(report.lineage_matches),
      static_cast<unsigned long long>(report.lineage_nodes),
      static_cast<unsigned long long>(report.dpll_decisions),
      static_cast<unsigned long long>(report.cache_hits),
      static_cast<unsigned long long>(report.dpll_component_splits),
      static_cast<unsigned long long>(report.samples_drawn),
      static_cast<unsigned long long>(report.index_builds),
      static_cast<unsigned long long>(report.index_cache_hits),
      static_cast<unsigned long long>(report.wmc_shared_hits),
      static_cast<unsigned long long>(report.wmc_shared_misses),
      static_cast<unsigned long long>(report.tasks_run), report.num_threads,
      report.deadline_exceeded ? "true" : "false",
      report.cancelled ? "true" : "false");
}

}  // namespace

std::string ExplainResult::ToText() const {
  std::string out = StrFormat("EXPLAIN%s %s\n", analyze ? " ANALYZE" : "",
                              statement.c_str());
  out += StrFormat("routing: %s%s (safety check: %s)\n", method.c_str(),
                   method_predicted ? " (predicted)" : "", safety.c_str());
  for (size_t p = 0; p < plans.size(); ++p) {
    const JoinPlanProfile& plan = plans[p];
    out += StrFormat("plan %zu: %zu step%s%s\n", p + 1, plan.steps.size(),
                     plan.steps.size() == 1 ? "" : "s",
                     plan.executed
                         ? StrFormat(", %llu matches",
                                     static_cast<unsigned long long>(
                                         plan.matches))
                               .c_str()
                         : " (not executed)");
    out += "  step  atom  predicate             rows     est.rows    actual\n";
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const JoinStepProfile& step = plan.steps[i];
      out += StrFormat("  %4zu  %4zu  %-16s %9llu  %11s  %8s\n", i + 1,
                       step.atom_index, step.predicate.c_str(),
                       static_cast<unsigned long long>(step.relation_rows),
                       EstimateText(step.estimated_rows).c_str(),
                       plan.executed
                           ? StrFormat("%llu", static_cast<unsigned long long>(
                                                   step.actual_rows))
                                 .c_str()
                           : "-");
    }
  }
  if (executed) {
    if (boolean) {
      out += StrFormat("probability: %.17g (%s", probability,
                       exact ? "exact" : "approximate");
      if (!exact && std_error > 0) {
        out += StrFormat(", std error %.3g", std_error);
      }
      out += ")\n";
    } else {
      out += StrFormat("answers: %llu tuple%s\n",
                       static_cast<unsigned long long>(answer_tuples),
                       answer_tuples == 1 ? "" : "s");
    }
    if (!explanation.empty()) {
      out += StrFormat("explanation: %s\n", explanation.c_str());
    }
    out += StrFormat("counters: %s\n", report.ToString().c_str());
    out += StrFormat("trace: total %s\n", DurationText(trace.total_ns).c_str());
    for (const QueryTrace::Span& span : trace.spans) {
      std::string counters;
      for (size_t i = 0; i < span.counters.size(); ++i) {
        counters += StrFormat("%s%s=%llu", i == 0 ? "  (" : ", ",
                              span.counters[i].name.c_str(),
                              static_cast<unsigned long long>(
                                  span.counters[i].value));
      }
      if (!counters.empty()) counters += ")";
      out += StrFormat("  %-14s %10s%s\n", TracePhaseName(span.phase),
                       DurationText(span.duration_ns).c_str(),
                       counters.c_str());
    }
  }
  return out;
}

std::string ExplainResult::ToJson() const {
  std::string out = StrFormat(
      "{\"statement\":\"%s\",\"analyze\":%s,\"boolean\":%s,"
      "\"method\":\"%s\",\"method_predicted\":%s,\"safe\":%s,"
      "\"safety\":\"%s\",\"plans\":[",
      JsonEscape(statement).c_str(), analyze ? "true" : "false",
      boolean ? "true" : "false", JsonEscape(method).c_str(),
      method_predicted ? "true" : "false", safe ? "true" : "false",
      JsonEscape(safety).c_str());
  for (size_t i = 0; i < plans.size(); ++i) {
    if (i > 0) out += ",";
    out += PlanJson(plans[i]);
  }
  out += StrFormat("],\"executed\":%s", executed ? "true" : "false");
  if (executed) {
    out += StrFormat(
        ",\"probability\":%.17g,\"exact\":%s,\"std_error\":%.17g,"
        "\"answer_tuples\":%llu,\"explanation\":\"%s\",\"report\":%s,"
        "\"trace\":%s",
        probability, exact ? "true" : "false", std_error,
        static_cast<unsigned long long>(answer_tuples),
        JsonEscape(explanation).c_str(), ReportJson(report).c_str(),
        trace.ToJson().c_str());
  }
  out += "}";
  return out;
}

}  // namespace pdb
