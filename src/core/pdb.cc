#include "core/pdb.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "boolean/lineage.h"
#include "core/session.h"
#include "logic/analysis.h"
#include "plans/bounds.h"
#include "sql/sql.h"
#include "util/string_util.h"
#include "wmc/dpll.h"
#include "wmc/montecarlo.h"

namespace pdb {

const char* InferenceMethodToString(InferenceMethod method) {
  switch (method) {
    case InferenceMethod::kLifted:
      return "lifted";
    case InferenceMethod::kGroundedExact:
      return "grounded-exact";
    case InferenceMethod::kMonteCarlo:
      return "monte-carlo";
    case InferenceMethod::kPlanBounds:
      return "plan-bounds";
  }
  return "?";
}

Result<FoPtr> ParseBooleanQuery(const std::string& query_text) {
  auto fo = ParseFo(query_text);
  if (fo.ok()) {
    // Boolean-query convention: free variables are existentially closed.
    FoPtr sentence = *fo;
    std::set<std::string> free = sentence->FreeVariables();
    if (!free.empty()) {
      sentence = Fo::Exists(
          std::vector<std::string>(free.begin(), free.end()), sentence);
    }
    return sentence;
  }
  auto ucq = ParseUcqShorthand(query_text);
  if (ucq.ok()) return *ucq;
  return Status::InvalidArgument(
      StrFormat("cannot parse query (as FO: %s; as UCQ: %s)",
                fo.status().message().c_str(),
                ucq.status().message().c_str()));
}

namespace {

/// One-shot session reproducing the historical per-query behaviour: a
/// private pool at the query's requested width, no cross-query cache.
SessionOptions SingleShotOptions(const QueryOptions& options) {
  SessionOptions session_options;
  session_options.num_threads = options.exec.num_threads;
  session_options.cache_results = false;
  return session_options;
}

/// Sets a sampled answer's estimate and interval: the ±2σ band around the
/// estimate, narrowed by the plan bounds when there are any. Plan bounds
/// are sound, so when the band misses them altogether they stand alone.
/// The estimate is then clamped into the interval it is reported with.
void SetSampledAnswer(const Estimate& estimate,
                      const std::optional<PlanBounds>& bounds,
                      QueryAnswer* answer) {
  answer->std_error = estimate.std_error;
  answer->lower =
      std::clamp(estimate.value - 2.0 * estimate.std_error, 0.0, 1.0);
  answer->upper =
      std::clamp(estimate.value + 2.0 * estimate.std_error, 0.0, 1.0);
  if (bounds.has_value()) {
    answer->lower = std::max(answer->lower, bounds->lower);
    answer->upper = std::min(answer->upper, bounds->upper);
    if (answer->lower > answer->upper) {
      answer->lower = bounds->lower;
      answer->upper = bounds->upper;
    }
  }
  answer->probability =
      std::min(std::max(estimate.value, answer->lower), answer->upper);
}

}  // namespace

Result<QueryAnswer> ProbDatabase::Query(const std::string& query_text,
                                        const QueryOptions& options) const {
  Session session(this, SingleShotOptions(options));
  return session.Query(query_text, options);
}

Result<QueryAnswer> ProbDatabase::QueryFoWithContext(
    const FoPtr& sentence, const QueryOptions& options,
    ExecContext* ctx) const {
  QueryAnswer answer;
  QueryTrace* trace = ctx ? ctx->trace() : nullptr;

  // 1. Lifted inference (exact, polynomial time) when the query is safe.
  if (options.prefer_lifted) {
    TraceSpan lifted_span(trace, TracePhase::kLifted);
    LiftedStats stats;
    auto lifted =
        LiftedProbabilityFo(sentence, db_, options.lifted, &stats, ctx);
    if (lifted.ok()) {
      lifted_span.AddCounter("separator_groundings",
                             stats.separator_groundings);
      lifted_span.AddCounter("inclusion_exclusions",
                             stats.inclusion_exclusions);
      if (stats.inclusion_exclusions > 0) {
        lifted_span.AddCounter("ie_max_width", stats.ie_max_width);
        lifted_span.AddCounter("ie_terms_cancelled",
                               stats.ie_terms_cancelled);
      }
      answer.probability = *lifted;
      answer.lower = answer.upper = *lifted;
      answer.method = InferenceMethod::kLifted;
      answer.exact = true;
      answer.explanation = StrFormat(
          "lifted inference: %llu separator groundings, %llu "
          "inclusion-exclusions (%llu cancelled terms)",
          static_cast<unsigned long long>(stats.separator_groundings),
          static_cast<unsigned long long>(stats.inclusion_exclusions),
          static_cast<unsigned long long>(stats.ie_terms_cancelled));
      return answer;
    }
    if (lifted.status().code() != StatusCode::kUnsupported) {
      return lifted.status();
    }
    // A lifted attempt that fails Unsupported *is* the engine's safety
    // check: the rules failing means the query left the polynomial regime
    // (exactly the dichotomy boundary for the classes with one), so the
    // span is reclassified and the grounded machinery below takes over.
    lifted_span.SetPhase(TracePhase::kSafetyCheck);
  }

  // 2. Grounded exact inference within the decision and wall-clock budget.
  // The formula store and the solver live in optionals so the answer paths
  // can free them while their trace span is still open: for hard lineages
  // the teardown (memo table + hash-consed nodes) is a visible slice of the
  // end-to-end latency, and an untimed gap there would break the invariant
  // that the top-level spans account for the query's wall clock.
  std::optional<FormulaManager> mgr(std::in_place);
  Lineage lineage;
  // A UCQ-shaped sentence grounds once, through the compiled join engine,
  // into its DNF lineage — polynomial in the data rather than
  // domain^#vars, and it engages the cost-based atom order, the columnar
  // executor, and EXPLAIN ANALYZE's join profile. DPLL's formula is built
  // from that DNF, and the plan bounds and Karp–Luby below read the same
  // DNF. Everything else (negation, universals) takes the FO grounder over
  // the active domain.
  auto as_ucq = FoToUcq(sentence);
  std::optional<DnfLineage> dnf;
  {
    TraceSpan lineage_span(trace, TracePhase::kLineage);
    const size_t nodes_before = mgr->NumNodes();
    if (as_ucq.ok()) {
      GroundingOptions grounding;
      grounding.exec = ctx;
      PDB_ASSIGN_OR_RETURN(dnf, BuildUcqDnf(*as_ucq, db_, grounding));
      lineage = LineageOfDnf(*dnf, &*mgr);
    } else {
      PDB_ASSIGN_OR_RETURN(lineage, BuildLineage(sentence, db_, &*mgr));
    }
    if (ctx != nullptr) {
      ctx->Add(ExecCounter::kLineageNodes, mgr->NumNodes() - nodes_before);
    }
    lineage_span.AddCounter("lineage_vars", lineage.vars.size());
  }
  DpllOptions dpll_options;
  dpll_options.max_decisions = options.max_dpll_decisions;
  dpll_options.exec = ctx;
  // The session owns the cross-query cache and hands it down through the
  // context; a null pointer simply disables cross-query memoization.
  dpll_options.shared_cache = ctx ? ctx->wmc_cache() : nullptr;
  std::optional<DpllCounter> counter(
      std::in_place, &*mgr, WeightsFromProbabilities(lineage.probs),
      dpll_options);
  TraceSpan dpll_span(trace, TracePhase::kDpll);
  auto grounded = counter->Compute(lineage.root);
  dpll_span.AddCounter("decisions", counter->stats().decisions);
  dpll_span.AddCounter("cache_hits", counter->stats().cache_hits);
  dpll_span.AddCounter("component_splits", counter->stats().component_splits);
  if (counter->stats().shared_hits + counter->stats().shared_misses > 0) {
    dpll_span.AddCounter("shared_hits", counter->stats().shared_hits);
    dpll_span.AddCounter("shared_probe_ns", counter->stats().shared_probe_ns);
  }
  if (grounded.ok()) {
    answer.probability = *grounded;
    answer.lower = answer.upper = *grounded;
    answer.method = InferenceMethod::kGroundedExact;
    answer.exact = true;
    answer.explanation = StrFormat(
        "grounded WMC: %llu decisions, %llu cache hits, %llu component "
        "splits over %zu lineage variables",
        static_cast<unsigned long long>(counter->stats().decisions),
        static_cast<unsigned long long>(counter->stats().cache_hits),
        static_cast<unsigned long long>(counter->stats().component_splits),
        lineage.vars.size());
    if (counter->stats().shared_hits > 0) {
      answer.explanation += StrFormat(
          ", %llu shared-cache hits",
          static_cast<unsigned long long>(counter->stats().shared_hits));
    }
    counter.reset();
    mgr.reset();
    dpll_span.End();
    return answer;
  }
  dpll_span.End();
  if (grounded.status().code() != StatusCode::kResourceExhausted &&
      grounded.status().code() != StatusCode::kDeadlineExceeded) {
    return grounded.status();
  }
  // Degrade, don't fail: when the deadline killed exact inference, clear it
  // so the sampling fallback below completes (the report still records the
  // overrun), and say so in the explanation.
  std::string fallback_note;
  if (grounded.status().code() == StatusCode::kDeadlineExceeded) {
    ctx->ClearDeadline();
    fallback_note = StrFormat("exact WMC abandoned (%s); fell back to ",
                              grounded.status().message().c_str());
  }

  // 3. Approximation. Plan bounds when the query is a self-join-free CQ.
  std::optional<PlanBounds> bounds;
  if (dnf.has_value() && as_ucq->size() == 1 &&
      as_ucq->disjuncts()[0].IsSelfJoinFree()) {
    auto computed = ComputePlanBounds(as_ucq->disjuncts()[0], db_,
                                      /*max_vars=*/7, ctx, &*dnf);
    if (computed.ok()) bounds = *computed;
  }
  if (options.allow_monte_carlo) {
    TraceSpan mc_span(trace, TracePhase::kMonteCarlo);
    Rng rng(options.monte_carlo_seed);
    Estimate estimate;
    std::string method_note;
    if (dnf.has_value()) {
      // UCQ lineages are monotone DNFs: Karp-Luby gives relative-error
      // guarantees independent of how small the probability is.
      Result<Estimate> sampled = Status::Internal("unreached");
      if (options.monte_carlo_target_stderr > 0) {
        AdaptiveSampleOptions adaptive;
        adaptive.max_samples = options.monte_carlo_samples;
        adaptive.target_std_error = options.monte_carlo_target_stderr;
        sampled =
            KarpLubyDnfAdaptive(dnf->terms, dnf->probs, adaptive, &rng, ctx);
      } else {
        sampled = KarpLubyDnf(dnf->terms, dnf->probs,
                              options.monte_carlo_samples, &rng, ctx);
      }
      PDB_ASSIGN_OR_RETURN(estimate, sampled);
      mc_span.AddCounter("samples", estimate.samples);
      mc_span.AddCounter("dnf_terms", dnf->terms.size());
      method_note = StrFormat(
          "Karp-Luby: %llu samples over %zu DNF terms, stderr %.2g",
          static_cast<unsigned long long>(estimate.samples),
          dnf->terms.size(), estimate.std_error);
    } else {
      estimate = NaiveMonteCarlo(&*mgr, lineage.root, lineage.probs,
                                 options.monte_carlo_samples, &rng, ctx);
      mc_span.AddCounter("samples", estimate.samples);
      method_note = StrFormat(
          "Monte Carlo: %llu samples, stderr %.2g",
          static_cast<unsigned long long>(estimate.samples),
          estimate.std_error);
    }
    SetSampledAnswer(estimate, bounds, &answer);
    answer.method = InferenceMethod::kMonteCarlo;
    answer.exact = false;
    answer.explanation = fallback_note + method_note;
    if (bounds.has_value()) {
      answer.explanation += StrFormat(
          "; plan bounds [%.6g, %.6g] over %zu plans", bounds->lower,
          bounds->upper, bounds->num_plans);
    }
    // Free the (failed) exact solver inside the open span — see the
    // comment at `mgr`'s declaration.
    counter.reset();
    mgr.reset();
    return answer;
  }
  if (bounds.has_value()) {
    answer.lower = bounds->lower;
    answer.upper = bounds->upper;
    answer.probability = 0.5 * (bounds->lower + bounds->upper);
    answer.method = InferenceMethod::kPlanBounds;
    answer.exact = false;
    answer.explanation = StrFormat("oblivious plan bounds over %zu plans",
                                   bounds->num_plans);
    return answer;
  }
  return Status::ResourceExhausted(
      "query is too hard for exact inference and approximation is disabled");
}

Result<double> ProbDatabase::ConditionalProbability(
    const FoPtr& query, const FoPtr& evidence,
    const QueryOptions& options) const {
  FormulaManager mgr;
  // P(query | evidence) = P(query ∧ evidence) / P(evidence): the joint
  // sentence grounds in `mgr`, and the evidence grounds again, on its own,
  // in a second manager. Each grounding numbers its variables itself.
  FoPtr joint_sentence = Fo::And(query, evidence);
  PDB_ASSIGN_OR_RETURN(Lineage joint, BuildLineage(joint_sentence, db_, &mgr));
  DpllOptions dpll_options;
  dpll_options.max_decisions = options.max_dpll_decisions;
  DpllCounter joint_counter(&mgr, WeightsFromProbabilities(joint.probs),
                            dpll_options);
  PDB_ASSIGN_OR_RETURN(double p_joint, joint_counter.Compute(joint.root));

  FormulaManager evidence_mgr;
  PDB_ASSIGN_OR_RETURN(Lineage evidence_lineage,
                       BuildLineage(evidence, db_, &evidence_mgr));
  DpllCounter evidence_counter(
      &evidence_mgr, WeightsFromProbabilities(evidence_lineage.probs),
      dpll_options);
  PDB_ASSIGN_OR_RETURN(double p_evidence,
                       evidence_counter.Compute(evidence_lineage.root));
  if (p_evidence == 0.0) {
    return Status::InvalidArgument("evidence has probability zero");
  }
  return p_joint / p_evidence;
}

Result<std::vector<ProbDatabase::TupleInfluence>> ProbDatabase::TopInfluences(
    const FoPtr& sentence, size_t k, const QueryOptions& options) const {
  FormulaManager mgr;
  PDB_ASSIGN_OR_RETURN(Lineage lineage, BuildLineage(sentence, db_, &mgr));
  DpllOptions dpll_options;
  dpll_options.max_decisions = options.max_dpll_decisions;
  std::vector<TupleInfluence> influences;
  for (VarId v = 0; v < lineage.vars.size(); ++v) {
    NodeId present = mgr.Cofactor(lineage.root, v, true);
    NodeId absent = mgr.Cofactor(lineage.root, v, false);
    DpllCounter c1(&mgr, WeightsFromProbabilities(lineage.probs),
                   dpll_options);
    PDB_ASSIGN_OR_RETURN(double p1, c1.Compute(present));
    DpllCounter c0(&mgr, WeightsFromProbabilities(lineage.probs),
                   dpll_options);
    PDB_ASSIGN_OR_RETURN(double p0, c0.Compute(absent));
    const LineageVar& lv = lineage.vars[v];
    PDB_ASSIGN_OR_RETURN(const Relation* rel, db_.Get(lv.relation));
    influences.push_back({lv.relation, rel->tuple(lv.row), p1 - p0});
  }
  std::sort(influences.begin(), influences.end(),
            [](const TupleInfluence& a, const TupleInfluence& b) {
              return std::abs(a.influence) > std::abs(b.influence);
            });
  if (influences.size() > k) influences.resize(k);
  return influences;
}

Result<QueryAnswer> ProbDatabase::QuerySqlBoolean(
    const std::string& sql, const QueryOptions& options) const {
  Session session(this, SingleShotOptions(options));
  return session.QuerySqlBoolean(sql, options);
}

Result<Relation> ProbDatabase::QuerySqlAnswers(
    const std::string& sql, const QueryOptions& options) const {
  Session session(this, SingleShotOptions(options));
  return session.QuerySqlAnswers(sql, options);
}

Result<Relation> ProbDatabase::QueryWithAnswers(
    const ConjunctiveQuery& cq, const std::vector<std::string>& head_vars,
    const QueryOptions& options,
    std::vector<AnswerTupleInfo>* info) const {
  Session session(this, SingleShotOptions(options));
  return session.QueryWithAnswers(cq, head_vars, options, info);
}

}  // namespace pdb
