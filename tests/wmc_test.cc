#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <unordered_map>

#include "boolean/lineage.h"
#include "exec/thread_pool.h"
#include "logic/parser.h"
#include "test_common.h"
#include "util/string_util.h"
#include "wmc/dpll.h"
#include "wmc/enumeration.h"
#include "wmc/montecarlo.h"
#include "wmc/weights.h"
#include "wmc/wmc_cache.h"
#include "workloads.h"

namespace pdb {
namespace {

// Builds a random formula over `num_vars` variables.
NodeId RandomFormula(FormulaManager* mgr, size_t num_vars, size_t depth,
                     Rng* rng) {
  if (depth == 0 || rng->Bernoulli(0.3)) {
    NodeId leaf = mgr->Var(static_cast<VarId>(rng->Uniform(num_vars)));
    return rng->Bernoulli(0.3) ? mgr->Not(leaf) : leaf;
  }
  size_t fanin = 2 + rng->Uniform(3);
  std::vector<NodeId> kids;
  for (size_t i = 0; i < fanin; ++i) {
    kids.push_back(RandomFormula(mgr, num_vars, depth - 1, rng));
  }
  return rng->Bernoulli(0.5) ? mgr->And(std::move(kids))
                             : mgr->Or(std::move(kids));
}

std::vector<double> RandomProbs(size_t n, Rng* rng) {
  std::vector<double> probs(n, 0.5);
  if (rng != nullptr) {
    for (double& p : probs) p = rng->NextDouble();
  }
  return probs;
}

// ---------------------------------------------------------------------------
// Enumeration oracle sanity
// ---------------------------------------------------------------------------

TEST(EnumerationTest, SingleVariable) {
  FormulaManager mgr;
  NodeId x = mgr.Var(0);
  EXPECT_DOUBLE_EQ(*EnumerateProbability(&mgr, x, {0.3}), 0.3);
  EXPECT_DOUBLE_EQ(*EnumerateProbability(&mgr, mgr.Not(x), {0.3}), 0.7);
  EXPECT_DOUBLE_EQ(*EnumerateProbability(&mgr, mgr.True(), {}), 1.0);
  EXPECT_DOUBLE_EQ(*EnumerateProbability(&mgr, mgr.False(), {}), 0.0);
}

TEST(EnumerationTest, IndependentAndOr) {
  FormulaManager mgr;
  NodeId f = mgr.And(mgr.Var(0), mgr.Var(1));
  EXPECT_DOUBLE_EQ(*EnumerateProbability(&mgr, f, {0.5, 0.4}), 0.2);
  NodeId g = mgr.Or(mgr.Var(0), mgr.Var(1));
  EXPECT_NEAR(*EnumerateProbability(&mgr, g, {0.5, 0.4}), 0.7, 1e-12);
}

TEST(EnumerationTest, GuardsVariableCount) {
  FormulaManager mgr;
  std::vector<NodeId> vars;
  for (VarId v = 0; v < 40; ++v) vars.push_back(mgr.Var(v));
  NodeId f = mgr.Or(std::move(vars));
  EXPECT_EQ(EnumerateProbability(&mgr, f, RandomProbs(40, nullptr))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(EnumerationTest, ExactMatchesDouble) {
  FormulaManager mgr;
  Rng rng(5);
  NodeId f = RandomFormula(&mgr, 8, 3, &rng);
  std::vector<double> probs = RandomProbs(8, &rng);
  double approx = *EnumerateProbability(&mgr, f, probs);
  BigRational exact = *EnumerateProbabilityExact(&mgr, f, probs);
  EXPECT_NEAR(exact.ToDouble(), approx, 1e-9);
}

TEST(EnumerationTest, CountModels) {
  FormulaManager mgr;
  // x0 | x1 over 2 vars: 3 models.
  EXPECT_EQ(*CountModels(&mgr, mgr.Or(mgr.Var(0), mgr.Var(1))), BigInt(3));
  // Appendix Figure 3 formula: (x1|x2)&(x1|x3)&(x2|x3) has 4 models.
  NodeId f = mgr.And(std::vector<NodeId>{mgr.Or(mgr.Var(0), mgr.Var(1)),
                                         mgr.Or(mgr.Var(0), mgr.Var(2)),
                                         mgr.Or(mgr.Var(1), mgr.Var(2))});
  EXPECT_EQ(*CountModels(&mgr, f), BigInt(4));
}

// ---------------------------------------------------------------------------
// Appendix Figure 3: weights vs probabilities
// ---------------------------------------------------------------------------

TEST(WeightsTest, AppendixWeightProbabilityCorrespondence) {
  // weight(F) / Z == p(F) when p_i = w_i / (1 + w_i).
  FormulaManager mgr;
  NodeId f = mgr.And(std::vector<NodeId>{mgr.Or(mgr.Var(0), mgr.Var(1)),
                                         mgr.Or(mgr.Var(0), mgr.Var(2)),
                                         mgr.Or(mgr.Var(1), mgr.Var(2))});
  const double w1 = 0.5, w2 = 2.0, w3 = 3.0;
  // Weighted semantics: weight pairs (w_i, 1).
  WeightMap weights = {{w1, 1.0}, {w2, 1.0}, {w3, 1.0}};
  double weight_f = *EnumerateWmc(&mgr, f, weights);
  // Closed form from the appendix: w2w3 + w1w3 + w1w2 + w1w2w3.
  EXPECT_NEAR(weight_f, w2 * w3 + w1 * w3 + w1 * w2 + w1 * w2 * w3, 1e-12);
  double z = (1 + w1) * (1 + w2) * (1 + w3);
  std::vector<double> probs = {w1 / (1 + w1), w2 / (1 + w2), w3 / (1 + w3)};
  EXPECT_NEAR(weight_f / z, *EnumerateProbability(&mgr, f, probs), 1e-12);
}

// ---------------------------------------------------------------------------
// DPLL vs enumeration (property tests)
// ---------------------------------------------------------------------------

struct DpllCase {
  bool components;
  DpllHeuristic heuristic;
};

class DpllPropertyTest : public ::testing::TestWithParam<DpllCase> {};

TEST_P(DpllPropertyTest, MatchesEnumerationOnRandomFormulas) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    FormulaManager mgr;
    Rng rng(seed * 7919 + 13);
    NodeId f = RandomFormula(&mgr, 10, 3, &rng);
    std::vector<double> probs = RandomProbs(10, &rng);
    double expected = *EnumerateProbability(&mgr, f, probs);
    DpllOptions options;
    options.use_components = GetParam().components;
    options.heuristic = GetParam().heuristic;
    DpllCounter counter(&mgr, WeightsFromProbabilities(probs), options);
    auto got = counter.Compute(f);
    ASSERT_TRUE(got.ok());
    EXPECT_NEAR(*got, expected, 1e-9) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, DpllPropertyTest,
    ::testing::Values(DpllCase{true, DpllHeuristic::kMostOccurrences},
                      DpllCase{false, DpllHeuristic::kMostOccurrences},
                      DpllCase{true, DpllHeuristic::kLowestVar},
                      DpllCase{false, DpllHeuristic::kLowestVar}));

TEST(DpllTest, GeneralWeightsWithFreedVariables) {
  // f = x0 (x1 unconstrained). WMC relative to vars(f) must not include
  // x1; but cofactors that drop variables must reintroduce (w+w̄).
  FormulaManager mgr;
  NodeId f = mgr.Or(mgr.And(mgr.Var(0), mgr.Var(1)), mgr.Var(0));
  // Simplification does not fold this to x0 (no absorption rule), so the
  // counter must handle x1 disappearing in cofactors.
  WeightMap weights = {{2.0, 3.0}, {5.0, 7.0}};
  DpllCounter counter(&mgr, weights);
  // Models over {x0,x1}: (1,0): 2*7=14, (1,1): 2*5=10 -> 24.
  EXPECT_NEAR(*counter.Compute(f), 24.0, 1e-12);
}

TEST(DpllTest, SkolemWeightsCancel) {
  // With w(A) = 1, w̄(A) = -1: WMC(!phi | A) sums to 0 for assignments
  // where phi holds and A is unconstrained... verify on a tiny case:
  // F = !x0 | a. WMC over {x0, a} with w(x0)=p, w̄=1-p:
  //   x0=0: a free -> (1-p)*(1 + -1) = 0
  //   x0=1: a must be 1 -> p*1 = p
  FormulaManager mgr;
  NodeId f = mgr.Or(mgr.Not(mgr.Var(0)), mgr.Var(1));
  WeightMap weights = {{0.3, 0.7}, {1.0, -1.0}};
  DpllCounter counter(&mgr, weights);
  EXPECT_NEAR(*counter.Compute(f), 0.3, 1e-12);
}

TEST(DpllTest, DecisionLimit) {
  FormulaManager mgr;
  // The triangle CNF needs several Shannon expansions.
  NodeId f = mgr.And(std::vector<NodeId>{mgr.Or(mgr.Var(0), mgr.Var(1)),
                                         mgr.Or(mgr.Var(0), mgr.Var(2)),
                                         mgr.Or(mgr.Var(1), mgr.Var(2))});
  DpllOptions options;
  options.max_decisions = 1;
  DpllCounter counter(&mgr, WeightsFromProbabilities(RandomProbs(3, nullptr)),
                      options);
  EXPECT_EQ(counter.Compute(f).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(DpllTest, StatsArePopulated) {
  FormulaManager mgr;
  // Two independent conjuncts force a component split; inside each, the
  // terms share a variable, so the counter decides it, and the cofactor
  // x1 = 1 leaves a disjunction of independent literals, which splits too.
  auto block = [&](VarId a, VarId b, VarId c) {
    return mgr.Or(mgr.And(mgr.Var(a), mgr.Var(b)),
                  mgr.And(mgr.Var(b), mgr.Var(c)));
  };
  NodeId f = mgr.And(block(0, 1, 2), block(3, 4, 5));
  std::vector<double> probs = RandomProbs(6, nullptr);
  DpllCounter counter(&mgr, WeightsFromProbabilities(probs));
  auto p = counter.Compute(f);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(counter.stats().decisions, 2u);
  EXPECT_EQ(counter.stats().component_splits, 3u);
  EXPECT_NEAR(*p, *EnumerateProbability(&mgr, f, probs), 1e-15);
}

/// `weights` as exact rationals, for EnumerateWmcExact.
RationalWeightMap ExactWeights(const WeightMap& weights) {
  RationalWeightMap exact;
  for (const WeightPair& w : weights) {
    exact.push_back({BigRational::FromDouble(w.w_true),
                     BigRational::FromDouble(w.w_false)});
  }
  return exact;
}

TEST(DpllTest, DisjointDisjunctsNeedNoDecisions) {
  // A disjunction of variable-disjoint terms is counted term by term:
  // every term is a conjunction of its own literals, so no variable is
  // ever decided, under probabilities, general and negative weights
  // alike (a Skolem pair's w + w̄ is 0).
  Rng rng(2404);
  for (int round = 0; round < 30; ++round) {
    FormulaManager mgr;
    std::vector<NodeId> terms;
    VarId next = 0;
    const size_t num_terms = 2 + rng.Uniform(4);
    for (size_t t = 0; t < num_terms; ++t) {
      std::vector<NodeId> literals;
      const size_t width = 1 + rng.Uniform(3);
      for (size_t i = 0; i < width; ++i) {
        NodeId lit = mgr.Var(next++);
        literals.push_back(rng.Bernoulli(0.3) ? mgr.Not(lit) : lit);
      }
      terms.push_back(mgr.And(std::move(literals)));
    }
    NodeId f = mgr.Or(std::move(terms));
    for (int kind = 0; kind < 3; ++kind) {
      WeightMap weights;
      for (VarId v = 0; v < next; ++v) {
        if (kind == 0) {
          weights.push_back(WeightPair::Probability(rng.NextDouble()));
        } else if (kind == 1) {
          weights.push_back(
              {4 * rng.NextDouble() - 2, 4 * rng.NextDouble() - 2});
        } else {
          weights.push_back(rng.Bernoulli(0.3) ? WeightPair::Skolem()
                                               : WeightPair{rng.NextDouble(),
                                                            1.0});
        }
      }
      SCOPED_TRACE(StrFormat("round %d kind %d: %s", round, kind,
                             mgr.ToString(f).c_str()));
      DpllCounter counter(&mgr, weights);
      auto got = counter.Compute(f);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(counter.stats().decisions, 0u);
      EXPECT_GE(counter.stats().component_splits, 1u);
      const double want =
          EnumerateWmcExact(&mgr, f, ExactWeights(weights))->ToDouble();
      EXPECT_NEAR(*got, want, 1e-12 * std::max(1.0, std::fabs(want)));
    }
  }
}

// Cold-read's 9x9 H0 block (34 edges, 52 variables), counted by the
// search as it stands: the probability's bits and the search's counts are
// pinned, so a change to the formula manager or the counter's bookkeeping
// that alters the search, or the rounding of its fold, fails here.
TEST(DpllTest, LargeH0BlockKeepsItsBitsAndCounts) {
  Rng gen(24);
  Database db =
      bench::H0BlockDatabase(9, bench::BlockEdges(9, 0.5, 1), 0.05, 0.25, &gen);
  auto ucq = FoToUcq(*ParseUcqShorthand("R(x), S(x,y), T(y)"));
  ASSERT_TRUE(ucq.ok());
  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared cache" : "no shared cache");
    FormulaManager mgr;
    auto lineage = BuildUcqLineage(*ucq, db, &mgr);
    ASSERT_TRUE(lineage.ok());
    ASSERT_EQ(lineage->probs.size(), 52u);
    WmcCache cache;
    DpllOptions options;
    if (shared) options.shared_cache = &cache;
    DpllCounter counter(&mgr, WeightsFromProbabilities(lineage->probs),
                        options);
    auto p = counter.Compute(lineage->root);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(*p), 0x3fb98d6c1894c33fULL) << *p;
    EXPECT_EQ(counter.stats().decisions, 358u);
    EXPECT_EQ(counter.stats().cache_hits, 458u);
    EXPECT_EQ(counter.stats().component_splits, 512u);
    EXPECT_EQ(counter.stats().shared_hits, 0u);
    EXPECT_EQ(counter.stats().shared_misses,
              shared ? DpllCounter::kSharedMissBudget : 0u);
  }
}

// The counter as it was when only conjunctions split: a NodeId cache,
// std::map bookkeeping, conjunction components in ascending smallest-VarId
// order, and Shannon expansion on the variable in the most children. With
// a trace sink attached or `use_components = false`, DpllCounter must
// reproduce it exactly: the same bits, decisions, cache hits and splits.
class ConjunctionSplitCounter {
 public:
  ConjunctionSplitCounter(FormulaManager* mgr, WeightMap weights,
                          bool components)
      : mgr_(mgr), weights_(std::move(weights)), components_(components) {}

  double Count(NodeId f) {
    switch (mgr_->kind(f)) {
      case FormulaKind::kTrue:
        return 1.0;
      case FormulaKind::kFalse:
        return 0.0;
      case FormulaKind::kVar:
        return weights_[mgr_->var(f)].w_true;
      default:
        break;
    }
    auto it = cache_.find(f);
    if (it != cache_.end()) {
      ++stats.cache_hits;
      return it->second;
    }
    if (mgr_->kind(f) == FormulaKind::kNot &&
        mgr_->kind(mgr_->children(f)[0]) == FormulaKind::kVar) {
      return cache_[f] = weights_[mgr_->var(mgr_->children(f)[0])].w_false;
    }
    if (components_ && mgr_->kind(f) == FormulaKind::kAnd) {
      auto kids = mgr_->children(f);
      std::vector<size_t> rep(kids.size());
      for (size_t i = 0; i < kids.size(); ++i) rep[i] = i;
      auto find = [&](size_t x) {
        while (rep[x] != x) x = rep[x];
        return x;
      };
      std::map<VarId, size_t> first_child_of_var;
      for (size_t i = 0; i < kids.size(); ++i) {
        for (VarId v : mgr_->VarsOf(kids[i])) {
          auto [pos, inserted] = first_child_of_var.emplace(v, i);
          if (!inserted) rep[find(i)] = find(pos->second);
        }
      }
      std::map<size_t, std::vector<NodeId>> by_rep;
      for (size_t i = 0; i < kids.size(); ++i) {
        by_rep[find(i)].push_back(kids[i]);
      }
      if (by_rep.size() > 1) {
        std::map<VarId, std::vector<NodeId>> by_min_var;
        for (auto& [r, members] : by_rep) {
          VarId min_var = mgr_->VarsOf(members[0]).front();
          for (NodeId m : members) {
            min_var = std::min(min_var, mgr_->VarsOf(m).front());
          }
          by_min_var[min_var] = std::move(members);
        }
        ++stats.component_splits;
        double product = 1.0;
        for (auto& [min_var, members] : by_min_var) {
          product *= Count(mgr_->And(members));
        }
        return cache_[f] = product;
      }
    }
    ++stats.decisions;
    std::map<VarId, size_t> counts;
    for (NodeId c : mgr_->children(f)) {
      for (VarId v : mgr_->VarsOf(c)) ++counts[v];
    }
    VarId v = mgr_->VarsOf(f)[0];
    size_t best = 0;
    for (const auto& [var, n] : counts) {
      if (n > best) {
        v = var;
        best = n;
      }
    }
    std::span<const VarId> all = mgr_->VarsOf(f);
    NodeId f0 = mgr_->Cofactor(f, v, false);
    NodeId f1 = mgr_->Cofactor(f, v, true);
    double e0 = Count(f0);
    double e1 = Count(f1);
    auto freed = [&](NodeId sub) {
      std::span<const VarId> kept = mgr_->VarsOf(sub);
      double factor = 1.0;
      for (VarId u : all) {
        if (u != v && !std::binary_search(kept.begin(), kept.end(), u)) {
          factor *= weights_[u].sum();
        }
      }
      return factor;
    };
    double corr0 = freed(f0);
    double corr1 = freed(f1);
    return cache_[f] = weights_[v].w_false * e0 * corr0 +
                       weights_[v].w_true * e1 * corr1;
  }

  DpllStats stats;

 private:
  FormulaManager* mgr_;
  WeightMap weights_;
  bool components_;
  std::unordered_map<NodeId, double> cache_;
};

/// Numbers the trace nodes and counts the component nodes.
class CountingTraceSink : public DpllTraceSink {
 public:
  Ref TrueNode() override { return 1; }
  Ref FalseNode() override { return 0; }
  Ref Decision(VarId, Ref, Ref) override { return next_++; }
  Ref AndNode(const std::vector<Ref>&) override {
    ++and_nodes;
    return next_++;
  }
  uint64_t and_nodes = 0;

 private:
  Ref next_ = 2;
};

TEST(DpllTest, TraceSinkAndNoComponentsCountLikeConjunctionSplitOnly) {
  auto ucq = FoToUcq(*ParseUcqShorthand("R(x), S(x,y), T(y)"));
  ASSERT_TRUE(ucq.ok());
  uint64_t reference_decisions = 0;
  size_t fewer_with_disjunction_split = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed * 2654435761u + 5);
    FormulaManager mgr;
    NodeId f;
    WeightMap weights;
    if (seed % 2 == 0) {
      f = RandomFormula(&mgr, 16, 5, &rng);
      for (VarId v = 0; v < 16; ++v) {
        weights.push_back(seed % 4 == 0
                              ? WeightPair::Probability(rng.NextDouble())
                              : WeightPair{2 * rng.NextDouble() - 0.5,
                                           2 * rng.NextDouble() - 0.5});
      }
    } else {
      // H0 over a random 4x4 instance.
      Database db;
      testing::RandomTidOptions tid;
      tid.presence = 0.75;
      testing::AddRandomRelation(&db, "R", 1, &rng, tid);
      testing::AddRandomRelation(&db, "S", 2, &rng, tid);
      testing::AddRandomRelation(&db, "T", 1, &rng, tid);
      auto lineage = BuildUcqLineage(*ucq, db, &mgr);
      ASSERT_TRUE(lineage.ok());
      f = lineage->root;
      weights = WeightsFromProbabilities(lineage->probs);
    }
    if (mgr.is_const(f)) continue;
    SCOPED_TRACE(StrFormat("seed %llu: %s",
                           static_cast<unsigned long long>(seed),
                           mgr.ToString(f).c_str()));
    for (bool with_sink : {true, false}) {
      CountingTraceSink sink;
      DpllOptions options;
      if (with_sink) {
        options.trace = &sink;
      } else {
        options.use_components = false;
      }
      DpllCounter counter(&mgr, weights, options);
      auto got = counter.Compute(f);
      ASSERT_TRUE(got.ok());
      ConjunctionSplitCounter reference(&mgr, weights, with_sink);
      const double want = reference.Count(f);
      EXPECT_EQ(*got, want) << (with_sink ? "sink" : "no components");
      EXPECT_EQ(counter.stats().decisions, reference.stats.decisions);
      EXPECT_EQ(counter.stats().cache_hits, reference.stats.cache_hits);
      EXPECT_EQ(counter.stats().component_splits,
                reference.stats.component_splits);
      if (with_sink) {
        EXPECT_EQ(sink.and_nodes, reference.stats.component_splits);
        reference_decisions += reference.stats.decisions;
        DpllCounter plain(&mgr, weights);
        ASSERT_TRUE(plain.Compute(f).ok());
        if (plain.stats().decisions < reference.stats.decisions) {
          ++fewer_with_disjunction_split;
        }
      }
    }
  }
  // The cases search, and without a sink most of them decide less.
  EXPECT_GT(reference_decisions, 1000u);
  EXPECT_GT(fewer_with_disjunction_split, 30u);
}

// ---------------------------------------------------------------------------
// Monte Carlo
// ---------------------------------------------------------------------------

TEST(MonteCarloTest, NaiveConverges) {
  FormulaManager mgr;
  Rng formula_rng(21);
  NodeId f = RandomFormula(&mgr, 10, 3, &formula_rng);
  std::vector<double> probs = RandomProbs(10, &formula_rng);
  double expected = *EnumerateProbability(&mgr, f, probs);
  Rng rng(1234);
  Estimate est = NaiveMonteCarlo(&mgr, f, probs, 200000, &rng);
  EXPECT_NEAR(est.value, expected, 5 * est.std_error + 1e-6);
  EXPECT_LT(est.std_error, 0.005);
}

TEST(MonteCarloTest, KarpLubyConverges) {
  // DNF from the H0 lineage on a small random TID.
  Database db;
  Rng gen(5);
  testing::AddRandomRelation(&db, "R", 1, &gen);
  testing::AddRandomRelation(&db, "S", 2, &gen);
  testing::AddRandomRelation(&db, "T", 1, &gen);
  auto ucq = FoToUcq(*ParseUcqShorthand("R(x), S(x,y), T(y)"));
  auto dnf = BuildUcqDnf(*ucq, db);
  ASSERT_TRUE(dnf.ok());
  if (dnf->terms.empty()) GTEST_SKIP() << "degenerate random instance";
  // Exact reference via formula enumeration.
  FormulaManager mgr;
  std::vector<NodeId> terms;
  for (const auto& term : dnf->terms) {
    std::vector<NodeId> lits;
    for (VarId v : term) lits.push_back(mgr.Var(v));
    terms.push_back(mgr.And(std::move(lits)));
  }
  NodeId f = mgr.Or(std::move(terms));
  double expected = *EnumerateProbability(&mgr, f, dnf->probs);
  Rng rng(99);
  auto est = KarpLubyDnf(dnf->terms, dnf->probs, 200000, &rng);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->value, expected, 5 * est->std_error + 1e-6);
}

TEST(MonteCarloTest, KarpLubyEdgeCases) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(KarpLubyDnf({}, {}, 100, &rng)->value, 0.0);
  // All-zero probabilities.
  EXPECT_DOUBLE_EQ(KarpLubyDnf({{0}}, {0.0}, 100, &rng)->value, 0.0);
  // Certain single term.
  EXPECT_DOUBLE_EQ(KarpLubyDnf({{0}}, {1.0}, 100, &rng)->value, 1.0);
  // Variable out of range.
  EXPECT_FALSE(KarpLubyDnf({{5}}, {0.5}, 10, &rng).ok());
  // An empty term is always satisfied, and a repeated variable sets one
  // bit while its probability multiplies into the term's weight twice.
  // Bits taken from the per-sample loop that drew into a std::vector<bool>.
  Rng empty_rng(3);
  auto with_empty =
      KarpLubyDnf({{}, {0}, {1, 0, 1}}, {0.5, 0.25}, 5000, &empty_rng);
  ASSERT_TRUE(with_empty.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(with_empty->value), 0x3fef143db68b897eu);
  EXPECT_EQ(std::bit_cast<uint64_t>(with_empty->std_error),
            0x3f7774a296de30afu);
  EXPECT_EQ(with_empty->samples, 5000u);
}

/// A DNF over `width` variables for the sampler's bit tests. VarIds are
/// 2i + 1, so a variable's bitset position is not its VarId. Term i holds
/// 2-4 variables; one more term spans every variable of probability above
/// 0.4, across all words of a multi-word mask. Probabilities include
/// exactly 0, 1, 0.5 and 1e-300.
struct WideDnf {
  std::vector<std::vector<VarId>> terms;
  std::vector<double> probs;
};

WideDnf MakeWideDnf(size_t width) {
  WideDnf dnf;
  dnf.probs.assign(2 * width + 2, 0.0);
  for (size_t i = 0; i < width; ++i) {
    double p = 0.05 + 0.3 * static_cast<double>((i * 37) % 101) / 101.0;
    if (i % 11 == 3) p = 0.0;
    if (i % 13 == 5) p = 1.0;
    if (i % 7 == 2) p = 0.5;
    if (i % 17 == 9) p = 1e-300;
    dnf.probs[2 * i + 1] = p;
  }
  std::vector<VarId> wide;
  for (size_t i = 0; i < width; ++i) {
    std::vector<VarId> term;
    for (size_t k = 0; k < 2 + i % 3; ++k) {
      term.push_back(static_cast<VarId>(2 * ((i * 7 + k * 13) % width) + 1));
    }
    dnf.terms.push_back(std::move(term));
    if (dnf.probs[2 * i + 1] > 0.4) {
      wide.push_back(static_cast<VarId>(2 * i + 1));
    }
  }
  dnf.terms.push_back(std::move(wide));
  return dnf;
}

// KarpLubyDnf is one batch of KarpLubyDnfAdaptive: one parent RNG draw and
// one batch of `samples`. These value and std_error bits were taken from
// the earlier standalone implementation (width 4) and from the per-sample
// loop that drew into a std::vector<bool> (the wide DNFs: one-word,
// word-boundary and multi-word masks), on one worker and on three.
TEST(MonteCarloTest, KarpLubyEstimatesKeepTheirBits) {
  std::vector<std::vector<VarId>> terms = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  std::vector<double> probs = {0.3, 0.5, 0.7, 0.2};
  struct Case {
    size_t width;  // 0: the four-term DNF above; else MakeWideDnf(width)
    uint64_t seed;
    uint64_t samples;
    uint64_t value_bits;
    uint64_t std_error_bits;
  };
  const Case cases[] = {
      {0, 1, 1000, 0x3fdf0068db8bac87, 0x3f79d8a9cd26e52d},
      {0, 1, 20000, 0x3fde535fc3b4f63a, 0x3f56e05d5a771ddc},
      {0, 7, 1000, 0x3fddf2e48e8a7200, 0x3f7932943d937bc0},
      {0, 42, 20000, 0x3fde5460aa64c319, 0x3f56d8346acec5d3},
      {63, 1, 1000, 0x3fb9999ade60a632, 0x3f571994a20ab13e},
      {64, 99, 70000, 0x3feffafdec515441, 0x3f5839e28e60a99d},
      {65, 99, 1000, 0x3fef878713ee6bec, 0x3f8d916172c5a8fa},
      {130, 1, 70000, 0x3ff0011eaf750e75, 0x3f4447a68d050e8c},
      {300, 1, 1000, 0x3ff0198e42dcbdf8, 0x3f762e8d97aafb74},
      {300, 99, 70000, 0x3ff0030ed22127f0, 0x3f448d7271db7a2e},
  };
  ThreadPool pool(3);
  ExecContext parallel(&pool);
  for (const Case& c : cases) {
    WideDnf dnf{terms, probs};
    if (c.width > 0) dnf = MakeWideDnf(c.width);
    for (ExecContext* ctx : {static_cast<ExecContext*>(nullptr), &parallel}) {
      Rng rng(c.seed);
      auto est = KarpLubyDnf(dnf.terms, dnf.probs, c.samples, &rng, ctx);
      ASSERT_TRUE(est.ok());
      EXPECT_EQ(std::bit_cast<uint64_t>(est->value), c.value_bits)
          << "width " << c.width << " seed " << c.seed << " samples "
          << c.samples;
      EXPECT_EQ(std::bit_cast<uint64_t>(est->std_error), c.std_error_bits)
          << "width " << c.width << " seed " << c.seed << " samples "
          << c.samples;
      EXPECT_EQ(est->samples, c.samples);
    }
  }
}

TEST(MonteCarloTest, AdaptiveKarpLubyStopsEarlyAtTargetStdError) {
  // Two overlapping terms over three variables: nonzero variance, so the
  // standard error shrinks as 1/sqrt(n) and a loose target must be reached
  // long before the full budget.
  std::vector<std::vector<VarId>> terms = {{0, 1}, {1, 2}};
  std::vector<double> probs = {0.4, 0.5, 0.6};
  FormulaManager mgr;
  NodeId f = mgr.Or(mgr.And(mgr.Var(0), mgr.Var(1)),
                    mgr.And(mgr.Var(1), mgr.Var(2)));
  double expected = *EnumerateProbability(&mgr, f, probs);

  AdaptiveSampleOptions options;
  options.max_samples = 1u << 20;
  options.batch_samples = 2000;
  options.target_std_error = 0.01;
  Rng rng(7);
  auto est = KarpLubyDnfAdaptive(terms, probs, options, &rng);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(est->samples, options.max_samples);
  EXPECT_GE(est->samples, 2u * options.batch_samples);  // min_batches = 2
  EXPECT_LE(est->std_error, options.target_std_error);
  EXPECT_NEAR(est->value, expected, 5 * est->std_error + 1e-6);
}

TEST(MonteCarloTest, AdaptiveKarpLubyFullRunIsThreadCountInvariant) {
  std::vector<std::vector<VarId>> terms = {{0, 1}, {1, 2}, {0, 2}};
  std::vector<double> probs = {0.3, 0.5, 0.7};
  AdaptiveSampleOptions options;
  options.max_samples = 40000;
  options.batch_samples = 9000;  // uneven tail batch on purpose
  // target_std_error = 0: no early stop, the full budget is drawn.

  Rng seq_rng(42);
  auto sequential = KarpLubyDnfAdaptive(terms, probs, options, &seq_rng);
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(sequential->samples, options.max_samples);

  ThreadPool pool(4);
  ExecContext ctx(&pool);
  Rng par_rng(42);
  auto parallel = KarpLubyDnfAdaptive(terms, probs, options, &par_rng, &ctx);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->value, sequential->value);
  EXPECT_EQ(parallel->std_error, sequential->std_error);
  EXPECT_EQ(parallel->samples, sequential->samples);
}

TEST(MonteCarloTest, AdaptiveKarpLubyEdgeCases) {
  Rng rng(3);
  AdaptiveSampleOptions options;
  options.max_samples = 1000;
  EXPECT_DOUBLE_EQ(KarpLubyDnfAdaptive({}, {}, options, &rng)->value, 0.0);
  EXPECT_DOUBLE_EQ(
      KarpLubyDnfAdaptive({{0}}, {0.0}, options, &rng)->value, 0.0);
  auto certain = KarpLubyDnfAdaptive({{0}}, {1.0}, options, &rng);
  EXPECT_DOUBLE_EQ(certain->value, 1.0);
  EXPECT_EQ(certain->samples, options.max_samples);
  EXPECT_FALSE(KarpLubyDnfAdaptive({{5}}, {0.5}, options, &rng).ok());
}

}  // namespace
}  // namespace pdb
