#include "wmc/montecarlo.h"

#include <algorithm>
#include <cmath>

#include "exec/parallel.h"
#include "util/check.h"

namespace pdb {

namespace {

/// How often shard loops poll ExecContext::ShouldStop().
constexpr uint64_t kStopCheckStride = 512;

/// Samples assigned to shard `i` of `shards` for a total budget of
/// `samples`: the remainder spreads over the first shards.
uint64_t ShardBudget(uint64_t samples, uint64_t shards, uint64_t i) {
  return samples / shards + (i < samples % shards ? 1 : 0);
}

}  // namespace

uint64_t NumSampleShards(uint64_t samples) {
  // Shards of >= 1024 samples keep the per-shard RNG/setup cost in the
  // noise; 64 shards saturate any realistic pool while staying cheap to
  // merge. Small budgets stay in one shard.
  return std::clamp<uint64_t>(samples / 1024, 1, 64);
}

Estimate NaiveMonteCarlo(FormulaManager* mgr, NodeId root,
                         const std::vector<double>& probs, uint64_t samples,
                         Rng* rng, ExecContext* ctx) {
  // Compute the var set before the fan-out: VarsOf's first call for a node
  // writes to the manager, Evaluate is a const traversal that workers may
  // run concurrently.
  std::span<const VarId> vars = mgr->VarsOf(root);
  size_t max_var = 0;
  for (VarId v : vars) max_var = std::max<size_t>(max_var, v);

  // The parent generator advances exactly once per call; all shards derive
  // their substreams from the resulting base state.
  Rng base(rng->Next());

  struct Shard {
    uint64_t hits = 0;
    uint64_t drawn = 0;
  };
  uint64_t shards = NumSampleShards(samples);
  std::vector<Shard> parts = ParallelMap<Shard>(ctx, shards, [&](size_t i) {
    Rng shard_rng = base.Split(i);
    std::vector<bool> assignment(vars.empty() ? 0 : max_var + 1, false);
    Shard part;
    uint64_t budget = ShardBudget(samples, shards, i);
    for (uint64_t s = 0; s < budget; ++s) {
      if (ctx && s % kStopCheckStride == 0 && ctx->ShouldStop()) break;
      for (VarId v : vars) assignment[v] = shard_rng.Bernoulli(probs[v]);
      if (mgr->Evaluate(root, assignment)) ++part.hits;
      ++part.drawn;
    }
    return part;
  });

  uint64_t hits = 0;
  uint64_t drawn = 0;
  for (const Shard& part : parts) {
    hits += part.hits;
    drawn += part.drawn;
  }
  if (ctx) {
    ctx->Add(ExecCounter::kSamplesDrawn, drawn);
    ctx->Add(ExecCounter::kMcBatches, 1);
  }

  Estimate est;
  est.samples = drawn;
  est.value = drawn == 0 ? 0.0 : static_cast<double>(hits) / drawn;
  est.std_error =
      drawn == 0 ? 0.0 : std::sqrt(est.value * (1.0 - est.value) / drawn);
  return est;
}

namespace {

/// One 64-bit word of a term's bitset: the term holds the positions whose
/// bits are set in `mask` of assignment word `word`.
struct TermWord {
  uint64_t mask;
  uint32_t word;
  /// 1 on the term's final word, else 0.
  uint32_t last;
};

/// Precomputed Karp–Luby sampling tables, shared by every batch. A sample's
/// assignment is a bitset over the positions of `all_vars`, `words` 64-bit
/// words long.
struct KlSetup {
  double total = 0.0;
  std::vector<double> cumulative;
  std::vector<VarId> all_vars;
  /// Per position: the draw for all_vars[i] is true iff
  /// (Next() >> 11) < thresholds[i] (see BernoulliThreshold).
  std::vector<uint64_t> thresholds;
  size_t words = 0;
  /// Each term's bitset as its nonzero words in word order, one term after
  /// another; term t's words start at term_begin[t]. A term has at most |t|
  /// words however wide the DNF (an empty term gets one zero mask), so the
  /// tables grow with the total term length.
  std::vector<TermWord> term_words;
  std::vector<size_t> term_begin;
};

/// The integer form of `Rng::Bernoulli(p)`. NextDouble() is k·2^-53 for the
/// 53-bit integer k = Next() >> 11, so NextDouble() < p holds exactly when
/// k < p·2^53, that is when k < ceil(p·2^53); scaling by a power of two is
/// exact, so the threshold decides every draw as the double comparison
/// does. p <= 0 (or NaN) never succeeds and p >= 1 always does. It spares
/// each draw a conversion and a multiply, about 7% of an estimate
/// (EXPERIMENTS.md M15).
uint64_t BernoulliThreshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return uint64_t{1} << 53;
  return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
}

Result<KlSetup> PrepareKarpLuby(const std::vector<std::vector<VarId>>& terms,
                                const std::vector<double>& probs) {
  KlSetup setup;
  // Per-term probabilities and the union-bound total U.
  std::vector<double> term_probs(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    double p = 1.0;
    for (VarId v : terms[i]) {
      if (v >= probs.size()) {
        return Status::InvalidArgument("term variable outside weight map");
      }
      p *= probs[v];
    }
    term_probs[i] = p;
    setup.total += p;
  }
  if (setup.total == 0.0) return setup;
  // Cumulative distribution for term sampling.
  setup.cumulative.resize(terms.size());
  double acc = 0.0;
  for (size_t i = 0; i < terms.size(); ++i) {
    acc += term_probs[i] / setup.total;
    setup.cumulative[i] = acc;
  }
  // All variables mentioned by any term, in VarId order: the order the
  // sampler draws them in.
  for (const auto& t : terms) {
    setup.all_vars.insert(setup.all_vars.end(), t.begin(), t.end());
  }
  std::sort(setup.all_vars.begin(), setup.all_vars.end());
  setup.all_vars.erase(
      std::unique(setup.all_vars.begin(), setup.all_vars.end()),
      setup.all_vars.end());
  setup.thresholds.reserve(setup.all_vars.size());
  for (VarId v : setup.all_vars) {
    setup.thresholds.push_back(BernoulliThreshold(probs[v]));
  }
  // At least one word, which an empty term's zero mask reads.
  setup.words = std::max<size_t>(1, (setup.all_vars.size() + 63) / 64);
  setup.term_begin.reserve(terms.size());
  std::vector<size_t> positions;
  for (const auto& t : terms) {
    setup.term_begin.push_back(setup.term_words.size());
    positions.clear();
    for (VarId v : t) {
      positions.push_back(std::lower_bound(setup.all_vars.begin(),
                                           setup.all_vars.end(), v) -
                          setup.all_vars.begin());
    }
    std::sort(positions.begin(), positions.end());
    for (size_t pos : positions) {
      if (setup.term_words.size() == setup.term_begin.back() ||
          setup.term_words.back().word != pos / 64) {
        setup.term_words.push_back({0, static_cast<uint32_t>(pos / 64), 0});
      }
      setup.term_words.back().mask |= uint64_t{1} << (pos % 64);
    }
    if (setup.term_words.size() == setup.term_begin.back()) {
      setup.term_words.push_back({0, 0, 0});
    }
    setup.term_words.back().last = 1;
  }
  return setup;
}

/// Running moments of the Karp–Luby estimator.
struct KlAccum {
  double sum = 0.0;
  double sum_sq = 0.0;
  uint64_t drawn = 0;
};

/// Draws one batch of `samples` with the thread-count-invariant shard plan
/// (substreams of `base`, merged in shard order on the calling thread).
KlAccum KarpLubyBatch(const KlSetup& setup, uint64_t samples, const Rng& base,
                      ExecContext* ctx) {
  const size_t num_terms = setup.cumulative.size();
  const size_t num_vars = setup.all_vars.size();
  const size_t words = setup.words;
  const uint64_t* thresholds = setup.thresholds.data();
  const TermWord* term_words = setup.term_words.data();
  const TermWord* term_words_end = term_words + setup.term_words.size();
  uint64_t shards = NumSampleShards(samples);
  std::vector<KlAccum> parts =
      ParallelMap<KlAccum>(ctx, shards, [&](size_t i) {
        Rng shard_rng = base.Split(i);
        std::vector<uint64_t> assignment(words);
        KlAccum part;
        uint64_t budget = ShardBudget(samples, shards, i);
        for (uint64_t s = 0; s < budget; ++s) {
          if (ctx && s % kStopCheckStride == 0 && ctx->ShouldStop()) break;
          // Pick a term proportional to its probability.
          double u = shard_rng.NextDouble();
          size_t chosen = std::lower_bound(setup.cumulative.begin(),
                                           setup.cumulative.end(), u) -
                          setup.cumulative.begin();
          if (chosen >= num_terms) chosen = num_terms - 1;
          // Sample an assignment conditioned on the chosen term being true:
          // one draw per variable in position order, then the term's bits.
          for (size_t w = 0; w < words; ++w) {
            const size_t first = w * 64;
            const size_t end = std::min(num_vars, first + 64);
            uint64_t bits = 0;
            for (size_t pos = first; pos < end; ++pos) {
              bits |= static_cast<uint64_t>((shard_rng.Next() >> 11) <
                                            thresholds[pos])
                      << (pos - first);
            }
            assignment[w] = bits;
          }
          for (const TermWord* tw = term_words + setup.term_begin[chosen];;
               ++tw) {
            assignment[tw->word] |= tw->mask;
            if (tw->last) break;
          }
          // Count how many terms the assignment satisfies (>= 1 by
          // construction): a term is satisfied when each of its words is
          // covered. One pass over every term's words, restarting
          // `covered` after each term's last word; no early exit, whose
          // data-dependent branch measured slower (EXPERIMENTS.md M15).
          size_t satisfied = 0;
          uint64_t covered = 1;
          for (const TermWord* tw = term_words; tw != term_words_end; ++tw) {
            covered &= (assignment[tw->word] & tw->mask) == tw->mask;
            satisfied += covered & tw->last;
            covered |= tw->last;
          }
          PDB_CHECK(satisfied >= 1);
          double x = setup.total / static_cast<double>(satisfied);
          part.sum += x;
          part.sum_sq += x * x;
          ++part.drawn;
        }
        return part;
      });
  // Merge in shard order: floating-point sums are order-dependent, and the
  // fixed order is what makes the estimate thread-count invariant.
  KlAccum merged;
  for (const KlAccum& part : parts) {
    merged.sum += part.sum;
    merged.sum_sq += part.sum_sq;
    merged.drawn += part.drawn;
  }
  return merged;
}

Estimate EstimateFromAccum(const KlAccum& accum) {
  Estimate est;
  est.samples = accum.drawn;
  if (accum.drawn > 0) {
    est.value = accum.sum / static_cast<double>(accum.drawn);
    double variance =
        std::max(0.0, accum.sum_sq / static_cast<double>(accum.drawn) -
                          est.value * est.value);
    est.std_error = std::sqrt(variance / static_cast<double>(accum.drawn));
  }
  return est;
}

}  // namespace

Result<Estimate> KarpLubyDnf(const std::vector<std::vector<VarId>>& terms,
                             const std::vector<double>& probs,
                             uint64_t samples, Rng* rng, ExecContext* ctx) {
  AdaptiveSampleOptions options;
  options.max_samples = samples;
  options.batch_samples = samples;
  return KarpLubyDnfAdaptive(terms, probs, options, rng, ctx);
}

Result<Estimate> KarpLubyDnfAdaptive(
    const std::vector<std::vector<VarId>>& terms,
    const std::vector<double>& probs, const AdaptiveSampleOptions& options,
    Rng* rng, ExecContext* ctx) {
  if (terms.empty()) {
    return Estimate{0.0, 0.0, 0};
  }
  PDB_ASSIGN_OR_RETURN(KlSetup setup, PrepareKarpLuby(terms, probs));
  if (setup.total == 0.0) {
    return Estimate{0.0, 0.0, 0};
  }
  uint64_t batch = options.batch_samples;
  if (batch == 0) {
    // Default: ~16 stopping checkpoints over the budget, but at least 4096
    // samples per batch so each batch still shards across workers.
    batch = std::clamp<uint64_t>(options.max_samples / 16, 4096, 65536);
  }
  KlAccum accum;
  uint64_t batches = 0;
  while (accum.drawn < options.max_samples) {
    // "Deadline nears": stop between batches once the cooperative signal
    // fires (a mid-batch expiry additionally stops the shard loops, so at
    // most one partial batch is drawn after the deadline).
    if (ctx && ctx->ShouldStop()) break;
    uint64_t want = std::min(batch, options.max_samples - accum.drawn);
    // One parent advance per batch: the substream tree (and hence a full
    // run's estimate) is a pure function of the seed and the batch plan,
    // never of thread count.
    Rng base(rng->Next());
    KlAccum part = KarpLubyBatch(setup, want, base, ctx);
    accum.sum += part.sum;
    accum.sum_sq += part.sum_sq;
    accum.drawn += part.drawn;
    ++batches;
    if (options.target_std_error > 0 && batches >= options.min_batches &&
        accum.drawn > 0 &&
        EstimateFromAccum(accum).std_error <= options.target_std_error) {
      break;
    }
  }
  if (ctx) {
    ctx->Add(ExecCounter::kSamplesDrawn, accum.drawn);
    ctx->Add(ExecCounter::kMcBatches, batches);
  }
  return EstimateFromAccum(accum);
}

}  // namespace pdb
