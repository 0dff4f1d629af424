/// \file random.h
/// \brief Deterministic pseudo-random number generation for tests, Monte
/// Carlo estimators and workload generators.
///
/// A thin wrapper over xoshiro256**, seeded explicitly so every experiment is
/// reproducible bit-for-bit across runs and platforms. The per-draw methods
/// are defined here so sampling loops inline them.

#ifndef PDB_UTIL_RANDOM_H_
#define PDB_UTIL_RANDOM_H_

#include <cstdint>

namespace pdb {

/// Deterministic 64-bit PRNG (xoshiro256**).
class Rng {
 public:
  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform double in [0, 1): the top 53 bits of `Next()`, scaled.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with success probability `p`.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Derives the deterministic substream `stream` from the generator's
  /// current state without advancing it: Split(i) always returns the same
  /// generator, and different indices yield statistically independent
  /// streams. This is the basis for thread-count-invariant parallel
  /// sampling — shard s of a Monte Carlo run always draws from Split(s),
  /// regardless of which worker executes it.
  Rng Split(uint64_t stream) const;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace pdb

#endif  // PDB_UTIL_RANDOM_H_
