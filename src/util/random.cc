#include "util/random.h"

#include "util/check.h"

namespace pdb {

namespace {

// splitmix64: used only to expand the seed into the xoshiro state.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  for (auto& s : s_) s = SplitMix64(&seed);
}

uint64_t Rng::Uniform(uint64_t bound) {
  PDB_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

Rng Rng::Split(uint64_t stream) const {
  // Condense the 256-bit state into one word, fold in the stream index,
  // and let the Rng constructor's splitmix64 chain re-expand it. Distinct
  // indices land in unrelated regions of the seed space, and the parent's
  // own stream is untouched.
  uint64_t h = s_[0];
  h ^= Rotl(s_[1], 13) + 0x9e3779b97f4a7c15ULL;
  h ^= Rotl(s_[2], 29) * 0xbf58476d1ce4e5b9ULL;
  h ^= Rotl(s_[3], 43);
  h += (stream + 1) * 0x94d049bb133111ebULL;
  return Rng(h);
}

}  // namespace pdb
