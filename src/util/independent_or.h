/// \file independent_or.h
/// \brief The disjunction of independent events, without cancellation.
///
/// The textbook form 1 − Π(1 − p) subtracts from 1 a product that rounds
/// to 1 when every p is small: below p ≈ 1e-8 it loses most digits, and
/// it returns 0 once the p are under half an ulp of 1. Folding the union
/// as any + (1 − any)·p adds small terms to small terms instead, so it
/// keeps their relative precision. The lifted engine's independent union
/// and separator, the plan executor's ⊕ and DPLL's disjunction split all
/// fold through here.

#ifndef PDB_UTIL_INDEPENDENT_OR_H_
#define PDB_UTIL_INDEPENDENT_OR_H_

namespace pdb {

/// Weighted count of A ∨ B for variable-disjoint A and B, given each
/// side's count W and total weight Z (its count of `true`): A's models
/// times every assignment of B, plus A's non-models times B's models,
/// W_A·Z_B + (Z_A − W_A)·W_B. Correct for any weights, negative ones
/// included.
inline double DisjointOrCount(double w_a, double z_a, double w_b,
                              double z_b) {
  return w_a * z_b + (z_a - w_a) * w_b;
}

/// P(A ∨ B) for independent A and B: a + (1 − a)·b, the Z = 1 case of
/// DisjointOrCount (and bit-identical to it).
inline double IndependentOr(double a, double b) {
  return DisjointOrCount(a, 1.0, b, 1.0);
}

}  // namespace pdb

#endif  // PDB_UTIL_INDEPENDENT_OR_H_
