/// \file union_find.h
/// \brief Union-find over 0..n-1 with path halving: DPLL's component
/// split, the CQ analyses' variable/symbol components, and the SQL
/// compiler's equality classes.

#ifndef PDB_UTIL_UNION_FIND_H_
#define PDB_UTIL_UNION_FIND_H_

#include <cstddef>
#include <numeric>
#include <vector>

namespace pdb {

class UnionFind {
 public:
  explicit UnionFind(size_t n = 0) { Reset(n); }
  /// Makes 0..n-1 singletons again, reusing the array's capacity.
  void Reset(size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Merges the sets of `a` and `b`; false when they were one set already.
  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<size_t> parent_;
};

}  // namespace pdb

#endif  // PDB_UTIL_UNION_FIND_H_
