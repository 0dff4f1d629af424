/// \file columnar.h
/// \brief Dictionary-encoded columnar images of relations.
///
/// A `ColumnarRelation` is a read-only sidecar of a `Relation`: per column a
/// *sorted* dictionary of the distinct values and one contiguous
/// `uint32_t` code vector with the dictionary rank of every row. The join
/// executor (boolean/lineage.cc) runs over these dense code arrays instead
/// of `Tuple` objects — bind slots become integer codes, equality checks
/// become array compares, and hash-index probes become array lookups —
/// which is where the vectorized grounding path gets its speed.
///
/// Because the dictionary is sorted by the `Value` total order, rank
/// equality is value equality *within one column's code space*, the
/// dictionary doubles as the sorted distinct-value list, and code spaces
/// of two different columns can be aligned with a linear two-pointer merge
/// (`BuildCodeTranslation`), which is how cross-column joins compare codes
/// without ever touching a `Value` on the hot path.
///
/// `ColumnarIndex` is the columnar analogue of `HashIndex` for one column:
/// a CSR layout (offset array indexed by code, so a probe is O(1) with no
/// hashing) whose bucket row ids ascend, matching `HashIndex`, so the join
/// executor enumerates matches in the reference matcher's order. A
/// multi-column key probes the bucket of its most selective column
/// (`ProbedKeyPart`) and checks the other key columns' codes row by row,
/// so one index per column serves every key that probes that column.

#ifndef PDB_STORAGE_COLUMNAR_H_
#define PDB_STORAGE_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/value.h"

namespace pdb {

class Relation;

/// Dictionary-encoded, column-major image of one relation. Immutable once
/// built (a mutation of the relation builds a new image); safe to share
/// across threads.
class ColumnarRelation {
 public:
  /// Sentinel for "value not in this column's dictionary". Never a valid
  /// code: dictionaries are capped below 2^32 - 1 entries.
  static constexpr uint32_t kNoCode = UINT32_MAX;

  /// Builds the columnar image of `rel` (O(rows * arity * log distinct)).
  static std::shared_ptr<const ColumnarRelation> Build(const Relation& rel);

  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return columns_.size(); }

  /// Sorted distinct values of `col`; code `c` decodes to `dict(col)[c]`.
  const std::vector<Value>& dict(size_t col) const {
    return columns_[col].dict;
  }

  /// Per-row dictionary codes of `col` (size = num_rows()).
  const std::vector<uint32_t>& codes(size_t col) const {
    return columns_[col].codes;
  }

  /// Number of distinct values in `col` — the selectivity statistic the
  /// cost-based join order consumes.
  size_t distinct(size_t col) const { return columns_[col].dict.size(); }

  /// Code of `value` in `col`'s dictionary, or kNoCode when absent.
  uint32_t CodeOf(size_t col, const Value& value) const;

 private:
  friend size_t DistinctComposite(const ColumnarRelation& cols,
                                  const std::vector<size_t>& key_cols);

  struct Column {
    std::vector<Value> dict;      // sorted ascending
    std::vector<uint32_t> codes;  // one per row
  };

  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  /// DistinctComposite's counts by key-column list, each computed once:
  /// the image never changes, and sessions sharing the relation share it.
  mutable std::mutex composite_mu_;
  mutable std::map<std::vector<size_t>, size_t> composite_counts_;
};

/// Translation table from `src` dictionary codes to `dst` dictionary codes:
/// `result[c]` is the code of `src[c]` in `dst`, or
/// `ColumnarRelation::kNoCode` when `dst` does not contain the value.
/// Linear two-pointer merge over the two sorted dictionaries.
std::vector<uint32_t> BuildCodeTranslation(const std::vector<Value>& src,
                                           const std::vector<Value>& dst);

/// Number of distinct composite keys over `key_cols` of `cols` — the
/// multi-column selectivity statistic. Unlike the per-column independence
/// product, this counts the key combinations that actually occur, so a
/// correlated pair (say y == x) reports n instead of n². Returns 0 when
/// the mixed-radix composite code would overflow 64 bits (callers fall
/// back to the independence product) or when `key_cols` is empty. The
/// first call for a key-column list sorts the rows' composite codes; the
/// image keeps the count, so later calls, from any thread, look it up.
size_t DistinctComposite(const ColumnarRelation& cols,
                         const std::vector<size_t>& key_cols);

/// Equality index over one code column: row ids grouped by the column's
/// dictionary code. Bucket rows ascend, matching `HashIndex`.
class ColumnarIndex {
 public:
  /// Builds the index over column `col` of `cols` (O(rows + distinct));
  /// keeps `cols` alive for its own lifetime.
  ColumnarIndex(std::shared_ptr<const ColumnarRelation> cols, size_t col);

  /// Rows whose column holds `code` (a valid code of the column), as a
  /// pointer + count span.
  void Lookup(uint32_t code, const uint32_t** rows, size_t* count) const;

 private:
  std::shared_ptr<const ColumnarRelation> cols_;
  std::vector<uint32_t> offsets_;  // size = dict size + 1
  std::vector<uint32_t> rows_;     // grouped by code, ascending within one
};

/// Position in `key_cols` (non-empty) of the column a key probes: the one
/// with the most distinct values in `cols`, the first on a tie. The other
/// key columns are checked row by row against that column's bucket.
size_t ProbedKeyPart(const ColumnarRelation& cols,
                     const std::vector<size_t>& key_cols);

}  // namespace pdb

#endif  // PDB_STORAGE_COLUMNAR_H_
