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
/// `ColumnarIndex` is the columnar analogue of `HashIndex`: rows grouped by
/// the codes of a key-column list. Single-column keys use a CSR layout
/// (offset array indexed by code — an O(1) probe with no hashing);
/// multi-column keys use a hash map over the mixed-radix composite code,
/// or, when that code would overflow 64 bits, rows sorted by their code
/// tuple. Bucket row ids are ascending, matching `HashIndex`, so the join
/// executor enumerates matches in the reference matcher's order.

#ifndef PDB_STORAGE_COLUMNAR_H_
#define PDB_STORAGE_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/value.h"

namespace pdb {

class Relation;

/// Dictionary-encoded, column-major image of one relation. Immutable once
/// built; safe to share across threads.
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
  struct Column {
    std::vector<Value> dict;      // sorted ascending
    std::vector<uint32_t> codes;  // one per row
  };

  std::vector<Column> columns_;
  size_t num_rows_ = 0;
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
/// back to the independence product) or when `key_cols` is empty.
size_t DistinctComposite(const ColumnarRelation& cols,
                         const std::vector<size_t>& key_cols);

/// Equality index over a relation's code columns: rows grouped by the
/// codes of `key_cols`. Bucket rows ascend, matching `HashIndex`.
class ColumnarIndex {
 public:
  /// Builds the index; keeps `cols` alive for its own lifetime.
  ColumnarIndex(std::shared_ptr<const ColumnarRelation> cols,
                std::vector<size_t> key_cols);

  const std::vector<size_t>& key_cols() const { return key_cols_; }

  /// Rows whose key columns carry the codes `key[0 .. key_cols().size())`
  /// (each a valid code of its column), as a pointer + count span (empty
  /// when no row has that key).
  void Lookup(const uint32_t* key, const uint32_t** rows,
              size_t* count) const;

  /// Number of non-empty buckets — the distinct key count this index
  /// observed. Single-column keys have one bucket per dictionary entry by
  /// construction.
  size_t num_buckets() const;

 private:
  /// Three-way comparison of `row`'s key codes with `key` (wide keys).
  int CompareRow(uint32_t row, const uint32_t* key) const;

  std::shared_ptr<const ColumnarRelation> cols_;
  std::vector<size_t> key_cols_;
  // Multi-column key: mixed-radix multipliers of the composite code, or
  // empty when the code would overflow 64 bits (a wide key).
  std::vector<uint64_t> radix_;
  // Single-column key: CSR over the column's code space.
  std::vector<uint32_t> offsets_;  // size = dict size + 1
  // Single-column key: row ids grouped by code, ascending within a code.
  // Wide key: row ids sorted by code tuple, ascending within a tuple.
  std::vector<uint32_t> rows_;
  // Multi-column key that fits: buckets over the composite code space.
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
};

}  // namespace pdb

#endif  // PDB_STORAGE_COLUMNAR_H_
