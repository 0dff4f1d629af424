#include "storage/columnar.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_set>

#include "storage/relation.h"
#include "util/check.h"

namespace pdb {

std::shared_ptr<const ColumnarRelation> ColumnarRelation::Build(
    const Relation& rel) {
  auto image = std::make_shared<ColumnarRelation>();
  image->num_rows_ = rel.size();
  image->columns_.resize(rel.arity());
  for (size_t col = 0; col < rel.arity(); ++col) {
    Column& column = image->columns_[col];
    // An ordered map assigns each distinct value its rank in the Value
    // total order, so the dictionary comes out sorted and `code` equality
    // is value equality.
    std::map<Value, uint32_t> ranks;
    for (const Tuple& t : rel.tuples()) ranks.emplace(t[col], 0);
    PDB_CHECK(ranks.size() < kNoCode);
    column.dict.reserve(ranks.size());
    uint32_t next = 0;
    for (auto& [value, rank] : ranks) {
      rank = next++;
      column.dict.push_back(value);
    }
    column.codes.reserve(rel.size());
    for (const Tuple& t : rel.tuples()) {
      column.codes.push_back(ranks.find(t[col])->second);
    }
  }
  return image;
}

uint32_t ColumnarRelation::CodeOf(size_t col, const Value& value) const {
  const std::vector<Value>& dict = columns_[col].dict;
  auto it = std::lower_bound(dict.begin(), dict.end(), value);
  if (it == dict.end() || !(*it == value)) return kNoCode;
  return static_cast<uint32_t>(it - dict.begin());
}

std::vector<uint32_t> BuildCodeTranslation(const std::vector<Value>& src,
                                           const std::vector<Value>& dst) {
  std::vector<uint32_t> xlat(src.size(), ColumnarRelation::kNoCode);
  size_t i = 0;
  size_t j = 0;
  while (i < src.size() && j < dst.size()) {
    if (src[i] < dst[j]) {
      ++i;
    } else if (dst[j] < src[i]) {
      ++j;
    } else {
      xlat[i] = static_cast<uint32_t>(j);
      ++i;
      ++j;
    }
  }
  return xlat;
}

namespace {

// Mixed-radix multipliers of the composite code over `key_cols`: the last
// key part varies fastest, so a row's composite code is unique per
// distinct key combination. Returns false when the code would not fit in
// 64 bits.
bool MixedRadix(const ColumnarRelation& cols,
                const std::vector<size_t>& key_cols,
                std::vector<uint64_t>* radix) {
  radix->assign(key_cols.size(), 1);
  for (size_t p = key_cols.size(); p-- > 1;) {
    uint64_t dict_size = cols.distinct(key_cols[p]);
    if (dict_size == 0) dict_size = 1;  // empty relation: any radix works
    if ((*radix)[p] > UINT64_MAX / dict_size) return false;
    (*radix)[p - 1] = (*radix)[p] * dict_size;
  }
  // One more width check for the leading part (the composite must fit).
  uint64_t lead = cols.distinct(key_cols[0]);
  return lead == 0 || (*radix)[0] <= UINT64_MAX / lead;
}

uint64_t CompositeCode(const ColumnarRelation& cols,
                       const std::vector<size_t>& key_cols,
                       const std::vector<uint64_t>& radix, size_t row) {
  uint64_t code = 0;
  for (size_t p = 0; p < key_cols.size(); ++p) {
    code += radix[p] * cols.codes(key_cols[p])[row];
  }
  return code;
}

}  // namespace

size_t DistinctComposite(const ColumnarRelation& cols,
                         const std::vector<size_t>& key_cols) {
  if (key_cols.empty()) return 0;
  std::vector<uint64_t> radix;
  if (!MixedRadix(cols, key_cols, &radix)) return 0;
  std::unordered_set<uint64_t> seen;
  seen.reserve(cols.num_rows());
  for (size_t row = 0; row < cols.num_rows(); ++row) {
    seen.insert(CompositeCode(cols, key_cols, radix, row));
  }
  return seen.size();
}

ColumnarIndex::ColumnarIndex(std::shared_ptr<const ColumnarRelation> cols,
                             std::vector<size_t> key_cols)
    : cols_(std::move(cols)), key_cols_(std::move(key_cols)) {
  PDB_CHECK(!key_cols_.empty());
  const size_t n = cols_->num_rows();
  if (key_cols_.size() == 1) {
    // CSR: two passes (count, then fill) keep each bucket's rows ascending.
    const std::vector<uint32_t>& codes = cols_->codes(key_cols_[0]);
    offsets_.assign(cols_->distinct(key_cols_[0]) + 1, 0);
    for (uint32_t code : codes) ++offsets_[code + 1];
    for (size_t c = 1; c < offsets_.size(); ++c) {
      offsets_[c] += offsets_[c - 1];
    }
    rows_.resize(n);
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (size_t row = 0; row < n; ++row) {
      rows_[cursor[codes[row]]++] = static_cast<uint32_t>(row);
    }
    return;
  }
  if (MixedRadix(*cols_, key_cols_, &radix_)) {
    for (size_t row = 0; row < n; ++row) {
      buckets_[CompositeCode(*cols_, key_cols_, radix_, row)].push_back(
          static_cast<uint32_t>(row));
    }
    return;
  }
  // Wide key: sort the rows by their code tuple instead. The sort is
  // stable, so each tuple's rows stay ascending.
  radix_.clear();
  rows_.resize(n);
  std::iota(rows_.begin(), rows_.end(), 0u);
  std::stable_sort(rows_.begin(), rows_.end(), [&](uint32_t a, uint32_t b) {
    for (size_t col : key_cols_) {
      uint32_t ca = cols_->codes(col)[a];
      uint32_t cb = cols_->codes(col)[b];
      if (ca != cb) return ca < cb;
    }
    return false;
  });
}

int ColumnarIndex::CompareRow(uint32_t row, const uint32_t* key) const {
  for (size_t p = 0; p < key_cols_.size(); ++p) {
    uint32_t code = cols_->codes(key_cols_[p])[row];
    if (code != key[p]) return code < key[p] ? -1 : 1;
  }
  return 0;
}

size_t ColumnarIndex::num_buckets() const {
  // Single-column CSR buckets are never empty: every dictionary entry came
  // from at least one row, so the bucket count is the dictionary size.
  if (key_cols_.size() == 1) return offsets_.size() - 1;
  if (!radix_.empty()) return buckets_.size();
  size_t buckets = 0;
  std::vector<uint32_t> prev(key_cols_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i == 0 || CompareRow(rows_[i], prev.data()) != 0) ++buckets;
    for (size_t p = 0; p < key_cols_.size(); ++p) {
      prev[p] = cols_->codes(key_cols_[p])[rows_[i]];
    }
  }
  return buckets;
}

void ColumnarIndex::Lookup(const uint32_t* key, const uint32_t** rows,
                           size_t* count) const {
  if (key_cols_.size() == 1) {
    *rows = rows_.data() + offsets_[key[0]];
    *count = offsets_[key[0] + 1] - offsets_[key[0]];
    return;
  }
  if (radix_.empty()) {
    auto lo = std::lower_bound(rows_.begin(), rows_.end(), key,
                               [&](uint32_t row, const uint32_t* k) {
                                 return CompareRow(row, k) < 0;
                               });
    auto hi = std::upper_bound(lo, rows_.end(), key,
                               [&](const uint32_t* k, uint32_t row) {
                                 return CompareRow(row, k) > 0;
                               });
    *rows = rows_.data() + (lo - rows_.begin());
    *count = static_cast<size_t>(hi - lo);
    return;
  }
  uint64_t code = 0;
  for (size_t p = 0; p < key_cols_.size(); ++p) code += radix_[p] * key[p];
  auto it = buckets_.find(code);
  if (it == buckets_.end()) {
    *rows = nullptr;
    *count = 0;
    return;
  }
  *rows = it->second.data();
  *count = it->second.size();
}

}  // namespace pdb
