#include "storage/columnar.h"

#include <algorithm>
#include <map>

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
  {
    std::lock_guard<std::mutex> lock(cols.composite_mu_);
    auto it = cols.composite_counts_.find(key_cols);
    if (it != cols.composite_counts_.end()) return it->second;
  }
  // Counted outside the lock; two threads racing on one key compute the
  // same count, and the first to finish records it.
  size_t count = 0;
  std::vector<uint64_t> radix;
  if (MixedRadix(cols, key_cols, &radix)) {
    std::vector<uint64_t> codes(cols.num_rows());
    for (size_t row = 0; row < codes.size(); ++row) {
      codes[row] = CompositeCode(cols, key_cols, radix, row);
    }
    std::sort(codes.begin(), codes.end());
    count = static_cast<size_t>(
        std::unique(codes.begin(), codes.end()) - codes.begin());
  }
  std::lock_guard<std::mutex> lock(cols.composite_mu_);
  return cols.composite_counts_.try_emplace(key_cols, count).first->second;
}

ColumnarIndex::ColumnarIndex(std::shared_ptr<const ColumnarRelation> cols,
                             size_t col)
    : cols_(std::move(cols)) {
  // CSR: two passes (count, then fill) keep each bucket's rows ascending.
  const std::vector<uint32_t>& codes = cols_->codes(col);
  offsets_.assign(cols_->distinct(col) + 1, 0);
  for (uint32_t code : codes) ++offsets_[code + 1];
  for (size_t c = 1; c < offsets_.size(); ++c) offsets_[c] += offsets_[c - 1];
  rows_.resize(codes.size());
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t row = 0; row < codes.size(); ++row) {
    rows_[cursor[codes[row]]++] = static_cast<uint32_t>(row);
  }
}

void ColumnarIndex::Lookup(uint32_t code, const uint32_t** rows,
                           size_t* count) const {
  *rows = rows_.data() + offsets_[code];
  *count = offsets_[code + 1] - offsets_[code];
}

size_t ProbedKeyPart(const ColumnarRelation& cols,
                     const std::vector<size_t>& key_cols) {
  size_t best = 0;
  for (size_t p = 1; p < key_cols.size(); ++p) {
    if (cols.distinct(key_cols[p]) > cols.distinct(key_cols[best])) best = p;
  }
  return best;
}

}  // namespace pdb
