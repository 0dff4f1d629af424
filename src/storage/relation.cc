#include "storage/relation.h"

#include <algorithm>
#include <atomic>

#include "storage/columnar.h"
#include "util/string_util.h"

namespace pdb {

namespace {
// Relaxed: a statistic read by tests, never used to order memory.
std::atomic<uint64_t> g_relation_copies{0};
}  // namespace

uint64_t Relation::CopyCount() {
  return g_relation_copies.load(std::memory_order_relaxed);
}

Relation::Relation(const Relation& other)
    : name_(other.name_),
      schema_(other.schema_),
      tuples_(other.tuples_),
      probs_(other.probs_),
      index_(other.index_) {
  g_relation_copies.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(other.columnar_mu_);
  columnar_ = other.columnar_;
}

Relation::Relation(Relation&& other) noexcept
    : name_(std::move(other.name_)),
      schema_(std::move(other.schema_)),
      tuples_(std::move(other.tuples_)),
      probs_(std::move(other.probs_)),
      index_(std::move(other.index_)),
      columnar_(std::move(other.columnar_)) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  g_relation_copies.fetch_add(1, std::memory_order_relaxed);
  name_ = other.name_;
  schema_ = other.schema_;
  tuples_ = other.tuples_;
  probs_ = other.probs_;
  index_ = other.index_;
  std::shared_ptr<const ColumnarRelation> theirs;
  {
    std::lock_guard<std::mutex> lock(other.columnar_mu_);
    theirs = other.columnar_;
  }
  std::lock_guard<std::mutex> lock(columnar_mu_);
  columnar_ = std::move(theirs);
  return *this;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  schema_ = std::move(other.schema_);
  tuples_ = std::move(other.tuples_);
  probs_ = std::move(other.probs_);
  index_ = std::move(other.index_);
  columnar_ = std::move(other.columnar_);
  return *this;
}

Status Relation::AddTuple(Tuple tuple, double p) {
  PDB_RETURN_NOT_OK(schema_.Validate(tuple));
  if (p < 0.0 || p > 1.0) {
    return Status::OutOfRange(
        StrFormat("probability %g outside [0, 1]", p));
  }
  if (index_.count(tuple) > 0) {
    return Status::InvalidArgument(
        StrFormat("duplicate tuple %s in relation '%s'",
                  TupleToString(tuple).c_str(), name_.c_str()));
  }
  index_.emplace(tuple, tuples_.size());
  tuples_.push_back(std::move(tuple));
  probs_.push_back(p);
  {
    // The columnar image no longer reflects the tuple set; drop it. A
    // reader holding the old shared_ptr keeps a consistent (stale)
    // snapshot, same as the index-cache invalidation discipline.
    std::lock_guard<std::mutex> lock(columnar_mu_);
    columnar_.reset();
  }
  return Status::OK();
}

Result<size_t> Relation::Find(const Tuple& tuple) const {
  auto it = index_.find(tuple);
  if (it == index_.end()) {
    return Status::NotFound(StrFormat("tuple %s not in relation '%s'",
                                      TupleToString(tuple).c_str(),
                                      name_.c_str()));
  }
  return it->second;
}

double Relation::ProbOf(const Tuple& tuple) const {
  auto it = index_.find(tuple);
  return it == index_.end() ? 0.0 : probs_[it->second];
}


std::shared_ptr<const ColumnarRelation> Relation::columnar() const {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  // Build under the lock, mirroring the index cache's build-under-shard-
  // lock idiom: concurrent first requests build the image exactly once.
  if (columnar_ == nullptr) columnar_ = ColumnarRelation::Build(*this);
  return columnar_;
}

std::shared_ptr<const ColumnarRelation> Relation::columnar_if_built() const {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  return columnar_;
}

bool Relation::IsDeterministic() const {
  return std::all_of(probs_.begin(), probs_.end(),
                     [](double p) { return p == 1.0; });
}

std::string Relation::ToString() const {
  std::string out = name_ + schema_.ToString() + " {\n";
  for (size_t i = 0; i < tuples_.size(); ++i) {
    out += StrFormat("  %s : %g\n", TupleToString(tuples_[i]).c_str(),
                     probs_[i]);
  }
  out += "}";
  return out;
}

HashIndex::HashIndex(const Relation& relation, std::vector<size_t> key_cols)
    : key_cols_(std::move(key_cols)) {
  for (size_t row = 0; row < relation.size(); ++row) {
    Tuple key;
    key.reserve(key_cols_.size());
    for (size_t col : key_cols_) key.push_back(relation.tuple(row)[col]);
    buckets_[std::move(key)].push_back(row);
  }
}

const std::vector<size_t>& HashIndex::Lookup(const Tuple& key) const {
  auto it = buckets_.find(key);
  return it == buckets_.end() ? empty_ : it->second;
}

}  // namespace pdb
