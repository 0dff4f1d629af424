/// \file relation.h
/// \brief Probabilistic relations: tuples plus marginal probabilities.
///
/// In a tuple-independent database (TID, paper §2) every stored tuple is an
/// independent probabilistic event with marginal probability `t.P`; tuples
/// not stored have probability 0. A deterministic relation is the special
/// case where every probability is 1.

#ifndef PDB_STORAGE_RELATION_H_
#define PDB_STORAGE_RELATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/status.h"

namespace pdb {

class ColumnarRelation;

/// A named set of distinct tuples, each carrying a marginal probability.
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  // The lazily built columnar sidecar sits behind a mutex, so the
  // compiler-generated special members are unavailable. The copies share
  // the (immutable) sidecar pointer — it is derived purely from the tuple
  // vector, which is copied along with it. Every copy (construction or
  // assignment) is a deep copy and counts in `CopyCount()`.
  Relation(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(const Relation& other);
  Relation& operator=(Relation&& other) noexcept;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t arity() const { return schema_.arity(); }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Appends a tuple with probability `p` in [0, 1]. Rejects duplicates
  /// (a TID lists each possible tuple at most once) and schema mismatches.
  Status AddTuple(Tuple tuple, double p = 1.0);

  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  double prob(size_t i) const { return probs_[i]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  const std::vector<double>& probs() const { return probs_; }

  /// Overwrites the probability of row `i`.
  void set_prob(size_t i, double p) { probs_[i] = p; }

  /// Row index of `tuple`, or NotFound with the tuple in the message.
  Result<size_t> Find(const Tuple& tuple) const;
  /// Membership probe; unlike `Find`, a miss formats no message.
  bool Contains(const Tuple& tuple) const { return index_.count(tuple) > 0; }

  /// Marginal probability of `tuple` (0 when absent).
  double ProbOf(const Tuple& tuple) const;

  /// The dictionary-encoded columnar image of this relation, built on
  /// first request and cached until the next `AddTuple`. Thread-safe; the
  /// returned image stays valid after invalidation for as long as the
  /// caller holds the pointer.
  std::shared_ptr<const ColumnarRelation> columnar() const;

  /// The cached columnar image, or null when none has been built. Never
  /// triggers a build.
  std::shared_ptr<const ColumnarRelation> columnar_if_built() const;

  /// True iff every tuple has probability exactly 1.
  bool IsDeterministic() const;

  /// Multi-line human-readable dump (name, schema, rows with probabilities).
  std::string ToString() const;

  /// Deep copies of any `Relation` made by this process so far. A
  /// copy-on-write `Database` shares relations instead of copying them, so
  /// tests pin this flat across the query path.
  static uint64_t CopyCount();

 private:
  std::string name_;
  Schema schema_;
  std::vector<Tuple> tuples_;
  std::vector<double> probs_;
  std::unordered_map<Tuple, size_t> index_;  // tuple -> row id
  /// Lazily built columnar image; null until first use, reset by AddTuple.
  mutable std::mutex columnar_mu_;
  mutable std::shared_ptr<const ColumnarRelation> columnar_;
};

/// Equality (hash) index on a subset of a relation's columns, for the
/// reference matcher (`EnumerateCqMatchesReference`) that tests compare the
/// join executor against.
class HashIndex {
 public:
  /// Builds an index of `relation` keyed on `key_cols`.
  HashIndex(const Relation& relation, std::vector<size_t> key_cols);

  /// Row ids whose key columns equal `key` (same order as key_cols).
  const std::vector<size_t>& Lookup(const Tuple& key) const;

  const std::vector<size_t>& key_cols() const { return key_cols_; }

 private:
  std::vector<size_t> key_cols_;
  std::unordered_map<Tuple, std::vector<size_t>> buckets_;
  std::vector<size_t> empty_;
};

}  // namespace pdb

#endif  // PDB_STORAGE_RELATION_H_
