/// \file database.h
/// \brief The database catalog: a set of named probabilistic relations.
///
/// A `Database` is the concrete representation of a tuple-independent
/// probabilistic database (paper §2): listing each possible tuple's marginal
/// probability fully determines the distribution over possible worlds.
///
/// The catalog is copy-on-write. Each relation is a heap object shared by
/// every `Database` copy that has not modified it, so copying a `Database`
/// costs O(#relations) and no tuple is copied. `GetMutable` clones a
/// relation only while another copy still shares it; the clone is then
/// private to the `Database` that asked for it.
///
/// Pointer contract:
///  * a `Get()` pointer lives as long as this `Database` holds the
///    relation: until the `Database` is destroyed or assigned to, or
///    until `GetMutable` on the same name replaces a shared relation with
///    a clone;
///  * a `GetMutable()` pointer is private to this `Database` only until
///    the `Database` is next copied: the copy shares the relation, so a
///    later mutation through the old pointer would show in both. Mutate
///    right away.
///
/// Threads may copy one `Database` concurrently, read through their
/// copies, and mutate their own copies, which clones what is shared. A
/// `Database` that is being mutated must not be read or copied
/// concurrently, the same rule as for any standard container. `GetMutable`
/// reads the share count without memory ordering, so a mutation in place
/// must be ordered after other threads' last use of the relation by a lock
/// or a join, as pdbd's read/apply lock does.

#ifndef PDB_STORAGE_DATABASE_H_
#define PDB_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/relation.h"
#include "util/random.h"
#include "util/status.h"

namespace pdb {

/// Catalog of named relations forming one probabilistic database instance.
class Database {
 public:
  /// Registers `relation` under its name. Fails on duplicate names.
  Status AddRelation(Relation relation);

  /// Creates and registers an empty relation.
  Status CreateRelation(const std::string& name, Schema schema);

  bool HasRelation(const std::string& name) const;

  /// Immutable lookup; NotFound if absent.
  Result<const Relation*> Get(const std::string& name) const;

  /// Mutable lookup; NotFound if absent. When another `Database` copy
  /// still shares the relation, this clones it first, so the caller's
  /// mutation stays private to this `Database`.
  Result<Relation*> GetMutable(const std::string& name);

  /// Names of all relations, sorted.
  std::vector<std::string> RelationNames() const;

  /// All distinct values appearing anywhere in the database, sorted.
  /// This is the active domain used when grounding quantifiers. It scans
  /// every tuple, so compute it only when it is needed.
  std::vector<Value> ActiveDomain() const;

  /// Total number of stored tuples across relations.
  size_t TupleCount() const;

  /// Samples one possible world: each tuple kept independently with its
  /// probability (Eq. 3 of the paper). The result is a deterministic
  /// database (all probabilities 1).
  Database SampleWorld(Rng* rng) const;

  std::string ToString() const;

 private:
  // Shared with the copies of this Database; see GetMutable.
  std::map<std::string, std::shared_ptr<Relation>> relations_;
};

}  // namespace pdb

#endif  // PDB_STORAGE_DATABASE_H_
