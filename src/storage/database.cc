#include "storage/database.h"

#include <set>

#include "util/check.h"
#include "util/string_util.h"

namespace pdb {

Status Database::AddRelation(Relation relation) {
  if (relations_.count(relation.name()) > 0) {
    return Status::InvalidArgument(
        StrFormat("relation '%s' already exists", relation.name().c_str()));
  }
  std::string name = relation.name();
  relations_.emplace(std::move(name),
                     std::make_shared<Relation>(std::move(relation)));
  return Status::OK();
}

Status Database::CreateRelation(const std::string& name, Schema schema) {
  return AddRelation(Relation(name, std::move(schema)));
}

bool Database::HasRelation(const std::string& name) const {
  return relations_.count(name) > 0;
}

Result<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrFormat("no relation named '%s'", name.c_str()));
  }
  return it->second.get();
}

Result<Relation*> Database::GetMutable(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrFormat("no relation named '%s'", name.c_str()));
  }
  std::shared_ptr<Relation>& rel = it->second;
  // Only Databases hold these pointers, and the caller has this one to
  // itself, so a count of 1 means no other copy can observe the mutation.
  if (rel.use_count() > 1) rel = std::make_shared<Relation>(*rel);
  return rel.get();
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

std::vector<Value> Database::ActiveDomain() const {
  std::set<Value> domain;
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& t : rel->tuples()) {
      for (const Value& v : t) domain.insert(v);
    }
  }
  return std::vector<Value>(domain.begin(), domain.end());
}

size_t Database::TupleCount() const {
  size_t count = 0;
  for (const auto& [name, rel] : relations_) count += rel->size();
  return count;
}

Database Database::SampleWorld(Rng* rng) const {
  Database world;
  for (const auto& [name, rel] : relations_) {
    Relation sampled(rel->name(), rel->schema());
    for (size_t i = 0; i < rel->size(); ++i) {
      if (rng->Bernoulli(rel->prob(i))) {
        // Tuples come from a valid relation, so re-adding cannot fail.
        PDB_CHECK(sampled.AddTuple(rel->tuple(i), 1.0).ok());
      }
    }
    PDB_CHECK(world.AddRelation(std::move(sampled)).ok());
  }
  return world;
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += rel->ToString();
    out += "\n";
  }
  return out;
}

}  // namespace pdb
