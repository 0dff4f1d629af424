/// \file workloads.h
/// \brief Shared workload generators for the experiment benches.
///
/// Every bench regenerates one of the paper's figures/examples/theorem-level
/// claims (see DESIGN.md's experiment index). The synthetic instances here
/// parameterize exactly what the claims depend on: domain size, arity
/// structure and tuple probabilities.

#ifndef PDB_BENCH_WORKLOADS_H_
#define PDB_BENCH_WORKLOADS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "util/check.h"
#include "util/random.h"

namespace pdb::bench {

/// One machine-readable benchmark result row.
struct BenchRecord {
  std::string name;
  double wall_ms = 0.0;         ///< wall-clock time per iteration
  double samples_per_sec = 0.0; ///< 0 when the bench has no sampling rate
  int threads = 1;
};

/// Writes `records` as a JSON array of objects, e.g.
///   [{"name": "BM_X", "wall_ms": 1.5, "samples_per_sec": 2e6, "threads": 4,
///     "hardware_concurrency": 8}]
/// so the perf trajectory is trackable across PRs (diff-friendly: one row
/// per line, fixed key order). `hardware_concurrency` records the machine
/// the row was measured on — thread-scaling numbers are meaningless without
/// it when comparing runs across hosts.
inline void WriteBenchJson(const std::string& path,
                           const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PDB_CHECK(f != nullptr);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(
        f, "  {\"name\": \"%s\", \"wall_ms\": %.6g, \"samples_per_sec\": %.6g, \"threads\": %d, \"hardware_concurrency\": %d}%s\n",
        r.name.c_str(), r.wall_ms, r.samples_per_sec, r.threads, hw,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

/// The paper's Figure 1 TID (string constants a1..a4, b1..b6).
inline Database Figure1Database() {
  Database db;
  Relation r("R", Schema({{"x", ValueType::kString}}));
  PDB_CHECK(r.AddTuple({Value("a1")}, 0.3).ok());
  PDB_CHECK(r.AddTuple({Value("a2")}, 0.5).ok());
  PDB_CHECK(r.AddTuple({Value("a3")}, 0.9).ok());
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  Relation s("S",
             Schema({{"x", ValueType::kString}, {"y", ValueType::kString}}));
  PDB_CHECK(s.AddTuple({Value("a1"), Value("b1")}, 0.1).ok());
  PDB_CHECK(s.AddTuple({Value("a1"), Value("b2")}, 0.2).ok());
  PDB_CHECK(s.AddTuple({Value("a2"), Value("b3")}, 0.4).ok());
  PDB_CHECK(s.AddTuple({Value("a2"), Value("b4")}, 0.6).ok());
  PDB_CHECK(s.AddTuple({Value("a2"), Value("b5")}, 0.7).ok());
  PDB_CHECK(s.AddTuple({Value("a4"), Value("b6")}, 0.8).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  return db;
}

/// R(i) for i in [n]; S(i, j) for i in [n], j in [fanout]; probabilities
/// drawn from `rng` or fixed 0.5 when rng is null.
inline Database TwoLevelDatabase(size_t n, size_t fanout, Rng* rng = nullptr) {
  Database db;
  Relation r("R", Schema::Anonymous(1));
  Relation s("S", Schema::Anonymous(2));
  auto prob = [&] { return rng ? 0.1 + 0.8 * rng->NextDouble() : 0.5; };
  for (size_t i = 1; i <= n; ++i) {
    PDB_CHECK(r.AddTuple({Value(static_cast<int64_t>(i))}, prob()).ok());
    for (size_t j = 1; j <= fanout; ++j) {
      PDB_CHECK(s.AddTuple({Value(static_cast<int64_t>(i)),
                            Value(static_cast<int64_t>(j))},
                           prob())
                    .ok());
    }
  }
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  return db;
}

/// Complete bipartite H0 instance: R(i), T(j) unary over [n], S(i,j) over
/// [n]x[n].
inline Database H0Database(size_t n, Rng* rng = nullptr) {
  Database db = TwoLevelDatabase(n, n, rng);
  Relation t("T", Schema::Anonymous(1));
  auto prob = [&] { return rng ? 0.1 + 0.8 * rng->NextDouble() : 0.5; };
  for (size_t i = 1; i <= n; ++i) {
    PDB_CHECK(t.AddTuple({Value(static_cast<int64_t>(i))}, prob()).ok());
  }
  PDB_CHECK(db.AddRelation(std::move(t)).ok());
  return db;
}

/// The edges of one of perfbench's cold-read H0 blocks: pair (x, y) of
/// [0, n)² is an edge with probability `density`, decided by a splitmix64
/// stream seeded with `structure` — the generator perfbench/workload.cc
/// draws its block structure from, so (8, 0.5, 4) and (9, 0.5, 1) are the
/// dense and the sampled block shapes of that workload.
inline std::vector<std::pair<int, int>> BlockEdges(int n, double density,
                                                   uint64_t structure) {
  uint64_t state = structure;
  auto uniform = [&state] {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  };
  std::vector<std::pair<int, int>> edges;
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      if (uniform() < density) edges.emplace_back(x, y);
    }
  }
  return edges;
}

/// H0 instance over one block: R(x), T(y) for x, y in [0, n) and S(x, y)
/// per edge, each tuple's probability uniform in [lo, hi].
inline Database H0BlockDatabase(int n,
                                const std::vector<std::pair<int, int>>& edges,
                                double lo, double hi, Rng* rng) {
  Relation r("R", Schema::Anonymous(1));
  Relation s("S", Schema::Anonymous(2));
  Relation t("T", Schema::Anonymous(1));
  auto prob = [&] { return lo + (hi - lo) * rng->NextDouble(); };
  for (int i = 0; i < n; ++i) {
    PDB_CHECK(r.AddTuple({Value(static_cast<int64_t>(i))}, prob()).ok());
    PDB_CHECK(t.AddTuple({Value(static_cast<int64_t>(i))}, prob()).ok());
  }
  for (const auto& [x, y] : edges) {
    PDB_CHECK(s.AddTuple({Value(static_cast<int64_t>(x)),
                          Value(static_cast<int64_t>(y))},
                         prob())
                  .ok());
  }
  Database db;
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  PDB_CHECK(db.AddRelation(std::move(t)).ok());
  return db;
}

/// Random TID with the given per-relation arities over an integer domain.
inline Database RandomDatabase(const std::vector<std::pair<std::string, size_t>>&
                                   relations,
                               size_t domain, double presence, Rng* rng) {
  Database db;
  for (const auto& [name, arity] : relations) {
    Relation rel(name, Schema::Anonymous(arity));
    size_t total = 1;
    for (size_t i = 0; i < arity; ++i) total *= domain;
    for (size_t combo = 0; combo < total; ++combo) {
      if (!rng->Bernoulli(presence)) continue;
      Tuple tuple;
      size_t rest = combo;
      for (size_t i = 0; i < arity; ++i) {
        tuple.push_back(Value(static_cast<int64_t>(rest % domain + 1)));
        rest /= domain;
      }
      PDB_CHECK(rel.AddTuple(std::move(tuple), rng->NextDouble()).ok());
    }
    PDB_CHECK(db.AddRelation(std::move(rel)).ok());
  }
  return db;
}

/// Prints a bench section header.
inline void Section(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace pdb::bench

#endif  // PDB_BENCH_WORKLOADS_H_
