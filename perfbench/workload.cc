// Seeded workload generation, reference answers, and reply checking.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "bench.h"
#include "boolean/lineage.h"
#include "core/pdb.h"
#include "core/session.h"
#include "kc/obdd.h"
#include "kc/order.h"
#include "sql/sql.h"
#include "storage/csv.h"
#include "util/string_util.h"
#include "wmc/weights.h"

namespace perfbench {

using pdb::Result;
using pdb::Status;
using pdb::StrFormat;

const char* ClsName(Cls cls) {
  switch (cls) {
    case Cls::kSafe:
      return "safe";
    case Cls::kUnsafe:
      return "unsafe";
    case Cls::kAnswers:
      return "answers";
    case Cls::kSampled:
      return "sampled";
    case Cls::kIngest:
      return "ingest";
  }
  return "?";
}

namespace {

/// SplitMix64: the whole workload derives from the seed through this
/// generator alone, so one seed gives the same bytes on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// A tuple probability in [0.1, 0.9], three decimals as written.
  std::string Prob() { return StrFormat("%.3f", 0.1 + 0.8 * Uniform()); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

/// The R(g,x), S(g,x,y), T(g,y) database: every statement names one group
/// g through a constant, so a statement's footprint is one group while the
/// database is the sum of all of them. The edge structure of each group
/// shape is fixed, and only the tuple probabilities come from the seed:
/// inference cost follows the structure (DPLL's decisions do not depend on
/// the weights), so every seed asks for the same amount of work.
struct Rst {
  Table r{"R", "g:int,x:int", "", 0};
  Table s{"S", "g:int,x:int,y:int", "", 0};
  Table t{"T", "g:int,y:int", "", 0};
  int next_group = 0;
  /// Tuple probabilities are drawn from [lo, hi].
  double lo = 0.1, hi = 0.9;

  /// A sparse group: x is joined to y = x, x+1, ... (mod n), `deg` edges each.
  static std::vector<std::pair<int, int>> Ring(int n, int deg) {
    std::vector<std::pair<int, int>> edges;
    for (int x = 0; x < n; ++x) {
      for (int k = 0; k < deg; ++k) edges.emplace_back(x, (x + k) % n);
    }
    return edges;
  }
  /// A dense block: each pair is an edge with probability `density`, drawn
  /// once from a fixed structure seed.
  static std::vector<std::pair<int, int>> Block(int n, double density, uint64_t structure) {
    Rng rng(structure);
    std::vector<std::pair<int, int>> edges;
    for (int x = 0; x < n; ++x) {
      for (int y = 0; y < n; ++y) {
        if (rng.Uniform() < density) edges.emplace_back(x, y);
      }
    }
    return edges;
  }

  int AddGroup(Rng* rng, int n, const std::vector<std::pair<int, int>>& edges) {
    const int g = next_group++;
    for (int x = 0; x < n; ++x) Row(&r, StrFormat("%d,%d", g, x), rng);
    for (int y = 0; y < n; ++y) Row(&t, StrFormat("%d,%d", g, y), rng);
    for (const auto& [x, y] : edges) Row(&s, StrFormat("%d,%d,%d", g, x, y), rng);
    return g;
  }
  void Row(Table* table, const std::string& data, Rng* rng) const {
    table->csv += data + "," + StrFormat("%.3f", lo + (hi - lo) * rng->Uniform()) + "\n";
    table->rows += 1;
  }
};

std::string SafeCq(int g) { return StrFormat("R(%d,x), S(%d,x,y)", g, g); }
std::string SafeSql(int g) {
  return StrFormat(
      "SELECT PROB() FROM S, T WHERE S.g = %d AND T.g = %d AND S.y = T.y", g,
      g);
}
/// Q_J (paper §5) inside one group: lifted only through inclusion–exclusion.
std::string Qj(int g) {
  return StrFormat("R(%d,x), S(%d,x,y), T(%d,u), S(%d,u,v)", g, g, g, g);
}
/// H0, the canonical #P-hard query, inside one group or block.
std::string H0(int g, bool sql) {
  if (sql) {
    return StrFormat(
        "SELECT PROB() FROM R, S, T WHERE R.g = %d AND S.g = %d AND T.g = %d "
        "AND R.x = S.x AND S.y = T.y",
        g, g, g);
  }
  return StrFormat("R(%d,x), S(%d,x,y), T(%d,y)", g, g, g);
}
std::string AnswersSql(int g) {
  return StrFormat(
      "SELECT S.x FROM R, S WHERE R.g = %d AND S.g = %d AND R.x = S.x", g, g);
}

Request Query(Cls cls, std::string body, int client = 0) {
  Request r;
  r.cls = cls;
  r.body = std::move(body);
  r.client = client;
  return r;
}

/// Safe statement number `i` of a rotation over the three lifted shapes.
Request SafeStatement(int i, int g, int client = 0) {
  switch (i % 3) {
    case 0:
      return Query(Cls::kSafe, SafeCq(g), client);
    case 1:
      return Query(Cls::kSafe, SafeSql(g), client);
    default:
      return Query(Cls::kSafe, Qj(g), client);
  }
}

// Fixed work per run: request counts are these rates times --seconds.
constexpr int kHotRequestsPerSecond = 25000;
constexpr double kColdStatementsPerSecond = 36;
constexpr double kIngestCyclesPerSecond = 6;

// cold-read class shares. Lifted statements are the cheapest class and
// most of the count, so p50 sits inside it; sampled statements are the
// costliest and more than 5% of the count, so p95 sits inside them. With
// these shares lifted-path and grounded-path work each take over a third
// of the time.
constexpr double kColdUnsafeShare = 0.08;
constexpr double kColdAnswersShare = 0.20;
constexpr double kColdSampledShare = 0.08;
/// Deadline for the sampled class: far below the exact cost of H0 over a
/// large block, so DPLL always overruns and Karp–Luby always answers.
constexpr uint64_t kSampledDeadlineMs = 5;
/// Block shapes: H0 over a dense block is exact DPLL work; over a large
/// block it is exact work of seconds, so under the deadline it is sampled.
constexpr int kDenseN = 8;
constexpr uint64_t kDenseStructure = 4;
constexpr int kLargeN = 9;
constexpr uint64_t kLargeStructure = 1;

Workload HotRead(uint64_t seed, int seconds, bool smoke) {
  Workload w;
  Rng rng(seed);
  Rst db;
  const int groups = smoke ? 12 : 48;
  for (int i = 0; i < groups; ++i) db.AddGroup(&rng, 6, Rst::Ring(6, 2));
  w.tables = {db.r, db.s, db.t};
  w.client_ids = {"", ""};
  // The hot set: safe CQs, Q_J, and H0 over sparse groups, one group each.
  const int per_shape = smoke ? 3 : 12;
  std::vector<Request> hot;
  for (int i = 0; i < 3 * per_shape; ++i) {
    const bool sql = (i / 3) % 2 == 0;
    if (i % 3 == 0) hot.push_back(Query(Cls::kSafe, sql ? SafeSql(i) : SafeCq(i)));
    if (i % 3 == 1) hot.push_back(Query(Cls::kSafe, Qj(i)));
    if (i % 3 == 2) hot.push_back(Query(Cls::kUnsafe, H0(i, sql)));
  }
  w.warmup = hot;
  const int total = smoke ? 3000 : kHotRequestsPerSecond * seconds;
  const int clients = static_cast<int>(w.client_ids.size());
  w.sequences.resize(clients);
  for (int c = 0; c < clients; ++c) {
    for (int i = 0; i < total / clients; ++i) {
      Request r = hot[rng.Below(hot.size())];
      r.client = c;
      w.sequences[c].push_back(std::move(r));
    }
  }
  w.mix = StrFormat(
      "%d anonymous closed-loop clients re-send %zu Boolean statements "
      "(%d safe CQ, %d Q_J, %d H0) %d times in total; R,S,T = %zu,%zu,%zu "
      "tuples",
      clients, hot.size(), per_shape, per_shape, per_shape,
      clients * (total / clients), db.r.rows, db.s.rows, db.t.rows);
  return w;
}

Workload ColdRead(uint64_t seed, int seconds, bool smoke) {
  Workload w;
  Rng rng(seed);
  Rst db;
  const int total = smoke ? 16 : static_cast<int>(kColdStatementsPerSecond * seconds);
  const int n_unsafe = std::max(1, static_cast<int>(std::lround(total * kColdUnsafeShare)));
  const int n_answers = std::max(1, static_cast<int>(std::lround(total * kColdAnswersShare)));
  const int n_sampled = std::max(1, static_cast<int>(std::lround(total * kColdSampledShare)));
  const int n_safe = total - n_unsafe - n_answers - n_sampled;
  // Every statement names a group or block no other statement of its shape
  // names, so nothing repeats within a run; the database is at least the
  // default size and grows only when a longer run needs more groups.
  const int sparse = std::max(smoke ? 40 : 300, n_answers + (n_safe + 2) / 3 + 4);
  const int dense = std::max(smoke ? 8 : 60, n_unsafe);
  const int large = std::max(smoke ? 4 : 60, n_sampled);
  std::vector<int> sparse_groups, dense_blocks, large_blocks;
  for (int i = 0; i < sparse; ++i) {
    sparse_groups.push_back(db.AddGroup(&rng, 6, Rst::Ring(6, 2)));
  }
  for (int i = 0; i < dense; ++i) {
    dense_blocks.push_back(
        db.AddGroup(&rng, kDenseN, Rst::Block(kDenseN, 0.5, kDenseStructure)));
  }
  // Low probabilities keep H0 over a large block well inside (0, 1), where
  // the plan bounds pdbd intersects with the Karp–Luby interval are loose
  // enough that the estimate stays inside its reported [lower, upper].
  db.lo = 0.05;
  db.hi = 0.25;
  for (int i = 0; i < large; ++i) {
    large_blocks.push_back(
        db.AddGroup(&rng, kLargeN, Rst::Block(kLargeN, 0.5, kLargeStructure)));
  }
  w.tables = {db.r, db.s, db.t};
  w.client_ids = {"cold-0", "cold-1"};
  rng.Shuffle(&sparse_groups);
  rng.Shuffle(&dense_blocks);
  rng.Shuffle(&large_blocks);

  // Warm-up on groups the timed sequence never names, through each
  // client's own session: grounding H0 and an answer sweep builds the
  // columnar sidecars and the session's index caches.
  for (int c = 0; c < 2; ++c) {
    w.warmup.push_back(Query(Cls::kUnsafe, H0(sparse_groups.back(), c == 0), c));
    sparse_groups.pop_back();
    w.warmup.push_back(Query(Cls::kAnswers, AnswersSql(sparse_groups.back()), c));
    sparse_groups.pop_back();
  }

  std::vector<Request> all;
  for (int i = 0; i < n_safe; ++i) {
    all.push_back(SafeStatement(i, sparse_groups[i / 3]));
  }
  for (int i = 0; i < n_answers; ++i) {
    all.push_back(Query(Cls::kAnswers,
                        AnswersSql(sparse_groups[sparse_groups.size() - 1 - i])));
  }
  for (int i = 0; i < n_unsafe; ++i) {
    all.push_back(Query(Cls::kUnsafe, H0(dense_blocks[i], i % 2 == 0)));
  }
  for (int i = 0; i < n_sampled; ++i) {
    Request r = Query(Cls::kSampled, H0(large_blocks[i], i % 2 == 1));
    r.deadline_ms = kSampledDeadlineMs;
    all.push_back(std::move(r));
  }
  rng.Shuffle(&all);
  w.sequences.resize(2);
  for (size_t i = 0; i < all.size(); ++i) {
    all[i].client = static_cast<int>(i % 2);
    w.sequences[i % 2].push_back(std::move(all[i]));
  }
  w.mix = StrFormat(
      "2 closed-loop clients with own X-Client-Id send %d never-repeating "
      "statements: %d lifted (safe CQ, SQL, Q_J), %d H0 on %dx%d blocks, %d "
      "SQL answer queries, %d H0 on %dx%d blocks under X-Deadline-Ms %llu; "
      "R,S,T = %zu,%zu,%zu tuples",
      total, n_safe, n_unsafe, kDenseN, kDenseN, n_answers, n_sampled, kLargeN, kLargeN,
      static_cast<unsigned long long>(kSampledDeadlineMs), db.r.rows,
      db.s.rows, db.t.rows);
  return w;
}

/// One batch of the events relation E(b,t,id): t takes three values, so the
/// fresh answer query fans out to three marginals.
Request EventBatch(Rng* rng, int b, int rows, int* next_id) {
  Request r;
  r.cls = Cls::kIngest;
  r.relation = "E";
  r.schema = "b:int,t:int,id:int";
  r.rows = static_cast<size_t>(rows);
  for (int i = 0; i < rows; ++i) {
    r.body += StrFormat("%d,%d,%d,%s\n", b, static_cast<int>(rng->Below(3)),
                        (*next_id)++, rng->Prob().c_str());
  }
  return r;
}

/// The answer query over batch `b`, whose rows are `batch`.
Request FreshQuery(int b, const std::string& batch) {
  Request r = Query(Cls::kAnswers, StrFormat("SELECT E.t FROM E WHERE E.b = %d", b));
  r.fresh = true;
  r.batch = batch;
  return r;
}

Workload IngestRead(uint64_t seed, int seconds, bool smoke) {
  Workload w;
  Rng rng(seed);
  Rst db;
  const int groups = smoke ? 12 : 400;
  const int batch_rows = smoke ? 100 : 200;
  for (int i = 0; i < groups; ++i) db.AddGroup(&rng, 6, Rst::Ring(6, 2));
  int next_id = 0;
  Request first = EventBatch(&rng, 0, batch_rows, &next_id);
  w.tables = {db.r, db.s, db.t,
              Table{"E", first.schema, first.body, first.rows}};
  w.client_ids = {"ingest-0"};
  // Six lifted dashboard statements over R, S, T; none reads E.
  std::vector<Request> dashboard;
  for (int i = 0; i < 6; ++i) {
    dashboard.push_back(SafeStatement(i, static_cast<int>(rng.Below(groups))));
  }
  w.warmup = dashboard;
  w.warmup.push_back(FreshQuery(0, first.body));
  const int cycles = smoke ? 3 : static_cast<int>(kIngestCyclesPerSecond * seconds);
  w.sequences.resize(1);
  for (int b = 1; b <= cycles; ++b) {
    w.sequences[0].push_back(EventBatch(&rng, b, batch_rows, &next_id));
    w.sequences[0].push_back(FreshQuery(b, w.sequences[0].back().body));
    for (const Request& d : dashboard) w.sequences[0].push_back(d);
  }
  w.mix = StrFormat(
      "1 connection repeats %d cycles of: durable POST /ingest of %d rows "
      "into E, one answer query over that batch, %zu lifted dashboard "
      "statements over R,S,T (%zu,%zu,%zu tuples)",
      cycles, batch_rows, dashboard.size(), db.r.rows, db.s.rows, db.t.rows);
  return w;
}

std::string TupleJson(const pdb::Tuple& tuple) {
  std::string out = "[";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%lld", static_cast<long long>(tuple[i].AsInt()));
  }
  return out + "]";
}

Result<pdb::ProbDatabase*> LoadDatabase(const std::vector<Table>& tables,
                                        pdb::ProbDatabase* db) {
  pdb::CsvOptions csv;
  csv.has_header = false;
  for (const Table& table : tables) {
    PDB_ASSIGN_OR_RETURN(pdb::Schema schema, pdb::ParseSchemaSpec(table.schema));
    PDB_ASSIGN_OR_RETURN(pdb::Relation relation,
                         pdb::RelationFromCsv(table.name, schema, table.csv, csv));
    PDB_RETURN_NOT_OK(db->AddRelation(std::move(relation)));
  }
  return db;
}

/// Exact grounded options: the reference never takes the lifted path and
/// never samples.
pdb::QueryOptions GroundedOptions() {
  pdb::QueryOptions options;
  options.prefer_lifted = false;
  options.allow_monte_carlo = false;
  options.exec.num_threads = 1;
  return options;
}

Result<pdb::Ucq> StatementUcq(const std::string& body, const pdb::Database& db) {
  if (IsSql(body)) {
    PDB_ASSIGN_OR_RETURN(pdb::CompiledSql compiled, pdb::CompileSql(body, db));
    return pdb::Ucq({compiled.cq});
  }
  PDB_ASSIGN_OR_RETURN(pdb::FoPtr sentence, pdb::ParseBooleanQuery(body));
  return pdb::FoToUcq(sentence);
}

/// The reference answer of one statement over `db`. `session` keeps its
/// index caches across statements and caches no answers.
Result<Answer> ReferenceAnswer(const Request& request, const pdb::ProbDatabase& db,
                               pdb::Session* session) {
  Answer out;
  out.exact = request.cls != Cls::kSampled;
  switch (request.cls) {
    case Cls::kIngest:
      return Status::InvalidArgument("an ingest has no reference answer");
    case Cls::kSafe: {
      // Lifted answers are checked against grounded DPLL.
      out.method = "lifted";
      Result<pdb::QueryAnswer> answer =
          IsSql(request.body) ? session->QuerySqlBoolean(request.body, GroundedOptions())
                                     : session->Query(request.body, GroundedOptions());
      PDB_RETURN_NOT_OK(answer.status());
      if (!answer->exact) return Status::Internal("reference answer is not exact");
      out.rows[""] = answer->probability;
      return out;
    }
    case Cls::kUnsafe:
    case Cls::kSampled: {
      // Grounded answers are checked against an OBDD of the same lineage. A
      // sampled statement gets one too, for a reply whose exact counting
      // finishes within the deadline.
      out.method = request.cls == Cls::kUnsafe ? "grounded-exact" : "monte-carlo";
      PDB_ASSIGN_OR_RETURN(pdb::Ucq ucq, StatementUcq(request.body, db.database()));
      pdb::FormulaManager mgr;
      PDB_ASSIGN_OR_RETURN(pdb::Lineage lineage,
                           pdb::BuildUcqLineage(ucq, db.database(), &mgr));
      pdb::Obdd obdd(pdb::IdentityOrder(lineage.vars.size()));
      PDB_ASSIGN_OR_RETURN(pdb::Obdd::Ref root, obdd.Compile(&mgr, lineage.root));
      out.rows[""] = obdd.Wmc(root, pdb::WeightsFromProbabilities(lineage.probs));
      return out;
    }
    case Cls::kAnswers: {
      out.method = "lifted";
      PDB_ASSIGN_OR_RETURN(pdb::Relation rows,
                           session->QuerySqlAnswers(request.body, GroundedOptions()));
      for (size_t i = 0; i < rows.size(); ++i) {
        out.rows[TupleJson(rows.tuple(i))] = rows.prob(i);
      }
      return out;
    }
  }
  return Status::Internal("unreachable");
}

/// Pulls the number after `"key":` in `line`.
bool NumberField(const std::string& line, const char* key, double* out) {
  std::string needle = StrFormat("\"%s\":", key);
  size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start;
}

bool StringField(const std::string& line, const char* key, std::string* out) {
  std::string needle = StrFormat("\"%s\":\"", key);
  size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  size_t from = at + needle.size();
  size_t to = line.find('"', from);
  if (to == std::string::npos) return false;
  *out = line.substr(from, to - from);
  return true;
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                              bool smoke) {
  Workload w;
  if (name == "hot-read") {
    w = HotRead(seed, seconds, smoke);
  } else if (name == "cold-read") {
    w = ColdRead(seed, seconds, smoke);
  } else if (name == "ingest-read") {
    w = IngestRead(seed, seconds, smoke);
  } else {
    return Status::InvalidArgument(StrFormat("unknown workload '%s'", name.c_str()));
  }
  w.name = name;
  w.seed = seed;
  return w;
}

Status ComputeReference(Workload* workload, int threads) {
  pdb::ProbDatabase db;
  PDB_RETURN_NOT_OK(LoadDatabase(workload->tables, &db).status());

  std::vector<Request*> all;
  for (Request& r : workload->warmup) all.push_back(&r);
  for (auto& sequence : workload->sequences) {
    for (Request& r : sequence) all.push_back(&r);
  }
  // Each distinct statement is computed once (hot-read repeats its set).
  std::map<std::string, const Request*> statements;
  for (const Request* r : all) {
    if (r->cls != Cls::kIngest) statements.emplace(r->body, r);
  }
  std::map<std::string, Answer> distinct;
  std::vector<std::pair<const Request*, Answer*>> work;
  for (const auto& [body, r] : statements) work.emplace_back(r, &distinct[body]);

  std::atomic<size_t> next{0};
  std::mutex mu;
  Status failure;
  pdb::SessionOptions no_answer_cache;
  no_answer_cache.num_threads = 1;
  no_answer_cache.cache_results = false;
  auto worker = [&] {
    pdb::Session session(&db, no_answer_cache);
    for (size_t i; (i = next.fetch_add(1)) < work.size();) {
      const Request& r = *work[i].first;
      Result<Answer> answer = Status::Internal("unset");
      if (r.fresh) {
        // A fresh query reads only the batch it names, so its reference
        // database is that batch alone.
        pdb::ProbDatabase batch_db;
        Result<pdb::ProbDatabase*> loaded =
            LoadDatabase({Table{"E", "b:int,t:int,id:int", r.batch, 0}}, &batch_db);
        pdb::Session batch_session(&batch_db, no_answer_cache);
        answer = loaded.ok() ? ReferenceAnswer(r, batch_db, &batch_session) : loaded.status();
      } else {
        answer = ReferenceAnswer(r, db, &session);
      }
      if (answer.ok()) {
        *work[i].second = std::move(answer).value();
      } else {
        std::lock_guard<std::mutex> lock(mu);
        failure = Status::Internal(StrFormat("reference for '%s': %s", r.body.c_str(),
                                             answer.status().ToString().c_str()));
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  PDB_RETURN_NOT_OK(failure);
  for (Request* r : all) {
    if (r->cls == Cls::kIngest) {
      r->expected.ingested_rows = r->rows;
    } else {
      r->expected = distinct.at(r->body);
    }
  }
  return Status::OK();
}

std::string RenderRequest(const Request& request, const std::string& client_id) {
  std::string target = "/query";
  if (request.cls == Cls::kIngest) {
    target = StrFormat("/ingest?relation=%s&schema=%s", request.relation.c_str(),
                       request.schema.c_str());
  }
  std::string out = StrFormat(
      "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/plain\r\n"
      "Content-Length: %zu\r\n",
      target.c_str(), request.body.size());
  if (!client_id.empty()) out += StrFormat("X-Client-Id: %s\r\n", client_id.c_str());
  if (request.deadline_ms > 0) {
    out += StrFormat("X-Deadline-Ms: %llu\r\n",
                     static_cast<unsigned long long>(request.deadline_ms));
  }
  return out + "\r\n" + request.body;
}

Result<Answer> ParseReply(const Request& request, const std::string& body) {
  Answer out;
  if (request.cls == Cls::kIngest) {
    double rows = 0;
    if (!NumberField(body, "rows", &rows)) {
      return Status::InvalidArgument("ingest ack without a row count");
    }
    out.ingested_rows = static_cast<size_t>(rows);
    return out;
  }
  // NDJSON: answer lines, then exactly one final {"done":true,"rows":N}.
  size_t answer_lines = 0;
  double done_rows = -1;
  bool exact = true;
  std::string method;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) return Status::InvalidArgument("unterminated NDJSON line");
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (done_rows >= 0) return Status::InvalidArgument("line after the done line");
    if (line.find("\"done\":true") != std::string::npos) {
      if (!NumberField(line, "rows", &done_rows)) {
        return Status::InvalidArgument("done line without a row count");
      }
      continue;
    }
    double p = 0;
    std::string line_method;
    if (!NumberField(line, "probability", &p) || !StringField(line, "method", &line_method)) {
      return Status::InvalidArgument("answer line without probability or method");
    }
    exact = exact && line.find("\"exact\":true") != std::string::npos;
    method = method.empty() || method == line_method ? line_method : "mixed";
    std::string key;
    if (request.cls == Cls::kAnswers) {
      size_t open = line.find("\"tuple\":[");
      size_t close = open == std::string::npos ? open : line.find(']', open);
      if (close == std::string::npos) return Status::InvalidArgument("answer row without tuple");
      key = line.substr(open + 8, close - open - 7);
    } else {
      NumberField(line, "lower", &out.lower);
      NumberField(line, "upper", &out.upper);
      NumberField(line, "std_error", &out.std_error);
    }
    out.rows[key] = p;
    ++answer_lines;
  }
  if (done_rows < 0) return Status::InvalidArgument("missing done line");
  if (static_cast<size_t>(done_rows) != answer_lines || out.rows.size() != answer_lines) {
    return Status::InvalidArgument(StrFormat("done line says %g rows, body has %zu",
                                             done_rows, answer_lines));
  }
  out.method = method;
  out.exact = answer_lines > 0 && exact;
  return out;
}

bool IsSql(const std::string& body) { return body.rfind("SELECT", 0) == 0; }

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b)) + 1e-12;
}

std::string Verify(const Request& request, const Answer& got) {
  const Answer& want = request.expected;
  if (request.cls == Cls::kIngest) {
    return got.ingested_rows == request.rows
               ? ""
               : StrFormat("ingest ack reports %zu rows, sent %zu", got.ingested_rows,
                           request.rows);
  }
  if (request.cls == Cls::kSampled && got.method == want.method) {
    double p = got.rows.count("") ? got.rows.at("") : -1;
    if (got.exact || !(got.std_error > 0) || !(got.lower <= p && p <= got.upper)) {
      return StrFormat("sampled answer p=%.6g in [%.6g, %.6g], stderr %.3g, exact %d", p,
                       got.lower, got.upper, got.std_error, got.exact ? 1 : 0);
    }
    return "";
  }
  // A sampled statement may also come back exact, when exact counting
  // beats its deadline; then it is checked like any grounded answer.
  const bool exact_in_time = request.cls == Cls::kSampled && got.method == "grounded-exact";
  if (got.method != want.method && !exact_in_time) {
    return StrFormat("method %s, want %s", got.method.c_str(), want.method.c_str());
  }
  if (!got.exact) return "answer not labelled exact";
  if (got.rows.size() != want.rows.size()) {
    return StrFormat("%zu answer rows, want %zu", got.rows.size(), want.rows.size());
  }
  for (const auto& [key, p] : want.rows) {
    auto it = got.rows.find(key);
    if (it == got.rows.end()) return StrFormat("missing answer row %s", key.c_str());
    if (!Close(it->second, p)) {
      return StrFormat("row %s: p=%.17g, reference %.17g", key.c_str(), it->second, p);
    }
  }
  return "";
}

}  // namespace perfbench
