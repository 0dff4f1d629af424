// The traced replay: the same seeded requests, in-process, through each
// layer's public functions, following pdbd's routing (PdbServer::HandleQuery
// and HandleIngest, Session's cache probe and answer fan-out,
// ProbDatabase::QueryFoWithContext's lifted -> lineage + DPLL -> DNF +
// Karp–Luby order). Spans are kept in memory per thread and reduced to
// per-layer self times when the replay ends.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "boolean/lineage.h"
#include "core/session.h"
#include "lifted/lifted.h"
#include "logic/analysis.h"
#include "plans/bounds.h"
#include "server/admission.h"
#include "server/http.h"
#include "server/server.h"
#include "sql/sql.h"
#include "storage/csv.h"
#include "storage/durable_db.h"
#include "storage/index_cache.h"
#include "storage/write_batch.h"
#include "util/random.h"
#include "util/string_util.h"
#include "wmc/dpll.h"
#include "wmc/montecarlo.h"
#include "wmc/wmc_cache.h"
#include "wmc/weights.h"

namespace perfbench {

using pdb::Result;
using pdb::Status;
using pdb::StrFormat;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
  bool timed;  ///< belongs to a timed request (not set-up or warm-up)
  /// For a cache hit answered by the real Session: the front-end share of
  /// the span (compile or parse), measured by a separate untimed call.
  int64_t frontend_ns;
  const char* frontend_layer;
};

/// Spans of one replay thread. With spans off every call is a no-op, so
/// the same code path gives the untraced timing for obs.trace_overhead.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  int Begin(const char* name) {
    if (!on_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, stack_.empty() ? -1 : stack_.back(),
                          timed_, 0, nullptr});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
  }
  void Rename(int index, const char* name) {
    if (index >= 0) spans_[index].name = name;
  }
  void SetFrontend(int index, int64_t ns, const char* layer) {
    if (index < 0) return;
    spans_[index].frontend_ns = ns;
    spans_[index].frontend_layer = layer;
  }
  void set_timed(bool timed) { timed_ = timed; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  bool timed_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name) : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~Scoped() { End(); }
  void End() {
    if (!ended_) tracer_->End(index_);
    ended_ = true;
  }
  int index() const { return index_; }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int index_;
  bool ended_ = false;
};

/// Counts a thread adds up over its timed requests.
struct Counts {
  double separator_groundings = 0, ie_terms = 0, lineage_vars = 0;
  double answer_queries = 0, answer_rows = 0;
  double ingest_rows = 0, ingest_batches = 0, columnar_encodes = 0;
  void Add(const Counts& o) {
    separator_groundings += o.separator_groundings;
    ie_terms += o.ie_terms;
    lineage_vars += o.lineage_vars;
    answer_queries += o.answer_queries;
    answer_rows += o.answer_rows;
    ingest_rows += o.ingest_rows;
    ingest_batches += o.ingest_batches;
    columnar_encodes += o.columnar_encodes;
  }
};

/// One pdbd session: its result cache (the real Session, used for hits),
/// the statements it holds exactly since the last mutation, and its index
/// cache.
struct SessionState {
  std::mutex mu;
  std::unique_ptr<pdb::Session> session;
  std::map<std::string, Answer> cached;  // guarded by mu
  uint64_t generation = 0;               // guarded by mu
  pdb::IndexCache index_cache{pdb::IndexCacheOptions{}};
};

/// pdbd's default clamp when no X-Deadline-Ms is sent.
constexpr uint64_t kServerMaxDeadlineMs = 60'000;
/// Rows per WriteBatch on pdbd's /ingest path.
constexpr size_t kIngestBatchRows = 512;

class Replayer {
 public:
  Replayer(const Workload& workload, pdb::DurableDatabase* durable, bool spans)
      : workload_(workload), durable_(durable), spans_(spans) {
    for (const std::string& id : workload.client_ids) {
      if (sessions_.count(id)) continue;
      pdb::SessionOptions options = pdb::DefaultServerSessions().session;
      options.external_wmc_cache = wmc_;
      auto state = std::make_unique<SessionState>();
      state->session = std::make_unique<pdb::Session>(&durable_->pdb(), options);
      sessions_[id] = std::move(state);
    }
    FindRepeats();
  }

  Status Run(ReplayResult* result);

 private:
  const pdb::Database& db() const { return durable_->pdb().database(); }
  SessionState* StateFor(int client) const {
    return sessions_.at(workload_.client_ids[client]).get();
  }

  /// Statements a session answers again before the next mutation: only
  /// those must be primed into the real Session's result cache.
  void FindRepeats() {
    for (const auto& entry : sessions_) {
      const std::string& id = entry.first;
      std::set<std::string> seen;
      auto visit = [&](const Request& r) {
        if (workload_.client_ids[r.client] != id) return;
        if (r.cls == Cls::kIngest) {
          seen.clear();
        } else if (!seen.insert(r.body).second) {
          repeated_.insert(r.body);
        }
      };
      for (const Request& r : workload_.warmup) visit(r);
      for (const auto& sequence : workload_.sequences) {
        for (const Request& r : sequence) visit(r);
      }
    }
  }

  Status Replay(const Request& request, Tracer* tracer, Counts* counts, Answer* answer);
  Status ReplayIngest(const Request& request, const std::string& raw, Tracer* tracer,
                      Counts* counts, Answer* answer);
  Result<Answer> Route(const pdb::FoPtr& sentence, uint64_t deadline_ms, SessionState* state,
                       Tracer* tracer, Counts* counts);
  void EncodeColumnar(const std::vector<pdb::ConjunctiveQuery>& cqs, Tracer* tracer,
                      Counts* counts);
  Result<Answer> Probe(const std::string& key, SessionState* state, Tracer* tracer);
  void Remember(const std::string& key, const Answer& answer, SessionState* state);

  const Workload& workload_;
  pdb::DurableDatabase* durable_;
  bool spans_;
  std::shared_ptr<pdb::WmcCache> wmc_ = std::make_shared<pdb::WmcCache>();
  std::map<std::string, std::unique_ptr<SessionState>> sessions_;
  std::set<std::string> repeated_;
  pdb::AdmissionController admission_{pdb::AdmissionOptions{}};
};

void Replayer::EncodeColumnar(const std::vector<pdb::ConjunctiveQuery>& cqs, Tracer* tracer,
                              Counts* counts) {
  // The join engine encodes a relation's columnar sidecar on first use
  // after a mutation; doing it here first gives each encode its own span.
  for (const pdb::ConjunctiveQuery& cq : cqs) {
    for (const pdb::Atom& atom : cq.atoms()) {
      auto relation = db().Get(atom.predicate);
      if (!relation.ok() || (*relation)->columnar_if_built() != nullptr) continue;
      Scoped span(tracer, "storage.columnar_encode");
      (*relation)->columnar();
      counts->columnar_encodes += 1;
    }
  }
}

Result<Answer> Replayer::Probe(const std::string& key, SessionState* state, Tracer* tracer) {
  Scoped span(tracer, "core.cache_probe");
  std::lock_guard<std::mutex> lock(state->mu);
  auto it = state->cached.find(key);
  if (it == state->cached.end()) return Status::NotFound("miss");
  return it->second;
}

void Replayer::Remember(const std::string& key, const Answer& answer, SessionState* state) {
  if (!answer.exact) return;
  std::lock_guard<std::mutex> lock(state->mu);
  state->cached.emplace(key, answer);
}

Result<Answer> Replayer::Route(const pdb::FoPtr& sentence, uint64_t deadline_ms,
                               SessionState* state, Tracer* tracer, Counts* counts) {
  pdb::ExecContext ctx(nullptr);
  ctx.set_wmc_cache(wmc_.get());
  ctx.set_index_cache(&state->index_cache);
  if (deadline_ms > 0) ctx.SetDeadline(deadline_ms);
  Answer out;

  // 1. Lifted: the unate rewrite (which copies the database) and the rules.
  {
    Scoped rewrite_span(tracer, "logic.unate_rewrite");
    std::optional<pdb::UnateRewrite> rewrite;
    auto rewritten = pdb::RewriteUnateForUcq(sentence, db());
    if (rewritten.ok()) rewrite.emplace(std::move(rewritten).value());
    rewrite_span.End();
    if (!rewritten.ok() && rewritten.status().code() != pdb::StatusCode::kUnsupported) {
      return rewritten.status();
    }
    if (rewrite.has_value()) {
      Scoped rules_span(tracer, "lifted.rules");
      Result<double> p = Status::Internal("unset");
      {
        pdb::LiftedEngine engine(rewrite->database);
        p = engine.Compute(rewrite->ucq);
        counts->separator_groundings += engine.stats().separator_groundings;
        counts->ie_terms += engine.stats().ie_terms_total;
      }
      if (!p.ok() && p.status().code() != pdb::StatusCode::kUnsupported) return p.status();
      if (!p.ok()) tracer->Rename(rules_span.index(), "lifted.failed_attempt");
      rules_span.End();
      {
        Scoped free_span(tracer, "logic.unate_rewrite");
        const bool complemented = rewrite->complemented;
        rewrite.reset();
        if (p.ok()) {
          out.rows[""] = complemented ? 1.0 - *p : *p;
          out.lower = out.upper = out.rows[""];
          out.method = "lifted";
          out.exact = true;
          return out;
        }
      }
    }
  }

  // 2. Grounded exact: lineage, then DPLL under the deadline.
  Result<pdb::Ucq> as_ucq = Status::Internal("unset");
  {
    Scoped span(tracer, "boolean.lineage");
    as_ucq = pdb::FoToUcq(sentence);
  }
  if (as_ucq.ok()) EncodeColumnar(as_ucq->disjuncts(), tracer, counts);
  std::optional<pdb::FormulaManager> mgr(std::in_place);
  pdb::Lineage lineage;
  {
    Scoped lineage_span(tracer, "boolean.lineage");
    pdb::GroundingOptions grounding;
    grounding.exec = &ctx;
    if (as_ucq.ok()) {
      PDB_ASSIGN_OR_RETURN(lineage, pdb::BuildUcqLineage(*as_ucq, db(), &*mgr, grounding));
    } else {
      PDB_ASSIGN_OR_RETURN(lineage, pdb::BuildLineage(sentence, db(), &*mgr));
    }
    counts->lineage_vars += static_cast<double>(lineage.vars.size());
  }
  pdb::QueryOptions defaults;
  pdb::DpllOptions dpll_options;
  dpll_options.max_decisions = defaults.max_dpll_decisions;
  dpll_options.exec = &ctx;
  dpll_options.shared_cache = wmc_.get();
  {
    Scoped dpll_span(tracer, "wmc.dpll");
    std::optional<pdb::DpllCounter> counter(
        std::in_place, &*mgr, pdb::WeightsFromProbabilities(lineage.probs), dpll_options);
    Result<double> p = counter->Compute(lineage.root);
    counter.reset();
    if (p.ok()) {
      mgr.reset();
      out.rows[""] = *p;
      out.lower = out.upper = *p;
      out.method = "grounded-exact";
      out.exact = true;
      return out;
    }
    if (p.status().code() != pdb::StatusCode::kDeadlineExceeded &&
        p.status().code() != pdb::StatusCode::kResourceExhausted) {
      return p.status();
    }
    if (p.status().code() == pdb::StatusCode::kDeadlineExceeded) ctx.ClearDeadline();
  }

  // 3. Sampling: plan bounds for a self-join-free CQ, then Karp–Luby.
  std::optional<pdb::PlanBounds> bounds;
  if (as_ucq.ok() && as_ucq->size() == 1 && as_ucq->disjuncts()[0].IsSelfJoinFree()) {
    Scoped bounds_span(tracer, "plans.bounds");
    auto computed = pdb::ComputePlanBounds(as_ucq->disjuncts()[0], db());
    if (computed.ok()) bounds = *computed;
  }
  if (!as_ucq.ok()) return Status::Unsupported("replay samples UCQ lineages only");
  Scoped mc_span(tracer, "wmc.karp_luby");
  pdb::GroundingOptions grounding;
  grounding.exec = &ctx;
  PDB_ASSIGN_OR_RETURN(pdb::DnfLineage dnf, pdb::BuildUcqDnf(*as_ucq, db(), grounding));
  pdb::Rng rng(defaults.monte_carlo_seed);
  PDB_ASSIGN_OR_RETURN(pdb::Estimate estimate,
                       pdb::KarpLubyDnf(dnf.terms, dnf.probs, defaults.monte_carlo_samples,
                                        &rng, &ctx));
  mgr.reset();
  out.rows[""] = estimate.value;
  out.std_error = estimate.std_error;
  out.lower = std::max(0.0, estimate.value - 2.0 * estimate.std_error);
  out.upper = std::min(1.0, estimate.value + 2.0 * estimate.std_error);
  if (bounds.has_value()) {
    out.lower = std::max(out.lower, bounds->lower);
    out.upper = std::min(out.upper, bounds->upper);
  }
  out.method = "monte-carlo";
  out.exact = false;
  return out;
}

std::string BooleanLine(const Answer& answer) {
  return StrFormat(
      "{\"probability\":%.17g,\"lower\":%.17g,\"upper\":%.17g,\"method\":\"%s\","
      "\"exact\":%s,\"std_error\":%.17g,\"explanation\":\"%s\"}\n",
      answer.rows.at(""), answer.lower, answer.upper, answer.method.c_str(),
      answer.exact ? "true" : "false", answer.std_error, answer.method.c_str());
}

Status Replayer::ReplayIngest(const Request& request, const std::string& raw, Tracer* tracer,
                              Counts* counts, Answer* answer) {
  pdb::HttpRequestParser parser;
  parser.set_stream_predicate([](const pdb::HttpRequest&) { return true; });
  std::string body;
  {
    Scoped span(tracer, "server.http_parse");
    parser.Feed(raw);
    body = parser.TakeBodyChunk();
  }
  {
    Scoped span(tracer, "server.admission");
    admission_.Admit("");
  }
  PDB_ASSIGN_OR_RETURN(pdb::Schema schema, pdb::ParseSchemaSpec(request.schema));
  if (!db().HasRelation(request.relation)) {
    Scoped span(tracer, "storage.create_relation");
    PDB_RETURN_NOT_OK(durable_->CreateRelation(request.relation, schema));
  }
  size_t rows = 0;
  size_t start = 0;
  while (start < body.size()) {
    pdb::WriteBatch batch;
    {
      Scoped span(tracer, "storage.csv");
      while (start < body.size() && batch.count() < kIngestBatchRows) {
        size_t eol = body.find('\n', start);
        if (eol == std::string::npos) eol = body.size();
        PDB_ASSIGN_OR_RETURN(auto row,
                             pdb::ParseCsvRow(schema, body.substr(start, eol - start)));
        batch.Insert(request.relation, std::move(row.first), row.second);
        start = eol + 1;
        ++rows;
      }
    }
    Scoped span(tracer, "storage.apply_batch");
    PDB_RETURN_NOT_OK(durable_->ApplyBatch(&batch));
    counts->ingest_batches += 1;
  }
  counts->ingest_rows += static_cast<double>(rows);
  answer->ingested_rows = rows;
  {
    Scoped span(tracer, "server.render");
    pdb::RenderHttpResponse(
        200, "application/json",
        StrFormat("{\"relation\":\"%s\",\"rows\":%zu}\n", request.relation.c_str(), rows), true);
  }
  Scoped span(tracer, "server.admission");
  admission_.Release("");
  return Status::OK();
}

Status Replayer::Replay(const Request& request, Tracer* tracer, Counts* counts,
                        Answer* answer) {
  // Client-side work (rendering the request bytes) and the replay's own
  // bookkeeping stay outside the request span.
  const std::string& client_id =
      request.cls == Cls::kIngest ? std::string() : workload_.client_ids[request.client];
  const std::string raw = RenderRequest(request, client_id);
  if (request.cls == Cls::kIngest) {
    Scoped root(tracer, "request");
    return ReplayIngest(request, raw, tracer, counts, answer);
  }
  SessionState* state = StateFor(request.client);
  {
    // pdbd's sessions drop their caches lazily on the first request after
    // a mutation.
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->generation != durable_->pdb().generation()) {
      state->generation = durable_->pdb().generation();
      state->cached.clear();
      state->index_cache.Clear();
    }
  }
  const bool sql = IsSql(request.body);
  const char* frontend_layer = sql ? "sql.compile" : "logic.parse";
  auto frontend = [&]() -> Result<pdb::FoPtr> {
    if (!sql) return pdb::ParseBooleanQuery(request.body);
    PDB_ASSIGN_OR_RETURN(pdb::CompiledSql compiled, pdb::CompileSql(request.body, db()));
    return pdb::Ucq({compiled.cq}).ToFo();
  };
  pdb::QueryOptions options;
  options.exec.num_threads = 1;
  options.exec.deadline_ms = request.deadline_ms > 0 ? request.deadline_ms : kServerMaxDeadlineMs;
  bool prime = false;
  // Untimed, for Boolean statements: whether pdbd's session holds the
  // answer, and what the front end inside a Session call costs.
  pdb::FoPtr sentence;
  std::string key;
  int64_t frontend_ns = 0;
  bool hit = false;
  if (request.cls != Cls::kAnswers) {
    const int64_t frontend_start = NowNs();
    PDB_ASSIGN_OR_RETURN(sentence, frontend());
    frontend_ns = NowNs() - frontend_start;
    key = sentence->ToString();
    std::lock_guard<std::mutex> lock(state->mu);
    hit = state->cached.count(key) > 0;
  }

  Scoped root(tracer, "request");
  {
    Scoped span(tracer, "server.http_parse");
    pdb::HttpRequestParser parser;
    parser.Feed(raw);
  }
  {
    Scoped span(tracer, "server.admission");
    admission_.Admit(client_id);
  }
  std::string rendered = pdb::RenderHttpChunkedHead(200, "application/x-ndjson", true);

  if (request.cls == Cls::kAnswers) {
    // Session::QueryWithAnswersTraced: candidate sweep, then one Boolean
    // residual per candidate through the cache and the routing.
    pdb::CompiledSql compiled;
    {
      Scoped span(tracer, "sql.compile");
      PDB_RETURN_NOT_OK(pdb::ParseSql(request.body).status());
      PDB_ASSIGN_OR_RETURN(compiled, pdb::CompileSql(request.body, db()));
    }
    const pdb::ConjunctiveQuery& cq = compiled.cq;
    EncodeColumnar({cq}, tracer, counts);
    std::map<pdb::Tuple, std::pair<size_t, std::unordered_set<uint64_t>>> candidates;
    {
      Scoped span(tracer, "boolean.lineage");
      std::vector<std::pair<size_t, size_t>> positions;
      for (const std::string& v : compiled.head_vars) {
        bool found = false;
        for (size_t i = 0; i < cq.atoms().size() && !found; ++i) {
          for (size_t j = 0; j < cq.atoms()[i].args.size() && !found; ++j) {
            const pdb::Term& term = cq.atoms()[i].args[j];
            if (term.is_variable() && term.var() == v) {
              positions.emplace_back(i, j);
              found = true;
            }
          }
        }
      }
      std::vector<const pdb::Relation*> rel_by_atom;
      for (const pdb::Atom& atom : cq.atoms()) {
        PDB_ASSIGN_OR_RETURN(const pdb::Relation* rel, db().Get(atom.predicate));
        rel_by_atom.push_back(rel);
      }
      pdb::ExecContext ctx(nullptr);
      ctx.set_wmc_cache(wmc_.get());
      ctx.set_index_cache(&state->index_cache);
      pdb::GroundingOptions grounding;
      grounding.exec = &ctx;
      PDB_RETURN_NOT_OK(pdb::EnumerateCqMatches(
          cq, db(),
          [&](const pdb::CqMatch& match) {
            pdb::Tuple head;
            for (const auto& [atom_idx, pos] : positions) {
              head.push_back(rel_by_atom[atom_idx]->tuple(match.atom_rows[atom_idx].row)[pos]);
            }
            auto& stat = candidates[std::move(head)];
            ++stat.first;
            for (size_t i = 0; i < match.atom_rows.size(); ++i) {
              if (rel_by_atom[i]->prob(match.atom_rows[i].row) == 1.0) continue;
              stat.second.insert((static_cast<uint64_t>(i) << 40) | match.atom_rows[i].row);
            }
          },
          grounding));
    }
    std::vector<pdb::Tuple> heads;
    std::vector<size_t> sizes;
    for (auto& [head, stat] : candidates) {
      heads.push_back(head);
      sizes.push_back(1 + stat.first + stat.second.size());
    }
    std::vector<size_t> schedule(heads.size());
    std::iota(schedule.begin(), schedule.end(), size_t{0});
    std::stable_sort(schedule.begin(), schedule.end(),
                     [&](size_t a, size_t b) { return sizes[a] > sizes[b]; });
    std::vector<Answer> marginals(heads.size());
    for (size_t t : schedule) {
      pdb::FoPtr sentence;
      std::string key;
      {
        Scoped span(tracer, "core.fanout");
        pdb::ConjunctiveQuery grounded = cq;
        for (size_t i = 0; i < compiled.head_vars.size(); ++i) {
          grounded = grounded.Substitute(compiled.head_vars[i], heads[t][i]);
        }
        sentence = pdb::Ucq({grounded}).ToFo();
        key = sentence->ToString();
      }
      Result<Answer> hit = Probe(key, state, tracer);
      if (hit.ok()) {
        marginals[t] = *hit;
      } else {
        PDB_ASSIGN_OR_RETURN(marginals[t],
                             Route(sentence, options.exec.deadline_ms, state, tracer, counts));
        Remember(key, marginals[t], state);
      }
    }
    counts->answer_queries += 1;
    counts->answer_rows += static_cast<double>(heads.size());
    Scoped span(tracer, "server.render");
    answer->exact = !heads.empty();
    for (size_t t = 0; t < heads.size(); ++t) {
      std::string tuple = "[";
      for (size_t i = 0; i < heads[t].size(); ++i) {
        tuple += StrFormat(i ? ",%lld" : "%lld", static_cast<long long>(heads[t][i].AsInt()));
      }
      tuple += "]";
      const Answer& m = marginals[t];
      answer->rows[tuple] = m.rows.at("");
      answer->method = answer->method.empty() || answer->method == m.method ? m.method : "mixed";
      answer->exact = answer->exact && m.exact;
      rendered += pdb::RenderHttpChunk(StrFormat(
          "{\"tuple\":%s,\"probability\":%.17g,\"method\":\"%s\",\"exact\":%s,"
          "\"std_error\":%.17g}\n",
          tuple.c_str(), m.rows.at(""), m.method.c_str(), m.exact ? "true" : "false",
          m.std_error));
    }
  } else {
    // Boolean statement: front end, cache probe, routing.
    Answer result;
    if (hit) {
      // pdbd parses SQL once before the session call; the session then
      // compiles (or parses) again and probes its result cache.
      if (sql) {
        Scoped span(tracer, "sql.compile");
        PDB_RETURN_NOT_OK(pdb::ParseSql(request.body).status());
      }
      Scoped span(tracer, "core.cache_probe");
      tracer->SetFrontend(span.index(), frontend_ns, frontend_layer);
      Result<pdb::QueryAnswer> got = sql ? state->session->QuerySqlBoolean(request.body, options)
                                         : state->session->Query(request.body, options);
      PDB_RETURN_NOT_OK(got.status());
      result.rows[""] = got->probability;
      result.lower = got->lower;
      result.upper = got->upper;
      result.std_error = got->std_error;
      result.method = pdb::InferenceMethodToString(got->method);
      result.exact = got->exact;
    } else {
      {
        Scoped span(tracer, frontend_layer);
        if (sql) PDB_RETURN_NOT_OK(pdb::ParseSql(request.body).status());
        PDB_ASSIGN_OR_RETURN(sentence, frontend());
      }
      Probe(key, state, tracer);
      PDB_ASSIGN_OR_RETURN(result,
                           Route(sentence, options.exec.deadline_ms, state, tracer, counts));
      Remember(key, result, state);
      prime = repeated_.count(request.body) > 0 && result.exact;
    }
    Scoped span(tracer, "server.render");
    rendered += pdb::RenderHttpChunk(BooleanLine(result));
    *answer = std::move(result);
  }
  {
    Scoped span(tracer, "server.render");
    rendered += pdb::RenderHttpChunk(
        StrFormat("{\"done\":true,\"rows\":%zu,\"elapsed_us\":0}\n", answer->rows.size()));
    rendered += pdb::kHttpLastChunk;
  }
  {
    Scoped span(tracer, "server.admission");
    admission_.Release(client_id);
  }
  root.End();
  if (prime) {
    // Untimed: prime the real Session so the statement's later repeats are
    // its cache hits.
    Result<pdb::QueryAnswer> primed = sql ? state->session->QuerySqlBoolean(request.body, options)
                                          : state->session->Query(request.body, options);
    PDB_RETURN_NOT_OK(primed.status());
  }
  return Status::OK();
}

Status Replayer::Run(ReplayResult* result) {
  // Set-up: the same bulk load and warm-up pdbd receives, untimed.
  Tracer setup(spans_);
  Counts setup_counts;
  Answer ignored;
  for (const Table& table : workload_.tables) {
    Request load;
    load.cls = Cls::kIngest;
    load.relation = table.name;
    load.schema = table.schema;
    load.body = table.csv;
    load.rows = table.rows;
    PDB_RETURN_NOT_OK(Replay(load, &setup, &setup_counts, &ignored));
  }
  for (const Request& r : workload_.warmup) {
    PDB_RETURN_NOT_OK(Replay(r, &setup, &setup_counts, &ignored));
  }

  // The timed part: one thread per client, as the closed loops run.
  const size_t clients = workload_.sequences.size();
  std::vector<Tracer> tracers;
  for (size_t c = 0; c < clients; ++c) {
    tracers.emplace_back(spans_);
    tracers.back().set_timed(true);
  }
  std::vector<Counts> counts(clients);
  std::vector<Status> statuses(clients);
  result->answers.assign(clients, {});
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (const Request& r : workload_.sequences[c]) {
        Answer answer;
        Status status = Replay(r, &tracers[c], &counts[c], &answer);
        if (!status.ok()) {
          statuses[c] = status;
          return;
        }
        result->answers[c].push_back(std::move(answer));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result->wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  for (const Status& s : statuses) PDB_RETURN_NOT_OK(s);

  // Reduce spans to per-layer self time: a span's duration minus the part
  // its children cover. The root "request" span's self time is what no
  // layer span explains.
  std::map<std::string, double> self_ns;       // timed requests only
  std::map<std::string, double> storage_ns;    // set-up included
  double request_ns = 0;
  auto reduce = [&](const Tracer& tracer) {
    const std::vector<Span>& spans = tracer.spans();
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      double self = dur - child_ns[i];
      const std::string name = s.name;
      if (name == "storage.csv" || name == "storage.apply_batch" ||
          name == "storage.columnar_encode") {
        storage_ns[name] += self;
      }
      if (!s.timed) continue;
      if (name == "request") {
        request_ns += dur;
        self_ns["unexplained"] += self;
        continue;
      }
      if (s.frontend_layer != nullptr) {
        const double frontend = std::min(self, static_cast<double>(s.frontend_ns));
        self_ns[s.frontend_layer] += frontend;
        self -= frontend;
      }
      self_ns[name] += self;
    }
  };
  reduce(setup);
  for (const Tracer& t : tracers) reduce(t);

  Counts total;
  for (const Counts& c : counts) total.Add(c);
  size_t requests = 0;
  for (const auto& sequence : workload_.sequences) requests += sequence.size();
  result->timed_requests = requests;
  const double per_request = 1.0 / static_cast<double>(std::max<size_t>(1, requests));
  auto us = [&](const char* layer) { return self_ns[layer] * 1e-3 * per_request; };
  auto ms = [&](const char* layer) { return self_ns[layer] * 1e-6 * per_request; };
  auto& layers = result->layers;
  layers["server.http_parse_us"] = us("server.http_parse");
  layers["server.admission_us"] = us("server.admission");
  layers["server.render_us"] = us("server.render");
  layers["sql.compile_us"] = us("sql.compile");
  layers["core.cache_probe_us"] = us("core.cache_probe");
  layers["core.fanout_us"] = us("core.fanout");
  layers["logic.parse_us"] = us("logic.parse");
  layers["logic.unate_rewrite_ms"] = ms("logic.unate_rewrite");
  layers["lifted.rules_ms"] = ms("lifted.rules");
  layers["lifted.failed_attempt_ms"] = ms("lifted.failed_attempt");
  layers["boolean.lineage_ms"] = ms("boolean.lineage");
  layers["wmc.dpll_ms"] = ms("wmc.dpll");
  layers["wmc.karp_luby_ms"] = ms("wmc.karp_luby");
  layers["plans.bounds_ms"] = ms("plans.bounds");
  layers["lifted.separator_groundings"] = total.separator_groundings * per_request;
  layers["lifted.ie_terms"] = total.ie_terms * per_request;
  layers["boolean.lineage_vars"] = total.lineage_vars * per_request;
  layers["core.fanout_tuples"] =
      total.answer_queries > 0 ? total.answer_rows / total.answer_queries : 0.0;
  const double all_rows = total.ingest_rows + setup_counts.ingest_rows;
  const double all_batches = total.ingest_batches + setup_counts.ingest_batches;
  layers["storage.csv_us_per_row"] = storage_ns["storage.csv"] * 1e-3 / std::max(1.0, all_rows);
  layers["storage.apply_batch_ms"] =
      storage_ns["storage.apply_batch"] * 1e-6 / std::max(1.0, all_batches);
  layers["storage.columnar_encode_ms"] =
      storage_ns["storage.columnar_encode"] * 1e-6 /
      std::max(1.0, total.columnar_encodes + setup_counts.columnar_encodes);
  result->unexplained_share = request_ns > 0 ? self_ns["unexplained"] / request_ns : 0.0;
  layers["unexplained_share"] = result->unexplained_share;
  return Status::OK();
}

}  // namespace

Result<ReplayResult> Replay(const Workload& workload, bool spans, const std::string& data_dir) {
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  pdb::DurableOptions options;
  options.sync_mode = pdb::SyncMode::kAlways;
  PDB_ASSIGN_OR_RETURN(std::unique_ptr<pdb::DurableDatabase> durable,
                       pdb::DurableDatabase::Open(data_dir, options));
  ReplayResult result;
  Status status;
  {
    Replayer replayer(workload, durable.get(), spans);
    status = replayer.Run(&result);
  }
  PDB_RETURN_NOT_OK(durable->Close());
  durable.reset();
  std::filesystem::remove_all(data_dir, ec);
  PDB_RETURN_NOT_OK(status);
  return result;
}

}  // namespace perfbench
