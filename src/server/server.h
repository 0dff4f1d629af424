/// \file server.h
/// \brief pdbd: an HTTP/1.1 network front-end for the query engine.
///
/// Architecture (DESIGN.md §4f): a listener thread accepts connections and
/// hands each to its own connection thread (at most 128 at once);
/// every `POST /query` passes the `AdmissionController` gate before it may
/// execute — saturation sheds the request as a fast HTTP 429 with
/// Retry-After — and then runs synchronously on the connection thread
/// against the caller's pooled `Session` (the `X-Client-Id` header picks
/// it; see session_pool.h). Answers stream back as newline-delimited JSON
/// in chunked transfer framing, one line per answer tuple with the
/// per-tuple inference method and standard error, then a final summary
/// line.
///
/// Endpoints:
///   POST /query         SQL (or Boolean FO/UCQ text) in the body.
///                       Headers: X-Client-Id (session affinity),
///                       X-Deadline-Ms (per-request wall-clock budget,
///                       clamped to `max_deadline_ms`).
///   POST /ingest        Streaming CSV bulk load into the durable store
///                       (?relation=R[&schema=a:int,...][&header=1]). The
///                       body is consumed incrementally off the socket —
///                       never buffered whole — and rows are grouped into
///                       WriteBatches committed through the group-commit
///                       WAL. 400 when the server is in-memory.
///   GET  /metrics       Prometheus text: the server's listener registry
///                       merged with every pooled session's registry.
///   GET  /healthz       200 "ok" (503 "draining" during shutdown).
///   GET  /debug/traces  Recent per-phase query traces as JSON.
///
/// Graceful shutdown: stop accepting (listener closes, admission refuses
/// new queries with 503), drain in-flight requests under
/// `drain_timeout_ms`, then cooperatively cancel stragglers through
/// `Session::CancelInFlight` and join every connection thread. `Shutdown`
/// is idempotent and is also run by the destructor.

#ifndef PDB_SERVER_SERVER_H_
#define PDB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pdb.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/admission.h"
#include "server/http.h"
#include "server/session_pool.h"
#include "util/status.h"

namespace pdb {

class DurableDatabase;

/// The server's session-pool defaults: every pooled session runs its
/// queries sequentially on the connection thread (see ServerOptions).
inline SessionPoolOptions DefaultServerSessions() {
  SessionPoolOptions pool;
  pool.session.num_threads = 1;
  return pool;
}

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via `port()`).
  uint16_t port = 0;
  /// Query admission gate (concurrency cap + bounded wait queue).
  AdmissionOptions admission;
  /// Per-client session pool. `session.num_threads` defaults to 1 here —
  /// each admitted query runs sequentially on its connection thread, so
  /// parallelism is governed by admission, not multiplied per client.
  SessionPoolOptions sessions = DefaultServerSessions();
  /// Upper clamp on client-requested deadlines (0 = unclamped).
  uint64_t max_deadline_ms = 60'000;
  /// How long Shutdown waits for in-flight requests before cancelling.
  uint64_t drain_timeout_ms = 5'000;
  HttpLimits http;
  /// Extra registry merged into the /metrics exposition (not owned; must
  /// outlive the server). pdbd points this at the durable layer's registry
  /// so WAL/recovery/checkpoint/component-store metrics ride the same
  /// scrape as the engine tickers.
  const MetricsRegistry* extra_metrics = nullptr;
  /// Slow-query threshold in milliseconds (`pdbd --slow-query-ms`); 0
  /// disables the slow-query log. Statements at or above it are captured
  /// with their full trace and an EXPLAIN payload into the ring served by
  /// GET /debug/slowlog, and mirrored to the event log.
  uint64_t slow_query_ms = 0;
  /// Append the structured JSON-lines event log to this file
  /// (`pdbd --log-file`); empty keeps it in-memory only.
  std::string log_file;
  /// Storage mode reported by /healthz: "memory" or "durable" (pdbd sets
  /// it when a --data-dir is mounted).
  std::string data_dir_mode = "memory";
  /// Durable layer's IO trace (WAL append/sync, checkpoint, recovery
  /// spans), aggregated into GET /debug/profile. Not owned; must outlive
  /// the server. Null when storage is in-memory.
  const QueryTrace* io_trace = nullptr;
  /// Durable write path for POST /ingest streaming bulk load (not owned;
  /// must outlive the server). Null (the in-memory default) answers
  /// /ingest with 400 — bulk writes only make sense against the WAL.
  /// When set, ingest batches mutate the shared ProbDatabase while the
  /// server runs; queries coordinate through the durable layer's
  /// `read_mutex()` (shared for each engine call, exclusive for the
  /// commit path's brief apply step).
  DurableDatabase* durable = nullptr;
};

class PdbServer {
 public:
  /// Binds to `db`, which must outlive the server. Nothing but the
  /// server's own /ingest path (present only with `options.durable`, and
  /// serialized against queries via the durable layer's read lock) may
  /// mutate it while the server runs (sessions cache against its
  /// generation).
  explicit PdbServer(const ProbDatabase* db, ServerOptions options = {});
  ~PdbServer();

  PdbServer(const PdbServer&) = delete;
  PdbServer& operator=(const PdbServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  Status Start();

  /// Graceful stop: drain, cancel stragglers, join everything. Idempotent.
  void Shutdown();

  /// The bound port (after Start; resolves port 0 to the actual port).
  uint16_t port() const { return port_; }

  /// True once Shutdown has begun.
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// The aggregated Prometheus exposition served at /metrics.
  std::string MetricsText();

  SessionPool& sessions() { return sessions_; }
  AdmissionController& admission() { return admission_; }
  /// Listener-side metrics (connections, HTTP status classes, latency).
  MetricsRegistry& metrics() { return metrics_; }
  /// The structured event log, or null when neither --log-file nor the
  /// slow-query log asked for one.
  EventLog* event_log() { return event_log_.get(); }
  /// The slow-query ring, or null when `slow_query_ms == 0`.
  SlowQueryLog* slow_query_log() { return slow_query_log_.get(); }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(uint64_t id, int fd);
  /// Dispatches one parsed request; returns false when the connection
  /// should close afterwards. `trace` (may be null) was created when the
  /// request's first bytes arrived and carries the http_parse span.
  bool HandleRequest(int fd, const HttpRequest& request,
                     std::shared_ptr<QueryTrace> trace);
  bool HandleQuery(int fd, const HttpRequest& request,
                   std::shared_ptr<QueryTrace> trace);
  /// Streaming bulk load: owns the connection's recv loop until the body
  /// is fully consumed (the parser is in streaming mode). Rows are grouped
  /// into WriteBatches and committed through the durable layer's group
  /// commit; every failure closes the connection (keep-alive would require
  /// draining the remaining body).
  bool HandleIngest(int fd, HttpRequestParser* parser,
                    std::shared_ptr<QueryTrace> trace);
  bool HandleMetrics(int fd, const HttpRequest& request);
  bool HandleHealthz(int fd, const HttpRequest& request);
  bool HandleTraces(int fd, const HttpRequest& request);
  bool HandleSlowlog(int fd, const HttpRequest& request);
  bool HandleProfile(int fd, const HttpRequest& request);
  /// Finishes a query's trace and, when the statement crossed the
  /// slow-query threshold, captures it (trace + EXPLAIN payload) into the
  /// slow-query log.
  void FinishQuery(Session* session, const std::string& client_id,
                   const std::string& statement, const char* method,
                   uint64_t start_us,
                   const std::shared_ptr<QueryTrace>& trace);
  /// Renders and sends a JSON error body; returns `keep_alive`.
  bool SendError(int fd, int status, const std::string& message,
                 bool keep_alive,
                 const std::vector<std::pair<std::string, std::string>>&
                     extra_headers = {});
  bool SendAll(int fd, std::string_view data);
  void CountResponse(int status);
  /// Joins connection threads that have finished serving.
  void ReapFinished();

  const ProbDatabase* db_;
  ServerOptions options_;
  AdmissionController admission_;
  SessionPool sessions_;
  std::unique_ptr<EventLog> event_log_;
  std::unique_ptr<SlowQueryLog> slow_query_log_;

  MetricsRegistry metrics_;
  Counter* connections_accepted_;
  Counter* connections_dropped_;
  Counter* http_requests_;
  Counter* http_2xx_;
  Counter* http_4xx_;
  Counter* http_5xx_;
  Counter* http_429_;
  Counter* http_parse_errors_;
  Counter* shutdown_cancelled_;
  Counter* ingest_requests_;
  Counter* ingest_rows_;
  Counter* ingest_batches_;
  Gauge* connections_active_;
  Gauge* draining_gauge_;
  Histogram* request_latency_us_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> accept_stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shut_down_{false};

  std::mutex conn_mu_;
  uint64_t next_conn_id_ = 0;                   // guarded by conn_mu_
  std::map<uint64_t, Connection> connections_;  // guarded by conn_mu_
  std::vector<uint64_t> finished_;              // guarded by conn_mu_
};

}  // namespace pdb

#endif  // PDB_SERVER_SERVER_H_
