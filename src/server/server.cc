#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "sql/sql.h"
#include "storage/csv.h"
#include "storage/durable_db.h"
#include "storage/write_batch.h"
#include "util/string_util.h"

namespace pdb {

namespace {

constexpr int kAcceptBacklog = 64;
/// Concurrent connections; an accept beyond this is answered 503 and
/// closed immediately.
constexpr size_t kMaxConnections = 128;
/// Keep-alive connections idle longer than this are closed.
constexpr uint64_t kIdleTimeoutMs = 30'000;
constexpr int kRecvTimeoutMs = 200;
constexpr size_t kRecvBufferBytes = 8192;
/// Rows per WriteBatch on the /ingest path: large enough that WAL framing
/// and sync costs amortize, small enough that a batch stays cache-sized.
constexpr size_t kIngestBatchRows = 512;

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string ValueToJson(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
      return StrFormat("%lld", static_cast<long long>(v.AsInt()));
    case ValueType::kDouble:
      return StrFormat("%.17g", v.AsDouble());
    case ValueType::kString:
      return StrFormat("\"%s\"", JsonEscape(v.AsString()).c_str());
  }
  return "null";
}

std::string TupleToJson(const Tuple& tuple) {
  std::string out = "[";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ",";
    out += ValueToJson(tuple[i]);
  }
  out += "]";
  return out;
}

std::string ErrorJson(const std::string& message) {
  return StrFormat("{\"error\":\"%s\"}\n", JsonEscape(message).c_str());
}

/// One NDJSON line for a Boolean answer.
std::string BooleanAnswerJson(const QueryAnswer& answer) {
  return StrFormat(
      "{\"probability\":%.17g,\"lower\":%.17g,\"upper\":%.17g,"
      "\"method\":\"%s\",\"exact\":%s,\"std_error\":%.17g,"
      "\"explanation\":\"%s\"}\n",
      answer.probability, answer.lower, answer.upper,
      InferenceMethodToString(answer.method), answer.exact ? "true" : "false",
      answer.std_error, JsonEscape(answer.explanation).c_str());
}

/// One NDJSON line for an answer tuple with its marginal and per-tuple
/// execution metadata (AnswerTupleInfo).
std::string AnswerTupleJson(const Tuple& tuple, double probability,
                            const AnswerTupleInfo* info) {
  std::string out = StrFormat("{\"tuple\":%s,\"probability\":%.17g",
                              TupleToJson(tuple).c_str(), probability);
  if (info != nullptr) {
    out += StrFormat(",\"method\":\"%s\",\"exact\":%s,\"std_error\":%.17g",
                     InferenceMethodToString(info->method),
                     info->exact ? "true" : "false", info->std_error);
  }
  out += "}\n";
  return out;
}

int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnsupported:
    case StatusCode::kFailedPrecondition:
      return 400;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kResourceExhausted:
      return 503;
    default:
      return 500;
  }
}

/// Case-insensitively tests whether trimmed `body` starts with "SELECT",
/// routing it to the SQL frontend rather than the FO/UCQ parser.
bool LooksLikeSql(std::string_view body) {
  size_t i = 0;
  while (i < body.size() &&
         (body[i] == ' ' || body[i] == '\t' || body[i] == '\r' ||
          body[i] == '\n')) {
    ++i;
  }
  constexpr std::string_view kSelect = "select";
  if (body.size() - i < kSelect.size()) return false;
  for (size_t j = 0; j < kSelect.size(); ++j) {
    char c = body[i + j];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != kSelect[j]) return false;
  }
  return true;
}

/// Does `target` name the /ingest endpoint (with or without parameters)?
bool IsIngestTarget(const std::string& target) {
  return target == "/ingest" || target.rfind("/ingest?", 0) == 0;
}

/// Minimal %XX / '+' decoding for query-parameter values.
std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      auto hex = [](char c) {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return c - 'A' + 10;
      };
      out.push_back(static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

/// Splits the request target's query string into key/value pairs.
std::map<std::string, std::string> ParseTargetParams(const std::string& target) {
  std::map<std::string, std::string> params;
  size_t q = target.find('?');
  if (q == std::string::npos) return params;
  std::string_view rest(target.data() + q + 1, target.size() - q - 1);
  while (!rest.empty()) {
    size_t amp = rest.find('&');
    std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      params[UrlDecode(pair)] = "";
    } else {
      params[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    }
  }
  return params;
}

/// Shared hold on the durable layer's read lock for the duration of one
/// engine call: queries scan the ProbDatabase lock-free, and when a
/// durable store is mounted POST /ingest mutates it concurrently — the
/// commit path's apply step takes the exclusive side (durable_db.h).
/// No-op when the server is in-memory: nothing mutates the database while
/// serving. Release before streaming the response so a slow client never
/// holds readers' state against a bulk load.
class DbReadLock {
 public:
  explicit DbReadLock(DurableDatabase* durable) {
    if (durable != nullptr) {
      lock_ = std::shared_lock<std::shared_mutex>(durable->read_mutex());
    }
  }
  void Release() {
    if (lock_.owns_lock()) lock_.unlock();
  }

 private:
  std::shared_lock<std::shared_mutex> lock_;
};

bool ParseDecimalHeader(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

PdbServer::PdbServer(const ProbDatabase* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      admission_(options_.admission),
      sessions_(db, options_.sessions) {
  if (!options_.log_file.empty() || options_.slow_query_ms > 0) {
    EventLogOptions log_options;
    log_options.file_path = options_.log_file;
    event_log_ = std::make_unique<EventLog>(log_options);
  }
  if (options_.slow_query_ms > 0) {
    SlowQueryLog::Options slow_options;
    slow_options.threshold_us = options_.slow_query_ms * 1000;
    slow_options.sink = event_log_.get();
    slow_query_log_ = std::make_unique<SlowQueryLog>(slow_options);
  }
  connections_accepted_ = metrics_.GetCounter("pdb_connections_accepted_total");
  connections_dropped_ = metrics_.GetCounter("pdb_connections_dropped_total");
  http_requests_ = metrics_.GetCounter("pdb_http_requests_total");
  http_2xx_ = metrics_.GetCounter("pdb_http_responses_2xx_total");
  http_4xx_ = metrics_.GetCounter("pdb_http_responses_4xx_total");
  http_5xx_ = metrics_.GetCounter("pdb_http_responses_5xx_total");
  http_429_ = metrics_.GetCounter("pdb_http_responses_429_total");
  http_parse_errors_ = metrics_.GetCounter("pdb_http_parse_errors_total");
  shutdown_cancelled_ =
      metrics_.GetCounter("pdb_shutdown_cancelled_queries_total");
  ingest_requests_ = metrics_.GetCounter("pdb_ingest_requests_total");
  ingest_rows_ = metrics_.GetCounter("pdb_ingest_rows_total");
  ingest_batches_ = metrics_.GetCounter("pdb_ingest_batches_total");
  connections_active_ = metrics_.GetGauge("pdb_connections_active");
  draining_gauge_ = metrics_.GetGauge("pdb_server_draining");
  request_latency_us_ = metrics_.GetHistogram("pdb_http_request_latency_us");
}

PdbServer::~PdbServer() { Shutdown(); }

Status PdbServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrFormat("socket(): %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrFormat("bad listen address '%s'", options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::Internal(
        StrFormat("bind(%s:%u): %s", options_.host.c_str(),
                  static_cast<unsigned>(options_.port), std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, kAcceptBacklog) != 0) {
    Status status =
        Status::Internal(StrFormat("listen(): %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (event_log_) {
    event_log_->Log(LogLevel::kInfo, "server_start",
                    {LogField::Str("host", options_.host),
                     LogField::Uint("port", port_)});
  }
  return Status::OK();
}

void PdbServer::AcceptLoop() {
  while (!accept_stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    ReapFinished();
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    size_t active;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      active = connections_.size();
    }
    if (active >= kMaxConnections) {
      // Over the connection cap: shed at the listener with a one-shot 503
      // rather than letting the kernel queue grow silently.
      connections_dropped_->Add(1);
      std::string response = RenderHttpResponse(
          503, "application/json", ErrorJson("connection limit reached"),
          /*keep_alive=*/false,
          {{"Retry-After", StrFormat("%llu",
                                     static_cast<unsigned long long>(
                                         admission_.RetryAfterSeconds()))}});
      SendAll(fd, response);
      ::close(fd);
      continue;
    }

    connections_accepted_->Add(1);
    connections_active_->Add(1);
    std::lock_guard<std::mutex> lock(conn_mu_);
    uint64_t id = next_conn_id_++;
    Connection& conn = connections_[id];
    conn.fd = fd;
    conn.thread = std::thread([this, id, fd] { ServeConnection(id, fd); });
  }
}

void PdbServer::ReapFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (uint64_t id : finished_) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      done.push_back(std::move(it->second.thread));
      connections_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

void PdbServer::ServeConnection(uint64_t id, int fd) {
  timeval tv{};
  tv.tv_sec = kRecvTimeoutMs / 1000;
  tv.tv_usec = (kRecvTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  HttpRequestParser parser(options_.http);
  // Bulk-ingest bodies stream through the parser instead of buffering
  // whole: the predicate flips the parser into streaming mode at head
  // completion, and HandleIngest then owns the recv loop for that request.
  parser.set_stream_predicate([](const HttpRequest& r) {
    return r.method == "POST" && IsIngestTarget(r.target);
  });
  char buffer[kRecvBufferBytes];
  uint64_t idle_ms = 0;
  bool keep_open = true;
  // Per-request trace, created when the request's first bytes arrive so
  // its epoch marks arrival: HandleRequest records [0, parse end) as the
  // http_parse span.
  std::shared_ptr<QueryTrace> request_trace;

  while (keep_open && !stopping_.load(std::memory_order_acquire)) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      idle_ms = 0;
      if (request_trace == nullptr) {
        request_trace = std::make_shared<QueryTrace>();
      }
      HttpRequestParser::State state =
          parser.Feed(std::string_view(buffer, static_cast<size_t>(n)));
      // Dispatch every request this batch of bytes completed. Streaming
      // (ingest) requests dispatch as soon as their head is parsed —
      // HandleIngest drives the socket until the body is consumed — while
      // ordinary requests wait for kComplete.
      while (keep_open &&
             (parser.streaming() ||
              state == HttpRequestParser::State::kComplete)) {
        keep_open = parser.streaming()
                        ? HandleIngest(fd, &parser, std::move(request_trace))
                        : HandleRequest(fd, parser.request(),
                                        std::move(request_trace));
        request_trace = nullptr;
        if (!keep_open) break;
        parser.Reset();
        state = parser.state();
        // A pipelined next request is already in flight: its bytes arrived
        // with this batch, so its trace starts now.
        if (state == HttpRequestParser::State::kComplete ||
            parser.streaming() || !parser.idle()) {
          request_trace = std::make_shared<QueryTrace>();
        }
      }
      if (state == HttpRequestParser::State::kError) {
        http_parse_errors_->Add(1);
        SendError(fd, parser.error_status(), parser.error_message(),
                  /*keep_alive=*/false);
        keep_open = false;
      }
    } else if (n == 0) {
      keep_open = false;  // peer closed
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      idle_ms += kRecvTimeoutMs;
      if (idle_ms >= kIdleTimeoutMs) {
        // Mid-request stalls get a 408 so the client learns why; an idle
        // keep-alive connection is just closed.
        if (!parser.idle()) {
          SendError(fd, 408, "timed out waiting for request",
                    /*keep_alive=*/false);
        }
        keep_open = false;
      }
    } else if (errno != EINTR) {
      keep_open = false;
    }
  }

  ::close(fd);
  connections_active_->Add(-1);
  std::lock_guard<std::mutex> lock(conn_mu_);
  finished_.push_back(id);
}

void PdbServer::CountResponse(int status) {
  if (status == 429) {
    http_429_->Add(1);
  } else if (status >= 500) {
    http_5xx_->Add(1);
  } else if (status >= 400) {
    http_4xx_->Add(1);
  } else {
    http_2xx_->Add(1);
  }
}

bool PdbServer::SendError(
    int fd, int status, const std::string& message, bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  CountResponse(status);
  std::string response = RenderHttpResponse(
      status, "application/json", ErrorJson(message), keep_alive,
      extra_headers);
  return SendAll(fd, response) && keep_alive;
}

bool PdbServer::SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool PdbServer::HandleRequest(int fd, const HttpRequest& request,
                              std::shared_ptr<QueryTrace> trace) {
  http_requests_->Add(1);
  uint64_t start_us = NowMicros();
  // The trace's epoch is the arrival of the request's first bytes, so the
  // elapsed time up to here is exactly the read + parse phase.
  if (trace) {
    trace->RecordSpan(TracePhase::kHttpParse, 0, trace->NowNs());
  }
  bool keep_open;
  if (request.target == "/query") {
    keep_open = request.method == "POST"
                    ? HandleQuery(fd, request, std::move(trace))
                    : SendError(fd, 405, "POST required", request.keep_alive);
  } else if (request.target == "/metrics") {
    keep_open = request.method == "GET"
                    ? HandleMetrics(fd, request)
                    : SendError(fd, 405, "GET required", request.keep_alive);
  } else if (request.target == "/healthz") {
    keep_open = request.method == "GET"
                    ? HandleHealthz(fd, request)
                    : SendError(fd, 405, "GET required", request.keep_alive);
  } else if (request.target == "/debug/traces") {
    keep_open = request.method == "GET"
                    ? HandleTraces(fd, request)
                    : SendError(fd, 405, "GET required", request.keep_alive);
  } else if (request.target == "/debug/slowlog") {
    keep_open = request.method == "GET"
                    ? HandleSlowlog(fd, request)
                    : SendError(fd, 405, "GET required", request.keep_alive);
  } else if (request.target == "/debug/profile") {
    keep_open = request.method == "GET"
                    ? HandleProfile(fd, request)
                    : SendError(fd, 405, "GET required", request.keep_alive);
  } else if (IsIngestTarget(request.target)) {
    // POST /ingest never reaches here (the stream predicate routes it to
    // HandleIngest before the body is read); any other method does.
    keep_open = SendError(fd, 405, "POST required", request.keep_alive);
  } else {
    keep_open = SendError(fd, 404, "no such endpoint", request.keep_alive);
  }
  request_latency_us_->Record(NowMicros() - start_us);
  return keep_open;
}

bool PdbServer::HandleIngest(int fd, HttpRequestParser* parser,
                             std::shared_ptr<QueryTrace> trace) {
  const HttpRequest& request = parser->request();
  http_requests_->Add(1);
  ingest_requests_->Add(1);
  uint64_t start_us = NowMicros();
  if (trace) trace->RecordSpan(TracePhase::kHttpParse, 0, trace->NowNs());
  // Every failure path closes the connection: honouring keep-alive would
  // mean draining the rest of a possibly-gigabyte body first.
  auto abort_request = [&](int status, const std::string& message) {
    request_latency_us_->Record(NowMicros() - start_us);
    SendError(fd, status, message, /*keep_alive=*/false);
    return false;
  };

  if (draining_.load(std::memory_order_acquire)) {
    return abort_request(503, "server is draining");
  }
  if (options_.durable == nullptr) {
    return abort_request(
        400, "bulk ingest requires durable storage (start pdbd --data-dir)");
  }

  std::map<std::string, std::string> params =
      ParseTargetParams(request.target);
  const std::string relation_name = params["relation"];
  if (relation_name.empty()) {
    return abort_request(400, "missing ?relation= parameter");
  }
  CsvOptions csv;
  bool skip_header = params.count("header") && params["header"] == "1";

  // Admission: bulk loads contend with queries for the same execution
  // slots, and the per-client cap applies to them the same way.
  std::string client_id;
  if (const std::string* header = request.FindHeader("x-client-id")) {
    client_id = *header;
  }
  TraceSpan admission_span(trace.get(), TracePhase::kAdmissionWait);
  AdmissionTicket ticket(&admission_, client_id);
  admission_span.End();
  if (!ticket.admitted()) {
    if (ticket.decision() == AdmissionController::Decision::kShuttingDown) {
      return abort_request(503, "server is draining");
    }
    sessions_.ForClient(client_id)->NoteAdmissionRejected();
    return abort_request(429, "server overloaded; retry the bulk load");
  }

  // Resolve (or create) the target relation. ?schema= creates it when
  // absent — through the WAL, so the DDL is as durable as the rows. The
  // catalog probe holds the durable read lock (another connection's batch
  // may be mid-apply); CreateRelation and ApplyBatch take the exclusive
  // side internally, so they must run with the lock released.
  DurableDatabase* durable = options_.durable;
  Schema schema;
  bool relation_exists = false;
  {
    DbReadLock db_lock(durable);
    auto existing = durable->pdb().database().Get(relation_name);
    if (existing.ok()) {
      schema = (*existing)->schema();
      relation_exists = true;
    }
  }
  if (!relation_exists) {
    if (!params.count("schema")) {
      return abort_request(
          400, StrFormat("unknown relation '%s' (pass ?schema= to create it)",
                         relation_name.c_str()));
    }
    auto parsed = ParseSchemaSpec(params["schema"]);
    if (!parsed.ok()) {
      return abort_request(400, parsed.status().message());
    }
    schema = *parsed;
    Status created = durable->CreateRelation(relation_name, schema);
    if (!created.ok()) {
      return abort_request(400, created.message());
    }
  }

  // The ingest loop: consume body chunks as they arrive, split into lines,
  // parse rows, and commit every kIngestBatchRows rows as one WriteBatch
  // through the group-commit WAL. `pending` holds the trailing partial
  // line between chunks; nothing else is buffered.
  size_t rows = 0;
  size_t committed_rows = 0;
  size_t batches = 0;
  uint64_t body_bytes = 0;
  WriteBatch batch;
  std::string pending;
  Status failure;

  auto flush = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    const size_t batch_rows = batch.count();
    Status applied = durable->ApplyBatch(&batch);
    batch.Clear();
    if (applied.ok()) {
      batches += 1;
      committed_rows += batch_rows;
      ingest_batches_->Add(1);
    }
    return applied;
  };
  auto consume_line = [&](std::string line) -> Status {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (skip_header) {
      skip_header = false;
      return Status::OK();
    }
    if (StrTrim(line).empty()) return Status::OK();
    auto row = ParseCsvRow(schema, line, csv);
    if (!row.ok()) {
      return Status::InvalidArgument(StrFormat(
          "row %zu: %s", rows + 1, row.status().message().c_str()));
    }
    batch.Insert(relation_name, std::move(row->first), row->second);
    rows += 1;
    if (batch.count() >= kIngestBatchRows) return flush();
    return Status::OK();
  };
  auto consume_chunk = [&](const std::string& chunk) {
    if (!failure.ok()) return;  // drain the rest without parsing
    body_bytes += chunk.size();
    pending += chunk;
    size_t start = 0;
    size_t eol;
    while (failure.ok() &&
           (eol = pending.find('\n', start)) != std::string::npos) {
      failure = consume_line(pending.substr(start, eol - start));
      start = eol + 1;
    }
    pending.erase(0, start);
  };

  // First drain whatever body bytes arrived with the head, then recv the
  // rest. The parser flips to kComplete when the final body byte is taken.
  consume_chunk(parser->TakeBodyChunk());
  char buffer[kRecvBufferBytes];
  uint64_t idle_ms = 0;
  while (failure.ok() &&
         parser->state() != HttpRequestParser::State::kComplete) {
    if (stopping_.load(std::memory_order_acquire)) {
      return abort_request(503, "server is shutting down");
    }
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      idle_ms = 0;
      parser->Feed(std::string_view(buffer, static_cast<size_t>(n)));
      consume_chunk(parser->TakeBodyChunk());
    } else if (n == 0) {
      // Peer closed mid-body: committed batches stay (each was durable on
      // commit), but there is nobody left to answer.
      request_latency_us_->Record(NowMicros() - start_us);
      return false;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      idle_ms += kRecvTimeoutMs;
      if (idle_ms >= kIdleTimeoutMs) {
        return abort_request(408, "timed out waiting for request body");
      }
    } else if (errno != EINTR) {
      request_latency_us_->Record(NowMicros() - start_us);
      return false;
    }
  }
  // A final line without a trailing newline is still a row.
  if (failure.ok() && !pending.empty()) {
    failure = consume_line(std::move(pending));
  }
  if (failure.ok()) failure = flush();

  if (!failure.ok()) {
    // Ingest is transactional per batch, not per request: batches that
    // committed before the failure are durable. Report how far we got.
    return abort_request(
        StatusToHttp(failure),
        StrFormat("%s (%zu rows in %zu batches committed before the error)",
                  failure.message().c_str(), committed_rows, batches));
  }

  ingest_rows_->Add(rows);
  CountResponse(200);
  std::string body = StrFormat(
      "{\"relation\":\"%s\",\"rows\":%zu,\"batches\":%zu,\"bytes\":%llu,"
      "\"elapsed_us\":%llu}\n",
      JsonEscape(relation_name).c_str(), rows, batches,
      static_cast<unsigned long long>(body_bytes),
      static_cast<unsigned long long>(NowMicros() - start_us));
  TraceSpan respond_span(trace.get(), TracePhase::kHttpRespond);
  bool sent = SendAll(
      fd, RenderHttpResponse(200, "application/json", body,
                             request.keep_alive));
  respond_span.End();
  if (trace) trace->Finish();
  request_latency_us_->Record(NowMicros() - start_us);
  return sent && request.keep_alive;
}

bool PdbServer::HandleHealthz(int fd, const HttpRequest& request) {
  bool draining = draining_.load(std::memory_order_acquire);
  int status = draining ? 503 : 200;
  CountResponse(status);
#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  std::string body = StrFormat(
      "{\"status\":\"%s\",\"hardware_concurrency\":%zu,\"build\":\"%s\","
      "\"data_dir_mode\":\"%s\"}\n",
      draining ? "draining" : "ok", ThreadPool::HardwareThreads(), build,
      JsonEscape(options_.data_dir_mode).c_str());
  std::string response = RenderHttpResponse(status, "application/json", body,
                                            request.keep_alive);
  return SendAll(fd, response) && request.keep_alive;
}

bool PdbServer::HandleMetrics(int fd, const HttpRequest& request) {
  CountResponse(200);
  std::string response = RenderHttpResponse(
      200, "text/plain; version=0.0.4", MetricsText(), request.keep_alive);
  return SendAll(fd, response) && request.keep_alive;
}

std::string PdbServer::MetricsText() {
  MetricsSnapshot merged = metrics_.Snapshot();
  sessions_.ForEachSession([&merged](const std::string&, Session& session) {
    merged.MergeFrom(session.SnapshotMetrics());
  });
  if (options_.extra_metrics != nullptr) {
    merged.MergeFrom(options_.extra_metrics->Snapshot());
  }
  return merged.RenderPrometheus();
}

bool PdbServer::HandleTraces(int fd, const HttpRequest& request) {
  std::string body = "{\"clients\":[";
  bool first_client = true;
  sessions_.ForEachSession([&](const std::string& client_id,
                               Session& session) {
    auto traces = session.recent_traces();
    if (traces.empty()) return;
    body += StrFormat("%s{\"client\":\"%s\",\"traces\":[",
                      first_client ? "" : ",",
                      JsonEscape(client_id).c_str());
    first_client = false;
    for (size_t i = 0; i < traces.size(); ++i) {
      if (i > 0) body += ",";
      body += TraceToJson(*traces[i]);
    }
    body += "]}";
  });
  body += "]}\n";
  CountResponse(200);
  std::string response =
      RenderHttpResponse(200, "application/json", body, request.keep_alive);
  return SendAll(fd, response) && request.keep_alive;
}

bool PdbServer::HandleSlowlog(int fd, const HttpRequest& request) {
  std::string body;
  if (slow_query_log_ == nullptr) {
    body = "{\"enabled\":false,\"entries\":[]}\n";
  } else {
    body = StrFormat("{\"enabled\":true,\"threshold_us\":%llu,"
                     "\"total_captured\":%llu,\"entries\":[",
                     static_cast<unsigned long long>(
                         slow_query_log_->threshold_us()),
                     static_cast<unsigned long long>(
                         slow_query_log_->total_captured()));
    std::vector<SlowQueryEntry> entries = slow_query_log_->entries();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) body += ",";
      body += SlowQueryEntryToJson(entries[i]);
    }
    body += "]}\n";
  }
  CountResponse(200);
  std::string response =
      RenderHttpResponse(200, "application/json", body, request.keep_alive);
  return SendAll(fd, response) && request.keep_alive;
}

bool PdbServer::HandleProfile(int fd, const HttpRequest& request) {
  // Aggregate every span duration across the sessions' recent traces (and
  // the durable layer's IO trace) into per-phase latency profiles.
  std::map<TracePhase, std::vector<uint64_t>> durations;
  size_t traces_seen = 0;
  sessions_.ForEachSession([&](const std::string&, Session& session) {
    for (const auto& trace : session.recent_traces()) {
      ++traces_seen;
      for (const QueryTrace::Span& span : trace->spans()) {
        durations[span.phase].push_back(span.duration_ns);
      }
    }
  });
  if (options_.io_trace != nullptr) {
    ++traces_seen;
    for (const QueryTrace::Span& span : options_.io_trace->spans()) {
      durations[span.phase].push_back(span.duration_ns);
    }
  }
  // Exact quantiles: the sample sets are small (bounded rings), so sort
  // rather than approximate.
  auto quantile = [](const std::vector<uint64_t>& sorted, double q) {
    size_t index = static_cast<size_t>(q * (sorted.size() - 1) + 0.5);
    return sorted[std::min(index, sorted.size() - 1)];
  };
  std::string body = StrFormat("{\"traces\":%zu,\"phases\":[", traces_seen);
  bool first = true;
  for (auto& [phase, samples] : durations) {
    std::sort(samples.begin(), samples.end());
    uint64_t total = 0;
    for (uint64_t d : samples) total += d;
    body += StrFormat(
        "%s{\"phase\":\"%s\",\"count\":%zu,\"total_ns\":%llu,"
        "\"p50_ns\":%llu,\"p95_ns\":%llu,\"p99_ns\":%llu,\"max_ns\":%llu}",
        first ? "" : ",", TracePhaseName(phase), samples.size(),
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(quantile(samples, 0.50)),
        static_cast<unsigned long long>(quantile(samples, 0.95)),
        static_cast<unsigned long long>(quantile(samples, 0.99)),
        static_cast<unsigned long long>(samples.back()));
    first = false;
  }
  body += "]}\n";
  CountResponse(200);
  std::string response =
      RenderHttpResponse(200, "application/json", body, request.keep_alive);
  return SendAll(fd, response) && request.keep_alive;
}

void PdbServer::FinishQuery(Session* session, const std::string& client_id,
                            const std::string& statement, const char* method,
                            uint64_t start_us,
                            const std::shared_ptr<QueryTrace>& trace) {
  if (trace) trace->Finish();
  uint64_t latency_us = NowMicros() - start_us;
  if (slow_query_log_ == nullptr ||
      latency_us < slow_query_log_->threshold_us()) {
    return;
  }
  SlowQueryEntry entry;
  entry.ts_us = WallMicros();
  entry.latency_us = latency_us;
  entry.client = client_id;
  entry.method = method;
  entry.statement = statement;
  if (trace) entry.trace_json = TraceToJson(*trace);
  // EXPLAIN payload: re-plan the statement (plan-only — cheap relative to
  // a statement that just crossed the slow threshold) so the entry shows
  // the routing verdict and the estimated join plan alongside the trace.
  bool analyze = false;
  std::string inner = statement;
  StripExplainPrefix(statement, &analyze, &inner);
  if (LooksLikeSql(inner)) {
    DbReadLock db_lock(options_.durable);
    auto explain = session->ExplainSql(inner, /*analyze=*/false);
    db_lock.Release();
    if (explain.ok()) entry.explain_json = explain->ToJson();
  }
  slow_query_log_->MaybeRecord(std::move(entry));
}

bool PdbServer::HandleQuery(int fd, const HttpRequest& request,
                            std::shared_ptr<QueryTrace> trace) {
  if (draining_.load(std::memory_order_acquire)) {
    return SendError(fd, 503, "server is draining", /*keep_alive=*/false);
  }
  std::string client_id;
  if (const std::string* header = request.FindHeader("x-client-id")) {
    client_id = *header;
  }
  Session* session = sessions_.ForClient(client_id);

  // Per-request wall-clock budget, clamped so a client cannot opt out of
  // the server's ceiling (and "no deadline" counts as exceeding it).
  uint64_t deadline_ms = 0;
  if (const std::string* header = request.FindHeader("x-deadline-ms")) {
    if (!ParseDecimalHeader(*header, &deadline_ms)) {
      return SendError(fd, 400, "malformed X-Deadline-Ms",
                       request.keep_alive);
    }
  }
  if (options_.max_deadline_ms > 0 &&
      (deadline_ms == 0 || deadline_ms > options_.max_deadline_ms)) {
    deadline_ms = options_.max_deadline_ms;
  }

  if (request.body.empty()) {
    return SendError(fd, 400, "empty query body", request.keep_alive);
  }

  // Admission gate: the one place pdbd decides run-now vs shed. Shed
  // requests never touch the engine; they tick the session's
  // pdb_admission_rejected_total / pdb_shed_total and answer 429 fast.
  TraceSpan admission_span(trace.get(), TracePhase::kAdmissionWait);
  AdmissionTicket ticket(&admission_, client_id);
  admission_span.End();
  if (!ticket.admitted()) {
    if (ticket.decision() == AdmissionController::Decision::kShuttingDown) {
      return SendError(fd, 503, "server is draining", /*keep_alive=*/false);
    }
    session->NoteAdmissionRejected();
    const char* reason = "timed out waiting for an execution slot";
    if (ticket.decision() == AdmissionController::Decision::kShedQueueFull) {
      reason = "admission queue full";
    } else if (ticket.decision() ==
               AdmissionController::Decision::kShedClientLimit) {
      reason = "client has too many requests in flight";
    }
    return SendError(
        fd, 429, reason, request.keep_alive,
        {{"Retry-After", StrFormat("%llu", static_cast<unsigned long long>(
                                               admission_.RetryAfterSeconds()))}});
  }

  QueryOptions query_options;
  query_options.exec.num_threads = 1;
  query_options.exec.deadline_ms = deadline_ms;

  uint64_t start_us = NowMicros();
  std::string head = RenderHttpChunkedHead(200, "application/x-ndjson",
                                           request.keep_alive);

  // EXPLAIN [ANALYZE] <sql>: answer with one JSON document (or the text
  // rendering when the client sends Accept: text/plain).
  bool analyze = false;
  std::string explain_inner;
  if (StripExplainPrefix(request.body, &analyze, &explain_inner)) {
    if (!LooksLikeSql(explain_inner)) {
      return SendError(fd, 400, "EXPLAIN requires a SQL SELECT statement",
                       request.keep_alive);
    }
    DbReadLock db_lock(options_.durable);
    Result<ExplainResult> explain =
        session->ExplainSql(explain_inner, analyze, query_options);
    db_lock.Release();
    if (!explain.ok()) {
      return SendError(fd, StatusToHttp(explain.status()),
                       explain.status().message(), request.keep_alive);
    }
    bool as_text = false;
    if (const std::string* accept = request.FindHeader("accept")) {
      as_text = accept->find("text/plain") != std::string::npos;
    }
    CountResponse(200);
    std::string response = RenderHttpResponse(
        200, as_text ? "text/plain" : "application/json",
        as_text ? explain->ToText() : explain->ToJson() + "\n",
        request.keep_alive);
    TraceSpan respond_span(trace.get(), TracePhase::kHttpRespond);
    bool sent = SendAll(fd, response);
    respond_span.End();
    if (trace) trace->Finish();
    return sent && request.keep_alive;
  }

  // Boolean: SELECT PROB() SQL, an FO sentence or datalog-style UCQ
  // shorthand. A SQL body is parsed once, by the session inside its
  // compile span, and that parse decides whether it is Boolean.
  QueryAnswer answer;
  if (LooksLikeSql(request.body)) {
    DbReadLock db_lock(options_.durable);
    Result<SqlAnswer> result =
        session->QuerySql(request.body, query_options, trace);
    db_lock.Release();  // the result owns its rows; stream without the lock
    if (!result.ok()) {
      if (trace) trace->Finish();
      return SendError(fd, StatusToHttp(result.status()),
                       result.status().message(), request.keep_alive);
    }
    if (!result->boolean) {
      CountResponse(200);
      // Stream per tuple: the head goes out first, then each answer row as
      // its own chunk, so a consumer sees rows as they serialize instead of
      // one monolithic buffer.
      TraceSpan respond_span(trace.get(), TracePhase::kHttpRespond);
      if (!SendAll(fd, head)) return false;
      const Relation& relation = result->tuples;
      const std::vector<AnswerTupleInfo>& info = result->info;
      for (size_t i = 0; i < relation.size(); ++i) {
        const AnswerTupleInfo* tuple_info =
            i < info.size() ? &info[i] : nullptr;
        if (!SendAll(fd, RenderHttpChunk(AnswerTupleJson(
                             relation.tuple(i), relation.prob(i),
                             tuple_info)))) {
          return false;
        }
      }
      std::string tail = RenderHttpChunk(StrFormat(
          "{\"done\":true,\"rows\":%zu,\"elapsed_us\":%llu}\n",
          relation.size(),
          static_cast<unsigned long long>(NowMicros() - start_us)));
      tail += kHttpLastChunk;
      bool sent = SendAll(fd, tail);
      respond_span.End();
      FinishQuery(session, client_id, request.body, "answers", start_us,
                  trace);
      return sent && request.keep_alive;
    }
    answer = std::move(result->answer);
  } else {
    DbReadLock db_lock(options_.durable);
    Result<QueryAnswer> result =
        session->Query(request.body, query_options, trace);
    db_lock.Release();
    if (!result.ok()) {
      if (trace) trace->Finish();
      return SendError(fd, StatusToHttp(result.status()),
                       result.status().message(), request.keep_alive);
    }
    answer = std::move(*result);
  }
  CountResponse(200);
  std::string out = head;
  out += RenderHttpChunk(BooleanAnswerJson(answer));
  out += RenderHttpChunk(
      StrFormat("{\"done\":true,\"rows\":1,\"elapsed_us\":%llu}\n",
                static_cast<unsigned long long>(NowMicros() - start_us)));
  out += kHttpLastChunk;
  TraceSpan respond_span(trace.get(), TracePhase::kHttpRespond);
  bool sent = SendAll(fd, out);
  respond_span.End();
  FinishQuery(session, client_id, request.body,
              InferenceMethodToString(answer.method), start_us, trace);
  return sent && request.keep_alive;
}

void PdbServer::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (shut_down_.exchange(true)) return;

  if (event_log_ != nullptr) {
    event_log_->Log(LogLevel::kInfo, "server_shutdown",
                    {LogField::Uint("in_flight",
                                    admission_.stats().in_flight)});
  }

  // Phase 1: stop taking new work. The listener closes and the admission
  // gate refuses every new query (503 to clients), while requests already
  // executing continue undisturbed.
  draining_.store(true, std::memory_order_release);
  draining_gauge_->Set(1);
  admission_.Shutdown();
  accept_stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Phase 2: drain. Wait for in-flight requests to finish on their own.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.drain_timeout_ms);
  while (admission_.stats().in_flight > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Phase 3: cancel stragglers. Cooperative — queries observe the cancel
  // at their next ShouldStop() poll — so give them one more (bounded)
  // window to unwind and write their responses.
  size_t stragglers = admission_.stats().in_flight;
  if (stragglers > 0) {
    shutdown_cancelled_->Add(stragglers);
    sessions_.CancelAllInFlight();
    auto cancel_deadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(options_.drain_timeout_ms);
    while (admission_.stats().in_flight > 0 &&
           std::chrono::steady_clock::now() < cancel_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // Phase 4: tear down connections. stopping_ ends the serve loops;
  // shutdown(2) unblocks any thread parked in recv.
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [id, conn] : connections_) {
      ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [id, conn] : connections_) {
      threads.push_back(std::move(conn.thread));
    }
    connections_.clear();
    finished_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

}  // namespace pdb
