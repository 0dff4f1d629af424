// pdbd server tests: HTTP/1.1 parser units (incremental feeding, limits,
// keep-alive, pipelining), admission controller semantics (cap, bounded
// queue, fast shed, shutdown), session pool affinity, and end-to-end socket
// tests against a live PdbServer — including overload shedding (429 +
// Retry-After + pdb_shed_total), per-request deadlines, and the
// scrape-vs-serve hammer with a mid-flight graceful shutdown. This file is
// built under TSan in CI.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pdb.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "server/admission.h"
#include "server/http.h"
#include "server/server.h"
#include "server/session_pool.h"
#include "sql/sql.h"
#include "storage/durable_db.h"
#include "storage/env.h"
#include "test_common.h"
#include "util/random.h"

namespace pdb {
namespace {

using State = HttpRequestParser::State;

// ---------------------------------------------------------------------------
// HTTP parser
// ---------------------------------------------------------------------------

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            State::kComplete);
  const HttpRequest& req = parser.request();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_TRUE(req.keep_alive);
  EXPECT_TRUE(req.body.empty());
  ASSERT_NE(req.FindHeader("host"), nullptr);
  EXPECT_EQ(*req.FindHeader("HOST"), "x");  // lookup is case-insensitive
}

TEST(HttpParserTest, ParsesPostBodyFedByteByByte) {
  HttpRequestParser parser;
  std::string raw =
      "POST /query HTTP/1.1\r\nContent-Length: 11\r\n"
      "X-Client-Id:  alice \r\n\r\nR(x), S(x,y";
  for (size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_EQ(parser.Feed(std::string_view(&raw[i], 1)), State::kNeedMore)
        << "at byte " << i;
  }
  ASSERT_EQ(parser.Feed(std::string_view(&raw[raw.size() - 1], 1)),
            State::kComplete);
  EXPECT_EQ(parser.request().body, "R(x), S(x,y");
  // Header values are trimmed of surrounding whitespace.
  EXPECT_EQ(*parser.request().FindHeader("x-client-id"), "alice");
}

TEST(HttpParserTest, KeepAliveDefaultsPerVersion) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET / HTTP/1.0\r\n\r\n"), State::kComplete);
  EXPECT_FALSE(parser.request().keep_alive);
  parser.Reset();
  ASSERT_EQ(parser.Feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            State::kComplete);
  EXPECT_TRUE(parser.request().keep_alive);
  parser.Reset();
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
            State::kComplete);
  EXPECT_FALSE(parser.request().keep_alive);
}

TEST(HttpParserTest, PipelinedRequestsSurviveReset) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\n"
                        "Content-Length: 2\r\n\r\nhi"),
            State::kComplete);
  EXPECT_EQ(parser.request().target, "/a");
  parser.Reset();
  // The second request was already buffered; Reset re-parses it.
  ASSERT_EQ(parser.state(), State::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
  EXPECT_EQ(parser.request().body, "hi");
  parser.Reset();
  EXPECT_EQ(parser.state(), State::kNeedMore);
  EXPECT_TRUE(parser.idle());
}

TEST(HttpParserTest, RejectsMalformedRequestLine) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Feed("NONSENSE\r\n\r\n"), State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, RejectsUnsupportedVersionAndTransferEncoding) {
  HttpRequestParser p1;
  EXPECT_EQ(p1.Feed("GET / HTTP/2\r\n\r\n"), State::kError);
  EXPECT_EQ(p1.error_status(), 400);
  HttpRequestParser p2;
  EXPECT_EQ(p2.Feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            State::kError);
  EXPECT_EQ(p2.error_status(), 501);
}

TEST(HttpParserTest, EnforcesHeadAndBodyLimits) {
  HttpLimits limits;
  limits.max_head_bytes = 64;
  limits.max_body_bytes = 8;
  HttpRequestParser p1(limits);
  std::string big_head = "GET / HTTP/1.1\r\nX-Pad: " + std::string(100, 'a');
  EXPECT_EQ(p1.Feed(big_head), State::kError);
  EXPECT_EQ(p1.error_status(), 431);

  HttpRequestParser p2(limits);
  EXPECT_EQ(p2.Feed("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"),
            State::kError);
  EXPECT_EQ(p2.error_status(), 413);

  HttpRequestParser p3(limits);
  EXPECT_EQ(p3.Feed("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            State::kError);
  EXPECT_EQ(p3.error_status(), 400);
}

TEST(HttpParserTest, ErrorStateIsSticky) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("BAD\r\n\r\n"), State::kError);
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\n\r\n"), State::kError);
}

TEST(HttpRenderTest, ResponseCarriesContentLengthAndReason) {
  std::string response = RenderHttpResponse(429, "application/json",
                                            "{\"error\":\"x\"}\n",
                                            /*keep_alive=*/true,
                                            {{"Retry-After", "2"}});
  EXPECT_NE(response.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Content-Length: 14\r\n"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 2\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: keep-alive\r\n"), std::string::npos);
}

TEST(HttpRenderTest, ChunkedFramingRoundTrips) {
  EXPECT_EQ(RenderHttpChunk("hello"), "5\r\nhello\r\n");
  EXPECT_EQ(RenderHttpChunk(""), "");  // empty chunk would end the stream
  std::string head = RenderHttpChunkedHead(200, "application/x-ndjson",
                                           /*keep_alive=*/false);
  EXPECT_NE(head.find("Transfer-Encoding: chunked\r\n\r\n"),
            std::string::npos);
  EXPECT_EQ(head.find("Content-Length"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Admission controller
// ---------------------------------------------------------------------------

TEST(AdmissionTest, AdmitsUpToCapThenShedsQueueFullFast) {
  AdmissionController admission({.max_concurrent = 2, .max_queue = 0});
  EXPECT_EQ(admission.Admit(), AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.Admit(), AdmissionController::Decision::kAdmitted);
  // Queue size 0: the third arrival is refused without waiting.
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(admission.Admit(), AdmissionController::Decision::kShedQueueFull);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            50);
  AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.in_flight, 2u);
  admission.Release();
  admission.Release();
  EXPECT_EQ(admission.stats().in_flight, 0u);
}

TEST(AdmissionTest, QueuedWaiterGetsSlotOnRelease) {
  AdmissionController admission(
      {.max_concurrent = 1, .max_queue = 4, .queue_timeout_ms = 5000});
  ASSERT_EQ(admission.Admit(), AdmissionController::Decision::kAdmitted);
  std::atomic<int> decision{-1};
  std::thread waiter([&] {
    decision.store(static_cast<int>(admission.Admit()),
                   std::memory_order_release);
  });
  while (admission.stats().queued == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  admission.Release();
  waiter.join();
  EXPECT_EQ(decision.load(),
            static_cast<int>(AdmissionController::Decision::kAdmitted));
  EXPECT_EQ(admission.stats().in_flight, 1u);
  admission.Release();
}

TEST(AdmissionTest, QueueWaitTimesOut) {
  AdmissionController admission(
      {.max_concurrent = 1, .max_queue = 4, .queue_timeout_ms = 30});
  ASSERT_EQ(admission.Admit(), AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.Admit(), AdmissionController::Decision::kShedTimeout);
  EXPECT_EQ(admission.stats().shed_timeout, 1u);
  EXPECT_EQ(admission.stats().queued, 0u);
  admission.Release();
}

TEST(AdmissionTest, ShutdownWakesWaitersAndRefusesNewWork) {
  AdmissionController admission(
      {.max_concurrent = 1, .max_queue = 4, .queue_timeout_ms = 60000});
  ASSERT_EQ(admission.Admit(), AdmissionController::Decision::kAdmitted);
  std::atomic<int> decision{-1};
  std::thread waiter([&] {
    decision.store(static_cast<int>(admission.Admit()),
                   std::memory_order_release);
  });
  while (admission.stats().queued == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  admission.Shutdown();
  waiter.join();
  EXPECT_EQ(decision.load(),
            static_cast<int>(AdmissionController::Decision::kShuttingDown));
  EXPECT_EQ(admission.Admit(), AdmissionController::Decision::kShuttingDown);
  admission.Release();  // the original admit
  EXPECT_EQ(admission.stats().in_flight, 0u);
}

TEST(AdmissionTest, PerClientCapShedsInstantlyWithoutStarvingOthers) {
  AdmissionController admission(
      {.max_concurrent = 8, .max_queue = 8, .max_per_client = 2});
  ASSERT_EQ(admission.Admit("alice"),
            AdmissionController::Decision::kAdmitted);
  ASSERT_EQ(admission.Admit("alice"),
            AdmissionController::Decision::kAdmitted);
  // The third alice request is refused at once — no queue position, no
  // timer — while bob (and the anonymous client) are unaffected.
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(admission.Admit("alice"),
            AdmissionController::Decision::kShedClientLimit);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
      50);
  EXPECT_EQ(admission.Admit("bob"), AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.Admit(""), AdmissionController::Decision::kAdmitted);
  AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.shed_client_limit, 1u);
  EXPECT_EQ(stats.in_flight, 4u);
  // Releasing one alice slot restores her headroom.
  admission.Release("alice");
  EXPECT_EQ(admission.Admit("alice"),
            AdmissionController::Decision::kAdmitted);
  admission.Release("alice");
  admission.Release("alice");
  admission.Release("bob");
  admission.Release("");
  EXPECT_EQ(admission.stats().in_flight, 0u);
}

TEST(AdmissionTest, AnonymousRequestsAreExemptFromPerClientCap) {
  AdmissionController admission(
      {.max_concurrent = 8, .max_queue = 8, .max_per_client = 1});
  // Requests without an X-Client-Id are distinct callers: pooling them
  // under the empty-string identity would shed unrelated clients under
  // normal load. They bypass the per-client cap (the global gate still
  // bounds them).
  EXPECT_EQ(admission.Admit(""), AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.Admit(""), AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.Admit(""), AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.stats().shed_client_limit, 0u);
  // Identified clients still get capped.
  EXPECT_EQ(admission.Admit("alice"),
            AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.Admit("alice"),
            AdmissionController::Decision::kShedClientLimit);
  admission.Release("alice");
  admission.Release("");
  admission.Release("");
  admission.Release("");
  EXPECT_EQ(admission.stats().in_flight, 0u);
}

TEST(AdmissionTest, TicketReleasesOnDestruction) {
  AdmissionController admission({.max_concurrent = 1, .max_queue = 0});
  {
    AdmissionTicket ticket(&admission);
    EXPECT_TRUE(ticket.admitted());
    EXPECT_EQ(admission.stats().in_flight, 1u);
    AdmissionTicket shed(&admission);
    EXPECT_FALSE(shed.admitted());
  }
  // The shed ticket must not release a slot it never held.
  EXPECT_EQ(admission.stats().in_flight, 0u);
  EXPECT_EQ(admission.stats().admitted, 1u);
}

// ---------------------------------------------------------------------------
// Session pool
// ---------------------------------------------------------------------------

TEST(SessionPoolTest, ClientAffinityAndDefaultFallback) {
  ProbDatabase pdb(testing::BuildFigure1Database());
  SessionPool pool(&pdb, {{.num_threads = 1}, /*max_sessions=*/2});
  Session* anonymous = pool.ForClient("");
  EXPECT_EQ(pool.ForClient(""), anonymous);
  Session* alice = pool.ForClient("alice");
  Session* bob = pool.ForClient("bob");
  EXPECT_NE(alice, anonymous);
  EXPECT_NE(alice, bob);
  EXPECT_EQ(pool.ForClient("alice"), alice);
  EXPECT_EQ(pool.size(), 2u);
  // At capacity: a new client shares the default session instead of
  // minting a third.
  EXPECT_EQ(pool.ForClient("carol"), anonymous);
  EXPECT_EQ(pool.size(), 2u);

  int visited = 0;
  pool.ForEachSession([&](const std::string&, Session&) { ++visited; });
  EXPECT_EQ(visited, 3);  // default + alice + bob
  EXPECT_EQ(pool.TotalInFlight(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end over sockets
// ---------------------------------------------------------------------------

/// A parsed HTTP response (chunked bodies are de-framed).
struct TestResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
  /// body split at newlines (NDJSON rows), empty lines dropped.
  std::vector<std::string> Lines() const {
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < body.size()) {
      size_t eol = body.find('\n', pos);
      if (eol == std::string::npos) eol = body.size();
      if (eol > pos) lines.push_back(body.substr(pos, eol - pos));
      pos = eol + 1;
    }
    return lines;
  }
};

/// Connects, sends one request with Connection: close, reads to EOF, parses.
TestResponse Fetch(uint16_t port, const std::string& method,
                   const std::string& target,
                   const std::vector<std::pair<std::string, std::string>>&
                       headers = {},
                   const std::string& body = "") {
  TestResponse out;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Connection: close\r\n";
  for (const auto& [name, value] : headers) {
    request += name + ": " + value + "\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return out;
  std::string head = raw.substr(0, head_end);
  std::string payload = raw.substr(head_end + 4);
  size_t sp = head.find(' ');
  if (sp != std::string::npos) {
    out.status = std::atoi(head.c_str() + sp + 1);
  }
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos) {
    size_t eol = head.find("\r\n", pos + 2);
    std::string line = head.substr(
        pos + 2, eol == std::string::npos ? std::string::npos : eol - pos - 2);
    size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      size_t value_start = line.find_first_not_of(' ', colon + 1);
      out.headers[name] =
          value_start == std::string::npos ? "" : line.substr(value_start);
    }
    pos = eol;
  }

  if (out.headers.count("transfer-encoding") &&
      out.headers["transfer-encoding"] == "chunked") {
    // De-frame chunks.
    size_t p = 0;
    while (p < payload.size()) {
      size_t eol = payload.find("\r\n", p);
      if (eol == std::string::npos) break;
      size_t size = std::strtoull(payload.substr(p, eol - p).c_str(),
                                  nullptr, 16);
      if (size == 0) break;
      out.body += payload.substr(eol + 2, size);
      p = eol + 2 + size + 2;
    }
  } else {
    out.body = payload;
  }
  return out;
}

/// The bipartite TID used across the suite: R(x), S(x,y), T(y) with n rows
/// per unary relation (same construction as obs_test.cc).
Database HardDatabase(size_t n) {
  Database db;
  Relation r("R", Schema({{"x", ValueType::kInt}}));
  Relation s("S", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  Relation t("T", Schema({{"y", ValueType::kInt}}));
  Rng rng(11);
  auto prob = [&] { return 0.1 + 0.8 * rng.NextDouble(); };
  for (size_t i = 1; i <= n; ++i) {
    PDB_CHECK(r.AddTuple({Value(static_cast<int64_t>(i))}, prob()).ok());
    PDB_CHECK(t.AddTuple({Value(static_cast<int64_t>(i))}, prob()).ok());
    for (size_t j = 1; j <= n; ++j) {
      PDB_CHECK(s.AddTuple({Value(static_cast<int64_t>(i)),
                            Value(static_cast<int64_t>(j))},
                           prob())
                    .ok());
    }
  }
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  PDB_CHECK(db.AddRelation(std::move(t)).ok());
  return db;
}

class ServerEndToEndTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}, size_t db_size = 3) {
    pdb_ = std::make_unique<ProbDatabase>(HardDatabase(db_size));
    server_ = std::make_unique<PdbServer>(pdb_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<ProbDatabase> pdb_;
  std::unique_ptr<PdbServer> server_;
};

TEST_F(ServerEndToEndTest, HealthzAndUnknownRoutes) {
  StartServer();
  TestResponse health = Fetch(server_->port(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"hardware_concurrency\":"), std::string::npos);
  EXPECT_NE(health.body.find("\"build\":"), std::string::npos);
  EXPECT_NE(health.body.find("\"data_dir_mode\":\"memory\""),
            std::string::npos);
  EXPECT_EQ(Fetch(server_->port(), "GET", "/nope").status, 404);
  EXPECT_EQ(Fetch(server_->port(), "GET", "/query").status, 405);
  EXPECT_EQ(Fetch(server_->port(), "POST", "/metrics").status, 405);
}

TEST_F(ServerEndToEndTest, SqlBooleanQueryStreamsAnswerAndSummary) {
  StartServer();
  TestResponse resp =
      Fetch(server_->port(), "POST", "/query", {},
            "SELECT PROB() FROM R, S WHERE R.x = S.x");
  ASSERT_EQ(resp.status, 200);
  auto lines = resp.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"probability\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"method\":\"lifted\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"exact\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"done\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"rows\":1"), std::string::npos);
}

TEST_F(ServerEndToEndTest, SqlAnswersStreamPerTupleWithMethodAndStdError) {
  StartServer();
  TestResponse resp = Fetch(server_->port(), "POST", "/query", {},
                            "SELECT R.x FROM R, S WHERE R.x = S.x");
  ASSERT_EQ(resp.status, 200);
  auto lines = resp.Lines();
  ASSERT_EQ(lines.size(), 4u);  // 3 tuples + summary
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"tuple\":["), std::string::npos);
    EXPECT_NE(lines[i].find("\"probability\":"), std::string::npos);
    EXPECT_NE(lines[i].find("\"method\":"), std::string::npos);
    EXPECT_NE(lines[i].find("\"std_error\":"), std::string::npos);
  }
  EXPECT_NE(lines.back().find("\"rows\":3"), std::string::npos);
}

TEST_F(ServerEndToEndTest, UcqShorthandAndParseErrors) {
  StartServer();
  EXPECT_EQ(Fetch(server_->port(), "POST", "/query", {}, "R(x), S(x,y)")
                .status,
            200);
  EXPECT_EQ(Fetch(server_->port(), "POST", "/query", {}, "R(x").status, 400);
  EXPECT_EQ(Fetch(server_->port(), "POST", "/query", {},
                  "SELECT PROB() FROM NoSuchTable")
                .status,
            400);
  // A SQL syntax error answers 400 with the parser's own message.
  const std::string malformed = "SELECT PROB( FROM R";
  TestResponse syntax_error =
      Fetch(server_->port(), "POST", "/query", {}, malformed);
  EXPECT_EQ(syntax_error.status, 400);
  Status parse_status = ParseSql(malformed).status();
  ASSERT_FALSE(parse_status.ok());
  EXPECT_NE(syntax_error.body.find(parse_status.message()), std::string::npos)
      << syntax_error.body;
  EXPECT_EQ(Fetch(server_->port(), "POST", "/query").status, 400);  // empty
  EXPECT_EQ(Fetch(server_->port(), "POST", "/query",
                  {{"X-Deadline-Ms", "soon"}}, "R(x)")
                .status,
            400);
}

TEST_F(ServerEndToEndTest, ClientSessionsShowUpInMergedMetrics) {
  StartServer();
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query",
                  {{"X-Client-Id", "alice"}}, "R(x)")
                .status,
            200);
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query", {{"X-Client-Id", "bob"}},
                  "T(y)")
                .status,
            200);
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query", {}, "R(x)").status, 200);

  TestResponse metrics = Fetch(server_->port(), "GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  // default + alice + bob, via summing each session's pdb_sessions_active.
  EXPECT_NE(metrics.body.find("pdb_sessions_active 3"), std::string::npos);
  EXPECT_NE(metrics.body.find("pdb_queries_total 3"), std::string::npos);
  EXPECT_NE(metrics.body.find("pdb_http_requests_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("pdb_connections_accepted_total"),
            std::string::npos);
  EXPECT_EQ(server_->sessions().size(), 2u);

  TestResponse traces = Fetch(server_->port(), "GET", "/debug/traces");
  ASSERT_EQ(traces.status, 200);
  EXPECT_NE(traces.body.find("\"client\":\"alice\""), std::string::npos);
  EXPECT_NE(traces.body.find("\"phase\":\"parse\""), std::string::npos);
}

TEST_F(ServerEndToEndTest, DeadlineHeaderDegradesToSamplingNotError) {
  ServerOptions options;
  options.max_deadline_ms = 10'000;
  // 224 lineage variables: exact DPLL needs about 0.7 s (Release, 4-core
  // x86), far beyond 50 ms, so the deadline must kick in.
  StartServer(options, /*db_size=*/14);
  // The unsafe join needs DPLL; a tight budget forces the Monte Carlo
  // fallback, which still answers 200 (estimate, not error).
  TestResponse resp = Fetch(server_->port(), "POST", "/query",
                            {{"X-Deadline-Ms", "50"}},
                            "SELECT PROB() FROM R, S, T "
                            "WHERE R.x = S.x AND S.y = T.y WITH STDERR 0.05");
  ASSERT_EQ(resp.status, 200);
  auto lines = resp.Lines();
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"method\":\"monte-carlo\""), std::string::npos)
      << lines[0];
}

TEST_F(ServerEndToEndTest, OverloadShedsWith429RetryAfterAndShedTotal) {
  ServerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.max_queue = 0;  // every overflow sheds instantly
  // Big enough that the slot-holding query burns its whole 200 ms deadline
  // in DPLL (exact needs about 0.7 s) before falling back to sampling.
  StartServer(options, /*db_size=*/14);
  uint16_t port = server_->port();

  // One slow query occupies the single execution slot...
  std::atomic<bool> slow_done{false};
  std::thread slow([port, &slow_done] {
    TestResponse resp = Fetch(port, "POST", "/query",
                              {{"X-Deadline-Ms", "200"}},
                              "SELECT PROB() FROM R, S, T "
                              "WHERE R.x = S.x AND S.y = T.y "
                              "WITH STDERR 0.02");
    EXPECT_EQ(resp.status, 200);
    slow_done.store(true, std::memory_order_release);
  });
  // Wait until it holds the slot before bursting, so the bursts cannot
  // steal it (max_queue=0 would shed the slow query instead).
  while (server_->admission().stats().admitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ... while it runs, every arrival is shed with a fast 429.
  int shed = 0;
  while (shed < 3 && !slow_done.load(std::memory_order_acquire)) {
    TestResponse resp = Fetch(port, "POST", "/query",
                              {{"X-Client-Id", "burst"}}, "R(x)");
    if (resp.status == 429) {
      ++shed;
      EXPECT_FALSE(resp.headers["retry-after"].empty());
      EXPECT_NE(resp.body.find("\"error\""), std::string::npos);
    }
  }
  slow.join();
  EXPECT_GE(shed, 3);

  // The sheds are visible in the merged scrape and in the burst session's
  // cumulative report (shed invariant: shed_total covers admission drops).
  std::string metrics = server_->MetricsText();
  EXPECT_NE(metrics.find("pdb_admission_rejected_total"), std::string::npos);
  Session* burst = server_->sessions().ForClient("burst");
  ExecReport report = burst->CumulativeReport();
  EXPECT_GE(report.admission_rejected, static_cast<uint64_t>(shed));
  auto snap = burst->SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("pdb_shed_total"),
            report.shed_tasks + report.admission_rejected);
  AdmissionStats stats = server_->admission().stats();
  EXPECT_GE(stats.shed_queue_full, static_cast<uint64_t>(shed));
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(ServerEndToEndTest, GracefulShutdownDrainsAndAnswersDrainingAfter) {
  StartServer();
  uint16_t port = server_->port();
  ASSERT_EQ(Fetch(port, "POST", "/query", {}, "R(x)").status, 200);
  server_->Shutdown();
  EXPECT_TRUE(server_->draining());
  EXPECT_EQ(server_->admission().stats().in_flight, 0u);
  // The listener is closed: a new connection is refused.
  EXPECT_EQ(Fetch(port, "GET", "/healthz").status, 0);
  // Shutdown is idempotent.
  server_->Shutdown();
}

TEST_F(ServerEndToEndTest, ScrapersRaceServingWithShutdownMidFlight) {
  // The TSan workhorse: 8 client threads hammer /query (distinct sessions
  // and the shared one), a scraper polls /metrics and /debug/traces, and a
  // graceful shutdown is issued while traffic is still arriving. After
  // Shutdown: everything joined, nothing in flight, and no session lost a
  // ticker (registry == CumulativeReport on every session).
  ServerOptions options;
  options.admission.max_concurrent = 4;
  options.admission.max_queue = 2;
  options.admission.queue_timeout_ms = 50;
  options.drain_timeout_ms = 3'000;
  StartServer(options);
  uint16_t port = server_->port();

  std::atomic<bool> stop{false};
  std::atomic<int> ok_responses{0};
  std::atomic<int> shed_responses{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      const char* queries[] = {
          "R(x)", "SELECT PROB() FROM R, S WHERE R.x = S.x",
          "R(x), S(x,y), T(y)", "SELECT R.x FROM R, S WHERE R.x = S.x"};
      std::string client_id = t % 2 == 0 ? ("c" + std::to_string(t)) : "";
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<std::pair<std::string, std::string>> headers;
        headers.emplace_back("X-Deadline-Ms", "500");
        if (!client_id.empty()) {
          headers.emplace_back("X-Client-Id", client_id);
        }
        TestResponse resp = Fetch(port, "POST", "/query", headers,
                                  queries[i++ % 4]);
        if (resp.status == 200) {
          ok_responses.fetch_add(1, std::memory_order_relaxed);
        } else if (resp.status == 429) {
          shed_responses.fetch_add(1, std::memory_order_relaxed);
        }
        // 0 (refused connection) and 503 (draining) arrive once shutdown
        // begins; both are expected.
      }
    });
  }
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)Fetch(port, "GET", "/metrics");
      (void)Fetch(port, "GET", "/debug/traces");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Let traffic build, then shut down mid-flight.
  while (ok_responses.load(std::memory_order_acquire) < 24) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server_->Shutdown();
  stop.store(true, std::memory_order_release);
  for (auto& c : clients) c.join();
  scraper.join();

  // Drain completed: nothing in flight anywhere.
  EXPECT_EQ(server_->admission().stats().in_flight, 0u);
  EXPECT_EQ(server_->sessions().TotalInFlight(), 0);

  // No lost tickers: on every session the registry agrees with the
  // cumulative report, served answers match the latency histogram, and the
  // shed invariant holds.
  uint64_t total_queries = 0;
  server_->sessions().ForEachSession([&](const std::string&,
                                         Session& session) {
    auto snap = session.SnapshotMetrics();
    ExecReport report = session.CumulativeReport();
    EXPECT_EQ(snap.counters.at("pdb_queries_total"), session.queries_served());
    EXPECT_EQ(snap.histograms.at("pdb_query_latency_us").count,
              session.queries_served());
    EXPECT_EQ(snap.counters.at("pdb_shed_total"),
              report.shed_tasks + report.admission_rejected);
    EXPECT_EQ(snap.counters.at("pdb_admission_rejected_total"),
              report.admission_rejected);
    EXPECT_EQ(snap.gauges.at("pdb_requests_in_flight"), 0);
    total_queries += session.queries_served();
  });
  // Every 200 the clients saw is a served query (sessions may have served
  // more: responses cut off mid-write during shutdown still executed).
  EXPECT_GE(total_queries,
            static_cast<uint64_t>(ok_responses.load(std::memory_order_acquire)));
  // And the merged scrape carries the same total.
  std::string metrics = server_->MetricsText();
  std::string want = "pdb_queries_total " + std::to_string(total_queries);
  EXPECT_NE(metrics.find(want), std::string::npos) << metrics;
}

// ---------------------------------------------------------------------------
// Introspection: EXPLAIN over HTTP, /debug/slowlog, /debug/profile, and the
// full-stack trace-coverage acceptance bar.
// ---------------------------------------------------------------------------

TEST_F(ServerEndToEndTest, ExplainAnalyzeOverHttpReturnsPlanAndText) {
  StartServer();
  // Plain EXPLAIN: plan only, nothing executed, JSON by default.
  TestResponse plain =
      Fetch(server_->port(), "POST", "/query", {},
            "EXPLAIN SELECT PROB() FROM R, S WHERE R.x = S.x");
  ASSERT_EQ(plain.status, 200);
  EXPECT_EQ(plain.headers["content-type"], "application/json");
  EXPECT_NE(plain.body.find("\"analyze\":false"), std::string::npos);
  EXPECT_NE(plain.body.find("\"method_predicted\":true"), std::string::npos);
  EXPECT_NE(plain.body.find("\"method\":\"lifted\""), std::string::npos);
  EXPECT_NE(plain.body.find("\"estimated_rows\":"), std::string::npos);
  EXPECT_EQ(plain.body.find("\"probability\":"), std::string::npos);

  // EXPLAIN ANALYZE: executed, with estimate-vs-actual and a trace.
  TestResponse analyze =
      Fetch(server_->port(), "POST", "/query", {},
            "EXPLAIN ANALYZE SELECT PROB() FROM R, S WHERE R.x = S.x");
  ASSERT_EQ(analyze.status, 200);
  EXPECT_NE(analyze.body.find("\"analyze\":true"), std::string::npos);
  EXPECT_NE(analyze.body.find("\"probability\":"), std::string::npos);
  EXPECT_NE(analyze.body.find("\"actual_rows\":"), std::string::npos);
  EXPECT_NE(analyze.body.find("\"trace\":{\"total_ns\":"), std::string::npos);

  // Accept: text/plain renders the human-readable form instead.
  TestResponse text =
      Fetch(server_->port(), "POST", "/query", {{"Accept", "text/plain"}},
            "EXPLAIN ANALYZE SELECT PROB() FROM R, S WHERE R.x = S.x");
  ASSERT_EQ(text.status, 200);
  EXPECT_EQ(text.headers["content-type"], "text/plain");
  EXPECT_NE(text.body.find("EXPLAIN ANALYZE"), std::string::npos);

  // EXPLAIN requires SQL: the UCQ shorthand is rejected up front.
  EXPECT_EQ(Fetch(server_->port(), "POST", "/query", {}, "EXPLAIN R(x)")
                .status,
            400);
  EXPECT_EQ(Fetch(server_->port(), "POST", "/query", {},
                  "EXPLAIN SELECT PROB() FROM NoSuchTable")
                .status,
            400);
}

TEST_F(ServerEndToEndTest, SlowlogDisabledByDefault) {
  StartServer();
  TestResponse resp = Fetch(server_->port(), "GET", "/debug/slowlog");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"enabled\":false"), std::string::npos);
  EXPECT_EQ(Fetch(server_->port(), "POST", "/debug/slowlog").status, 405);
}

TEST_F(ServerEndToEndTest, SlowQueryLogCapturesStatementAndTrace) {
  ServerOptions options;
  options.slow_query_ms = 1;
  options.max_deadline_ms = 10'000;
  // 224 lineage variables: exact DPLL (about 0.7 s) burns the whole 100 ms
  // budget before the Monte Carlo fallback, so the query is >> 1 ms.
  StartServer(options, /*db_size=*/14);
  const std::string slow_sql =
      "SELECT PROB() FROM R, S, T WHERE R.x = S.x AND S.y = T.y "
      "WITH STDERR 0.05";
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query",
                  {{"X-Deadline-Ms", "100"}, {"X-Client-Id", "turtle"}},
                  slow_sql)
                .status,
            200);

  TestResponse resp = Fetch(server_->port(), "GET", "/debug/slowlog");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(resp.body.find("\"threshold_us\":1000"), std::string::npos);
  // The captured entry carries the statement, the client, the full trace,
  // and an explain payload for the offending statement.
  EXPECT_NE(resp.body.find("WITH STDERR 0.05"), std::string::npos);
  EXPECT_NE(resp.body.find("\"client\":\"turtle\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"trace\":{\"total_ns\":"), std::string::npos);
  EXPECT_NE(resp.body.find("\"explain\":{"), std::string::npos);
  EXPECT_NE(resp.body.find("\"latency_us\":"), std::string::npos);

  // Every ring entry round-trips through the strict parser.
  ASSERT_NE(server_->slow_query_log(), nullptr);
  for (const SlowQueryEntry& entry : server_->slow_query_log()->entries()) {
    Result<SlowQueryEntry> parsed =
        SlowQueryEntryFromJson(SlowQueryEntryToJson(entry));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->statement, entry.statement);
    EXPECT_EQ(parsed->latency_us, entry.latency_us);
  }
}

TEST_F(ServerEndToEndTest, DebugProfileAggregatesPhaseLatencies) {
  StartServer();
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query", {},
                  "SELECT PROB() FROM R, S WHERE R.x = S.x")
                .status,
            200);
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query", {},
                  "SELECT R.x FROM R, S WHERE R.x = S.x")
                .status,
            200);
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query", {}, "R(x), S(x,y), T(y)")
                .status,
            200);

  TestResponse resp = Fetch(server_->port(), "GET", "/debug/profile");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"phases\":["), std::string::npos);
  EXPECT_NE(resp.body.find("\"p50_ns\":"), std::string::npos);
  EXPECT_NE(resp.body.find("\"p95_ns\":"), std::string::npos);
  EXPECT_NE(resp.body.find("\"p99_ns\":"), std::string::npos);
  // Engine phases and the server's own phases land in the same profile.
  EXPECT_NE(resp.body.find("\"phase\":\"parse\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"phase\":\"http_parse\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"phase\":\"http_respond\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"phase\":\"admission_wait\""), std::string::npos);
}

TEST_F(ServerEndToEndTest, DurableWorkloadTraceCoverageAtLeastNinetyPercent) {
  // The ISSUE acceptance bar: on a durable server workload, top-level
  // spans must cover >= 90% of each query's wall clock, and the storage
  // layer's IO trace must fold into /debug/profile.
  MemEnv env;
  DurableOptions dopts;
  dopts.env = &env;
  auto opened = DurableDatabase::Open("/db", dopts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DurableDatabase* durable = opened->get();

  // Load the bipartite TID through the logged mutators so WAL append and
  // sync spans come from real writes.
  Rng rng(11);
  auto prob = [&] { return 0.1 + 0.8 * rng.NextDouble(); };
  ASSERT_TRUE(
      durable->CreateRelation("R", Schema({{"x", ValueType::kInt}})).ok());
  ASSERT_TRUE(durable
                  ->CreateRelation("S", Schema({{"x", ValueType::kInt},
                                                {"y", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(
      durable->CreateRelation("T", Schema({{"y", ValueType::kInt}})).ok());
  // 9x9: H0 over the complete bipartite graph takes DPLL about 26 ms in a
  // release build, 30 times the other two statements together (6x6 took
  // 1.7 ms once DPLL split independent disjunctions).
  constexpr int64_t n = 9;
  for (int64_t i = 1; i <= n; ++i) {
    ASSERT_TRUE(durable->Insert("R", {Value(i)}, prob()).ok());
    ASSERT_TRUE(durable->Insert("T", {Value(i)}, prob()).ok());
    for (int64_t j = 1; j <= n; ++j) {
      ASSERT_TRUE(durable->Insert("S", {Value(i), Value(j)}, prob()).ok());
    }
  }
  ASSERT_TRUE(durable->Checkpoint().ok());

  ServerOptions options;
  options.data_dir_mode = "durable";
  options.io_trace = &durable->io_trace();
  server_ = std::make_unique<PdbServer>(&durable->pdb(), options);
  ASSERT_TRUE(server_->Start().ok());

  // A DPLL-heavy workload: engine time dominates the wall clock, so the
  // instrumented phases must account for (nearly) all of it.
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query", {},
                  "SELECT PROB() FROM R, S, T WHERE R.x = S.x AND S.y = T.y")
                .status,
            200);
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query", {},
                  "SELECT PROB() FROM R, S WHERE R.x = S.x")
                .status,
            200);
  ASSERT_EQ(Fetch(server_->port(), "POST", "/query", {},
                  "SELECT R.x FROM R, S WHERE R.x = S.x")
                .status,
            200);

  uint64_t covered = 0;
  uint64_t total = 0;
  size_t traces = 0;
  server_->sessions().ForEachSession([&](const std::string&, Session& s) {
    for (const auto& trace : s.recent_traces()) {
      ++traces;
      covered += trace->TopLevelNs();
      total += trace->total_ns();
    }
  });
  ASSERT_GE(traces, 3u);
  ASSERT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(covered), 0.9 * static_cast<double>(total))
      << "top-level spans cover " << covered << " of " << total << " ns";

  // The storage side recorded recovery, WAL, and checkpoint spans...
  const QueryTrace& io = durable->io_trace();
  EXPECT_GT(io.PhaseNs(TracePhase::kRecovery), 0u);
  EXPECT_GT(io.PhaseNs(TracePhase::kWalAppend), 0u);
  EXPECT_GT(io.PhaseNs(TracePhase::kWalSync), 0u);
  EXPECT_GT(io.PhaseNs(TracePhase::kCheckpoint), 0u);

  // ... and /debug/profile folds them into the per-phase percentiles.
  TestResponse profile = Fetch(server_->port(), "GET", "/debug/profile");
  ASSERT_EQ(profile.status, 200);
  EXPECT_NE(profile.body.find("\"phase\":\"wal_append\""), std::string::npos);
  EXPECT_NE(profile.body.find("\"phase\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(profile.body.find("\"phase\":\"recovery\""), std::string::npos);

  TestResponse health = Fetch(server_->port(), "GET", "/healthz");
  EXPECT_NE(health.body.find("\"data_dir_mode\":\"durable\""),
            std::string::npos);

  server_->Shutdown();
  server_.reset();
  ASSERT_TRUE(durable->Close().ok());
}

// ---------------------------------------------------------------------------
// Bulk ingest (POST /ingest) and two-client fairness, end to end.
// ---------------------------------------------------------------------------

TEST_F(ServerEndToEndTest, IngestStreamsCsvThroughBatchedCommits) {
  MemEnv env;
  DurableOptions dopts;
  dopts.env = &env;
  auto opened = DurableDatabase::Open("/db", dopts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DurableDatabase* durable = opened->get();

  ServerOptions options;
  options.data_dir_mode = "durable";
  options.durable = durable;
  server_ = std::make_unique<PdbServer>(&durable->pdb(), options);
  ASSERT_TRUE(server_->Start().ok());
  uint16_t port = server_->port();

  // 1200 rows across >2 commit batches (512 rows per batch), with a header
  // line to skip, blank lines to ignore, and an explicit probability column.
  std::string csv = "a,b,p\n";
  for (int i = 0; i < 1200; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i) + ".5,0.25\n";
    if (i % 100 == 0) csv += "\n";
  }
  TestResponse resp =
      Fetch(port, "POST", "/ingest?relation=P&schema=a:int,b:double&header=1",
            {{"X-Client-Id", "loader"}}, csv);
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_NE(resp.body.find("\"relation\":\"P\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"rows\":1200"), std::string::npos);
  EXPECT_NE(resp.body.find("\"batches\":3"), std::string::npos);

  auto rel = durable->pdb().database().Get("P");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 1200u);
  EXPECT_EQ((*rel)->prob(0), 0.25);

  // The rows went through the batched WAL path: a handful of batch
  // records, not 1200 single-op commits.
  MetricsSnapshot snap = durable->metrics().Snapshot();
  EXPECT_EQ(snap.counters["pdb_wal_batch_records_total"], 3u);
  EXPECT_EQ(snap.counters["pdb_wal_batch_mutations_total"], 1200u);

  // Appending to the now-existing relation needs no schema parameter.
  TestResponse append = Fetch(port, "POST", "/ingest?relation=P", {},
                              "9001,1.5\n9002,2.5\n");
  ASSERT_EQ(append.status, 200) << append.body;
  EXPECT_NE(append.body.find("\"rows\":2"), std::string::npos);
  EXPECT_EQ((*rel)->size(), 1202u);

  // Error surface: missing relation param, unknown relation without a
  // schema, malformed row (reported with its row number and the count of
  // rows already durably committed), wrong method.
  EXPECT_EQ(Fetch(port, "POST", "/ingest", {}, "1\n").status, 400);
  EXPECT_EQ(Fetch(port, "POST", "/ingest?relation=Nope", {}, "1\n").status,
            400);
  TestResponse bad = Fetch(port, "POST", "/ingest?relation=P", {},
                           "1,1.5\nnot-an-int,2.5\n");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("row 2"), std::string::npos) << bad.body;
  EXPECT_EQ(Fetch(port, "GET", "/ingest?relation=P").status, 405);

  // The ingest counters surface in the merged scrape.
  TestResponse metrics = Fetch(port, "GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("pdb_ingest_rows_total 1202"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("pdb_ingest_requests_total"),
            std::string::npos);

  server_->Shutdown();
  server_.reset();
  ASSERT_TRUE(durable->Close().ok());
}

// Queries keep running while a bulk load streams into the same store:
// every engine call holds the durable layer's read lock shared, and the
// commit path applies each batch under the exclusive side — so a scan
// never observes a relation's tuple vector reallocating underneath it.
// The TSan job runs this test; in a plain build it is a crash/liveness
// smoke over the same interleaving.
TEST_F(ServerEndToEndTest, QueriesRunSafelyDuringConcurrentIngest) {
  MemEnv env;
  DurableOptions dopts;
  dopts.env = &env;
  auto opened = DurableDatabase::Open("/db", dopts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DurableDatabase* durable = opened->get();

  // Seed the relation so queries can scan it from the first request.
  ASSERT_TRUE(durable
                  ->CreateRelation("P", Schema({{"a", ValueType::kInt},
                                                {"b", ValueType::kDouble}}))
                  .ok());
  std::vector<std::pair<Tuple, double>> seed;
  for (int64_t i = 0; i < 10; ++i) {
    seed.push_back({{Value(i), Value(0.5)}, 0.25});
  }
  ASSERT_TRUE(durable->InsertMany("P", std::move(seed)).ok());

  ServerOptions options;
  options.data_dir_mode = "durable";
  options.durable = durable;
  server_ = std::make_unique<PdbServer>(&durable->pdb(), options);
  ASSERT_TRUE(server_->Start().ok());
  uint16_t port = server_->port();

  // 2000 fresh rows: several commit batches' worth of tuple-vector growth
  // racing the query scans below (kept modest so the TSan job stays fast).
  std::string csv;
  for (int i = 0; i < 2000; ++i) {
    csv += std::to_string(10 + i) + "," + std::to_string(i) + ".5,0.25\n";
  }
  std::atomic<bool> ingest_done{false};
  std::thread loader([port, &csv, &ingest_done] {
    TestResponse resp =
        Fetch(port, "POST", "/ingest?relation=P", {{"X-Client-Id", "loader"}},
              csv);
    EXPECT_EQ(resp.status, 200) << resp.body;
    EXPECT_NE(resp.body.find("\"rows\":2000"), std::string::npos);
    ingest_done.store(true, std::memory_order_release);
  });

  // Hammer Boolean scans over the growing relation until the load lands.
  size_t queries = 0;
  while (!ingest_done.load(std::memory_order_acquire) || queries < 3) {
    TestResponse resp = Fetch(port, "POST", "/query", {}, "P(x,y)");
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_NE(resp.body.find("\"probability\":"), std::string::npos);
    ++queries;
  }
  loader.join();
  EXPECT_GE(queries, 3u);

  auto rel = durable->pdb().database().Get("P");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 2010u);

  server_->Shutdown();
  server_.reset();
  ASSERT_TRUE(durable->Close().ok());
}

TEST_F(ServerEndToEndTest, IngestWithoutDurableStorageAnswers400) {
  StartServer();  // memory-only server: no --data-dir
  TestResponse resp =
      Fetch(server_->port(), "POST", "/ingest?relation=R", {}, "1\n");
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("durable"), std::string::npos);
}

TEST_F(ServerEndToEndTest, PerClientCapKeepsSecondClientResponsive) {
  ServerOptions options;
  options.admission.max_concurrent = 2;
  options.admission.max_queue = 4;
  options.admission.max_per_client = 1;
  options.max_deadline_ms = 10'000;
  // As in the overload test: the slow query burns its whole 200 ms
  // deadline in DPLL (exact needs about 0.7 s).
  StartServer(options, /*db_size=*/14);
  uint16_t port = server_->port();

  // "hog" occupies its single allowed slot with a slow query...
  std::atomic<bool> hog_done{false};
  std::thread hog([port, &hog_done] {
    TestResponse resp = Fetch(port, "POST", "/query",
                              {{"X-Deadline-Ms", "200"},
                               {"X-Client-Id", "hog"}},
                              "SELECT PROB() FROM R, S, T "
                              "WHERE R.x = S.x AND S.y = T.y "
                              "WITH STDERR 0.02");
    EXPECT_EQ(resp.status, 200);
    hog_done.store(true, std::memory_order_release);
  });
  while (server_->admission().stats().admitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ... so hog's second request is refused instantly with the client-limit
  // message, while a different client still gets served (a free slot
  // remains: the cap, not the capacity, is what refused hog).
  int hog_shed = 0;
  int other_ok = 0;
  while (!hog_done.load(std::memory_order_acquire) &&
         (hog_shed == 0 || other_ok == 0)) {
    if (hog_shed == 0) {
      TestResponse second = Fetch(port, "POST", "/query",
                                  {{"X-Client-Id", "hog"}}, "R(x)");
      if (second.status == 429) {
        ++hog_shed;
        EXPECT_NE(second.body.find("too many requests in flight"),
                  std::string::npos)
            << second.body;
        EXPECT_FALSE(second.headers["retry-after"].empty());
      }
    }
    if (other_ok == 0) {
      TestResponse other = Fetch(port, "POST", "/query",
                                 {{"X-Client-Id", "polite"}}, "R(x)");
      if (other.status == 200) ++other_ok;
    }
  }
  hog.join();
  EXPECT_EQ(hog_shed, 1) << "hog's second request was never client-capped";
  EXPECT_EQ(other_ok, 1) << "the second client never got a slot";
  EXPECT_GE(server_->admission().stats().shed_client_limit, 1u);
  EXPECT_EQ(server_->admission().stats().in_flight, 0u);
}

}  // namespace
}  // namespace pdb
