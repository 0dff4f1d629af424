// S1 — pdbd saturation: N client threads (8..64) hammer a live in-process
// PdbServer over real loopback sockets with tight admission limits, mixing
// cheap safe queries with deadline-bounded hard ones. The interesting
// outputs are the counters, not the wall time: admitted vs shed (429)
// requests, the p99 latency of *admitted* requests (load shedding must keep
// it bounded — that is the whole point of fast-failing the overflow), and a
// post-run cross-check that the /metrics scrape agrees with the summed
// per-session CumulativeReport (no lost tickers under saturation).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pdb.h"
#include "server/server.h"
#include "util/check.h"
#include "util/random.h"

namespace pdb {
namespace {

/// Requests each client thread issues per benchmark iteration.
constexpr int kRequestsPerClient = 10;

Database BipartiteDatabase(size_t n) {
  Database db;
  Relation r("R", Schema::Anonymous(1));
  Relation s("S", Schema::Anonymous(2));
  Relation t("T", Schema::Anonymous(1));
  Rng rng(7);
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

/// A keep-alive HTTP/1.1 client holding one persistent connection per
/// worker thread. The old per-request connect + "Connection: close" client
/// made the saturation benchmark measure TCP churn (3-way handshakes and
/// TIME_WAIT exhaustion) instead of admission control; with keep-alive,
/// every request after the first rides the warm connection, so the
/// counters isolate the server's shed/admit behaviour. Responses are
/// framed-parsed (Content-Length and chunked alike) — required for reuse,
/// since "read until EOF" only works when the server closes per request.
class BenchClient {
 public:
  explicit BenchClient(uint16_t port) : port_(port) {}
  ~BenchClient() { Disconnect(); }

  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;

  /// One request/response exchange; returns the HTTP status (0 on
  /// connection failure). Body content is drained and discarded. Retries
  /// once on a fresh connection: a reused socket the server has since
  /// closed (idle timeout, drain) fails the first attempt legitimately.
  int Request(const std::string& body, const std::string& client_id) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (fd_ < 0 && !Connect()) continue;
      int status = RoundTrip(body, client_id);
      if (status != 0) return status;
      Disconnect();
    }
    return 0;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Disconnect();
      return false;
    }
    return true;
  }

  void Disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  /// Receives more bytes into buffer_; false on EOF or error.
  bool FillMore() {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  /// Blocks until buffer_ holds `delimiter`; returns its position or npos.
  size_t ReadUntil(const std::string& delimiter) {
    size_t scanned = 0;
    while (true) {
      size_t pos = buffer_.find(delimiter, scanned);
      if (pos != std::string::npos) return pos;
      scanned = buffer_.size() > delimiter.size()
                    ? buffer_.size() - delimiter.size()
                    : 0;
      if (!FillMore()) return std::string::npos;
    }
  }

  /// Blocks until buffer_ holds at least `n` bytes, then consumes them.
  bool SkipExactly(size_t n) {
    while (buffer_.size() < n) {
      if (!FillMore()) return false;
    }
    buffer_.erase(0, n);
    return true;
  }

  static bool HeaderContains(const std::string& head, const char* name,
                             const char* value) {
    // Case-insensitive "Name: ... value ..." scan, good enough for the
    // fixed header set this server emits.
    std::string lower;
    lower.reserve(head.size());
    for (char c : head) {
      lower.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    size_t pos = lower.find(std::string("\r\n") + name + ":");
    if (pos == std::string::npos) return false;
    size_t eol = lower.find("\r\n", pos + 2);
    return lower.substr(pos, eol - pos).find(value) != std::string::npos;
  }

  /// Sends one request and parses one framed response off the stream.
  /// Returns the HTTP status, or 0 on any transport/framing failure.
  int RoundTrip(const std::string& body, const std::string& client_id) {
    std::string request = "POST /query HTTP/1.1\r\nX-Deadline-Ms: 100\r\n";
    if (!client_id.empty()) request += "X-Client-Id: " + client_id + "\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    request += body;
    size_t sent = 0;
    while (sent < request.size()) {
      ssize_t n =
          ::send(fd_, request.data() + sent, request.size() - sent, 0);
      if (n <= 0) return 0;
      sent += static_cast<size_t>(n);
    }

    size_t head_end = ReadUntil("\r\n\r\n");
    if (head_end == std::string::npos) return 0;
    std::string head = buffer_.substr(0, head_end);
    buffer_.erase(0, head_end + 4);
    size_t sp = head.find(' ');
    int status = sp == std::string::npos ? 0 : std::atoi(head.c_str() + sp + 1);
    if (status == 0) return 0;

    // Drain the body so the next response starts clean on this socket.
    if (HeaderContains(head, "transfer-encoding", "chunked")) {
      while (true) {
        size_t line_end = ReadUntil("\r\n");
        if (line_end == std::string::npos) return 0;
        size_t size = std::strtoull(buffer_.c_str(), nullptr, 16);
        buffer_.erase(0, line_end + 2);
        if (size == 0) {
          // Terminal chunk: consume through the trailing CRLF.
          size_t end = ReadUntil("\r\n");
          if (end == std::string::npos) return 0;
          buffer_.erase(0, end + 2);
          break;
        }
        if (!SkipExactly(size + 2)) return 0;  // chunk data + CRLF
      }
    } else {
      size_t pos = head.find("Content-Length:");
      size_t length =
          pos == std::string::npos
              ? 0
              : std::strtoull(head.c_str() + pos + 15, nullptr, 10);
      if (!SkipExactly(length)) return 0;
    }

    if (HeaderContains(head, "connection", "close")) Disconnect();
    return status;
  }

  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;  ///< received-but-unconsumed bytes
};

uint64_t ScrapeCounter(const std::string& metrics, const std::string& name) {
  size_t pos = metrics.find("\n" + name + " ");
  if (pos == std::string::npos) {
    if (metrics.rfind(name + " ", 0) != 0) return 0;
    pos = 0;
  } else {
    pos += 1;
  }
  return std::strtoull(metrics.c_str() + pos + name.size() + 1, nullptr, 10);
}

void BM_ServerSaturation(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));

  // 14x14: exact DPLL on H0 runs about 0.65 s (Release, 4-core x86), so
  // the hard request below overruns its 100 ms deadline and falls back to
  // sampling.
  ProbDatabase db(BipartiteDatabase(14));
  ServerOptions options;
  // Deliberately under-provisioned so 8..64 clients saturate the server
  // and the overflow is shed rather than queued behind slow work.
  options.admission.max_concurrent = 4;
  options.admission.max_queue = 4;
  options.admission.queue_timeout_ms = 50;
  options.max_deadline_ms = 2'000;
  PdbServer server(&db, options);
  PDB_CHECK(server.Start().ok());
  const uint16_t port = server.port();

  // Every 4th request is the non-hierarchical join (deadline-bounded DPLL
  // then sampling); the rest are cheap safe queries.
  const char* kQueries[] = {"R(x)", "T(y)", "R(x), S(x,y)",
                            "R(x), S(x,y), T(y)"};

  uint64_t ok_total = 0, shed_total = 0, failed_total = 0;
  std::vector<double> admitted_latency_us;
  std::mutex merge_mu;

  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        BenchClient client(port);
        std::vector<double> latencies;
        uint64_t ok = 0, shed = 0, failed = 0;
        std::string client_id = "bench-" + std::to_string(c % 8);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          auto start = std::chrono::steady_clock::now();
          int status = client.Request(kQueries[(c + i) % 4], client_id);
          auto elapsed = std::chrono::steady_clock::now() - start;
          if (status == 200) {
            ++ok;
            latencies.push_back(
                std::chrono::duration<double, std::micro>(elapsed).count());
          } else if (status == 429) {
            ++shed;
          } else {
            ++failed;
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        ok_total += ok;
        shed_total += shed;
        failed_total += failed;
        admitted_latency_us.insert(admitted_latency_us.end(),
                                   latencies.begin(), latencies.end());
      });
    }
    for (auto& w : workers) w.join();
  }

  // Scrape-vs-report agreement: the merged /metrics text must carry exactly
  // the queries the sessions report having served — saturation must not
  // lose tickers.
  std::string metrics = server.MetricsText();
  uint64_t served = 0, rejected = 0;
  server.sessions().ForEachSession([&](const std::string&, Session& session) {
    ExecReport report = session.CumulativeReport();
    served += session.queries_served();
    rejected += report.admission_rejected;
  });
  PDB_CHECK(ScrapeCounter(metrics, "pdb_queries_total") == served);
  PDB_CHECK(ScrapeCounter(metrics, "pdb_admission_rejected_total") ==
            rejected);
  PDB_CHECK(served == ok_total);  // every 200 the clients saw is accounted
  server.Shutdown();

  std::sort(admitted_latency_us.begin(), admitted_latency_us.end());
  double p99 = admitted_latency_us.empty()
                   ? 0.0
                   : admitted_latency_us[static_cast<size_t>(
                         0.99 * (admitted_latency_us.size() - 1))];
  state.counters["ok"] = static_cast<double>(ok_total);
  state.counters["shed_429"] = static_cast<double>(shed_total);
  state.counters["failed"] = static_cast<double>(failed_total);
  state.counters["p99_admitted_us"] = p99;
  state.counters["rps"] = benchmark::Counter(
      static_cast<double>(ok_total + shed_total), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<int64_t>(ok_total + shed_total));
}
BENCHMARK(BM_ServerSaturation)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace pdb

BENCHMARK_MAIN();
