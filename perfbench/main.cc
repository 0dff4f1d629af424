// pdbbench: one fixed-work run of a pdbd workload.
//
//   pdbbench --pdbd PATH --work-dir DIR --workload NAME --seed N
//            --seconds S --trace 0|1 [--smoke] [--corrupt I]
//
// Generates the workload from the seed, computes reference answers, then
// kSetups times starts pdbd on an empty durable data directory, bulk-loads
// it over POST /ingest and warms it up (set-up time is the median). The last
// server then serves the timed, fixed request sequence from closed-loop
// clients; every reply is verified. With --trace 1 the same requests are
// replayed in-process with spans on and off for the per-layer metrics.
// The last line of standard output is the JSON result.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using pdb::Result;
using pdb::Status;
using pdb::StrFormat;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Reply {
  int status = 0;
  std::string body;
};

/// A keep-alive HTTP/1.1 connection to pdbd over loopback.
class Connection {
 public:
  explicit Connection(uint16_t port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Result<Reply> Send(const std::string& request) {
    if (fd_ < 0) PDB_RETURN_NOT_OK(Open());
    for (size_t sent = 0; sent < request.size();) {
      ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Fail("send");
      sent += static_cast<size_t>(n);
    }
    Reply reply;
    PDB_ASSIGN_OR_RETURN(std::string status_line, ReadLine());
    if (status_line.size() < 12) return Fail("status line");
    reply.status = std::atoi(status_line.c_str() + 9);
    bool chunked = false, close = false;
    size_t length = 0;
    for (;;) {
      PDB_ASSIGN_OR_RETURN(std::string header, ReadLine());
      if (header.empty()) break;
      std::string lower = header;
      for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      if (lower.rfind("content-length:", 0) == 0) {
        length = std::strtoull(lower.c_str() + 15, nullptr, 10);
      }
      if (lower.rfind("transfer-encoding:", 0) == 0 && lower.find("chunked") != std::string::npos) {
        chunked = true;
      }
      if (lower.rfind("connection:", 0) == 0 && lower.find("close") != std::string::npos) {
        close = true;
      }
    }
    if (!chunked) {
      PDB_ASSIGN_OR_RETURN(reply.body, Read(length));
    } else {
      for (;;) {
        PDB_ASSIGN_OR_RETURN(std::string size_line, ReadLine());
        char* end = nullptr;
        const size_t size = std::strtoull(size_line.c_str(), &end, 16);
        if (end == size_line.c_str()) return Fail("chunk size");
        if (size == 0) {
          PDB_RETURN_NOT_OK(ReadLine().status());
          break;
        }
        PDB_ASSIGN_OR_RETURN(std::string chunk, Read(size));
        reply.body += chunk;
        PDB_RETURN_NOT_OK(ReadLine().status());
      }
    }
    if (close) Close();
    return reply;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
    pos_ = 0;
  }

 private:
  Status Open() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::Internal("socket()");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{120, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Fail("connect");
    }
    return Status::OK();
  }
  Status Fail(const char* what) {
    Status status = Status::Internal(StrFormat("%s: %s", what, std::strerror(errno)));
    Close();
    return status;
  }
  Status Fill() {
    if (pos_ > 0 && pos_ == buffer_.size()) {
      buffer_.clear();
      pos_ = 0;
    }
    char chunk[65536];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Fail("recv");
      buffer_.append(chunk, static_cast<size_t>(n));
      return Status::OK();
    }
  }
  Result<std::string> ReadLine() {
    for (;;) {
      size_t eol = buffer_.find("\r\n", pos_);
      if (eol != std::string::npos) {
        std::string line = buffer_.substr(pos_, eol - pos_);
        pos_ = eol + 2;
        return line;
      }
      PDB_RETURN_NOT_OK(Fill());
    }
  }
  Result<std::string> Read(size_t n) {
    while (buffer_.size() - pos_ < n) PDB_RETURN_NOT_OK(Fill());
    std::string out = buffer_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
};

/// pdbd runs on the upper half of the CPUs and the load clients on the
/// lower half, so a client never competes with the server for a CPU and
/// each request crosses CPUs the same way in every run.
const std::vector<int> kServerCpus = {2, 3};
const std::vector<int> kClientCpus = {0, 1};

cpu_set_t CpuSet(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return set;
}

/// Restricts the calling thread (and what it forks) to `set`, on machines
/// with at least four CPUs.
void PinTo(const cpu_set_t& set) {
  if (::sysconf(_SC_NPROCESSORS_ONLN) >= 4) ::sched_setaffinity(0, sizeof(set), &set);
}

/// The pid of the running pdbd, for the watchdog.
std::atomic<pid_t> g_server_pid{-1};

/// One pdbd process on its own durable data directory.
class Pdbd {
 public:
  Pdbd() = default;
  ~Pdbd() { Kill(); }
  Pdbd(const Pdbd&) = delete;
  Pdbd& operator=(const Pdbd&) = delete;

  /// Every flag pdbd runs with; everything else is a pdbd default.
  static std::vector<std::string> Flags(const std::string& data_dir) {
    return {"--port", "0", "--data-dir", data_dir, "--sync-mode", "always",
            "--wmc-spill-ms", "0"};
  }

  Status Start(const std::string& binary, const std::string& data_dir,
               const std::string& log_path) {
    std::vector<std::string> args = {binary};
    for (std::string& flag : Flags(data_dir)) args.push_back(std::move(flag));
    // Everything the child needs is prepared before fork: between fork and
    // exec it may only make async-signal-safe calls.
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const bool pin = ::sysconf(_SC_NPROCESSORS_ONLN) >= 4;
    const cpu_set_t cpus = CpuSet(kServerCpus);
    std::error_code ec;
    std::filesystem::remove(log_path, ec);  // never read a previous server's port
    pid_t pid = ::fork();
    if (pid < 0) return Status::Internal("fork()");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (pin) ::sched_setaffinity(0, sizeof(cpus), &cpus);
      int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    g_server_pid = pid;
    // pdbd logs its bound port once it listens.
    const std::string marker = "listening on 127.0.0.1:";
    const auto start = Clock::now();
    while (SecondsSince(start) < 30) {
      std::ifstream log(log_path);
      std::stringstream text;
      text << log.rdbuf();
      size_t at = text.str().find(marker);
      if (at != std::string::npos && text.str().find('\n', at) != std::string::npos) {
        port_ = static_cast<uint16_t>(std::atoi(text.str().c_str() + at + marker.size()));
        return Status::OK();
      }
      int wstatus = 0;
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Internal("pdbd exited during start-up: " + text.str());
      }
      ::usleep(200);
    }
    return Status::Internal("pdbd did not start listening within 30 s");
  }

  /// pdbd's peak resident memory (VmHWM) in MB.
  double PeakRssMb() const {
    std::ifstream status(StrFormat("/proc/%d/status", static_cast<int>(pid_)));
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
  }

  /// Graceful stop (drain, final checkpoint), bounded; then SIGKILL.
  void Stop() { Signal(SIGTERM, 30); }
  void Kill() { Signal(SIGKILL, 30); }
  uint16_t port() const { return port_; }

 private:
  void Signal(int sig, int wait_s) {
    if (pid_ < 0) return;
    ::kill(pid_, sig);
    const auto start = Clock::now();
    while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (SecondsSince(start) > wait_s) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      ::usleep(1000);
    }
    pid_ = -1;
    g_server_pid = -1;
  }

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Parses Prometheus text into name -> value (histograms as _sum/_count).
std::map<std::string, double> ParseMetrics(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) continue;
    size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] += std::atof(line.c_str() + space + 1);
  }
  return out;
}

/// GET /metrics on a fresh connection (pdbd closes keep-alive connections
/// idle for 30 s, longer than a timed phase may last).
Result<std::map<std::string, double>> Scrape(uint16_t port) {
  Connection conn(port);
  PDB_ASSIGN_OR_RETURN(Reply reply,
                       conn.Send("GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"));
  if (reply.status != 200) return Status::Internal("GET /metrics failed");
  return ParseMetrics(reply.body);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default:
      return StrFormat("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

/// The per-layer metrics of a traced run (BENCHMARK.json's per_layer),
/// named by module, with their units.
const std::vector<std::pair<std::string, const char*>> kLayerMetrics = {
    {"server.http_parse_us", "us"},
    {"server.admission_us", "us"},
    {"server.render_us", "us"},
    {"sql.compile_us", "us"},
    {"core.cache_probe_us", "us"},
    {"core.result_cache_hit_ratio", "ratio"},
    {"core.fanout_tuples", "count"},
    {"core.fanout_us", "us"},
    {"logic.parse_us", "us"},
    {"logic.unate_rewrite_ms", "ms"},
    {"lifted.rules_ms", "ms"},
    {"lifted.failed_attempt_ms", "ms"},
    {"lifted.separator_groundings", "count"},
    {"lifted.ie_terms", "count"},
    {"boolean.lineage_ms", "ms"},
    {"boolean.lineage_vars", "count"},
    {"boolean.matches", "count"},
    {"wmc.dpll_ms", "ms"},
    {"wmc.dpll_decisions", "count"},
    {"wmc.shared_hit_ratio", "ratio"},
    {"wmc.karp_luby_ms", "ms"},
    {"wmc.mc_samples", "count"},
    {"plans.bounds_ms", "ms"},
    {"storage.columnar_encode_ms", "ms"},
    {"storage.index_builds", "count"},
    {"storage.csv_us_per_row", "us"},
    {"storage.apply_batch_ms", "ms"},
    {"storage.wal_sync_ms", "ms"},
    {"storage.syncs_per_batch", "count"},
    {"storage.wal_bytes_per_row", "bytes"},
    {"obs.scrape_ms", "ms"},
    {"obs.trace_overhead", "ratio"},
    {"unexplained_share", "ratio"},
    {"p99_ms", "ms"},
};

/// Set-ups per run; setup_s is their median. The smoke configuration
/// makes 2.
constexpr int kSetups = 15;

struct Options {
  std::string pdbd, work_dir, workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;
  long corrupt = -1;  ///< corrupt the reply of this timed request of client 0
};

/// One timed request's outcome.
struct Sample {
  const Request* request = nullptr;
  double ms = 0;
  double done_s = 0;  ///< completion time, from the start of the timed phase
  bool ok = false;
  Answer answer;
};

Status SendChecked(Connection* conn, const Request& r, const std::string& client_id,
                   Answer* answer) {
  PDB_ASSIGN_OR_RETURN(Reply reply, conn->Send(RenderRequest(r, client_id)));
  if (reply.status != 200) {
    return Status::Internal(StrFormat("HTTP %d: %s", reply.status, reply.body.c_str()));
  }
  PDB_ASSIGN_OR_RETURN(*answer, ParseReply(r, reply.body));
  std::string wrong = Verify(r, *answer);
  if (!wrong.empty()) return Status::Internal(wrong);
  return Status::OK();
}

class Output {
 public:
  void Metric(const std::string& name, double value, const char* unit, size_t samples,
              bool in_json) {
    std::printf("metric %s %.6g %s samples=%zu\n", name.c_str(), value, unit, samples);
    if (in_json) {
      json_ += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", json_.empty() ? "" : ", ",
                         name.c_str(), value, unit);
    }
  }
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

int Run(const Options& opt) {
#if !defined(NDEBUG) || defined(PDB_ASSERTIONS)
  std::fprintf(stderr, "pdbbench: refusing to report from a Debug or PDB_ASSERTIONS build\n");
  return 2;
#endif
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  auto workload = MakeWorkload(opt.workload, opt.seed, opt.seconds, opt.smoke);
  if (!workload.ok()) {
    std::fprintf(stderr, "pdbbench: %s\n", workload.status().ToString().c_str());
    return 2;
  }
  Workload& w = *workload;
  const auto ref_start = Clock::now();
  Status ref = ComputeReference(&w, 3);
  if (!ref.ok()) {
    std::fprintf(stderr, "pdbbench: %s\n", ref.ToString().c_str());
    return 1;
  }
  const double reference_s = SecondsSince(ref_start);

  const int setups = opt.smoke ? 2 : kSetups;
  const std::string data_dir = opt.work_dir + "/data";
  const std::string log_path = opt.work_dir + "/pdbd.log";
  std::string flags;
  for (const std::string& f : Pdbd::Flags("<empty dir>")) flags += (flags.empty() ? "" : " ") + f;
  std::printf("# workload %s seed %llu: %s\n", w.name.c_str(),
              static_cast<unsigned long long>(w.seed), w.mix.c_str());
  std::printf("# nproc %ld, compiler gcc %s, build %s, pdbd flags: %s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE, flags.c_str());
  std::printf("# data dir on %s, flush --sync-mode always, clients %zu, set-ups %d, "
              "reference answers in %.2f s\n",
              FilesystemOf(opt.work_dir).c_str(), w.sequences.size(), setups, reference_s);

  // Set-up, K times on a fresh server: start, durable bulk load, warm-up.
  Pdbd server;
  std::vector<double> setup_s, start_s, load_s, warmup_s;
  bool correct = true;
  for (int k = 0; k < setups; ++k) {
    server.Kill();
    std::filesystem::remove_all(data_dir, ec);
    const auto start = Clock::now();
    Status started = server.Start(opt.pdbd, data_dir, log_path);
    if (!started.ok()) {
      std::fprintf(stderr, "pdbbench: %s\n", started.ToString().c_str());
      return 1;
    }
    start_s.push_back(SecondsSince(start));
    Connection conn(server.port());
    for (const Table& table : w.tables) {
      Request load;
      load.cls = Cls::kIngest;
      load.relation = table.name;
      load.schema = table.schema;
      load.body = table.csv;
      load.rows = table.rows;
      Answer ack;
      Status s = SendChecked(&conn, load, "", &ack);
      if (!s.ok()) {
        std::fprintf(stderr, "pdbbench: bulk load of %s: %s\n", table.name.c_str(),
                     s.ToString().c_str());
        return 1;
      }
    }
    const auto loaded = Clock::now();
    load_s.push_back(SecondsSince(start) - start_s.back());
    for (const Request& r : w.warmup) {
      Answer answer;
      Status s = SendChecked(&conn, r, w.client_ids[r.client], &answer);
      if (!s.ok()) {
        std::printf("# warm-up statement '%s' failed: %s\n", r.body.c_str(), s.ToString().c_str());
        correct = false;
      }
    }
    warmup_s.push_back(SecondsSince(loaded));
    setup_s.push_back(SecondsSince(start));
  }

  std::printf("# set-up medians: pdbd start %.4f s, bulk load %.4f s, warm-up %.4f s\n",
              Quantile(start_s, 0.5), Quantile(load_s, 0.5), Quantile(warmup_s, 0.5));
  auto health = Connection(server.port()).Send("GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  std::string health_text = health.ok() ? health->body : health.status().ToString();
  while (!health_text.empty() && health_text.back() == '\n') health_text.pop_back();
  std::printf("# pdbd /healthz: %s\n", health_text.c_str());
  auto before = Scrape(server.port());
  if (!before.ok()) {
    std::fprintf(stderr, "pdbbench: %s\n", before.status().ToString().c_str());
    return 1;
  }

  // The timed phase: each client runs its fixed sequence as a closed loop.
  const size_t clients = w.sequences.size();
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<std::unique_ptr<Connection>> conns;
  for (size_t c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<Connection>(server.port()));
    samples[c].resize(w.sequences[c].size());
  }
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  Clock::time_point timed_start;  // written under mu before go is set
  std::vector<std::string> first_errors;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PinTo(CpuSet({kClientCpus[c % kClientCpus.size()]}));
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      const std::string& id = w.client_ids[c];
      for (size_t i = 0; i < w.sequences[c].size(); ++i) {
        const Request& r = w.sequences[c][i];
        Sample& sample = samples[c][i];
        sample.request = &r;
        const std::string bytes = RenderRequest(r, id);
        const auto t0 = Clock::now();
        auto reply = conns[c]->Send(bytes);
        sample.ms = SecondsSince(t0) * 1e3;
        sample.done_s = SecondsSince(timed_start);
        std::string wrong;
        if (!reply.ok()) {
          wrong = reply.status().ToString();
        } else if (reply->status != 200) {
          wrong = StrFormat("HTTP %d", reply->status);
        } else {
          auto parsed = ParseReply(r, reply->body);
          if (!parsed.ok()) {
            wrong = parsed.status().ToString();
          } else {
            sample.answer = std::move(parsed).value();
            if (c == 0 && static_cast<long>(i) == opt.corrupt && !sample.answer.rows.empty()) {
              sample.answer.rows.begin()->second += 0.125;
            }
            wrong = Verify(r, sample.answer);
          }
        }
        sample.ok = wrong.empty();
        if (!sample.ok) {
          std::lock_guard<std::mutex> lock(mu);
          if (first_errors.size() < 5) {
            first_errors.push_back(StrFormat("client %zu request %zu (%s): %s", c, i,
                                             r.body.substr(0, 80).c_str(), wrong.c_str()));
          }
        }
      }
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    timed_start = Clock::now();
    go = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();

  auto after = Scrape(server.port());
  std::vector<double> scrape_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    auto again = Scrape(server.port());
    scrape_ms.push_back(SecondsSince(t0) * 1e3);
    if (!again.ok()) break;
  }
  const double peak_rss_mb = server.PeakRssMb();
  for (auto& conn : conns) conn->Close();
  server.Stop();
  std::filesystem::remove_all(data_dir, ec);
  if (!after.ok()) {
    std::fprintf(stderr, "pdbbench: %s\n", after.status().ToString().c_str());
    return 1;
  }

  // End-to-end metrics.
  size_t attempted = 0, failed = 0, queries = 0, answer_rows = 0, exact_rows = 0;
  std::vector<double> query_ms;
  double last_done_s = 0;
  std::map<std::string, std::vector<double>> class_ms;
  for (const auto& client : samples) {
    for (const Sample& s : client) {
      ++attempted;
      last_done_s = std::max(last_done_s, s.done_s);
      if (!s.ok) ++failed;
      std::string cls = ClsName(s.request->cls);
      if (s.request->fresh) cls = "fresh";
      class_ms[cls].push_back(s.ms);
      if (s.request->cls == Cls::kIngest) continue;
      ++queries;
      query_ms.push_back(s.ms);
      answer_rows += s.answer.rows.size();
      if (s.answer.exact) exact_rows += s.answer.rows.size();
    }
  }
  for (const std::string& e : first_errors) std::printf("# failed: %s\n", e.c_str());
  Output out;
  const bool e2e = !opt.trace;
  out.Metric("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size(), e2e);
  out.Metric("ops_per_s", static_cast<double>(attempted) / last_done_s, "1/s", attempted, e2e);
  out.Metric("p50_ms", Quantile(query_ms, 0.5), "ms", query_ms.size(), e2e);
  out.Metric("p95_ms", Quantile(query_ms, 0.95), "ms", query_ms.size(), e2e);
  out.Metric("exact_share", answer_rows ? static_cast<double>(exact_rows) / answer_rows : 0.0,
             "ratio", answer_rows, e2e);
  out.Metric("peak_rss_mb", peak_rss_mb, "MB", 1, e2e);
  // Per-class medians and the error share are printed for the record; they
  // are not in the JSON result because they are 0 or undefined on some
  // workloads.
  const std::map<std::string, std::string> class_metric = {
      {"safe", "safe_p50_ms"},       {"unsafe", "unsafe_p50_ms"}, {"answers", "answers_p50_ms"},
      {"sampled", "sampled_p50_ms"}, {"ingest", "ingest_p50_ms"}, {"fresh", "fresh_p50_ms"}};
  for (const auto& [cls, ms] : class_ms) {
    out.Metric(class_metric.at(cls), Quantile(ms, 0.5), "ms", ms.size(), false);
  }
  out.Metric("error_share", attempted ? static_cast<double>(failed) / attempted : 0.0, "ratio",
             attempted, false);

  // Counts from GET /metrics, as deltas over the timed phase.
  const auto& m0 = *before;
  const auto& m1 = *after;
  auto total = [&](const std::string& name) { return m1.count(name) ? m1.at(name) : 0.0; };
  auto delta = [&](const std::string& name) {
    double b = m0.count(name) ? m0.at(name) : 0.0;
    double a = m1.count(name) ? m1.at(name) : 0.0;
    return a - b;
  };
  const char* counters[] = {
      "pdb_queries_total", "pdb_queries_lifted_total", "pdb_queries_grounded_exact_total",
      "pdb_queries_monte_carlo_total", "pdb_result_cache_hits_total",
      "pdb_result_cache_misses_total", "pdb_dpll_decisions_total", "pdb_lineage_matches_total",
      "pdb_index_builds_total", "pdb_wmc_shared_hits_total", "pdb_wmc_shared_misses_total",
      "pdb_mc_samples_total", "pdb_wal_records_total", "pdb_wal_bytes_total",
      "pdb_wal_syncs_total", "pdb_ingest_rows_total", "pdb_ingest_batches_total",
      "pdb_http_responses_4xx_total", "pdb_http_responses_5xx_total",
      "pdb_http_responses_429_total"};
  for (const char* name : counters) {
    std::printf("count %s %.0f per_request=%.6g\n", name, delta(name),
                attempted ? delta(name) / attempted : 0.0);
  }
  if (delta("pdb_queries_total") != static_cast<double>(queries)) {
    std::printf("# pdb_queries_total rose by %.0f, but %zu queries were sent\n",
                delta("pdb_queries_total"), queries);
    correct = false;
  }

  if (opt.trace) {
    auto traced = Replay(w, /*spans=*/true, opt.work_dir + "/replay");
    auto untraced = Replay(w, /*spans=*/false, opt.work_dir + "/replay");
    if (!traced.ok() || !untraced.ok()) {
      std::fprintf(stderr, "pdbbench: replay: %s\n",
                   (traced.ok() ? untraced.status() : traced.status()).ToString().c_str());
      return 1;
    }
    size_t mismatches = 0;
    for (size_t c = 0; c < clients; ++c) {
      for (size_t i = 0; i < samples[c].size(); ++i) {
        const Answer& http = samples[c][i].answer;
        const Answer& replayed = traced->answers[c][i];
        bool same = http.method == replayed.method && http.rows.size() == replayed.rows.size() &&
                    http.ingested_rows == replayed.ingested_rows;
        for (const auto& [key, p] : http.rows) {
          auto it = replayed.rows.find(key);
          same = same && it != replayed.rows.end() && Close(p, it->second);
        }
        if (!same) ++mismatches;
      }
    }
    std::printf("# replay: %zu of %zu answers differ from the HTTP run's\n", mismatches,
                attempted);
    if (mismatches > 0) correct = false;
    const double n = static_cast<double>(std::max<size_t>(1, queries));
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::map<std::string, double> layers = traced->layers;
    layers["core.result_cache_hit_ratio"] =
        ratio(delta("pdb_result_cache_hits_total"),
              delta("pdb_result_cache_hits_total") + delta("pdb_result_cache_misses_total"));
    layers["wmc.shared_hit_ratio"] =
        ratio(delta("pdb_wmc_shared_hits_total"),
              delta("pdb_wmc_shared_hits_total") + delta("pdb_wmc_shared_misses_total"));
    layers["boolean.matches"] = delta("pdb_lineage_matches_total") / n;
    layers["wmc.dpll_decisions"] = delta("pdb_dpll_decisions_total") / n;
    layers["wmc.mc_samples"] = delta("pdb_mc_samples_total") / n;
    // Storage figures over the server's whole life: the set-up bulk load
    // writes, and the warm-up builds indexes, on every workload.
    layers["storage.index_builds"] =
        ratio(total("pdb_index_builds_total"), total("pdb_queries_total"));
    layers["storage.wal_sync_ms"] =
        ratio(total("pdb_wal_sync_seconds_sum"), total("pdb_wal_sync_seconds_count")) * 1e-3;
    layers["storage.syncs_per_batch"] =
        ratio(total("pdb_wal_syncs_total"), total("pdb_ingest_batches_total"));
    layers["storage.wal_bytes_per_row"] =
        ratio(total("pdb_wal_bytes_total"), total("pdb_ingest_rows_total"));
    layers["obs.scrape_ms"] = Quantile(scrape_ms, 0.5);
    layers["obs.trace_overhead"] = traced->wall_s / untraced->wall_s - 1.0;
    layers["p99_ms"] = Quantile(query_ms, 0.99);
    std::printf("# traced replay: %zu timed requests in %.3f s with spans, %.3f s without; "
                "named layers cover %.1f%% of traced request time\n",
                traced->timed_requests, traced->wall_s, untraced->wall_s,
                (1.0 - traced->unexplained_share) * 100.0);
    for (const auto& [name, unit] : kLayerMetrics) {
      out.Metric(name, layers.at(name), unit, traced->timed_requests, true);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct && failed == 0 ? "true" : "false", attempted, failed, out.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--pdbd") {
      opt.pdbd = next();
    } else if (arg == "--work-dir") {
      opt.work_dir = next();
    } else if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      opt.seconds = std::stoi(next());
    } else if (arg == "--trace") {
      opt.trace = next() == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--corrupt") {
      opt.corrupt = std::stol(next());
    } else {
      std::fprintf(stderr, "pdbbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.pdbd.empty() || opt.work_dir.empty() || opt.workload.empty()) {
    std::fprintf(stderr, "pdbbench: --pdbd, --work-dir and --workload are required\n");
    return 2;
  }
  // Every run ends within 180 s: past the budget, stop pdbd and fail.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(170), [&] { return done; })) {
      pid_t pid = perfbench::g_server_pid.load();
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
      std::fprintf(stderr, "pdbbench: run exceeded 170 s\n");
      std::_Exit(3);
    }
  });
  int rc = perfbench::Run(opt);
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  watchdog.join();
  return rc;
}
