/// \file bench.h
/// \brief Shared types of the pdbd end-to-end benchmark: seeded workloads,
/// the reference answers they are checked against, the HTTP client that
/// drives pdbd, and the in-process traced replay.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Statement classes. Each has its own latency median where a workload
/// sends it; the class also fixes the inference method a correct reply
/// names.
enum class Cls { kSafe, kUnsafe, kAnswers, kSampled, kIngest };
const char* ClsName(Cls cls);

/// One relation of the bulk load, as the CSV bytes POST /ingest receives
/// (data columns then a probability column, no header).
struct Table {
  std::string name;
  std::string schema;  ///< pdbd schema spec, e.g. "g:int,x:int"
  std::string csv;
  size_t rows = 0;
};

/// One parsed reply (or what a correct reply must contain).
struct Answer {
  /// Boolean replies: one row keyed "". Answer queries: the tuple as the
  /// server renders it ("[17,3]") mapped to its marginal.
  std::map<std::string, double> rows;
  std::string method;  ///< "lifted", "grounded-exact", "monte-carlo"
  bool exact = false;
  double lower = 0.0, upper = 1.0, std_error = 0.0;
  size_t ingested_rows = 0;  ///< ingest acks
};

struct Request {
  Cls cls = Cls::kSafe;
  int client = 0;             ///< index into the workload's client ids
  bool fresh = false;         ///< ingest-read: reads the rows just written
  std::string batch;          ///< a fresh query's batch rows, its reference data
  std::string body;           ///< statement text, or CSV rows to ingest
  std::string relation;       ///< ingest target
  std::string schema;         ///< ingest target schema spec
  size_t rows = 0;            ///< ingest rows
  uint64_t deadline_ms = 0;   ///< X-Deadline-Ms (0 = none sent)
  Answer expected;            ///< filled by ComputeReference
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  /// Client ids (X-Client-Id); an empty id sends no header, so those
  /// clients share pdbd's default session.
  std::vector<std::string> client_ids;
  std::vector<Table> tables;
  /// Sent once per set-up, in order, after the bulk load: finishes lazy
  /// set-up (columnar sidecars, per-session index caches, result cache).
  std::vector<Request> warmup;
  /// The timed, fixed request sequence of each closed-loop client.
  std::vector<std::vector<Request>> sequences;
  std::string mix;  ///< human-readable mix and sizes, for the run record
};

/// Builds a workload from its name and seed alone. `seconds` scales the
/// fixed request count (never a duration); `smoke` selects a tiny
/// configuration that finishes in seconds.
pdb::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                   int seconds, bool smoke);

/// Fills every request's `expected` from an in-process database built from
/// the same CSV bytes: lifted-path statements are checked against grounded
/// DPLL, grounded and sampled statements against an OBDD (a sampled reply
/// is compared with it only when it comes back exact), ingests against the
/// rows sent.
pdb::Status ComputeReference(Workload* workload, int threads);

/// Renders an HTTP/1.1 request exactly as the load clients send it.
std::string RenderRequest(const Request& request, const std::string& client_id);

/// Parses a /query NDJSON body or an /ingest ack.
pdb::Result<Answer> ParseReply(const Request& request, const std::string& body);

/// Checks a reply against the request's expectation; returns the reason it
/// is wrong, or "" when it is right.
std::string Verify(const Request& request, const Answer& got);

/// Relative-or-absolute closeness used for every probability comparison.
bool Close(double a, double b);

/// Whether a statement goes to pdbd's SQL front end (the workloads write
/// SQL keywords in upper case).
bool IsSql(const std::string& body);

/// The in-process traced replay of a workload (replay.cc).
struct ReplayResult {
  /// Per layer-metric name ("server.http_parse_us", ...): value per timed
  /// request (or per row / batch for the storage metrics).
  std::map<std::string, double> layers;
  double unexplained_share = 0.0;
  double wall_s = 0.0;  ///< wall time of the timed part of the replay
  size_t timed_requests = 0;
  /// Replies of the timed requests, per client, in sequence order.
  std::vector<std::vector<Answer>> answers;
};
pdb::Result<ReplayResult> Replay(const Workload& workload, bool spans,
                                 const std::string& data_dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
