// Observability tests: metrics registry semantics (including an 8-thread
// hammer built for TSan), Prometheus/JSON exposition (golden file + grammar
// validator), trace span nesting and the session trace ring buffer, and the
// regression that the registry tickers agree with CumulativeReport after a
// mixed workload. This file is built under TSan in CI.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pdb.h"
#include "core/session.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_common.h"
#include "util/random.h"

namespace pdb {
namespace {

/// Complete bipartite H0 instance (same construction as session_test.cc):
/// R(x), S(x,y), T(y) is non-hierarchical, hence exact evaluation goes
/// through grounded DPLL.
Database HardDatabase(size_t n) {
  Database db;
  Relation r("R", Schema::Anonymous(1));
  Relation s("S", Schema::Anonymous(2));
  Relation t("T", Schema::Anonymous(1));
  Rng rng(3);
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

/// Same shape but with named columns so SQL can address them.
Database HardSqlDatabase(size_t n) {
  Database db;
  Relation r("R", Schema({{"x", ValueType::kInt}}));
  Relation s("S", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  Relation t("T", Schema({{"y", ValueType::kInt}}));
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

const char* kUnsafeQuery = "R(x), S(x,y), T(y)";
const char* kSafeQuery = "R(x), S(x,y)";

// ---------------------------------------------------------------------------
// Counters, gauges, histograms
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAddAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);  // overlay semantics
  EXPECT_EQ(c.value(), 7u);
}

TEST(MetricsTest, GaugeGoesUpAndDown) {
  Gauge g;
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(g.value(), -15);
}

TEST(MetricsTest, HistogramLog2Buckets) {
  Histogram h;
  h.Record(0);     // bucket 0: exactly {0}
  h.Record(1);     // bucket 1: [1, 2)
  h.Record(2);     // bucket 2: [2, 4)
  h.Record(3);     // bucket 2
  h.Record(1024);  // bucket 11: [1024, 2048)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 1024);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(11), 1u);
  EXPECT_EQ(h.bucket(3), 0u);
}

TEST(MetricsTest, HistogramExtremeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(UINT64_MAX);  // bit_width 64 -> last bucket
  EXPECT_EQ(h.bucket(Histogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsTest, HistogramSnapshotMeanAndQuantile) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("q");
  for (int i = 0; i < 99; ++i) h->Record(4);  // bucket 3, upper bound 7
  h->Record(1 << 20);                         // one outlier
  MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("q");
  EXPECT_DOUBLE_EQ(hs.Mean(), (99.0 * 4 + (1 << 20)) / 100.0);
  EXPECT_DOUBLE_EQ(hs.Quantile(0.5), 7.0);
  // The outlier lives in bucket 21, upper bound 2^21 - 1.
  EXPECT_DOUBLE_EQ(hs.Quantile(1.0), 2097151.0);
  HistogramSnapshot empty;
  EXPECT_EQ(empty.Mean(), 0.0);
  EXPECT_EQ(empty.Quantile(0.99), 0.0);
}

TEST(MetricsTest, RegistryGetOrCreateIsStable) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("pdb_thing_total");
  Counter* b = reg.GetCounter("pdb_thing_total");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("other"), a);
  EXPECT_NE(static_cast<void*>(reg.GetGauge("g")),
            static_cast<void*>(reg.GetHistogram("h")));
}

TEST(MetricsTest, ConcurrentHammerIsExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &go, t] {
      // Resolve once, update lock-free — the intended usage pattern.
      Counter* shared = reg.GetCounter("shared_total");
      Counter* own = reg.GetCounter("worker_" + std::to_string(t) + "_total");
      Gauge* level = reg.GetGauge("level");
      Histogram* h = reg.GetHistogram("latency_us");
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kIters; ++i) {
        shared->Add(1);
        own->Add(2);
        level->Add(t % 2 == 0 ? 1 : -1);
        h->Record(static_cast<uint64_t>(i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("shared_total"),
            static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counters.at("worker_" + std::to_string(t) + "_total"),
              static_cast<uint64_t>(2) * kIters);
  }
  EXPECT_EQ(snap.gauges.at("level"), 0);
  const HistogramSnapshot& h = snap.histograms.at("latency_us");
  EXPECT_EQ(h.count, static_cast<uint64_t>(kThreads) * kIters);
  uint64_t per_thread_sum = static_cast<uint64_t>(kIters) * (kIters - 1) / 2;
  EXPECT_EQ(h.sum, kThreads * per_thread_sum);
}

// ---------------------------------------------------------------------------
// Exposition: Prometheus golden file + grammar, JSON
// ---------------------------------------------------------------------------

/// The registry rendered by the golden-file and grammar tests.
MetricsRegistry* GoldenRegistry() {
  static MetricsRegistry* reg = [] {
    auto* r = new MetricsRegistry();
    r->GetCounter("pdb_queries_total")->Add(3);
    r->GetCounter("pdb_admission_rejected_total")->Add(2);
    r->GetCounter("pdb_checkpoint_duration_us_total")->Add(1500);
    r->GetCounter("pdb_index_builds_total")->Add(4);
    r->GetCounter("pdb_index_cache_hits_total")->Add(12);
    r->GetCounter("pdb_lineage_matches_total")->Add(7);
    r->GetCounter("pdb_lineage_nodes_total")->Add(21);
    r->GetCounter("pdb_shed_total")->Add(5);
    r->GetCounter("weird.name-1")->Add(1);  // sanitized to weird_name_1
    r->GetGauge("pdb_requests_in_flight")->Set(1);
    r->GetGauge("pdb_result_cache_entries")->Set(2);
    r->GetGauge("pdb_sessions_active")->Set(3);
    r->GetGauge("temp_delta")->Set(-5);
    Histogram* h = r->GetHistogram("pdb_query_latency_us");
    h->Record(0);
    h->Record(1);
    h->Record(5);
    h->Record(1024);
    // WAL fsync latency (recorded in microseconds; see durable_db.cc).
    Histogram* ws = r->GetHistogram("pdb_wal_sync_seconds");
    ws->Record(120);
    ws->Record(450);
    return r;
  }();
  return reg;
}

/// Minimal validator for the Prometheus text exposition format: every line
/// is a comment or `name[{le="bound"}] value`, names match the grammar,
/// histogram bucket series are cumulative and end with +Inf == _count.
void ValidatePrometheusText(const std::string& text) {
  auto valid_name = [](const std::string& s) {
    if (s.empty()) return false;
    auto head = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
             c == ':';
    };
    if (!head(s[0])) return false;
    for (char c : s) {
      if (!head(c) && !(c >= '0' && c <= '9')) return false;
    }
    return true;
  };
  std::istringstream in(text);
  std::string line;
  std::string open_histogram;  // histogram currently being emitted
  uint64_t last_cumulative = 0;
  bool saw_inf = false;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    SCOPED_TRACE("line " + std::to_string(lineno) + ": " + line);
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kw, name, kind;
      ls >> hash >> kw >> name >> kind;
      ASSERT_EQ(hash, "#");
      ASSERT_EQ(kw, "TYPE");
      ASSERT_TRUE(valid_name(name));
      ASSERT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram");
      if (!open_histogram.empty()) {
        EXPECT_TRUE(saw_inf);
      }
      open_histogram = kind == "histogram" ? name : "";
      last_cumulative = 0;
      saw_inf = false;
      continue;
    }
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    std::string series = line.substr(0, space);
    std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparseable sample value";
    std::string name = series;
    std::string le;
    size_t brace = series.find('{');
    if (brace != std::string::npos) {
      name = series.substr(0, brace);
      ASSERT_EQ(series.back(), '}');
      std::string labels = series.substr(brace + 1,
                                         series.size() - brace - 2);
      ASSERT_EQ(labels.rfind("le=\"", 0), 0u);
      ASSERT_EQ(labels.back(), '"');
      le = labels.substr(4, labels.size() - 5);
    }
    ASSERT_TRUE(valid_name(name));
    if (!open_histogram.empty() && name == open_histogram + "_bucket") {
      ASSERT_FALSE(le.empty());
      uint64_t cumulative = std::strtoull(value.c_str(), nullptr, 10);
      EXPECT_GE(cumulative, last_cumulative) << "buckets must be cumulative";
      if (le == "+Inf") {
        saw_inf = true;
      } else {
        last_cumulative = cumulative;
        std::strtod(le.c_str(), &end);
        ASSERT_EQ(*end, '\0') << "unparseable le bound";
      }
    }
  }
  if (!open_histogram.empty()) {
    EXPECT_TRUE(saw_inf);
  }
}

TEST(MetricsExpositionTest, PrometheusMatchesGoldenFile) {
  std::ifstream golden(std::string(PDB_TESTDATA_DIR) +
                       "/metrics_golden.prom");
  ASSERT_TRUE(golden.good());
  std::stringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(GoldenRegistry()->RenderPrometheus(), want.str());
}

TEST(MetricsExpositionTest, PrometheusGrammarHolds) {
  ValidatePrometheusText(GoldenRegistry()->RenderPrometheus());
}

TEST(MetricsExpositionTest, LiveSessionTextParsesUnderGrammar) {
  ProbDatabase pdb(testing::BuildFigure1Database());
  Session session(&pdb, {.num_threads = 1});
  ASSERT_TRUE(session.Query("R(x), S(x,y)").ok());
  ASSERT_TRUE(session.QuerySqlBoolean("SELECT PROB() FROM R, S "
                                      "WHERE R.x = S.x")
                  .ok());
  std::string text = session.MetricsText();
  EXPECT_NE(text.find("pdb_queries_total 2"), std::string::npos);
  EXPECT_NE(text.find("pdb_query_latency_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("pdb_sql_statement_latency_us_count 1"),
            std::string::npos);
  ValidatePrometheusText(text);
}

TEST(MetricsExpositionTest, JsonCarriesCountersAndHistograms) {
  std::string json = GoldenRegistry()->RenderJson();
  EXPECT_NE(json.find("\"pdb_queries_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"weird.name-1\":1"), std::string::npos);
  EXPECT_NE(json.find("\"temp_delta\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"count\":4"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[0,1],[1,1],[3,1],[11,1]]"),
            std::string::npos);
  // Balanced braces/brackets (no string in the payload contains either).
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

TEST(TraceTest, NullTraceSpanIsInert) {
  TraceSpan span(nullptr, TracePhase::kDpll);
  span.SetPhase(TracePhase::kLifted);
  span.AddCounter("decisions", 1);
  span.End();  // must not crash
}

TEST(TraceTest, SpanNestingAndTopLevel) {
  QueryTrace trace;
  {
    TraceSpan outer(&trace, TracePhase::kDpll);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      TraceSpan inner(&trace, TracePhase::kCacheProbe);
      inner.AddCounter("hit", 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    outer.AddCounter("decisions", 42);
  }
  trace.Finish();
  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: outer first.
  EXPECT_EQ(spans[0].phase, TracePhase::kDpll);
  EXPECT_EQ(spans[1].phase, TracePhase::kCacheProbe);
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
  // The nested probe span is excluded from the top-level breakdown.
  EXPECT_EQ(trace.TopLevelNs(), spans[0].duration_ns);
  EXPECT_EQ(trace.PhaseNs(TracePhase::kCacheProbe), spans[1].duration_ns);
  EXPECT_GT(trace.PhaseNs(TracePhase::kDpll),
            trace.PhaseNs(TracePhase::kCacheProbe));
  EXPECT_GE(trace.total_ns(), trace.TopLevelNs());

  std::string text = trace.ToString();
  EXPECT_NE(text.find("dpll"), std::string::npos);
  EXPECT_NE(text.find("cache_probe"), std::string::npos);
  EXPECT_NE(text.find("decisions=42"), std::string::npos);
}

TEST(TraceTest, FinishIsIdempotent) {
  QueryTrace trace;
  trace.Finish();
  uint64_t t1 = trace.total_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  trace.Finish();
  EXPECT_EQ(trace.total_ns(), t1);
}

TEST(TraceTest, PhaseNamesAreStable) {
  EXPECT_STREQ(TracePhaseName(TracePhase::kParse), "parse");
  EXPECT_STREQ(TracePhaseName(TracePhase::kSafetyCheck), "safety_check");
  EXPECT_STREQ(TracePhaseName(TracePhase::kMonteCarlo), "monte_carlo");
}

TEST(TraceTest, PhaseNamesRoundTrip) {
  for (size_t i = 0; i < kNumTracePhases; ++i) {
    TracePhase phase = static_cast<TracePhase>(i);
    TracePhase parsed;
    ASSERT_TRUE(TracePhaseFromName(TracePhaseName(phase), &parsed));
    EXPECT_EQ(parsed, phase);
  }
  TracePhase unused;
  EXPECT_FALSE(TracePhaseFromName("nonsense", &unused));
  EXPECT_FALSE(TracePhaseFromName("", &unused));
}

TEST(TraceJsonTest, RoundTripPreservesEverySpanAndCounter) {
  QueryTrace trace;
  {
    TraceSpan parse(&trace, TracePhase::kParse);
  }
  {
    TraceSpan dpll(&trace, TracePhase::kDpll);
    dpll.AddCounter("decisions", 12345);
    dpll.AddCounter("cache_hits", 0);
    {
      TraceSpan probe(&trace, TracePhase::kCacheProbe);
      probe.AddCounter("hit", 1);
    }
  }
  trace.Finish();

  std::string json = TraceToJson(trace);
  EXPECT_EQ(json, TraceData::FromTrace(trace).ToJson());
  auto parsed = TraceFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->total_ns, trace.total_ns());
  auto spans = trace.spans();
  ASSERT_EQ(parsed->spans.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed->spans[i].phase, spans[i].phase);
    EXPECT_EQ(parsed->spans[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(parsed->spans[i].duration_ns, spans[i].duration_ns);
    ASSERT_EQ(parsed->spans[i].counters.size(), spans[i].counters.size());
    for (size_t j = 0; j < spans[i].counters.size(); ++j) {
      EXPECT_EQ(parsed->spans[i].counters[j].name, spans[i].counters[j].name);
      EXPECT_EQ(parsed->spans[i].counters[j].value,
                spans[i].counters[j].value);
    }
  }
  // The re-serialization of the parsed data is byte-identical.
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(TraceJsonTest, EmptyTraceRoundTrips) {
  QueryTrace trace;
  trace.Finish();
  auto parsed = TraceFromJson(TraceToJson(trace));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->spans.empty());
}

TEST(TraceJsonTest, CounterNamesWithSpecialCharactersSurviveEscaping) {
  TraceData data;
  data.total_ns = 7;
  QueryTrace::Span span;
  span.phase = TracePhase::kMonteCarlo;
  span.start_ns = 1;
  span.duration_ns = 2;
  span.counters.push_back({"we\"ird\\name\n", 3});
  data.spans.push_back(span);
  auto parsed = TraceFromJson(data.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->spans.size(), 1u);
  ASSERT_EQ(parsed->spans[0].counters.size(), 1u);
  EXPECT_EQ(parsed->spans[0].counters[0].name, "we\"ird\\name\n");
  EXPECT_EQ(parsed->ToJson(), data.ToJson());
}

TEST(TraceJsonTest, MalformedInputsAreRejected) {
  const char* bad[] = {
      "",
      "{",
      "{}",
      "{\"total_ns\":1}",  // missing spans
      "{\"total_ns\":1,\"spans\":[]} trailing",
      "{\"total_ns\":1,\"spans\":[{\"phase\":\"warp\",\"start_ns\":0,"
      "\"duration_ns\":0,\"counters\":[]}]}",  // unknown phase
      "{\"total_ns\":-1,\"spans\":[]}",        // negative
      "{\"spans\":[],\"total_ns\":1}",         // wrong key order (strict)
  };
  for (const char* json : bad) {
    SCOPED_TRACE(json);
    EXPECT_FALSE(TraceFromJson(json).ok());
  }
  EXPECT_TRUE(TraceFromJson("{\"total_ns\":1,\"spans\":[]}").ok());
}

TEST(TraceJsonTest, LiveQueryTraceRoundTrips) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  QueryOptions traced;
  traced.trace = true;
  auto answer = session.Query(kUnsafeQuery, traced);
  ASSERT_TRUE(answer.ok());
  ASSERT_NE(answer->trace, nullptr);
  auto parsed = TraceFromJson(TraceToJson(*answer->trace));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->spans.size(), answer->trace->spans().size());
  EXPECT_EQ(parsed->ToJson(), TraceToJson(*answer->trace));
}

TEST(TraceTest, TracedSessionQueryCarriesPhases) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});

  QueryOptions untraced;
  auto plain = session.Query(kSafeQuery, untraced);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->trace, nullptr);

  QueryOptions traced;
  traced.trace = true;
  auto safe = session.Query("S(x,y), T(y)", traced);
  ASSERT_TRUE(safe.ok());
  ASSERT_NE(safe->trace, nullptr);
  EXPECT_GT(safe->trace->PhaseNs(TracePhase::kParse), 0u);
  EXPECT_GT(safe->trace->PhaseNs(TracePhase::kCacheProbe), 0u);
  EXPECT_GT(safe->trace->PhaseNs(TracePhase::kLifted), 0u);
  EXPECT_EQ(safe->trace->PhaseNs(TracePhase::kDpll), 0u);

  auto unsafe = session.Query(kUnsafeQuery, traced);
  ASSERT_TRUE(unsafe.ok());
  ASSERT_NE(unsafe->trace, nullptr);
  // The lifted attempt failed Unsupported: it shows up as the safety
  // check, and the work lands in lineage + dpll.
  EXPECT_GT(unsafe->trace->PhaseNs(TracePhase::kSafetyCheck), 0u);
  EXPECT_GT(unsafe->trace->PhaseNs(TracePhase::kLineage), 0u);
  EXPECT_GT(unsafe->trace->PhaseNs(TracePhase::kDpll), 0u);
  EXPECT_EQ(unsafe->trace->PhaseNs(TracePhase::kLifted), 0u);
  // DPLL span carries its decision counter.
  bool saw_decisions = false;
  for (const auto& span : unsafe->trace->spans()) {
    if (span.phase != TracePhase::kDpll) continue;
    for (const auto& c : span.counters) {
      if (c.name == "decisions" && c.value > 0) saw_decisions = true;
    }
  }
  EXPECT_TRUE(saw_decisions);
}

TEST(TraceTest, CacheHitTraceHasProbeButNoExecution) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  QueryOptions traced;
  traced.trace = true;
  ASSERT_TRUE(session.Query(kUnsafeQuery, traced).ok());
  auto hit = session.Query(kUnsafeQuery, traced);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(session.result_cache_hits(), 1u);
  ASSERT_NE(hit->trace, nullptr);
  EXPECT_GT(hit->trace->PhaseNs(TracePhase::kCacheProbe), 0u);
  EXPECT_EQ(hit->trace->PhaseNs(TracePhase::kDpll), 0u);
  bool saw_hit_counter = false;
  for (const auto& span : hit->trace->spans()) {
    if (span.phase != TracePhase::kCacheProbe) continue;
    for (const auto& c : span.counters) {
      if (c.name == "hit" && c.value == 1) saw_hit_counter = true;
    }
  }
  EXPECT_TRUE(saw_hit_counter);
}

TEST(TraceTest, RingBufferKeepsNewestFirstAndEvicts) {
  ProbDatabase pdb(HardDatabase(3));
  SessionOptions opts;
  opts.num_threads = 1;
  opts.trace_ring_size = 2;
  Session session(&pdb, opts);
  QueryOptions traced;
  traced.trace = true;
  auto a1 = session.Query("R(x)", traced);
  auto a2 = session.Query("T(y)", traced);
  auto a3 = session.Query(kSafeQuery, traced);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(a3.ok());

  // Untraced queries never enter the ring.
  ASSERT_TRUE(session.Query("S(x,y), T(y)").ok());

  auto traces = session.recent_traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0], a3->trace);  // newest first
  EXPECT_EQ(traces[1], a2->trace);
  for (const auto& t : traces) EXPECT_GT(t->total_ns(), 0u);
}

TEST(TraceTest, CallerTraceIsRetainedUnfinishedWithEngineSpans) {
  ProbDatabase pdb(HardSqlDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  // `options.trace` is on too: a caller's trace takes precedence over it.
  QueryOptions traced;
  traced.trace = true;
  // The caller's trace lands in the ring holding the engine's spans, and
  // stays open: a span the caller records after the call is part of it.
  auto check = [&](const std::shared_ptr<QueryTrace>& trace, TracePhase front,
                   TracePhase engine) {
    auto ring = session.recent_traces();
    ASSERT_FALSE(ring.empty());
    EXPECT_EQ(ring.front().get(), trace.get());
    EXPECT_GT(trace->PhaseNs(front), 0u);
    EXPECT_GT(trace->PhaseNs(TracePhase::kCacheProbe), 0u);
    EXPECT_GT(trace->PhaseNs(engine), 0u);
    const uint64_t tail_start = trace->NowNs();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const uint64_t tail_ns = trace->NowNs() - tail_start;
    trace->RecordSpan(TracePhase::kHttpRespond, tail_start, tail_ns);
    trace->Finish();
    EXPECT_GE(trace->total_ns(), tail_start + tail_ns);
    EXPECT_GE(trace->TopLevelNs(), tail_ns);
    EXPECT_LE(trace->TopLevelNs(), trace->total_ns());
  };

  auto fo_trace = std::make_shared<QueryTrace>();
  auto fo = session.Query(kUnsafeQuery, traced, fo_trace);
  ASSERT_TRUE(fo.ok()) << fo.status().ToString();
  EXPECT_EQ(fo->trace.get(), fo_trace.get());
  check(fo_trace, TracePhase::kParse, TracePhase::kDpll);

  auto sql_trace = std::make_shared<QueryTrace>();
  auto sql = session.QuerySqlBoolean(
      "SELECT PROB() FROM R, S WHERE R.x = S.x", traced, sql_trace);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql->trace.get(), sql_trace.get());
  check(sql_trace, TracePhase::kCompile, TracePhase::kLifted);

  auto answers_trace = std::make_shared<QueryTrace>();
  auto answers = session.QuerySqlAnswers(
      "SELECT S.y FROM S, T WHERE S.y = T.y", traced, nullptr, answers_trace);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  check(answers_trace, TracePhase::kCompile, TracePhase::kLifted);

  // Without a caller trace, `options.trace` makes the session record a
  // trace of its own and finish it before returning.
  for (bool sql_text : {false, true}) {
    auto own = sql_text ? session.QuerySqlBoolean(
                              "SELECT PROB() FROM S, T WHERE S.y = T.y", traced)
                        : session.Query("S(x,y)", traced);
    ASSERT_TRUE(own.ok()) << own.status().ToString();
    ASSERT_NE(own->trace, nullptr);
    EXPECT_EQ(session.recent_traces().front(), own->trace);
    const uint64_t total = own->trace->total_ns();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(own->trace->total_ns(), total);
  }
}

TEST(TraceTest, TopLevelSpansCoverEndToEndWithinTenPercent) {
  // Acceptance: on a grounded (DPLL-dominated) query, the sum of
  // non-nested span durations accounts for >= 90% of the end-to-end
  // latency, i.e. the trace does not lose the query's time budget in
  // untimed gaps.
  ProbDatabase pdb(HardDatabase(6));
  Session session(&pdb, {.num_threads = 1});
  QueryOptions traced;
  traced.trace = true;
  auto answer = session.Query(kUnsafeQuery, traced);
  ASSERT_TRUE(answer.ok());
  ASSERT_NE(answer->trace, nullptr);
  uint64_t total = answer->trace->total_ns();
  uint64_t top = answer->trace->TopLevelNs();
  ASSERT_GT(total, 0u);
  EXPECT_LE(top, total);
  EXPECT_GE(static_cast<double>(top), 0.9 * static_cast<double>(total))
      << answer->trace->ToString();
}

// ---------------------------------------------------------------------------
// Event log + slow-query log
// ---------------------------------------------------------------------------

TEST(EventLogTest, EmitsJsonLinesWithFields) {
  uint64_t now = 1'000'000;
  EventLogOptions opts;
  opts.clock_us = [&] { return now; };
  EventLog log(opts);
  log.Log(LogLevel::kInfo, "server_start",
          {LogField::Str("host", "127.0.0.1"), LogField::Uint("port", 8080),
           LogField::Double("load", 0.5)});
  auto lines = log.recent();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ts_us\":1000000"), std::string::npos);
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"event\":\"server_start\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"host\":\"127.0.0.1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"port\":8080"), std::string::npos);
  EXPECT_EQ(log.emitted(), 1u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, LevelGateDropsBelowMinimum) {
  EventLogOptions opts;
  opts.min_level = LogLevel::kWarn;
  EventLog log(opts);
  log.Log(LogLevel::kDebug, "noise");
  log.Log(LogLevel::kInfo, "chatter");
  log.Log(LogLevel::kWarn, "trouble");
  log.Log(LogLevel::kError, "fire");
  auto lines = log.recent();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("trouble"), std::string::npos);
  EXPECT_NE(lines[1].find("fire"), std::string::npos);
}

TEST(EventLogTest, RateLimiterRefillsWithInjectedClock) {
  uint64_t now = 0;
  EventLogOptions opts;
  opts.max_events_per_sec = 2;
  opts.clock_us = [&] { return now; };
  EventLog log(opts);
  log.Log(LogLevel::kInfo, "a");
  log.Log(LogLevel::kInfo, "b");
  log.Log(LogLevel::kInfo, "c");  // bucket empty: suppressed
  EXPECT_EQ(log.emitted(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  now += 1'000'000;  // one second refills the bucket
  log.Log(LogLevel::kInfo, "d");
  EXPECT_EQ(log.emitted(), 3u);
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(EventLogTest, RingEvictsOldestFirst) {
  EventLogOptions opts;
  opts.ring_size = 2;
  opts.max_events_per_sec = 0;  // unlimited
  EventLog log(opts);
  log.Log(LogLevel::kInfo, "one");
  log.Log(LogLevel::kInfo, "two");
  log.Log(LogLevel::kInfo, "three");
  auto lines = log.recent();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("two"), std::string::npos);
  EXPECT_NE(lines[1].find("three"), std::string::npos);
  EXPECT_EQ(log.emitted(), 3u);
}

TEST(EventLogTest, AppendsToFileSink) {
  std::string path =
      ::testing::TempDir() + "/event_log_test_" +
      std::to_string(static_cast<uint64_t>(::getpid())) + ".jsonl";
  std::remove(path.c_str());
  {
    EventLogOptions opts;
    opts.file_path = path;
    EventLog log(opts);
    ASSERT_TRUE(log.file_error().ok()) << log.file_error().ToString();
    log.Log(LogLevel::kInfo, "first");
    log.Log(LogLevel::kWarn, "second");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\":\"first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"second\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(SlowQueryLogTest, EntryJsonRoundTrips) {
  QueryTrace trace;
  trace.RecordSpan(TracePhase::kDpll, 10, 20, {{"decisions", 3}});
  trace.Finish();

  SlowQueryEntry entry;
  entry.ts_us = 1722000000000000ull;
  entry.latency_us = 52'417;
  entry.client = "tenant-\"7\"";
  entry.method = "grounded-exact";
  entry.statement = "SELECT PROB() FROM R, S WHERE R.x = S.x";
  entry.trace_json = TraceToJson(trace);

  std::string json = SlowQueryEntryToJson(entry);
  auto parsed = SlowQueryEntryFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ts_us, entry.ts_us);
  EXPECT_EQ(parsed->latency_us, entry.latency_us);
  EXPECT_EQ(parsed->client, entry.client);
  EXPECT_EQ(parsed->method, entry.method);
  EXPECT_EQ(parsed->statement, entry.statement);
  EXPECT_EQ(parsed->trace_json, entry.trace_json);
  EXPECT_EQ(parsed->explain_json, "");
  // Re-serialization is byte-identical.
  EXPECT_EQ(SlowQueryEntryToJson(*parsed), json);
}

TEST(SlowQueryLogTest, MalformedEntriesAreRejected) {
  const char* bad[] = {
      "",
      "{",
      "{}",
      "{\"ts_us\":1}",
      "{\"ts_us\":1,\"latency_us\":2,\"client\":\"\",\"method\":\"\","
      "\"statement\":\"q\",\"trace\":{\"bogus\":1},\"explain\":null}",
      "{\"ts_us\":-1,\"latency_us\":2,\"client\":\"\",\"method\":\"\","
      "\"statement\":\"q\",\"trace\":null,\"explain\":null}",
  };
  for (const char* json : bad) {
    SCOPED_TRACE(json);
    EXPECT_FALSE(SlowQueryEntryFromJson(json).ok());
  }
}

TEST(SlowQueryLogTest, ThresholdGateAndRingBound) {
  EventLog sink;
  SlowQueryLog::Options opts;
  opts.threshold_us = 1000;
  opts.ring_size = 2;
  opts.sink = &sink;
  SlowQueryLog log(opts);

  SlowQueryEntry fast;
  fast.latency_us = 999;
  fast.statement = "fast";
  EXPECT_FALSE(log.MaybeRecord(fast));
  EXPECT_EQ(log.total_captured(), 0u);
  EXPECT_TRUE(sink.recent().empty());

  for (uint64_t i = 0; i < 3; ++i) {
    SlowQueryEntry slow;
    slow.latency_us = 1000 + i;
    slow.statement = "slow-" + std::to_string(i);
    EXPECT_TRUE(log.MaybeRecord(slow));
  }
  EXPECT_EQ(log.total_captured(), 3u);
  auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);  // ring bound
  EXPECT_EQ(entries[0].statement, "slow-2");  // newest first
  EXPECT_EQ(entries[1].statement, "slow-1");

  // Captured entries mirror to the sink as warn-level slow_query events.
  auto mirrored = sink.recent();
  ASSERT_EQ(mirrored.size(), 3u);
  EXPECT_NE(mirrored[0].find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(mirrored[0].find("\"event\":\"slow_query\""), std::string::npos);
  EXPECT_NE(mirrored[0].find("slow-0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Session integration: tickers vs CumulativeReport, overlays, answers API
// ---------------------------------------------------------------------------

TEST(SessionMetricsTest, TickersMatchCumulativeReportAfterMixedWorkload) {
  ProbDatabase pdb(HardDatabase(4));
  Session session(&pdb, {.num_threads = 2});

  QueryOptions exact;
  exact.exec.num_threads = 2;
  ASSERT_TRUE(session.Query(kSafeQuery, exact).ok());  // lifted

  // Sampled before the exact run: once the exact run populates the shared
  // WMC cache, even a 1-decision budget resolves this query exactly.
  QueryOptions sampled;
  sampled.prefer_lifted = false;
  sampled.max_dpll_decisions = 1;  // force the Monte Carlo fallback
  sampled.monte_carlo_samples = 20000;
  auto mc = session.Query(kUnsafeQuery, sampled);
  ASSERT_TRUE(mc.ok());
  ASSERT_EQ(mc->method, InferenceMethod::kMonteCarlo);

  ASSERT_TRUE(session.Query(kUnsafeQuery, exact).ok());  // grounded DPLL
  ASSERT_TRUE(session.Query(kUnsafeQuery, exact).ok());  // cache hit

  ConjunctiveQuery cq({Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("T", {Term::Var("y")})});
  ASSERT_TRUE(session.QueryWithAnswers(cq, {"x"}, exact).ok());

  ExecReport report = session.CumulativeReport();
  MetricsSnapshot snap = session.SnapshotMetrics();
  auto counter = [&](const char* name) { return snap.counters.at(name); };

  // Every counter that mirrors a CumulativeReport field must agree with it
  // exactly: both sides are folded from the same per-query ExecReports
  // under the session lock.
  EXPECT_EQ(counter("pdb_exec_tasks_total"), report.tasks_run);
  EXPECT_EQ(counter("pdb_mc_samples_total"), report.samples_drawn);
  EXPECT_EQ(counter("pdb_mc_batches_total"), report.mc_batches);
  EXPECT_EQ(counter("pdb_dpll_decisions_total"), report.dpll_decisions);
  EXPECT_EQ(counter("pdb_dpll_cache_hits_total"), report.cache_hits);
  EXPECT_EQ(counter("pdb_dpll_component_splits_total"),
            report.dpll_component_splits);
  EXPECT_EQ(counter("pdb_wmc_shared_hits_total"), report.wmc_shared_hits);
  EXPECT_EQ(counter("pdb_wmc_shared_misses_total"), report.wmc_shared_misses);
  EXPECT_EQ(counter("pdb_wmc_shared_inserts_total"),
            report.wmc_shared_inserts);
  EXPECT_EQ(counter("pdb_wmc_shared_evictions_total"),
            report.wmc_shared_evictions);
  EXPECT_EQ(counter("pdb_lineage_matches_total"), report.lineage_matches);
  EXPECT_EQ(counter("pdb_lineage_nodes_total"), report.lineage_nodes);
  EXPECT_EQ(counter("pdb_index_builds_total"), report.index_builds);
  EXPECT_EQ(counter("pdb_index_cache_hits_total"), report.index_cache_hits);
  // Shed accounting: pdb_shed_total covers BOTH shed flavors — parallel
  // tasks the saturated pool degraded to inline execution and server-side
  // admission drops — while pdb_admission_rejected_total counts only the
  // latter. The invariant must hold exactly, like every other ticker.
  EXPECT_EQ(counter("pdb_shed_total"),
            report.shed_tasks + report.admission_rejected);
  EXPECT_EQ(counter("pdb_admission_rejected_total"),
            report.admission_rejected);
  // The QueryWithAnswers candidate sweep grounds through the compiled
  // engine and the exact queries ground FO lineage, so the lineage
  // counters must have moved.
  EXPECT_GT(report.lineage_matches, 0u);
  EXPECT_GT(report.lineage_nodes, 0u);
  EXPECT_EQ(snap.gauges.at("pdb_wmc_shared_bytes"),
            static_cast<int64_t>(report.wmc_shared_bytes));

  // Lifecycle tickers.
  EXPECT_EQ(counter("pdb_queries_total"), session.queries_served());
  EXPECT_EQ(counter("pdb_query_errors_total"), 0u);
  EXPECT_GE(counter("pdb_result_cache_hits_total"), 1u);
  EXPECT_GE(counter("pdb_queries_lifted_total"), 1u);
  EXPECT_GE(counter("pdb_queries_grounded_exact_total"), 1u);
  EXPECT_GE(counter("pdb_queries_monte_carlo_total"), 1u);
  EXPECT_EQ(snap.histograms.at("pdb_query_latency_us").count,
            session.queries_served());
  EXPECT_EQ(snap.gauges.at("pdb_result_cache_entries"),
            static_cast<int64_t>(session.cache_size()));

  // Level gauges: a live session exports itself, and with the workload done
  // nothing is in flight.
  EXPECT_EQ(snap.gauges.at("pdb_sessions_active"), 1);
  EXPECT_EQ(snap.gauges.at("pdb_requests_in_flight"), 0);
  EXPECT_EQ(session.requests_in_flight(), 0);

  // Parse errors tick pdb_query_errors_total.
  EXPECT_FALSE(session.Query("R(x").ok());
  EXPECT_EQ(session.SnapshotMetrics().counters.at("pdb_query_errors_total"),
            1u);
}

TEST(SessionMetricsTest, FreshSessionExportsEveryTicker) {
  // The golden file renders a hand-built registry; this pins the names a
  // live session registers, so a renamed or dropped ticker fails here.
  ProbDatabase pdb(HardDatabase(2));
  Session session(&pdb, {.num_threads = 1});
  MetricsSnapshot snap = session.SnapshotMetrics();
  auto names = [](const auto& metrics) {
    std::vector<std::string> out;
    for (const auto& [name, value] : metrics) out.push_back(name);
    return out;
  };
  EXPECT_EQ(names(snap.counters),
            (std::vector<std::string>{
                "pdb_admission_rejected_total",
                "pdb_deadline_exceeded_total",
                "pdb_dpll_cache_hits_total",
                "pdb_dpll_component_splits_total",
                "pdb_dpll_decisions_total",
                "pdb_exec_tasks_total",
                "pdb_index_builds_total",
                "pdb_index_cache_hits_total",
                "pdb_lineage_matches_total",
                "pdb_lineage_nodes_total",
                "pdb_mc_batches_total",
                "pdb_mc_samples_total",
                "pdb_queries_cancelled_total",
                "pdb_queries_grounded_exact_total",
                "pdb_queries_lifted_total",
                "pdb_queries_monte_carlo_total",
                "pdb_queries_plan_bounds_total",
                "pdb_queries_total",
                "pdb_query_errors_total",
                "pdb_result_cache_evictions_total",
                "pdb_result_cache_hits_total",
                "pdb_result_cache_misses_total",
                "pdb_shed_total",
                "pdb_wmc_shared_evictions_total",
                "pdb_wmc_shared_hits_total",
                "pdb_wmc_shared_inserts_total",
                "pdb_wmc_shared_misses_total",
            }));
  EXPECT_EQ(names(snap.gauges),
            (std::vector<std::string>{
                "pdb_index_cache_entries",
                "pdb_requests_in_flight",
                "pdb_result_cache_entries",
                "pdb_sessions_active",
                "pdb_wmc_shared_bytes",
                "pdb_wmc_shared_entries",
            }));
  EXPECT_EQ(names(snap.histograms),
            (std::vector<std::string>{
                "pdb_query_latency_us",
                "pdb_sql_statement_latency_us",
            }));
}

TEST(SessionMetricsTest, FailedQueryWithAnswersCountsLikeEveryFailure) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  QueryOptions traced;
  traced.trace = true;
  struct Counts {
    uint64_t queries, errors, served, latency_samples;
    size_t traces;
  };
  auto counts = [&] {
    MetricsSnapshot snap = session.SnapshotMetrics();
    return Counts{snap.counters.at("pdb_queries_total"),
                  snap.counters.at("pdb_query_errors_total"),
                  session.queries_served(),
                  snap.histograms.at("pdb_query_latency_us").count,
                  session.recent_traces().size()};
  };
  auto expect_one_more_failure = [&](const Counts& before) {
    Counts after = counts();
    EXPECT_EQ(after.queries, before.queries + 1);
    EXPECT_EQ(after.errors, before.errors + 1);
    EXPECT_EQ(after.served, before.served + 1);
    EXPECT_EQ(after.latency_samples, before.latency_samples + 1);
    EXPECT_EQ(after.traces, before.traces + 1);
  };

  // The reference: a statement that dies in the parser.
  Counts before = counts();
  EXPECT_FALSE(session.Query("R(x", traced).ok());
  expect_one_more_failure(before);

  struct Failing {
    ConjunctiveQuery cq;
    std::vector<std::string> head_vars;
  };
  const Failing failing[] = {
      // Head variable absent from the query.
      {ConjunctiveQuery({Atom("R", {Term::Var("x")})}), {"zzz"}},
      // Relation absent from the database.
      {ConjunctiveQuery({Atom("Q", {Term::Var("x")})}), {"x"}},
      // Binary atom over the unary R.
      {ConjunctiveQuery({Atom("R", {Term::Var("x"), Term::Var("y")})}),
       {"x"}},
  };
  for (const Failing& f : failing) {
    before = counts();
    EXPECT_FALSE(session.QueryWithAnswers(f.cq, f.head_vars, traced).ok())
        << f.cq.ToString();
    expect_one_more_failure(before);
  }
}

TEST(SessionMetricsTest, NoteAdmissionRejectedFoldsIntoReportAndTickers) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  ASSERT_TRUE(session.Query(kSafeQuery).ok());
  session.NoteAdmissionRejected();
  session.NoteAdmissionRejected();
  session.NoteAdmissionRejected();

  ExecReport report = session.CumulativeReport();
  EXPECT_EQ(report.admission_rejected, 3u);
  MetricsSnapshot snap = session.SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("pdb_admission_rejected_total"), 3u);
  // Admission drops are load shed, so they count into pdb_shed_total too.
  EXPECT_EQ(snap.counters.at("pdb_shed_total"),
            report.shed_tasks + report.admission_rejected);
  // A shed request is not a served query.
  EXPECT_EQ(snap.counters.at("pdb_queries_total"), 1u);
  std::string text = report.ToString();
  EXPECT_NE(text.find("3 admission rejections"), std::string::npos);
}

TEST(MetricsTest, SnapshotMergeFromAddsAndKeepsDisjointMetrics) {
  MetricsRegistry a;
  a.GetCounter("pdb_queries_total")->Add(3);
  a.GetCounter("only_a_total")->Add(1);
  a.GetGauge("pdb_sessions_active")->Set(1);
  a.GetHistogram("lat")->Record(4);
  a.GetHistogram("lat")->Record(1024);

  MetricsRegistry b;
  b.GetCounter("pdb_queries_total")->Add(5);
  b.GetCounter("only_b_total")->Add(2);
  b.GetGauge("pdb_sessions_active")->Set(1);
  b.GetHistogram("lat")->Record(5);

  MetricsSnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  EXPECT_EQ(merged.counters.at("pdb_queries_total"), 8u);
  EXPECT_EQ(merged.counters.at("only_a_total"), 1u);
  EXPECT_EQ(merged.counters.at("only_b_total"), 2u);
  // Summing per-session "am I alive" gauges counts the pooled sessions.
  EXPECT_EQ(merged.gauges.at("pdb_sessions_active"), 2);
  const HistogramSnapshot& lat = merged.histograms.at("lat");
  EXPECT_EQ(lat.count, 3u);
  EXPECT_EQ(lat.sum, 4u + 1024 + 5);
  EXPECT_EQ(lat.buckets[3], 2u);   // 4 and 5 share bucket 3
  EXPECT_EQ(lat.buckets[11], 1u);  // 1024
}

TEST(SessionMetricsTest, ExecReportToStringShowsSharedCacheLines) {
  ExecReport report;
  report.num_threads = 2;
  report.wmc_shared_inserts = 3;
  report.wmc_shared_evictions = 2;
  report.wmc_shared_bytes = 4096;
  std::string text = report.ToString();
  EXPECT_NE(text.find("3 shared WMC inserts"), std::string::npos);
  EXPECT_NE(text.find("2 shared WMC evictions"), std::string::npos);
  EXPECT_NE(text.find("4096 shared WMC bytes"), std::string::npos);
  ExecReport zero;
  EXPECT_EQ(zero.ToString().find("shared WMC"), std::string::npos);
}

TEST(SessionMetricsTest, AnswerInfoSurfacesMethodAndStdError) {
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  // Each answer z's lineage is R(z) conjoined with the whole H0 lineage,
  // which mentions R(z) too and needs Shannon expansions past the first.
  ConjunctiveQuery cq({Atom("R", {Term::Var("z")}),
                       Atom("R", {Term::Var("x")}),
                       Atom("S", {Term::Var("x"), Term::Var("y")}),
                       Atom("T", {Term::Var("y")})});

  QueryOptions sampled;
  sampled.prefer_lifted = false;
  sampled.max_dpll_decisions = 1;  // force sampling per tuple
  sampled.monte_carlo_samples = 5000;
  std::vector<AnswerTupleInfo> info;
  auto rows = session.QueryWithAnswers(cq, {"z"}, sampled, &info);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(info.size(), rows->size());
  ASSERT_GT(info.size(), 0u);
  for (const auto& i : info) {
    EXPECT_EQ(i.method, InferenceMethod::kMonteCarlo);
    EXPECT_FALSE(i.exact);
    EXPECT_GT(i.std_error, 0.0);
    EXPECT_FALSE(i.explanation.empty());
  }

  QueryOptions exact;
  std::vector<AnswerTupleInfo> exact_info;
  ASSERT_TRUE(session.QueryWithAnswers(cq, {"z"}, exact, &exact_info).ok());
  ASSERT_EQ(exact_info.size(), info.size());
  for (const auto& i : exact_info) {
    EXPECT_TRUE(i.exact);
    EXPECT_EQ(i.std_error, 0.0);
  }
}

TEST(SessionMetricsTest, SqlWithStderrDrivesAdaptiveSampling) {
  ProbDatabase pdb(HardSqlDatabase(4));
  Session session(&pdb, {.num_threads = 1});
  QueryOptions options;
  options.prefer_lifted = false;
  options.max_dpll_decisions = 1;  // force the Monte Carlo fallback
  options.monte_carlo_samples = 1u << 22;  // cap, not the stop rule
  auto answer = session.QuerySqlBoolean(
      "SELECT PROB() FROM R, S, T WHERE R.x = S.x AND S.y = T.y "
      "WITH STDERR 0.02",
      options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->method, InferenceMethod::kMonteCarlo);
  EXPECT_FALSE(answer->exact);
  EXPECT_GT(answer->std_error, 0.0);
  EXPECT_LE(answer->std_error, 0.02);
  // The adaptive estimator stops early: far fewer samples than the cap.
  EXPECT_LT(answer->report.samples_drawn, uint64_t{1} << 22);
  EXPECT_GT(answer->report.mc_batches, 0u);
}

TEST(SessionMetricsTest, TracedSqlStatementHasCompileSpan) {
  ProbDatabase pdb(HardSqlDatabase(3));
  Session session(&pdb, {.num_threads = 1});
  QueryOptions traced;
  traced.trace = true;
  auto answer = session.QuerySqlBoolean(
      "SELECT PROB() FROM R, S WHERE R.x = S.x", traced);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_NE(answer->trace, nullptr);
  EXPECT_GT(answer->trace->PhaseNs(TracePhase::kCompile), 0u);
  EXPECT_GT(answer->trace->PhaseNs(TracePhase::kLifted), 0u);
  auto snap = session.SnapshotMetrics();
  EXPECT_EQ(snap.histograms.at("pdb_sql_statement_latency_us").count, 1u);
}

TEST(SessionMetricsTest, ScrapersRaceQueriesCleanly) {
  // Queries, scrapes, and trace reads from concurrent threads; run under
  // TSan in CI.
  ProbDatabase pdb(HardDatabase(3));
  Session session(&pdb, {.num_threads = 2});
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string text = session.MetricsText();
      EXPECT_NE(text.find("pdb_queries_total"), std::string::npos);
      (void)session.MetricsJson();
      (void)session.recent_traces();
      (void)session.CumulativeReport();
    }
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&session, t] {
      QueryOptions options;
      options.trace = (t % 2 == 0);
      options.exec.num_threads = 2;
      for (int i = 0; i < 8; ++i) {
        auto answer = session.Query(i % 2 == 0 ? kSafeQuery : kUnsafeQuery,
                                    options);
        EXPECT_TRUE(answer.ok());
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(session.SnapshotMetrics().counters.at("pdb_queries_total"),
            session.queries_served());
}

}  // namespace
}  // namespace pdb
