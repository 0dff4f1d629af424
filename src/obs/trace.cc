#include "obs/trace.h"

#include <algorithm>

#include "obs/json_cursor.h"
#include "util/string_util.h"

namespace pdb {

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kParse:
      return "parse";
    case TracePhase::kSafetyCheck:
      return "safety_check";
    case TracePhase::kLifted:
      return "lifted";
    case TracePhase::kLineage:
      return "lineage";
    case TracePhase::kCompile:
      return "compile";
    case TracePhase::kDpll:
      return "dpll";
    case TracePhase::kMonteCarlo:
      return "monte_carlo";
    case TracePhase::kCacheProbe:
      return "cache_probe";
    case TracePhase::kWalAppend:
      return "wal_append";
    case TracePhase::kWalSync:
      return "wal_sync";
    case TracePhase::kCheckpoint:
      return "checkpoint";
    case TracePhase::kRecovery:
      return "recovery";
    case TracePhase::kAdmissionWait:
      return "admission_wait";
    case TracePhase::kHttpParse:
      return "http_parse";
    case TracePhase::kHttpRespond:
      return "http_respond";
  }
  return "?";
}

bool TracePhaseFromName(std::string_view name, TracePhase* phase) {
  for (size_t i = 0; i < kNumTracePhases; ++i) {
    TracePhase candidate = static_cast<TracePhase>(i);
    if (name == TracePhaseName(candidate)) {
      *phase = candidate;
      return true;
    }
  }
  return false;
}

void QueryTrace::Finish() {
  uint64_t now = SinceEpochNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  total_ns_ = now;
}

uint64_t QueryTrace::total_ns() const {
  uint64_t now = SinceEpochNs();
  std::lock_guard<std::mutex> lock(mu_);
  return finished_ ? total_ns_ : now;
}

void QueryTrace::AddSpan(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void QueryTrace::RecordSpan(TracePhase phase, uint64_t start_ns,
                            uint64_t duration_ns,
                            std::vector<SpanCounter> counters) {
  Span span;
  span.phase = phase;
  span.start_ns = start_ns;
  span.duration_ns = duration_ns;
  span.counters = std::move(counters);
  AddSpan(std::move(span));
}

std::vector<QueryTrace::Span> QueryTrace::spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    // Longer span first on equal starts, so a parent precedes the children
    // it immediately encloses.
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.duration_ns > b.duration_ns;
  });
  return out;
}

uint64_t QueryTrace::PhaseNs(TracePhase phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const Span& span : spans_) {
    if (span.phase == phase) total += span.duration_ns;
  }
  return total;
}

namespace {

/// True when `inner` lies strictly inside `outer` (a recorded sub-phase —
/// e.g. an inner per-tuple query's DPLL span inside the fan-out window).
bool Contains(const QueryTrace::Span& outer, const QueryTrace::Span& inner) {
  if (&outer == &inner) return false;
  uint64_t outer_end = outer.start_ns + outer.duration_ns;
  uint64_t inner_end = inner.start_ns + inner.duration_ns;
  if (inner.start_ns < outer.start_ns || inner_end > outer_end) return false;
  // Identical intervals (zero-width or exact ties) count as not nested.
  return !(inner.start_ns == outer.start_ns && inner_end == outer_end);
}

}  // namespace

uint64_t QueryTrace::TopLevelNs() const {
  std::vector<Span> sorted = spans();
  uint64_t total = 0;
  for (const Span& span : sorted) {
    bool nested = false;
    for (const Span& other : sorted) {
      if (Contains(other, span)) {
        nested = true;
        break;
      }
    }
    if (!nested) total += span.duration_ns;
  }
  return total;
}

std::string QueryTrace::ToString() const {
  std::vector<Span> sorted = spans();
  std::string out = StrFormat("query trace: %.3fms total\n",
                              static_cast<double>(total_ns()) / 1e6);
  for (size_t i = 0; i < sorted.size(); ++i) {
    size_t depth = 0;
    for (const Span& other : sorted) {
      if (Contains(other, sorted[i])) ++depth;
    }
    std::string indent(2 * (depth + 1), ' ');
    out += StrFormat("%s%-13s %9.3fms", indent.c_str(),
                     TracePhaseName(sorted[i].phase),
                     static_cast<double>(sorted[i].duration_ns) / 1e6);
    if (!sorted[i].counters.empty()) {
      out += "  (";
      for (size_t c = 0; c < sorted[i].counters.size(); ++c) {
        out += StrFormat("%s%s=%llu", c == 0 ? "" : ", ",
                         sorted[i].counters[c].name.c_str(),
                         static_cast<unsigned long long>(
                             sorted[i].counters[c].value));
      }
      out += ")";
    }
    out += "\n";
  }
  return out;
}

TraceData TraceData::FromTrace(const QueryTrace& trace) {
  TraceData data;
  data.total_ns = trace.total_ns();
  data.spans = trace.spans();
  return data;
}

std::string TraceData::ToJson() const {
  std::string out = StrFormat("{\"total_ns\":%llu,\"spans\":[",
                              static_cast<unsigned long long>(total_ns));
  for (size_t i = 0; i < spans.size(); ++i) {
    const QueryTrace::Span& span = spans[i];
    out += StrFormat(
        "%s{\"phase\":\"%s\",\"start_ns\":%llu,\"duration_ns\":%llu,"
        "\"counters\":[",
        i == 0 ? "" : ",", TracePhaseName(span.phase),
        static_cast<unsigned long long>(span.start_ns),
        static_cast<unsigned long long>(span.duration_ns));
    for (size_t c = 0; c < span.counters.size(); ++c) {
      out += StrFormat(
          "%s{\"name\":\"%s\",\"value\":%llu}", c == 0 ? "" : ",",
          JsonEscape(span.counters[c].name).c_str(),
          static_cast<unsigned long long>(span.counters[c].value));
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string TraceToJson(const QueryTrace& trace) {
  return TraceData::FromTrace(trace).ToJson();
}

namespace {

Status ReadSpan(JsonCursor* in, QueryTrace::Span* span) {
  PDB_RETURN_NOT_OK(in->Expect('{'));
  PDB_RETURN_NOT_OK(in->Key("phase"));
  std::string phase;
  PDB_RETURN_NOT_OK(in->ReadString(&phase));
  if (!TracePhaseFromName(phase, &span->phase)) {
    return Status::InvalidArgument("unknown trace phase '" + phase + "'");
  }
  PDB_RETURN_NOT_OK(in->Expect(','));
  PDB_RETURN_NOT_OK(in->Key("start_ns"));
  PDB_RETURN_NOT_OK(in->ReadUint(&span->start_ns));
  PDB_RETURN_NOT_OK(in->Expect(','));
  PDB_RETURN_NOT_OK(in->Key("duration_ns"));
  PDB_RETURN_NOT_OK(in->ReadUint(&span->duration_ns));
  PDB_RETURN_NOT_OK(in->Expect(','));
  PDB_RETURN_NOT_OK(in->Key("counters"));
  PDB_RETURN_NOT_OK(in->Expect('['));
  if (!in->TryConsume(']')) {
    do {
      QueryTrace::SpanCounter counter;
      PDB_RETURN_NOT_OK(in->Expect('{'));
      PDB_RETURN_NOT_OK(in->Key("name"));
      PDB_RETURN_NOT_OK(in->ReadString(&counter.name));
      PDB_RETURN_NOT_OK(in->Expect(','));
      PDB_RETURN_NOT_OK(in->Key("value"));
      PDB_RETURN_NOT_OK(in->ReadUint(&counter.value));
      PDB_RETURN_NOT_OK(in->Expect('}'));
      span->counters.push_back(std::move(counter));
    } while (in->TryConsume(','));
    PDB_RETURN_NOT_OK(in->Expect(']'));
  }
  return in->Expect('}');
}

}  // namespace

// Reads exactly the object shape ToJson emits (obs/json_cursor.h).
Result<TraceData> TraceFromJson(const std::string& json) {
  JsonCursor in(json, "trace JSON");
  TraceData data;
  PDB_RETURN_NOT_OK(in.Expect('{'));
  PDB_RETURN_NOT_OK(in.Key("total_ns"));
  PDB_RETURN_NOT_OK(in.ReadUint(&data.total_ns));
  PDB_RETURN_NOT_OK(in.Expect(','));
  PDB_RETURN_NOT_OK(in.Key("spans"));
  PDB_RETURN_NOT_OK(in.Expect('['));
  if (!in.TryConsume(']')) {
    do {
      QueryTrace::Span span;
      PDB_RETURN_NOT_OK(ReadSpan(&in, &span));
      data.spans.push_back(std::move(span));
    } while (in.TryConsume(','));
    PDB_RETURN_NOT_OK(in.Expect(']'));
  }
  PDB_RETURN_NOT_OK(in.Expect('}'));
  PDB_RETURN_NOT_OK(in.ExpectEnd());
  return data;
}

}  // namespace pdb
