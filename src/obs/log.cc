#include "obs/log.h"

#include <chrono>

#include "obs/json_cursor.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace pdb {

namespace {

uint64_t WallClockUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "?";
}

LogField LogField::Str(std::string name, std::string_view value) {
  return {std::move(name), "\"" + JsonEscape(value) + "\""};
}

LogField LogField::Uint(std::string name, uint64_t value) {
  return {std::move(name),
          StrFormat("%llu", static_cast<unsigned long long>(value))};
}

LogField LogField::Double(std::string name, double value) {
  return {std::move(name), StrFormat("%.17g", value)};
}

LogField LogField::Raw(std::string name, std::string json) {
  return {std::move(name), std::move(json)};
}

EventLog::EventLog(EventLogOptions options)
    : options_(std::move(options)),
      tokens_(static_cast<double>(options_.max_events_per_sec)) {
  last_refill_us_ = NowUs();
  if (!options_.file_path.empty()) {
    file_ = std::fopen(options_.file_path.c_str(), "a");
    if (file_ == nullptr) {
      file_error_ =
          Status::IoError("cannot open log file: " + options_.file_path);
    }
  }
}

EventLog::~EventLog() {
  if (file_ != nullptr) std::fclose(file_);
}

uint64_t EventLog::NowUs() const {
  return options_.clock_us ? options_.clock_us() : WallClockUs();
}

void EventLog::Log(LogLevel level, std::string_view event,
                   std::vector<LogField> fields) {
  if (level < options_.min_level) return;
  const uint64_t now_us = NowUs();

  std::string line =
      StrFormat("{\"ts_us\":%llu,\"level\":\"%s\",\"event\":\"%s\"",
                static_cast<unsigned long long>(now_us), LogLevelName(level),
                JsonEscape(event).c_str());
  for (const LogField& field : fields) {
    line += StrFormat(",\"%s\":%s", JsonEscape(field.name).c_str(),
                      field.value.c_str());
  }
  line += "}";

  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_events_per_sec > 0) {
    // Token bucket: refill at max_events_per_sec with one second of burst.
    const double rate = static_cast<double>(options_.max_events_per_sec);
    if (now_us > last_refill_us_) {
      tokens_ += rate * static_cast<double>(now_us - last_refill_us_) / 1e6;
      if (tokens_ > rate) tokens_ = rate;
      last_refill_us_ = now_us;
    }
    if (tokens_ < 1.0) {
      ++dropped_;
      return;
    }
    tokens_ -= 1.0;
  }
  ++emitted_;
  ring_.push_back(line);
  while (ring_.size() > options_.ring_size) ring_.pop_front();
  if (file_ != nullptr) {
    line += "\n";
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fflush(file_);
  }
}

std::vector<std::string> EventLog::recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

uint64_t EventLog::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

std::string SlowQueryEntryToJson(const SlowQueryEntry& entry) {
  return StrFormat(
      "{\"ts_us\":%llu,\"latency_us\":%llu,\"client\":\"%s\","
      "\"method\":\"%s\",\"statement\":\"%s\",\"trace\":%s,\"explain\":%s}",
      static_cast<unsigned long long>(entry.ts_us),
      static_cast<unsigned long long>(entry.latency_us),
      JsonEscape(entry.client).c_str(), JsonEscape(entry.method).c_str(),
      JsonEscape(entry.statement).c_str(),
      entry.trace_json.empty() ? "null" : entry.trace_json.c_str(),
      entry.explain_json.empty() ? "null" : entry.explain_json.c_str());
}

// Reads exactly the shape SlowQueryEntryToJson emits (obs/json_cursor.h).
// The embedded "trace"/"explain" values are captured as raw substrings, so
// they survive a round trip byte-identically.
Result<SlowQueryEntry> SlowQueryEntryFromJson(const std::string& json) {
  JsonCursor in(json, "slowlog JSON");
  SlowQueryEntry entry;
  PDB_RETURN_NOT_OK(in.Expect('{'));
  PDB_RETURN_NOT_OK(in.Key("ts_us"));
  PDB_RETURN_NOT_OK(in.ReadUint(&entry.ts_us));
  PDB_RETURN_NOT_OK(in.Expect(','));
  PDB_RETURN_NOT_OK(in.Key("latency_us"));
  PDB_RETURN_NOT_OK(in.ReadUint(&entry.latency_us));
  PDB_RETURN_NOT_OK(in.Expect(','));
  PDB_RETURN_NOT_OK(in.Key("client"));
  PDB_RETURN_NOT_OK(in.ReadString(&entry.client));
  PDB_RETURN_NOT_OK(in.Expect(','));
  PDB_RETURN_NOT_OK(in.Key("method"));
  PDB_RETURN_NOT_OK(in.ReadString(&entry.method));
  PDB_RETURN_NOT_OK(in.Expect(','));
  PDB_RETURN_NOT_OK(in.Key("statement"));
  PDB_RETURN_NOT_OK(in.ReadString(&entry.statement));
  PDB_RETURN_NOT_OK(in.Expect(','));
  PDB_RETURN_NOT_OK(in.Key("trace"));
  PDB_RETURN_NOT_OK(in.ReadObjectOrNull(&entry.trace_json));
  if (!entry.trace_json.empty()) {
    // The trace payload must itself be a valid trace document.
    auto parsed = TraceFromJson(entry.trace_json);
    if (!parsed.ok()) return parsed.status();
  }
  PDB_RETURN_NOT_OK(in.Expect(','));
  PDB_RETURN_NOT_OK(in.Key("explain"));
  PDB_RETURN_NOT_OK(in.ReadObjectOrNull(&entry.explain_json));
  PDB_RETURN_NOT_OK(in.Expect('}'));
  PDB_RETURN_NOT_OK(in.ExpectEnd());
  return entry;
}

bool SlowQueryLog::MaybeRecord(SlowQueryEntry entry) {
  if (entry.latency_us < options_.threshold_us) return false;
  if (options_.sink != nullptr) {
    std::vector<LogField> fields;
    fields.push_back(LogField::Uint("latency_us", entry.latency_us));
    fields.push_back(LogField::Str("client", entry.client));
    fields.push_back(LogField::Str("method", entry.method));
    fields.push_back(LogField::Str("statement", entry.statement));
    if (!entry.trace_json.empty()) {
      fields.push_back(LogField::Raw("trace", entry.trace_json));
    }
    if (!entry.explain_json.empty()) {
      fields.push_back(LogField::Raw("explain", entry.explain_json));
    }
    options_.sink->Log(LogLevel::kWarn, "slow_query", std::move(fields));
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  ring_.push_front(std::move(entry));
  while (ring_.size() > options_.ring_size) ring_.pop_back();
  return true;
}

std::vector<SlowQueryEntry> SlowQueryLog::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

uint64_t SlowQueryLog::total_captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

}  // namespace pdb
