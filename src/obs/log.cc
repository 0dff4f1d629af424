#include "obs/log.h"

#include <cctype>
#include <chrono>
#include <cstdlib>

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

namespace {

/// Strict reader for exactly the shape SlowQueryEntryToJson emits, in the
/// same style as the trace reader: fixed key order, uint64 numbers, the
/// escapes our writer can produce. The embedded "trace"/"explain" values
/// are captured as balanced-brace raw substrings (strings and escapes
/// respected) so they survive a round trip byte-identically.
class SlowQueryJsonReader {
 public:
  explicit SlowQueryJsonReader(const std::string& text) : text_(text) {}

  Result<SlowQueryEntry> Read() {
    SlowQueryEntry entry;
    PDB_RETURN_NOT_OK(Expect('{'));
    PDB_RETURN_NOT_OK(Key("ts_us"));
    PDB_RETURN_NOT_OK(ReadUint(&entry.ts_us));
    PDB_RETURN_NOT_OK(Expect(','));
    PDB_RETURN_NOT_OK(Key("latency_us"));
    PDB_RETURN_NOT_OK(ReadUint(&entry.latency_us));
    PDB_RETURN_NOT_OK(Expect(','));
    PDB_RETURN_NOT_OK(Key("client"));
    PDB_RETURN_NOT_OK(ReadString(&entry.client));
    PDB_RETURN_NOT_OK(Expect(','));
    PDB_RETURN_NOT_OK(Key("method"));
    PDB_RETURN_NOT_OK(ReadString(&entry.method));
    PDB_RETURN_NOT_OK(Expect(','));
    PDB_RETURN_NOT_OK(Key("statement"));
    PDB_RETURN_NOT_OK(ReadString(&entry.statement));
    PDB_RETURN_NOT_OK(Expect(','));
    PDB_RETURN_NOT_OK(Key("trace"));
    PDB_RETURN_NOT_OK(ReadObjectOrNull(&entry.trace_json));
    if (!entry.trace_json.empty()) {
      // The trace payload must itself be a valid trace document.
      auto parsed = TraceFromJson(entry.trace_json);
      if (!parsed.ok()) return parsed.status();
    }
    PDB_RETURN_NOT_OK(Expect(','));
    PDB_RETURN_NOT_OK(Key("explain"));
    PDB_RETURN_NOT_OK(ReadObjectOrNull(&entry.explain_json));
    PDB_RETURN_NOT_OK(Expect('}'));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing bytes after slowlog JSON");
    }
    return entry;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::InvalidArgument(
          StrFormat("slowlog JSON: expected '%c' at offset %zu", c, pos_));
    }
    ++pos_;
    return Status::OK();
  }

  Status Key(const char* name) {
    std::string got;
    PDB_RETURN_NOT_OK(ReadString(&got));
    if (got != name) {
      return Status::InvalidArgument(
          StrFormat("slowlog JSON: expected key \"%s\", got \"%s\"", name,
                    got.c_str()));
    }
    return Expect(':');
  }

  Status ReadString(std::string* out) {
    PDB_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      if (esc == '"' || esc == '\\') {
        out->push_back(esc);
      } else if (esc == 'u') {
        if (pos_ + 4 > text_.size()) {
          return Status::InvalidArgument("slowlog JSON: truncated \\u escape");
        }
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          char h = text_[pos_++];
          unsigned digit;
          if (h >= '0' && h <= '9') {
            digit = static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            digit = static_cast<unsigned>(h - 'a') + 10;
          } else if (h >= 'A' && h <= 'F') {
            digit = static_cast<unsigned>(h - 'A') + 10;
          } else {
            return Status::InvalidArgument("slowlog JSON: bad \\u escape");
          }
          code = code * 16 + digit;
        }
        out->push_back(static_cast<char>(code));
      } else {
        return Status::InvalidArgument("slowlog JSON: unsupported escape");
      }
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("slowlog JSON: unterminated string");
    }
    ++pos_;  // closing quote
    return Status::OK();
  }

  Status ReadUint(uint64_t* out) {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument(
          StrFormat("slowlog JSON: expected integer at offset %zu", start));
    }
    *out = std::strtoull(text_.substr(start, pos_ - start).c_str(), nullptr,
                         10);
    return Status::OK();
  }

  /// Captures a balanced `{...}` object verbatim into `*out`, or consumes
  /// the literal `null` leaving `*out` empty.
  Status ReadObjectOrNull(std::string* out) {
    SkipSpace();
    out->clear();
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Status::OK();
    }
    if (pos_ >= text_.size() || text_[pos_] != '{') {
      return Status::InvalidArgument(StrFormat(
          "slowlog JSON: expected object or null at offset %zu", pos_));
    }
    size_t start = pos_;
    size_t depth = 0;
    bool in_string = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (in_string) {
        if (c == '\\') {
          if (pos_ >= text_.size()) break;
          ++pos_;  // the escaped byte, whatever it is
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) {
          *out = text_.substr(start, pos_ - start);
          return Status::OK();
        }
      }
    }
    return Status::InvalidArgument("slowlog JSON: unterminated object");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<SlowQueryEntry> SlowQueryEntryFromJson(const std::string& json) {
  return SlowQueryJsonReader(json).Read();
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
