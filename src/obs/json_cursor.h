/// \file json_cursor.h
/// \brief The strict reading cursor shared by the observability codecs.
///
/// `TraceFromJson` (obs/trace.cc) and `SlowQueryEntryFromJson`
/// (obs/log.cc) read back exactly the documents their writers emit: fixed
/// key order, unsigned integer numbers, and only the string escapes the
/// writers produce. This is not a general JSON parser. Every error message
/// starts with the name of the format being read.

#ifndef PDB_OBS_JSON_CURSOR_H_
#define PDB_OBS_JSON_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace pdb {

class JsonCursor {
 public:
  /// Reads `text`, which must outlive the cursor. `format` prefixes every
  /// error message, e.g. "trace JSON".
  JsonCursor(const std::string& text, const char* format)
      : text_(text), format_(format) {}

  /// Consumes `c`, after any whitespace.
  Status Expect(char c);
  /// Consumes `c` when it comes next, after any whitespace; returns whether
  /// it did.
  bool TryConsume(char c);
  /// Consumes `"name":`.
  Status Key(const char* name);
  Status ReadString(std::string* out);
  Status ReadUint(uint64_t* out);
  /// Captures a balanced `{...}` object verbatim into `*out` (strings and
  /// escapes respected), or consumes the literal `null` leaving `*out`
  /// empty.
  Status ReadObjectOrNull(std::string* out);
  /// Fails unless only whitespace remains.
  Status ExpectEnd();

 private:
  void SkipSpace();

  const std::string& text_;
  const char* format_;
  size_t pos_ = 0;
};

}  // namespace pdb

#endif  // PDB_OBS_JSON_CURSOR_H_
