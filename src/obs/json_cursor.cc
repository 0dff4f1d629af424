#include "obs/json_cursor.h"

#include <cctype>
#include <cstdlib>

#include "util/string_util.h"

namespace pdb {

void JsonCursor::SkipSpace() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

Status JsonCursor::Expect(char c) {
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != c) {
    return Status::InvalidArgument(
        StrFormat("%s: expected '%c' at offset %zu", format_, c, pos_));
  }
  ++pos_;
  return Status::OK();
}

bool JsonCursor::TryConsume(char c) {
  SkipSpace();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

Status JsonCursor::Key(const char* name) {
  std::string got;
  PDB_RETURN_NOT_OK(ReadString(&got));
  if (got != name) {
    return Status::InvalidArgument(
        StrFormat("%s: expected key \"%s\", got \"%s\"", format_, name,
                  got.c_str()));
  }
  return Expect(':');
}

Status JsonCursor::ReadString(std::string* out) {
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
        return Status::InvalidArgument(
            StrFormat("%s: truncated \\u escape", format_));
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
          return Status::InvalidArgument(
              StrFormat("%s: bad \\u escape", format_));
        }
        code = code * 16 + digit;
      }
      // The writers only emit \u for control bytes.
      out->push_back(static_cast<char>(code));
    } else {
      return Status::InvalidArgument(
          StrFormat("%s: unsupported escape", format_));
    }
  }
  if (pos_ >= text_.size()) {
    return Status::InvalidArgument(
        StrFormat("%s: unterminated string", format_));
  }
  ++pos_;  // closing quote
  return Status::OK();
}

Status JsonCursor::ReadUint(uint64_t* out) {
  SkipSpace();
  size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
    ++pos_;
  }
  if (pos_ == start) {
    return Status::InvalidArgument(
        StrFormat("%s: expected integer at offset %zu", format_, start));
  }
  *out =
      std::strtoull(text_.substr(start, pos_ - start).c_str(), nullptr, 10);
  return Status::OK();
}

Status JsonCursor::ReadObjectOrNull(std::string* out) {
  SkipSpace();
  out->clear();
  if (text_.compare(pos_, 4, "null") == 0) {
    pos_ += 4;
    return Status::OK();
  }
  if (pos_ >= text_.size() || text_[pos_] != '{') {
    return Status::InvalidArgument(StrFormat(
        "%s: expected object or null at offset %zu", format_, pos_));
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
  return Status::InvalidArgument(
      StrFormat("%s: unterminated object", format_));
}

Status JsonCursor::ExpectEnd() {
  SkipSpace();
  if (pos_ != text_.size()) {
    return Status::InvalidArgument(
        StrFormat("trailing bytes after %s", format_));
  }
  return Status::OK();
}

}  // namespace pdb
