/// \file string_util.h
/// \brief Small string helpers shared across modules (splitting, joining,
/// printf-style formatting into std::string, JSON string escaping).

#ifndef PDB_UTIL_STRING_UTIL_H_
#define PDB_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace pdb {

/// Splits `text` on `sep`. Keeps empty fields; "a,,b" -> {"a","","b"}.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Escapes `text` for the inside of a JSON string literal: a quote or
/// backslash gets a backslash, a byte below 0x20 becomes `\u00XX`, and every
/// other byte (UTF-8 sequences included) passes through unchanged.
std::string JsonEscape(std::string_view text);

}  // namespace pdb

#endif  // PDB_UTIL_STRING_UTIL_H_
