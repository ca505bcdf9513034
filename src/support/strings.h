// Small string helpers used by the metadata parser and protocol code.
#ifndef FLEXOS_SUPPORT_STRINGS_H_
#define FLEXOS_SUPPORT_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace flexos {

// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view text);

// Splits on `sep`; empty pieces are kept. Split("a,,b", ',') = {"a","","b"}.
std::vector<std::string_view> SplitString(std::string_view text, char sep);

// Splits and trims each piece, dropping pieces that become empty.
std::vector<std::string_view> SplitAndTrim(std::string_view text, char sep);

bool StartsWith(std::string_view text, std::string_view prefix);

// Parses a base-10 unsigned integer; rejects trailing garbage.
std::optional<uint64_t> ParseU64(std::string_view text);

// Joins pieces with `sep`.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace flexos

#endif  // FLEXOS_SUPPORT_STRINGS_H_
