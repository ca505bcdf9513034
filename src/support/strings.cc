#include "support/strings.h"

#include <cstdarg>
#include <cstdio>

namespace flexos {
namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

}  // namespace

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && IsSpace(text[begin])) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && IsSpace(text[end - 1])) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> SplitString(std::string_view text, char sep) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      pieces.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::vector<std::string_view> SplitAndTrim(std::string_view text, char sep) {
  std::vector<std::string_view> pieces;
  for (std::string_view piece : SplitString(text, sep)) {
    std::string_view trimmed = TrimWhitespace(piece);
    if (!trimmed.empty()) {
      pieces.push_back(trimmed);
    }
  }
  return pieces;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::optional<uint64_t> ParseU64(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return std::nullopt;  // Overflow.
    }
    value = value * 10 + digit;
  }
  return value;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += pieces[i];
  }
  return out;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  va_end(args_copy);
  return out;
}

}  // namespace flexos
