#include "common/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace archis {

namespace {

std::string Quoted(std::string_view text) {
  constexpr size_t kMax = 64;
  std::string out = "'";
  out.append(text.substr(0, kMax));
  if (text.size() > kMax) out += "...";
  out += "'";
  return out;
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view text) {
  if (text.empty()) {
    return Status::ParseError("empty string is not an integer");
  }
  // strtoll needs NUL termination; string_views are often substrings.
  const std::string buf(text);
  // strtoll skips leading whitespace; reject it up front so the accepted
  // grammar is exactly [-+]?digits.
  if (std::isspace(static_cast<unsigned char>(buf[0])) != 0) {
    return Status::ParseError("not an integer: " + Quoted(text));
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || end == buf.c_str()) {
    return Status::ParseError("not an integer: " + Quoted(text));
  }
  if (errno == ERANGE) {
    return Status::ParseError("integer out of range: " + Quoted(text));
  }
  return static_cast<int64_t>(v);
}

Result<int64_t> ParseInt64InRange(std::string_view text, int64_t min,
                                  int64_t max) {
  ARCHIS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
  if (v < min || v > max) {
    return Status::ParseError(Quoted(text) + " is outside [" +
                              std::to_string(min) + ", " +
                              std::to_string(max) + "]");
  }
  return v;
}

Result<double> ParseDouble(std::string_view text) {
  if (text.empty()) {
    return Status::ParseError("empty string is not a number");
  }
  const std::string buf(text);
  if (std::isspace(static_cast<unsigned char>(buf[0])) != 0) {
    return Status::ParseError("not a number: " + Quoted(text));
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || end == buf.c_str()) {
    return Status::ParseError("not a number: " + Quoted(text));
  }
  // ERANGE covers both overflow (HUGE_VAL) and underflow-to-denormal;
  // only overflow loses information worth failing on.
  if (errno == ERANGE && std::abs(v) == HUGE_VAL) {
    return Status::ParseError("number out of range: " + Quoted(text));
  }
  // strtod accepts "inf"/"nan" spellings; neither is a usable value for
  // any caller here (column data, env thresholds, wire payloads).
  if (!std::isfinite(v)) {
    return Status::ParseError("not a finite number: " + Quoted(text));
  }
  return v;
}

}  // namespace archis
