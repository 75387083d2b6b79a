// Strict numeric parsing for untrusted text.
//
// The strtoll/strtod idiom scattered through early call sites had two
// real bugs: the `end == begin + size` check holds trivially for the
// empty string (so "" parsed as 0), and errno was never inspected (so
// "99999999999999999999999" silently clamped to LLONG_MAX). These
// helpers are the one sanctioned entry point: they reject empty input,
// leading/trailing garbage and out-of-range values, and every ingest or
// configuration surface (XML import, env vars, the network protocol, the
// tools' numeric command-line flags) parses through them.
#ifndef ARCHIS_COMMON_PARSE_H_
#define ARCHIS_COMMON_PARSE_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace archis {

/// Parses `text` as a base-10 signed 64-bit integer. The whole string
/// must be the number (optional leading '-'/'+', then digits); empty
/// input, surrounding whitespace, trailing garbage and values outside
/// [INT64_MIN, INT64_MAX] all fail with ParseError.
Result<int64_t> ParseInt64(std::string_view text);

/// ParseInt64, then a range check: values outside [min, max] fail with
/// ParseError naming the range (a numeric flag's accepted values).
Result<int64_t> ParseInt64InRange(std::string_view text, int64_t min,
                                  int64_t max);

/// Parses `text` as a finite double. The whole string must be the
/// number; empty input, surrounding whitespace, trailing garbage,
/// "inf"/"nan" spellings and values that overflow a double all fail
/// with ParseError.
Result<double> ParseDouble(std::string_view text);

}  // namespace archis

#endif  // ARCHIS_COMMON_PARSE_H_
