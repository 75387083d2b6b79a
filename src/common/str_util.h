// Small string helpers shared across modules.
#ifndef ARCHIS_COMMON_STR_UTIL_H_
#define ARCHIS_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace archis {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// Whether `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Whether `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// Lower-cases ASCII characters.
std::string ToLower(std::string_view text);

/// Escapes XML special characters (& < > " ') for text/attribute content.
std::string XmlEscape(std::string_view text);

/// Reverses XmlEscape for the five standard entities.
std::string XmlUnescape(std::string_view text);

/// Renders a number as XQuery results carry it: integral values as
/// integers ("42", "-7"), others with six decimals ("52345.500000"). The
/// native evaluator and the SQL/XML executor both render through this, so
/// an aggregate answers with the same bytes on either path.
std::string FormatNumber(double n);

}  // namespace archis

#endif  // ARCHIS_COMMON_STR_UTIL_H_
