/**
 * @file
 * JSON string escaping, shared by every JSON writer (the CLI's
 * `--json` output, the trace file and the serve protocol).
 *
 * `"` and `\` are backslash-escaped, `\n`, `\t` and `\r` get their
 * short escapes, every other byte below 0x20 becomes `\u00xx`
 * (lower-case hex), and all other bytes are copied as-is, so UTF-8
 * text passes through unchanged.
 */

#ifndef SIERRA_UTIL_JSON_HH
#define SIERRA_UTIL_JSON_HH

#include <cstddef>
#include <string>
#include <string_view>

namespace sierra::util {

/** Append `s` escaped as the body of a JSON string (no quotes). */
void appendJsonEscaped(std::string &out, std::string_view s);

/** The number of bytes appendJsonEscaped appends for `s`. */
size_t jsonEscapedSize(std::string_view s);

/** `s` escaped as the body of a JSON string (no quotes). */
std::string jsonEscape(std::string_view s);

} // namespace sierra::util

#endif // SIERRA_UTIL_JSON_HH
