/**
 * @file
 * JSON string-literal escaping, shared by every JSON writer in the
 * tree (suite reports, plans, traces, daemon responses, store CLI).
 */

#ifndef SIGCOMP_COMMON_JSON_H_
#define SIGCOMP_COMMON_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace sigcomp
{

/**
 * @p s as a JSON string literal: quoted, with '"' and '\\' escaped
 * and every control byte written as \u00XX, so the result is valid
 * JSON for any input bytes and loses none of them.
 */
inline std::string
jsonString(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        const auto byte = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (byte < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x", byte);
            out += esc;
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

} // namespace sigcomp

#endif // SIGCOMP_COMMON_JSON_H_
