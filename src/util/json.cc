#include "json.hh"

namespace sierra::util {

namespace {

/** A byte appendJsonEscaped copies as-is. */
bool
plainJsonByte(unsigned char c)
{
    return c >= 0x20 && c != '"' && c != '\\';
}

} // namespace

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    const char *p = s.data();
    const char *end = p + s.size();
    while (p != end) {
        // Copy the run that needs no escaping in one step.
        const char *run = p;
        while (p != end && plainJsonByte(static_cast<unsigned char>(*p)))
            ++p;
        out.append(run, static_cast<size_t>(p - run));
        if (p == end)
            break;
        const unsigned char c = static_cast<unsigned char>(*p++);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
            static const char *hex = "0123456789abcdef";
            out += "\\u00";
            out += hex[(c >> 4) & 0xf];
            out += hex[c & 0xf];
          }
        }
    }
}

size_t
jsonEscapedSize(std::string_view s)
{
    size_t n = s.size();
    for (unsigned char c : s) {
        if (!plainJsonByte(c))
            n += c == '"' || c == '\\' || c == '\n' || c == '\t' ||
                         c == '\r'
                     ? 1
                     : 5;
    }
    return n;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

} // namespace sierra::util
