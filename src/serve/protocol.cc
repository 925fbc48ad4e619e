#include "protocol.hh"

#include <cctype>
#include <charconv>

#include "util/json.hh"

namespace sierra::serve {

Json
Json::boolean(bool b)
{
    Json j;
    j._kind = Kind::Bool;
    j._bool = b;
    return j;
}

Json
Json::integer(int64_t v)
{
    Json j;
    j._kind = Kind::Int;
    j._int = v;
    return j;
}

Json
Json::str(std::string s)
{
    Json j;
    j._kind = Kind::Str;
    j._str = std::move(s);
    return j;
}

Json
Json::array()
{
    Json j;
    j._kind = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j._kind = Kind::Object;
    return j;
}

const Json *
Json::field(const std::string &key) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : _fields) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

void
Json::set(const std::string &key, Json value)
{
    for (auto &[k, v] : _fields) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    _fields.emplace_back(key, std::move(value));
}

void
Json::push(Json value)
{
    _items.push_back(std::move(value));
}

namespace {

/** The length dumpString appends for `s`. */
size_t
dumpedStringSize(const std::string &s)
{
    return util::jsonEscapedSize(s) + 2;
}

void
dumpString(std::string &out, const std::string &s)
{
    out += '"';
    util::appendJsonEscaped(out, s);
    out += '"';
}

} // namespace

void
Json::dumpTo(std::string &out) const
{
    switch (_kind) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += _bool ? "true" : "false";
        break;
      case Kind::Int:
        out += std::to_string(_int);
        break;
      case Kind::Str:
        dumpString(out, _str);
        break;
      case Kind::Array: {
        out += '[';
        bool first = true;
        for (const Json &item : _items) {
            if (!first)
                out += ',';
            first = false;
            item.dumpTo(out);
        }
        out += ']';
        break;
      }
      case Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, value] : _fields) {
            if (!first)
                out += ',';
            first = false;
            dumpString(out, key);
            out += ':';
            value.dumpTo(out);
        }
        out += '}';
        break;
      }
    }
}

size_t
Json::dumpSize() const
{
    switch (_kind) {
      case Kind::Null: return 4;
      case Kind::Bool: return _bool ? 4 : 5;
      case Kind::Int: {
        char buf[24];
        return static_cast<size_t>(
            std::to_chars(buf, buf + sizeof(buf), _int).ptr - buf);
      }
      case Kind::Str: return dumpedStringSize(_str);
      case Kind::Array: {
        size_t n = 2 + (_items.empty() ? 0 : _items.size() - 1);
        for (const Json &item : _items)
            n += item.dumpSize();
        return n;
      }
      case Kind::Object: {
        size_t n = 2 + (_fields.empty() ? 0 : _fields.size() - 1);
        for (const auto &[key, value] : _fields)
            n += dumpedStringSize(key) + 1 + value.dumpSize();
        return n;
      }
    }
    return 0;
}

std::string
Json::dump() const
{
    // Sized first, so the text is written into one exact allocation.
    std::string out;
    out.reserve(dumpSize());
    dumpTo(out);
    return out;
}

// -- parsing ----------------------------------------------------------

namespace {

struct Parser {
    const std::string &text;
    size_t pos{0};
    std::string error;
    int depth{0}; //!< arrays/objects open around the current value

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    bool
    parseValue(Json &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{' || c == '[') {
            if (depth == Json::kMaxNesting)
                return fail("nesting deeper than " +
                            std::to_string(Json::kMaxNesting));
            ++depth;
            bool ok = c == '{' ? parseObject(out) : parseArray(out);
            --depth;
            return ok;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json::str(std::move(s));
            return true;
        }
        if (c == 't' || c == 'f')
            return parseBool(out);
        if (c == 'n') {
            if (text.compare(pos, 4, "null") == 0) {
                pos += 4;
                out = Json::null();
                return true;
            }
            return fail("bad literal");
        }
        return parseNumber(out);
    }

    bool
    parseObject(Json &out)
    {
        ++pos; // '{'
        out = Json::object();
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            Json value;
            if (!parseValue(value))
                return false;
            out.set(key, std::move(value));
            skipWs();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Json &out)
    {
        ++pos; // '['
        out = Json::array();
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            Json value;
            if (!parseValue(value))
                return false;
            out.push(std::move(value));
            skipWs();
            if (pos >= text.size())
                return fail("unterminated array");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size()) {
            // Copy the run up to the next quote or escape in one step.
            size_t run = pos;
            while (run < text.size() && text[run] != '"' &&
                   text[run] != '\\')
                ++run;
            if (run == text.size())
                break;
            if (out.empty() && text[run] == '"') {
                out.assign(text, pos, run - pos);
                pos = run + 1;
                return true;
            }
            out.append(text, pos, run - pos);
            pos = run;
            char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                ++pos;
                if (pos >= text.size())
                    return fail("bad escape");
                char e = text[pos];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos + 4 >= text.size())
                        return fail("bad \\u escape");
                    int code = 0;
                    for (int i = 1; i <= 4; ++i) {
                        char h = text[pos + static_cast<size_t>(i)];
                        int digit;
                        if (h >= '0' && h <= '9')
                            digit = h - '0';
                        else if (h >= 'a' && h <= 'f')
                            digit = h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            digit = h - 'A' + 10;
                        else
                            return fail("bad \\u escape");
                        code = (code << 4) | digit;
                    }
                    pos += 4;
                    // The protocol is ASCII; encode BMP code points as
                    // UTF-8 so round-trips are lossless anyway.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f));
                        out +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
                ++pos;
                continue;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseBool(Json &out)
    {
        if (text.compare(pos, 4, "true") == 0) {
            pos += 4;
            out = Json::boolean(true);
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
            out = Json::boolean(false);
            return true;
        }
        return fail("bad literal");
    }

    bool
    parseNumber(Json &out)
    {
        size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            ++pos;
        if (pos == start ||
            (text[start] == '-' && pos == start + 1))
            return fail("bad number");
        // Reject reals explicitly: the protocol is integer-only.
        if (pos < text.size() &&
            (text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E'))
            return fail("non-integer number");
        int64_t v = 0;
        if (std::from_chars(text.data() + start, text.data() + pos, v)
                .ec != std::errc()) {
            pos = start;
            return fail("integer out of range");
        }
        out = Json::integer(v);
        return true;
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string &error)
{
    Parser p{text, 0, {}};
    if (!p.parseValue(out)) {
        error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        error = "trailing content at offset " + std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace sierra::serve
