/**
 * @file
 * Minimal JSON values for the daemon's jsonl wire protocol
 * (docs/DAEMON_PROTOCOL.md). Self-contained on purpose: the daemon
 * must not grow a dependency for a protocol this small, and a
 * hand-rolled writer keeps the byte-level output canonical (object
 * keys in insertion order, no whitespace, integers only) -- the
 * protocol doc's examples are compared byte-for-byte by
 * protocol_examples_test.
 */

#ifndef SIERRA_SERVE_PROTOCOL_HH
#define SIERRA_SERVE_PROTOCOL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sierra::serve {

/** One JSON value (number = int64: the protocol never needs reals). */
class Json
{
  public:
    enum class Kind { Null, Bool, Int, Str, Array, Object };

    Json() = default;

    static Json null() { return Json(); }
    static Json boolean(bool b);
    static Json integer(int64_t v);
    static Json str(std::string s);
    static Json array();
    static Json object();

    Kind kind() const { return _kind; }
    bool isObject() const { return _kind == Kind::Object; }

    bool asBool() const { return _bool; }
    int64_t asInt() const { return _int; }
    const std::string &asStr() const { return _str; }
    const std::vector<Json> &items() const { return _items; }

    /** Object field by key; null if absent or not an object. */
    const Json *field(const std::string &key) const;

    /** Object insert (keeps insertion order -- serialization order). */
    void set(const std::string &key, Json value);
    /** Array append. */
    void push(Json value);

    /** Canonical one-line serialization (no spaces, "\uXXXX" only for
     *  control characters). */
    std::string dump() const;

    /** Deepest array/object nesting parse() accepts; deeper input is
     *  an error, so hostile input cannot exhaust the stack. */
    static constexpr int kMaxNesting = 64;

    /** Parse one JSON document; null Kind + false on error. Integers
     *  outside int64 and nesting beyond kMaxNesting are errors. */
    static bool parse(const std::string &text, Json &out,
                      std::string &error);

  private:
    void dumpTo(std::string &out) const;
    /** The length dumpTo appends. */
    size_t dumpSize() const;

    Kind _kind{Kind::Null};
    bool _bool{false};
    int64_t _int{0};
    std::string _str;
    std::vector<Json> _items;                          //!< array
    std::vector<std::pair<std::string, Json>> _fields; //!< object
};

} // namespace sierra::serve

#endif // SIERRA_SERVE_PROTOCOL_HH
