/**
 * @file
 * Interned AIR names: every class, field, method and string-constant
 * name of a module is stored once, in the module's NameTable, and the
 * IR refers to it through a one-pointer Name handle.
 *
 * A handle carries what name-keyed code needs without touching the
 * bytes again: the text, a 64-bit hash of the bytes computed once at
 * intern time (the store keys and hash maps read it), and a dense id
 * within the owning table (the module's class and method lookups index
 * by it). Handles compare by bytes, with a pointer fast path, so two
 * handles from different modules -- or a handle and a string -- compare
 * the way their text does.
 *
 * Lifetime and writers: a handle is valid as long as the table that
 * interned it, i.e. its module. A table only grows; entries never move,
 * so handles stay valid across later interns. Interning is not
 * thread-safe: the parser, the builder, the framework model and the
 * harness generator intern before the harness fan-out, and the
 * harness tasks only read (docs/INTERNALS.md section 13).
 */

#ifndef SIERRA_AIR_NAME_HH
#define SIERRA_AIR_NAME_HH

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/flat_map.hh"

namespace sierra::air {

class NameTable;

/**
 * The 64-bit hash of a name's bytes: 8-byte little-endian words, each
 * mixed with one multiply-xorshift step, then a final avalanche. A
 * pure function of the bytes (the on-disk store keys derive from it),
 * whatever the host's byte order.
 */
constexpr uint64_t
hashNameBytes(std::string_view bytes)
{
    constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
    uint64_t h = 0x2d358dccaa6c78a5ull ^ (bytes.size() * kMul);
    // The little-endian word of bytes [i, i + n), n <= 8.
    auto word = [&](size_t i, size_t n) {
        uint64_t w = 0;
        if (std::is_constant_evaluated()) {
            for (size_t j = 0; j < n; ++j)
                w |= uint64_t(static_cast<unsigned char>(bytes[i + j]))
                     << (8 * j);
            return w;
        }
        std::memcpy(&w, bytes.data() + i, n);
        if constexpr (std::endian::native == std::endian::big)
            w = __builtin_bswap64(w) >> (8 * (8 - n));
        return w;
    };
    auto step = [&](uint64_t w) {
        h = (h ^ w) * kMul;
        h ^= h >> 29;
    };
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8)
        step(word(i, 8));
    if (i < bytes.size())
        step(word(i, bytes.size() - i));
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ull;
    h ^= h >> 32;
    return h;
}

/** One interned name. Owned by a NameTable; never moves. */
struct NameEntry {
    std::string text;
    uint64_t hash{0};
    uint32_t id{0};
    const NameTable *table{nullptr};
};

/**
 * A handle to an interned name. The default handle is the empty name,
 * which belongs to no table. Handles are made only by a NameTable.
 */
class Name
{
  public:
    static constexpr uint32_t kNoId = 0xffffffffu;

    Name() : _e(&kEmpty) {}

    const std::string &str() const { return _e->text; }
    operator const std::string &() const { return _e->text; }
    std::string_view view() const { return _e->text; }
    size_t size() const { return _e->text.size(); }
    bool empty() const { return _e->text.empty(); }

    /** hashNameBytes(str()), computed once when the name was
     *  interned. */
    uint64_t hash() const { return _e->hash; }
    /** Dense id in the owning table; kNoId for the empty name. */
    uint32_t id() const { return _e->id; }
    /** The owning table; null for the empty name. */
    const NameTable *table() const { return _e->table; }

    friend bool
    operator==(Name a, Name b)
    {
        if (a._e == b._e)
            return true;
        // One table never holds the same bytes twice.
        if (a._e->table == b._e->table)
            return false;
        return a._e->hash == b._e->hash && a._e->text == b._e->text;
    }
    friend bool operator==(Name a, std::string_view b)
    {
        return a.view() == b;
    }
    friend bool operator==(Name a, const char *b)
    {
        return a.view() == b;
    }
    friend std::strong_ordering
    operator<=>(Name a, Name b)
    {
        if (a._e == b._e)
            return std::strong_ordering::equal;
        return a.view() <=> b.view();
    }
    friend std::strong_ordering
    operator<=>(Name a, std::string_view b)
    {
        return a.view() <=> b;
    }
    friend std::strong_ordering
    operator<=>(Name a, const char *b)
    {
        return a.view() <=> std::string_view(b);
    }

  private:
    friend class NameTable;
    explicit Name(const NameEntry *e) : _e(e) {}

    static const NameEntry kEmpty;
    const NameEntry *_e;
};

inline std::ostream &
operator<<(std::ostream &os, Name n)
{
    return os << n.str();
}

// Concatenation reads a handle as its text.
inline std::string
operator+(const std::string &a, Name b)
{
    return a + b.str();
}
inline std::string
operator+(std::string &&a, Name b)
{
    return std::move(a) + b.str();
}
inline std::string
operator+(const char *a, Name b)
{
    return a + b.str();
}
inline std::string
operator+(Name a, const std::string &b)
{
    return a.str() + b;
}
inline std::string
operator+(Name a, const char *b)
{
    return a.str() + b;
}
inline std::string
operator+(Name a, char b)
{
    return a.str() + b;
}

/** `a.str() + "." + b.str()`, the printed form of a member reference. */
std::string dotted(Name a, Name b);

/**
 * The names of one module: an append-only table of NameEntry, indexed
 * by the cached hash. Ids are dense, in first-intern order.
 */
class NameTable
{
  public:
    NameTable() = default;
    NameTable(const NameTable &) = delete;
    NameTable &operator=(const NameTable &) = delete;

    /** The handle of `s`, interning it on first sight. The empty
     *  string gives the empty handle. */
    Name intern(std::string_view s);
    /** This table's handle for the bytes of `n` (n itself when this
     *  table owns it). */
    Name intern(Name n);

    /** The id of `s` in this table, or Name::kNoId. */
    uint32_t idOf(std::string_view s) const;
    /** The id of the bytes of `n` in this table, or Name::kNoId: no
     *  probe when this table owns `n`. */
    uint32_t
    idOf(Name n) const
    {
        return n.table() == this ? n.id() : find(n.view(), n.hash());
    }

    /** The handle of id `id` (< size()). */
    Name
    at(uint32_t id) const
    {
        return Name(&_chunks[id >> kChunkBits][id & kChunkMask]);
    }

    size_t size() const { return _size; }

  private:
    static constexpr uint32_t kChunkBits = 8;
    static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;

    uint32_t find(std::string_view s, uint64_t hash) const;
    Name add(std::string_view s, uint64_t hash);

    std::vector<std::unique_ptr<NameEntry[]>> _chunks;
    util::IdIndex _index;
    uint32_t _size{0};
};

/**
 * The source registers of one instruction: a view of ints in the
 * owning module's arena (Module::regs), so an instruction owns no heap
 * memory.
 */
class RegList
{
  public:
    RegList() = default;
    RegList(const int *data, uint32_t size) : _data(data), _size(size) {}

    const int *begin() const { return _data; }
    const int *end() const { return _data + _size; }
    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    int operator[](size_t i) const { return _data[i]; }

  private:
    const int *_data{nullptr};
    uint32_t _size{0};
};

} // namespace sierra::air

template <>
struct std::hash<sierra::air::Name> {
    size_t operator()(sierra::air::Name n) const { return n.hash(); }
};

#endif // SIERRA_AIR_NAME_HH
