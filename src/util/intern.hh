/**
 * @file
 * Deterministic string interning: dense u32 ids for field keys, method
 * names, static keys, and action labels.
 *
 * Ids are assigned in first-intern order, so an interner populated by a
 * deterministic serial phase (the points-to solver, access extraction)
 * yields the same id for the same string on every run and at every
 * --jobs count. Ids of different interners are unrelated, so consumers
 * that compare across interners (report dedup keys) round-trip through
 * name(). An interner is not thread-safe: each one is owned by a single
 * harness task.
 */

#ifndef SIERRA_UTIL_INTERN_HH
#define SIERRA_UTIL_INTERN_HH

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace sierra::util {

/** Dense id for an interned string. */
using InternId = uint32_t;

class StringInterner
{
  public:
    static constexpr InternId kInvalid = 0xffffffffu;

    StringInterner() = default;
    StringInterner(const StringInterner &) = delete;
    StringInterner &operator=(const StringInterner &) = delete;

    /** Id for `s`, interning it on first sight. */
    InternId
    intern(std::string_view s)
    {
        auto it = _ids.find(s);
        if (it != _ids.end())
            return it->second;
        _names.emplace_back(s);
        InternId id = static_cast<InternId>(_names.size() - 1);
        _ids.emplace(_names.back(), id);
        return id;
    }

    /** Id for `s` if already interned, else kInvalid. */
    InternId
    find(std::string_view s) const
    {
        auto it = _ids.find(s);
        return it != _ids.end() ? it->second : kInvalid;
    }

    /** The string behind an id. The reference is stable for the
     *  interner's lifetime (deque storage never reallocates
     *  elements). */
    const std::string &name(InternId id) const { return _names[id]; }

    /** Number of interned strings. */
    size_t size() const { return _names.size(); }

  private:
    // Keys are views into the deque, whose elements never move.
    std::unordered_map<std::string_view, InternId> _ids;
    std::deque<std::string> _names;
};

} // namespace sierra::util

#endif // SIERRA_UTIL_INTERN_HH
