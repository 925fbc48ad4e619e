/**
 * @file
 * An open-addressing hash map for the solvers' per-harness id tables.
 *
 * The pointer analysis and the IFDS engine look up small keys (packed
 * id pairs, pointers) hundreds of times per harness and insert a few
 * hundred entries. std::unordered_map allocates one node per entry;
 * this table keeps keys and values in one array (linear probing, power
 * of two capacity, at most half full), so an insert allocates only
 * when the table doubles. No erase, no iteration: the solvers only ask
 * "is it there" and "add it".
 */

#ifndef SIERRA_UTIL_FLAT_MAP_HH
#define SIERRA_UTIL_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace sierra::util {

/** First capacity of a FlatMap / IdIndex: room for 32 entries, so the
 *  small per-harness tables never regrow. */
inline constexpr size_t kInitialSlots = 64;

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap
{
  public:
    /** The value stored under `k`, or null. Valid until the next
     *  insertion. */
    V *
    find(const K &k)
    {
        if (_size == 0)
            return nullptr;
        for (size_t i = slotOf(k);; i = (i + 1) & _mask) {
            if (!_used[i])
                return nullptr;
            if (_slots[i].first == k)
                return &_slots[i].second;
        }
    }
    const V *
    find(const K &k) const
    {
        return const_cast<FlatMap *>(this)->find(k);
    }

    /** The entry under `k`, inserted with value `v` when absent, and
     *  whether it was inserted. The pointer is valid until the next
     *  insertion. */
    std::pair<V *, bool>
    tryEmplace(const K &k, V v = V())
    {
        if ((_size + 1) * 2 > _slots.size())
            grow();
        size_t i = slotOf(k);
        for (; _used[i]; i = (i + 1) & _mask) {
            if (_slots[i].first == k)
                return {&_slots[i].second, false};
        }
        _used[i] = 1;
        _slots[i] = {k, std::move(v)};
        ++_size;
        return {&_slots[i].second, true};
    }

    size_t size() const { return _size; }

  private:
    size_t
    slotOf(const K &k) const
    {
        // Fibonacci hashing spreads packed ids whose low bits agree.
        const uint64_t h =
            static_cast<uint64_t>(Hash()(k)) * 0x9E3779B97F4A7C15ull;
        return static_cast<size_t>(h >> _shift);
    }

    void
    grow()
    {
        std::vector<std::pair<K, V>> old_slots = std::move(_slots);
        std::vector<char> old_used = std::move(_used);
        const size_t cap =
            old_slots.empty() ? kInitialSlots : old_slots.size() * 2;
        _slots.assign(cap, {});
        _used.assign(cap, 0);
        _mask = cap - 1;
        _shift = 64;
        for (size_t c = cap; c > 1; c >>= 1)
            --_shift;
        _size = 0;
        for (size_t i = 0; i < old_slots.size(); ++i) {
            if (old_used[i])
                tryEmplace(old_slots[i].first,
                           std::move(old_slots[i].second));
        }
    }

    std::vector<std::pair<K, V>> _slots;
    std::vector<char> _used;
    size_t _size{0};
    size_t _mask{0};
    int _shift{64};
};

/**
 * The index of an interning table that owns its elements: an
 * open-addressing set of (hash, id) pairs. Looking an element up takes
 * its hash and a predicate over candidate ids, so a caller can probe
 * with a view of the element (a span, a string_view) and build the
 * element itself only when it is new.
 */
class IdIndex
{
  public:
    /** The id among those stored under `hash` that `same(id)` accepts,
     *  or -1. */
    template <typename Same>
    int
    find(uint64_t hash, Same same) const
    {
        if (_size == 0)
            return -1;
        for (size_t i = slotOf(hash);; i = (i + 1) & _mask) {
            const auto &[h, id] = _slots[i];
            if (id < 0)
                return -1;
            if (h == hash && same(id))
                return id;
        }
    }

    /** Record `id` under `hash`; the caller has checked it is absent. */
    void
    insert(uint64_t hash, int id)
    {
        if ((_size + 1) * 2 > _slots.size())
            grow();
        size_t i = slotOf(hash);
        while (_slots[i].second >= 0)
            i = (i + 1) & _mask;
        _slots[i] = {hash, id};
        ++_size;
    }

  private:
    size_t
    slotOf(uint64_t hash) const
    {
        return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> _shift);
    }

    void
    grow()
    {
        std::vector<std::pair<uint64_t, int>> old = std::move(_slots);
        const size_t cap = old.empty() ? kInitialSlots : old.size() * 2;
        _slots.assign(cap, {0, -1});
        _mask = cap - 1;
        _shift = 64;
        for (size_t c = cap; c > 1; c >>= 1)
            --_shift;
        _size = 0;
        for (const auto &[h, id] : old) {
            if (id >= 0)
                insert(h, id);
        }
    }

    std::vector<std::pair<uint64_t, int>> _slots;
    size_t _size{0};
    size_t _mask{0};
    int _shift{64};
};

/** Mix `v` into a running hash (FNV-style step over 64-bit words). */
inline uint64_t
hashMix(uint64_t h, uint64_t v)
{
    return (h ^ v) * 1099511628211ull;
}

} // namespace sierra::util

#endif // SIERRA_UTIL_FLAT_MAP_HH
