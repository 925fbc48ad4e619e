/**
 * @file
 * Bump-pointer arena allocation for analysis-lifetime objects.
 *
 * An Arena hands out aligned chunks from large slabs and frees them all
 * at once when it is destroyed: per-app analysis state (AIR instruction
 * storage, constraint-graph edges, spilled bitset words) tears down in
 * O(slabs) frees instead of one `free` per node. Allocations are never
 * returned individually — growth simply abandons the old block inside
 * the arena, which is the usual bump-pointer trade-off and is bounded
 * by the geometric growth of the containers built on top.
 *
 * ArenaVector<T> is the typed container built on the arena: a minimal
 * std::vector replacement whose backing store comes from an Arena (or
 * from the heap when constructed without one, so value types stay
 * usable in tests and in long-lived structures that outlive any arena).
 * Element destructors still run — T may own heap memory (std::string
 * members of air::Instruction) — but the backing store itself is never
 * individually freed when arena-backed.
 */

#ifndef SIERRA_UTIL_ARENA_HH
#define SIERRA_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sierra::util {

/** A bump-pointer slab allocator. Not thread-safe: each arena belongs
 *  to one analysis (one harness, one engine), which is single-threaded
 *  by the determinism contract. */
class Arena
{
  public:
    static constexpr size_t kDefaultSlabBytes = 64 * 1024;

    explicit Arena(size_t slabBytes = kDefaultSlabBytes)
        : _slabBytes(slabBytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Allocate `bytes` with `align` alignment (power of two). */
    void *
    allocate(size_t bytes, size_t align = alignof(std::max_align_t))
    {
        uintptr_t cur = reinterpret_cast<uintptr_t>(_cur);
        uintptr_t aligned = (cur + (align - 1)) & ~uintptr_t(align - 1);
        if (aligned + bytes > reinterpret_cast<uintptr_t>(_end)) {
            newSlab(bytes + align);
            cur = reinterpret_cast<uintptr_t>(_cur);
            aligned = (cur + (align - 1)) & ~uintptr_t(align - 1);
        }
        _cur = reinterpret_cast<char *>(aligned + bytes);
        _bytesAllocated += bytes;
        return reinterpret_cast<void *>(aligned);
    }

    /** Typed array allocation; memory only, no constructors run. */
    template <typename T>
    T *
    allocArray(size_t n)
    {
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /** Total bytes handed out (not slab capacity): the figure behind
     *  the `arena.bytes_allocated` metric. */
    size_t bytesAllocated() const { return _bytesAllocated; }

    /** Number of slabs owned (the teardown cost is O(this)). */
    size_t numSlabs() const { return _slabs.size(); }

  private:
    void
    newSlab(size_t atLeast)
    {
        size_t size = _slabBytes;
        // Grow slabs geometrically so huge arenas stay O(log n) slabs.
        if (!_slabs.empty())
            size = _slabs.back().size * 2;
        if (size < atLeast)
            size = atLeast;
        // Not zero-filled: every allocation is written before it is
        // read, and the spare capacity of ArenaVectors is never touched.
        _slabs.push_back({std::make_unique_for_overwrite<char[]>(size), size});
        _cur = _slabs.back().mem.get();
        _end = _cur + size;
    }

    struct Slab {
        std::unique_ptr<char[]> mem;
        size_t size;
    };
    std::vector<Slab> _slabs;
    char *_cur{nullptr};
    char *_end{nullptr};
    size_t _slabBytes;
    size_t _bytesAllocated{0};
};

/**
 * A minimal vector whose backing store comes from an Arena when one is
 * attached, or from the heap otherwise. Move-only (the arena-backed
 * buffer cannot be copied without knowing which arena to copy into);
 * use assign() for explicit copies.
 */
template <typename T>
class ArenaVector
{
  public:
    ArenaVector() = default;
    explicit ArenaVector(Arena *arena) : _arena(arena) {}

    ArenaVector(ArenaVector &&o) noexcept
        : _data(o._data), _size(o._size), _cap(o._cap), _arena(o._arena)
    {
        o._data = nullptr;
        o._size = o._cap = 0;
    }
    ArenaVector &
    operator=(ArenaVector &&o) noexcept
    {
        if (this != &o) {
            destroyAll();
            _data = o._data;
            _size = o._size;
            _cap = o._cap;
            _arena = o._arena;
            o._data = nullptr;
            o._size = o._cap = 0;
        }
        return *this;
    }
    ArenaVector(const ArenaVector &) = delete;
    ArenaVector &operator=(const ArenaVector &) = delete;

    ~ArenaVector() { destroyAll(); }

    /** Late arena attachment (only valid before the first insert). */
    void
    setArena(Arena *arena)
    {
        if (_data == nullptr)
            _arena = arena;
    }

    void
    push_back(const T &v)
    {
        emplace_back(v);
    }
    void
    push_back(T &&v)
    {
        emplace_back(std::move(v));
    }
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (_size == _cap)
            grow();
        T *slot = _data + _size;
        ::new (static_cast<void *>(slot)) T(std::forward<Args>(args)...);
        ++_size;
        return *slot;
    }

    void
    pop_back()
    {
        --_size;
        _data[_size].~T();
    }

    void
    clear()
    {
        for (size_t i = 0; i < _size; ++i)
            _data[i].~T();
        _size = 0;
    }

    template <typename It>
    void
    assign(It first, It last)
    {
        clear();
        for (; first != last; ++first)
            emplace_back(*first);
    }

    T &operator[](size_t i) { return _data[i]; }
    const T &operator[](size_t i) const { return _data[i]; }
    T &front() { return _data[0]; }
    const T &front() const { return _data[0]; }
    T &back() { return _data[_size - 1]; }
    const T &back() const { return _data[_size - 1]; }

    T *begin() { return _data; }
    T *end() { return _data + _size; }
    const T *begin() const { return _data; }
    const T *end() const { return _data + _size; }

    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

  private:
    void
    grow()
    {
        size_t newCap = _cap ? _cap * 2 : 8;
        T *mem;
        if (_arena)
            mem = _arena->allocArray<T>(newCap);
        else
            mem = static_cast<T *>(
                ::operator new(newCap * sizeof(T), std::align_val_t(alignof(T))));
        for (size_t i = 0; i < _size; ++i) {
            ::new (static_cast<void *>(mem + i)) T(std::move(_data[i]));
            _data[i].~T();
        }
        freeBuffer();
        _data = mem;
        _cap = newCap;
    }

    void
    destroyAll()
    {
        for (size_t i = 0; i < _size; ++i)
            _data[i].~T();
        freeBuffer();
        _data = nullptr;
        _size = _cap = 0;
    }

    void
    freeBuffer()
    {
        // Arena-backed buffers are abandoned in place; the arena frees
        // the slabs wholesale.
        if (_data != nullptr && _arena == nullptr)
            ::operator delete(_data, std::align_val_t(alignof(T)));
    }

    T *_data{nullptr};
    size_t _size{0};
    size_t _cap{0};
    Arena *_arena{nullptr};
};

} // namespace sierra::util

#endif // SIERRA_UTIL_ARENA_HH
