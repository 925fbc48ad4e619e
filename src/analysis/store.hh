/**
 * @file
 * Content-hash-keyed artifact store: the persistence layer behind
 * `sierra serve` and incremental re-analysis (docs/CACHING.md).
 *
 * The store maps a 64-bit key to a blob, where every key is derived
 * from *content hashes* of the inputs an artifact depends on, never
 * from timestamps or process state. No hash is taken over printed
 * text:
 *
 *  - `methodEnvHash(m)` keys one method body plus its resolution
 *    environment: the signature and every instruction's printed
 *    fields, the owner's class-hierarchy slice (name, super,
 *    interfaces, fields), the known-API table version and the store
 *    schema version. Any edit that could change how the method
 *    analyzes changes the hash. Names enter by the 64-bit hash their
 *    handle caches (air/name.hh), and each value is folded in with one
 *    multiply-xorshift step (`mixHash`), so no byte is hashed twice.
 *  - `MethodHashTable` holds those hashes for every analyzable method
 *    of one app, flat in module order and indexed by name hash. The detector
 *    builds it at most once per app; the footprint check of a stored
 *    artifact and the footprint of a fresh one both read it.
 *  - `shapeHash(app)` keys everything about an app *except* method
 *    bodies: it hashes the manifest, layouts and app-class shapes
 *    (names, supers, interfaces, fields, method signatures and
 *    `regs=`) directly, every string by its 64-bit hash and every list
 *    count-prefixed -- exactly what `printAppText(app, false)` prints.
 *    Body edits keep the shape stable, so per-harness artifacts
 *    survive them when their footprint still validates; adding or
 *    removing a class, method, field or widget changes the shape and
 *    invalidates every harness key derived from it.
 *
 * Blobs are deterministic text, so two processes given the same module
 * produce byte-identical store contents (pinned by store_test). The
 * decoder (`sierra::parseArtifact`) reads a `std::string_view`, and
 * `Store::get` hands out a view of the stored blob rather than a copy.
 * The store holds everything in memory and optionally write-throughs
 * to a versioned on-disk directory (`dir/harness/<16 hex digits of the
 * key>`); a schema or known-API version
 * mismatch discards the on-disk generation instead of reading
 * incompatible blobs (the invalidation rules are documented in
 * docs/CACHING.md).
 */

#ifndef SIERRA_ANALYSIS_STORE_HH
#define SIERRA_ANALYSIS_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flat_map.hh"

namespace sierra::air {
class Klass;
class Method;
} // namespace sierra::air

namespace sierra::framework {
class App;
} // namespace sierra::framework

namespace sierra::analysis::store {

/** Bumped whenever a blob format or hash recipe changes; a mismatch
 *  invalidates the whole on-disk store (see docs/CACHING.md). */
inline constexpr int kStoreSchemaVersion = 5;

/** The 64-bit hash of a string's bytes (air::hashNameBytes, the hash
 *  an interned name caches); deterministic across processes. */
uint64_t hashBytes(std::string_view bytes);

/** Order-dependent combinator for composing hashes: one
 *  multiply-xorshift step. */
uint64_t mixHash(uint64_t acc, uint64_t value);

/** Fixed-width lowercase hex of a hash (16 chars). */
std::string hashHex(uint64_t value);

/** Inverse of hashHex: true only for exactly 16 lowercase hex
 *  digits. */
bool parseHashHex(std::string_view hex, uint64_t &out);

/** Call `fn(line)` for each line of `blob`, split on '\n', exactly as
 *  std::getline would yield them: a last line without '\n' counts, an
 *  empty tail after the final '\n' does not. Lines view `blob`. */
template <typename Fn>
void
forEachLine(std::string_view blob, Fn &&fn)
{
    size_t pos = 0;
    while (pos < blob.size()) {
        size_t nl = blob.find('\n', pos);
        if (nl == std::string_view::npos) {
            fn(blob.substr(pos));
            return;
        }
        fn(blob.substr(pos, nl - pos));
        pos = nl + 1;
    }
}

/**
 * The class-hierarchy slice of one class: its name, super class name,
 * interfaces and field declarations (names and types). Part of
 * every member method's resolution environment -- a field retyped or a
 * super re-parented re-keys every method of the class.
 */
uint64_t classSliceHash(const air::Klass &klass);

/** Content hash of one method body plus its resolution environment
 *  (see file comment). Stable across processes and jobs counts. */
uint64_t methodEnvHash(const air::Method &method);

/** One row of a MethodHashTable. */
struct MethodHashEntry {
    const air::Method *method{nullptr}; //!< the method hashed
    uint64_t hash{0};                   //!< its methodEnvHash

    /** The qualified method name ("Class.method"), built on demand. */
    std::string name() const;
};

/**
 * Env hashes for every analyzable method of an app: methods with a
 * body in non-framework classes (app code plus synthetic harness
 * classes), in module order and indexed by the hashes of their class
 * and method names. One table per app, built after harness generation;
 * it reflects the module as it was then.
 */
class MethodHashTable
{
  public:
    MethodHashTable() = default;
    explicit MethodHashTable(const framework::App &app);

    const std::vector<MethodHashEntry> &entries() const
    {
        return _entries;
    }
    size_t size() const { return _entries.size(); }

    /** The row of a qualified name ("Class.method"); null when
     *  absent. */
    const MethodHashEntry *find(std::string_view name) const;

    /** The row of one method of the app; null when it is not in the
     *  table (framework code, no body, or added after the build). */
    const MethodHashEntry *find(const air::Method *method) const;

  private:
    std::vector<MethodHashEntry> _entries;
    util::IdIndex _index; //!< row ids by class and method name hash
};

/** The app's structural hash (see file comment): covers exactly what
 *  `printAppText(app, false)` prints, without printing it. */
uint64_t shapeHash(const framework::App &app);

/** Store traffic counters (surfaced as `store.*` metrics). */
struct StoreStats {
    int64_t gets{0};         //!< lookups issued
    int64_t hits{0};         //!< lookups answered (memory or disk)
    int64_t puts{0};         //!< blobs written
    int64_t diskReads{0};    //!< blobs faulted in from disk
    int64_t bytesWritten{0};
};

/**
 * A map from 64-bit keys to blobs. Always memory-backed; with a
 * directory it also write-throughs every put to
 * `dir/harness/<hashHex(key)>` and faults misses in from disk, so a
 * later process warm-starts from the same artifacts.
 */
class Store
{
  public:
    /** Memory-only store. */
    Store() = default;

    /** Disk-backed store rooted at `dir` (created if absent). If the
     *  on-disk VERSION disagrees with this binary's schema/known-API
     *  versions, the old generation is discarded. */
    explicit Store(const std::string &dir);

    Store(const Store &) = delete;
    Store &operator=(const Store &) = delete;

    /** The version stamp persisted to `dir/VERSION`. */
    static std::string versionStamp();

    bool onDisk() const { return !_dir.empty(); }
    const std::string &dir() const { return _dir; }

    /** The blob stored under `key`, as a view that stays valid until
     *  the next put of the same key or the store's destruction. */
    std::optional<std::string_view> get(uint64_t key);
    /** Store a blob. On disk it is written to a temporary file and
     *  renamed into place only when the write succeeded; a failed
     *  write leaves no file for the key. */
    void put(uint64_t key, std::string_view blob);

    /** Every key, sorted (includes on-disk-only keys). */
    std::vector<uint64_t> keys() const;

    const StoreStats &stats() const { return _stats; }

  private:
    std::string pathFor(uint64_t key) const;

    std::string _dir; //!< empty = memory only
    //! node-based, so the views get() hands out survive other puts
    std::unordered_map<uint64_t, std::string> _blobs;
    StoreStats _stats;
};

} // namespace sierra::analysis::store

#endif // SIERRA_ANALYSIS_STORE_HH
