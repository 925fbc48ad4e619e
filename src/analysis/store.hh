/**
 * @file
 * Content-hash-keyed artifact store: the persistence layer behind
 * `sierra serve` and incremental re-analysis (docs/CACHING.md).
 *
 * The store maps (kind, key) -> blob, where every key is derived from
 * *content hashes* of the inputs an artifact depends on, never from
 * timestamps or process state. No hash is taken over printed text:
 *
 *  - `methodEnvHash(m)` keys one method body plus its resolution
 *    environment: the signature and every instruction's semantic
 *    fields, the owner's class-hierarchy slice (name, super,
 *    interfaces, fields), the known-API table version and the store
 *    schema version. Any edit that could change how the method
 *    analyzes changes the hash.
 *  - `MethodHashTable` holds those hashes for every analyzable method
 *    of one app, flat and sorted by qualified name. The detector
 *    builds it at most once per app; the incremental diff, the
 *    footprint check of a stored artifact and the footprint of a fresh
 *    one all read it.
 *  - `shapeHash(app)` keys everything about an app *except* method
 *    bodies: it hashes the manifest, layouts and app-class shapes
 *    (names, supers, interfaces, fields, method signatures and
 *    `regs=`) directly, every string length-prefixed and every list
 *    count-prefixed -- exactly what `printAppText(app, false)` prints.
 *    Body edits keep the shape stable, so per-harness artifacts
 *    survive them when their footprint still validates; adding or
 *    removing a class, method, field or widget changes the shape and
 *    invalidates every harness key derived from it.
 *
 * Blobs are deterministic text, so two processes given the same module
 * produce byte-identical store contents (pinned by store_test). The
 * decoders (`parseMethodIndex`, `DepIndex::parse`, and
 * `sierra::parseArtifact`) read a `std::string_view`, and `Store::get`
 * hands out a view of the stored blob rather than a copy. The store
 * holds everything in memory and optionally write-throughs to a
 * versioned on-disk directory (`dir/<kind>/<encoded key>`, where the
 * key encoding is injective); a schema or known-API version mismatch
 * discards the on-disk generation instead of reading incompatible
 * blobs (the invalidation rules are documented in docs/CACHING.md).
 *
 * The `DepIndex` is the reverse-dependency index over the IFDS summary
 * graph: method-level caller<-callee edges recorded when summaries are
 * exported. `dirtyClosure(changed)` answers "which methods must be
 * re-solved when these bodies changed" -- the changed methods plus
 * every transitive caller whose summary may embed their facts.
 */

#ifndef SIERRA_ANALYSIS_STORE_HH
#define SIERRA_ANALYSIS_STORE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
inline constexpr int kStoreSchemaVersion = 4;

/** FNV-1a over bytes; the deterministic hash every key derives from. */
uint64_t fnv64(std::string_view bytes,
               uint64_t seed = 1469598103934665603ULL);

/** Order-dependent combinator for composing hashes. */
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
    std::string name;                   //!< qualified method name
    uint64_t hash{0};                   //!< its methodEnvHash
    const air::Method *method{nullptr}; //!< the method hashed
};

/**
 * Env hashes for every analyzable method of an app: methods with a
 * body in non-framework classes (app code plus synthetic harness
 * classes), flat and sorted by qualified name. One table per app,
 * built after harness generation; it reflects the module as it was
 * then.
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

    /** The row of a qualified name; null when absent. */
    const MethodHashEntry *find(std::string_view name) const;

    /** The row of one method of the app; null when it is not in the
     *  table (framework code, no body, or added after the build). */
    const MethodHashEntry *find(const air::Method *method) const;

  private:
    std::vector<MethodHashEntry> _entries;
    //! (method, row index), sorted by method address
    std::vector<std::pair<const air::Method *, uint32_t>> _byMethod;
};

/** The app's structural hash (see file comment): covers exactly what
 *  `printAppText(app, false)` prints, without printing it. */
uint64_t shapeHash(const framework::App &app);

/** Serialize method hashes as an index blob (one "name\thex" line per
 *  row, in row order -- sorted for a table's rows). */
std::string serializeMethodIndex(const std::vector<MethodHashEntry> &rows);

/** One decoded method-index row; the name views the blob. */
using MethodIndexRow = std::pair<std::string_view, uint64_t>;

/** Decode a serialized method index into rows sorted by name, one per
 *  name (the last line wins); malformed lines are dropped. The rows
 *  view `blob`. */
std::vector<MethodIndexRow> parseMethodIndex(std::string_view blob);

/**
 * Reverse-dependency index over the IFDS summary graph at method
 * granularity. Edges point callee -> callers, so dirtying propagates
 * *up* the summary graph: a callee's facts are embedded in every
 * caller summary that consumed them.
 */
class DepIndex
{
  public:
    /** Record "caller's summary depends on callee's summary". */
    void addEdge(std::string_view caller, std::string_view callee);

    /** Union another index in (idempotent). */
    void merge(const DepIndex &other);

    /** Drop edges touching methods not in `keep` (removed bodies). */
    void prune(const std::set<std::string> &keep);

    /** The changed methods plus every transitive caller. */
    std::set<std::string>
    dirtyClosure(const std::set<std::string> &changed) const;

    int64_t numEdges() const;

    std::string serialize() const;
    /** Decode a serialized index; lines without a tab-separated
     *  caller and callee are dropped. */
    static DepIndex parse(std::string_view blob);

  private:
    //! callee -> set of callers
    std::map<std::string, std::set<std::string>, std::less<>> _callers;
};

/** Store traffic counters (surfaced as `store.*` metrics). */
struct StoreStats {
    int64_t gets{0};         //!< lookups issued
    int64_t hits{0};         //!< lookups answered (memory or disk)
    int64_t puts{0};         //!< blobs written
    int64_t diskReads{0};    //!< blobs faulted in from disk
    int64_t bytesWritten{0};
};

/**
 * The (kind, key) -> blob store. Always memory-backed; with a
 * directory it also write-throughs every put and faults misses in
 * from disk, so a later process warm-starts from the same artifacts.
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

    /** The blob stored under (kind, key), as a view that stays valid
     *  until the next put of the same (kind, key) or the store's
     *  destruction. */
    std::optional<std::string_view> get(std::string_view kind,
                                        std::string_view key);
    /** Store a blob. On disk it is written to a temporary file and
     *  renamed into place only when the write succeeded; a failed
     *  write leaves no file for the key. */
    void put(std::string_view kind, std::string_view key,
             std::string_view blob);

    /** All keys of one kind (sorted; includes on-disk-only keys). */
    std::vector<std::string> keys(std::string_view kind) const;

    const StoreStats &stats() const { return _stats; }

    /** The file name a key is stored under: every byte outside
     *  [A-Za-z0-9_-] becomes `%XX` (upper-case hex), so distinct keys
     *  never share a file and no key escapes its kind directory. */
    static std::string encodeKey(std::string_view key);
    /** Inverse of encodeKey; nullopt for a name it never produces. */
    static std::optional<std::string> decodeKey(std::string_view name);

  private:
    std::string pathFor(std::string_view kind, std::string_view key) const;

    std::string _dir; //!< empty = memory only
    //! kind -> key -> blob
    std::map<std::string,
             std::map<std::string, std::string, std::less<>>,
             std::less<>>
        _blobs;
    StoreStats _stats;
};

} // namespace sierra::analysis::store

#endif // SIERRA_ANALYSIS_STORE_HH
