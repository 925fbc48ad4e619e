/**
 * @file
 * Content-hash-keyed artifact store: the persistence layer behind
 * `sierra serve` and incremental re-analysis (docs/CACHING.md).
 *
 * The store maps (kind, key) -> blob, where every key is derived from
 * *content hashes* of the inputs an artifact depends on, never from
 * timestamps or process state:
 *
 *  - `methodEnvHash(m)` keys one method body plus its resolution
 *    environment: the signature and every instruction's semantic
 *    fields, the owner's class-hierarchy slice (name, super chain,
 *    interfaces, fields), the known-API table version and the store
 *    schema version. Any edit that could change how the method
 *    analyzes changes the hash.
 *  - `shapeHash(app)` keys everything about an app *except* method
 *    bodies: manifest, layouts, class names/supers/fields and method
 *    signatures. Body edits keep the shape stable, so per-harness
 *    artifacts survive them when their footprint still validates;
 *    adding/removing a class, method, field or widget changes the
 *    shape and invalidates every harness key derived from it.
 *
 * Blobs are deterministic text, so two processes given the same module
 * produce byte-identical store contents (pinned by store_test). The
 * store holds everything in memory and optionally write-throughs to a
 * versioned on-disk directory (`dir/<kind>/<key>`); a schema or
 * known-API version mismatch discards the on-disk generation instead
 * of reading incompatible blobs (the invalidation rules are documented
 * in docs/CACHING.md).
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
inline constexpr int kStoreSchemaVersion = 3;

/** FNV-1a over bytes; the deterministic hash every key derives from. */
uint64_t fnv64(std::string_view bytes,
               uint64_t seed = 1469598103934665603ULL);

/** Order-dependent combinator for composing hashes. */
uint64_t mixHash(uint64_t acc, uint64_t value);

/** Fixed-width lowercase hex of a hash (16 chars). */
std::string hashHex(uint64_t value);

/**
 * The class-hierarchy slice of one class: its name, transitive super
 * chain, interfaces and field declarations (names and types). Part of
 * every member method's resolution environment -- a field retyped or a
 * super re-parented re-keys every method of the class.
 */
uint64_t classSliceHash(const air::Klass &klass);

/** Content hash of one method body plus its resolution environment
 *  (see file comment). Stable across processes and jobs counts. */
uint64_t methodEnvHash(const air::Method &method);

/**
 * Env hashes for every analyzable method of the app: non-framework
 * classes (app code plus synthetic harness classes) with a body,
 * keyed by qualified name. Deterministic iteration order.
 */
std::map<std::string, uint64_t> hashMethods(const framework::App &app);

/** The app's structural hash: its printed bundle text with the
 *  instruction lines stripped (manifest + layouts + class shapes +
 *  method signatures, no bodies). */
uint64_t shapeHash(const framework::App &app);

/** Serialize a method-name -> env-hash index (one "name\thex" line per
 *  method, sorted). */
std::string serializeMethodIndex(
    const std::map<std::string, uint64_t> &index);

/** Parse a serialized method index; malformed lines are dropped. */
std::map<std::string, uint64_t>
parseMethodIndex(const std::string &blob);

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
    void addEdge(const std::string &caller, const std::string &callee);

    /** Union another index in (idempotent). */
    void merge(const DepIndex &other);

    /** Drop edges touching methods not in `keep` (removed bodies). */
    void prune(const std::set<std::string> &keep);

    /** The changed methods plus every transitive caller. */
    std::set<std::string>
    dirtyClosure(const std::set<std::string> &changed) const;

    /** Direct callers of one method (sorted). */
    std::vector<std::string> callersOf(const std::string &method) const;

    int64_t numEdges() const;

    std::string serialize() const;
    static DepIndex parse(const std::string &blob);

  private:
    //! callee -> set of callers
    std::map<std::string, std::set<std::string>> _callers;
};

/** One SCCP constant fact: register `reg` holds `value` just before
 *  instruction `instr` executes (on every invocation). */
struct SccpFact {
    int instr{0};
    int reg{0};
    int64_t value{0};
};

/** Run the intraprocedural SCCP solver over one method body and export
 *  its constant facts as a deterministic blob (one "instr reg value"
 *  line per fact, plus infeasible branch edges). */
std::string sccpFactsBlob(const air::Method &method);

/** Parse the constant rows of a `sccpFactsBlob` (edge rows skipped). */
std::vector<SccpFact> parseSccpFacts(const std::string &blob);

/** Structural digest of one method's CFG ("blocks N edges M hash H"),
 *  a cheap integrity check stored beside the per-method facts. */
std::string cfgDigest(const air::Method &method);

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

    std::optional<std::string> get(const std::string &kind,
                                   const std::string &key);
    void put(const std::string &kind, const std::string &key,
             const std::string &blob);

    /** All keys of one kind (sorted; includes on-disk-only keys). */
    std::vector<std::string> keys(const std::string &kind) const;

    const StoreStats &stats() const { return _stats; }

  private:
    std::string pathFor(const std::string &kind,
                        const std::string &key) const;

    std::string _dir; //!< empty = memory only
    std::map<std::string, std::string> _blobs;
    StoreStats _stats;
};

} // namespace sierra::analysis::store

#endif // SIERRA_ANALYSIS_STORE_HH
