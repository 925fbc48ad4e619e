/**
 * @file
 * Demand-driven null-value-flow classification of surviving races.
 *
 * The refutation stages answer "can these two accesses interleave?";
 * this pass answers the follow-up the paper's motivating bugs hinge on:
 * *does the interleaving matter?* A surviving pair is HARMFUL when the
 * second access reads a reference field whose only writes ordered
 * before it (per the SHBG and the harness lifecycle) are null stores,
 * resets, or absent initializations, while the racing write is the
 * sole non-null source — losing the race then dereferences null.
 * It is GUARDED when a dominating null check on the same field
 * protects the sink read. Everything else stays UNKNOWN.
 *
 * The analysis is a second demand-driven client beside InterConstants
 * (BackDroid-style: start from the few interesting sinks, walk
 * backward): nothing is computed until the first query, and a harness
 * with zero surviving pairs does zero work. The store index and the
 * per-method dominator trees are built lazily and shared across
 * queries of one harness.
 *
 * Layering: like the enablement stage, analysis/ may not depend on
 * race/ or hb/, so the race layer adapts RacyPairs into classifyRead
 * queries (race::classifyWithNullFlow) and SHBG reachability arrives
 * as a closure.
 */

#ifndef SIERRA_ANALYSIS_NULLFLOW_HH
#define SIERRA_ANALYSIS_NULLFLOW_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "framework/known_api.hh"
#include "ifds.hh"
#include "points_to.hh"

namespace sierra::analysis {

/** Severity verdict for one surviving racy pair. */
enum class NullVerdict : uint8_t {
    Unknown, //!< value effect beyond this analysis (default)
    Guarded, //!< a dominating null check protects the sink read
    Harmful, //!< the read can observe null/absent state and crash
};

/** Upper-case report tag ("UNKNOWN" / "GUARDED" / "HARMFUL"). */
const char *nullVerdictName(NullVerdict v);

/** Inverse of nullVerdictName; false when the tag is unknown. */
bool nullVerdictFromName(std::string_view name, NullVerdict &out);

/**
 * Report-sort rank: harmful races outrank unknown ones, which outrank
 * guarded ones. With the stage off every verdict is Unknown, so the
 * severity-sorted order degenerates to today's order.
 */
int nullVerdictRank(NullVerdict v);

/** Work counters of one harness's classification (deterministic). */
struct NullFlowStats {
    int64_t queries{0};       //!< classifyRead calls
    int64_t sinksExamined{0}; //!< queries that reached the field logic
    int64_t storesIndexed{0}; //!< ref-field stores in the lazy index
    int64_t nullStores{0};    //!< of those, proven null on every path
    int64_t guarded{0};       //!< sinks protected by a dominating check
    int64_t harmful{0};       //!< sinks classified harmful
    int64_t domTrees{0};      //!< dominator trees built on demand
};

/** One verdict with its provenance chain (empty for Unknown). */
struct NullFlowVerdict {
    NullVerdict verdict{NullVerdict::Unknown};
    /**
     * Human-readable provenance, rendered into text and JSON reports:
     * for HARMFUL, `null-source <site> -> <field> -> read <site>`
     * (the null source is `<uninitialized>` when no other write
     * exists at all); for GUARDED, the guarding check's site.
     */
    std::string chain;
};

/**
 * The null-value-flow classifier for one harness.
 *
 * `inter` may be null (--no-ifds): null stores are then proven through
 * the flow-insensitive PointsToResult::constOf facts only, which still
 * covers direct `constNull` stores but not setter-mediated ones.
 * `happensBefore(a, b)` must answer "action a always completes before
 * action b starts" (the detector passes Shbg::reaches).
 */
class NullFlowAnalysis
{
  public:
    NullFlowAnalysis(const PointsToResult &result,
                     const InterConstants *inter,
                     const framework::KnownApis &apis,
                     std::function<bool(int, int)> happensBefore);
    ~NullFlowAnalysis();

    /**
     * Classify one surviving pair's read sink. `read_node`/`read_instr`
     * locate the GetField/GetStatic whose value the race can corrupt;
     * `write_node`/`write_instr` locate the racing write; `key` is the
     * pair's canonical location key (MemLoc::key). Deterministic: the
     * same query always produces the same verdict and chain.
     */
    NullFlowVerdict classifyRead(NodeId read_node, int read_instr,
                                 NodeId write_node, int write_instr,
                                 const std::string &key);

    const NullFlowStats &stats() const { return _stats; }

  private:
    /** One ref-field store site in the lazy index. */
    struct StoreSite {
        const air::Method *method{nullptr};
        int instr{-1};
        NodeId node{-1};
        bool isNull{false}; //!< stored value proven null on every path
    };
    struct DomInfo; //!< Cfg + DominatorTree bundle, built on demand

    void buildStoreIndex();
    bool storesProvenNull(NodeId node, const air::Method *m, int instr,
                          int value_reg) const;
    const DomInfo *domInfoFor(const air::Method *m);
    /** Instruction index of the def of `reg` reaching `before_instr`
     *  on every path (move-chasing, join-aborting walk); -1 if mixed. */
    static int soleDefOf(const air::Method &m, int before_instr,
                         int reg, const std::vector<char> &is_target);
    bool isGuardLoad(const air::Method &m, int read_instr,
                     std::string *chain);
    bool dominatedByNullCheck(const air::Method &m, int read_instr,
                              const air::FieldRef &field,
                              std::string *chain);

    const PointsToResult &_r;
    const InterConstants *_inter;
    const framework::KnownApis &_apis;
    std::function<bool(int, int)> _happensBefore;
    NullFlowStats _stats;
    bool _indexBuilt{false};
    //! canonical key string -> every ref-field store to it, in
    //! (node, instr) scan order (deterministic)
    std::map<std::string, std::vector<StoreSite>> _stores;
    std::map<const air::Method *, std::unique_ptr<DomInfo>> _doms;
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_NULLFLOW_HH
