/**
 * @file
 * Racy-pair detection and prioritization (paper Sections 3.1 and 4.4).
 */

#ifndef SIERRA_RACE_RACY_HH
#define SIERRA_RACE_RACY_HH

#include <functional>
#include <string>
#include <vector>

#include "access.hh"
#include "analysis/effects.hh"
#include "analysis/enablement.hh"
#include "analysis/escape.hh"
#include "analysis/lockset.hh"
#include "analysis/nullflow.hh"
#include "hb/shbg.hh"

namespace sierra::race {

/** Which stage refuted a racy pair (per-pair provenance). */
enum class RefutedBy : uint8_t {
    None,       //!< the pair survives
    Lockset,    //!< a common must-held lock on every action pair
    Enablement, //!< registration typestate: a callback was disabled
    Symbolic,   //!< the backward symbolic executor
};

const char *refutedByName(RefutedBy r);

/** One (action, action) combination a racy pair conflicts under, with
 *  the concrete access instances (per-context nodes) it arose from. */
struct ActionPairEntry {
    int action1{-1};
    int action2{-1};
    int access1{-1}; //!< access executed by action1
    int access2{-1}; //!< access executed by action2
};

/** A candidate race: two unordered conflicting accesses. */
struct RacyPair {
    int access1{-1}; //!< representative access (for display)
    int access2{-1};
    MemLoc loc;      //!< a witness shared location
    //! all (action1, action2) pairs under which the accesses conflict
    std::vector<ActionPairEntry> actionPairs;
    int priority{0};     //!< larger = report earlier
    bool refuted{false}; //!< set by a refutation stage
    RefutedBy refutedBy{RefutedBy::None};
    bool refutationTimedOut{false};
    //! null-value-flow severity (set by classifyWithNullFlow on
    //! surviving pairs; Unknown with the stage off)
    analysis::NullVerdict severity{analysis::NullVerdict::Unknown};
    //! provenance chain of the severity verdict (empty for Unknown)
    std::string severityChain;

    std::string toString(const analysis::PointsToResult &r,
                         const std::vector<Access> &accesses) const;
};

/** Work counters from one findRacyPairs call (plain increments on the
 *  calling thread; metric names in docs/OBSERVABILITY.md). */
struct RacyStats {
    //! access pairs surviving the keep mask and write check
    int64_t accessPairsConsidered{0};
    //! of those, dropped by the field-effect summary prefilter
    int64_t prefilterSkipped{0};
    //! of those, reaching the points-to intersection
    int64_t aliasChecked{0};
};

/**
 * Intersect points-to sets of accesses from unordered action pairs
 * (paper Section 4.1 "racy pairs"): at least one write, overlapping
 * locations, actions unordered in the SHBG, same looper (or at least
 * one background thread).
 *
 * Pairs are deduplicated by (site1, site2, location key).
 *
 * `effects` (optional) are the field-effect summaries
 * (analysis::FieldEffects) used as a cheap prefilter: an access pair
 * whose enclosing methods have provably disjoint effects is dropped
 * before the points-to intersection and action-pair enumeration.
 * Report-preserving: each access's own field is in its method's
 * summary, so any pair that could alias also conflicts at the summary
 * level. Null disables the prefilter.
 *
 * `live` (optional) is the per-access keep mask from the escape
 * analysis (escapeLiveMask; 0 = every base object of the access is
 * thread-local, skip it). Access indices are never rewritten, so
 * RacyPair access ids stay valid. Null disables the filter.
 *
 * `stats` (optional) receives the work counters; null skips the
 * bookkeeping.
 */
std::vector<RacyPair>
findRacyPairs(const analysis::PointsToResult &result,
              const hb::Shbg &shbg, const std::vector<Access> &accesses,
              const analysis::FieldEffects *effects = nullptr,
              const std::vector<char> *live = nullptr,
              RacyStats *stats = nullptr);

/**
 * Assign priorities (paper Section 3.1): races in app code rank above
 * framework races reached from app code; reference-typed locations rank
 * higher (NullPointerException risk). Sorts the vector in place,
 * highest priority first; ties broken by site order for determinism.
 */
void prioritize(const analysis::PointsToResult &result,
                const std::vector<Access> &accesses,
                std::vector<RacyPair> &pairs);

/**
 * Per-access keep mask for findRacyPairs' `live`: an access is kept
 * when it touches a static location or any escaping base object
 * (see analysis::EscapeAnalysis for why dropping the rest preserves
 * reports).
 */
std::vector<char>
escapeLiveMask(const analysis::EscapeAnalysis &escape,
               const std::vector<Access> &accesses);

/**
 * Lock-set refutation (runs before the symbolic refuter): mark a pair
 * `refutedBy: Lockset` when EVERY action pair of the race (a) involves
 * at least one background-thread action and (b) has a common must-held
 * lock over its two access instances. Same-looper action pairs are
 * exempt: their accesses never interleave at instruction granularity —
 * the race is event-order nondeterminism, which monitors do not order —
 * so any pair with a same-looper entry survives this stage. Returns
 * the number of pairs newly refuted.
 */
int refuteWithLockSets(const analysis::PointsToResult &result,
                       const analysis::LockSetAnalysis &locks,
                       const std::vector<Access> &accesses,
                       std::vector<RacyPair> &pairs);

/**
 * Enablement refutation (runs after lockset, before IFDS): mark a
 * pair `refutedBy: Enablement` when EVERY action pair of the race has
 * one action whose enabling registration is must-disabled before the
 * other action can run (analysis::EnablementAnalysis::disabledBefore,
 * queried in both directions). `reaches` is SHBG reachability
 * (hb::Shbg::reaches), passed as a closure because analysis/ may not
 * depend on hb/. Returns the number of pairs newly refuted.
 */
int refuteWithEnablement(analysis::EnablementAnalysis &enablement,
                         const std::function<bool(int, int)> &reaches,
                         std::vector<RacyPair> &pairs);

/**
 * Null-value-flow severity classification (runs after every refutation
 * stage, before prioritization): for each *surviving* pair whose
 * accesses are a reference-typed field read racing a write, ask the
 * demand-driven analysis::NullFlowAnalysis whether the read can
 * observe null/absent state (HARMFUL), is protected by a dominating
 * null check (GUARDED), or neither (UNKNOWN). Stamps
 * RacyPair::severity + severityChain; refuted pairs and pairs without
 * a read/write ref-field shape stay Unknown. Returns the number of
 * pairs classified non-Unknown.
 */
int classifyWithNullFlow(analysis::NullFlowAnalysis &nullflow,
                         const std::vector<Access> &accesses,
                         std::vector<RacyPair> &pairs);

} // namespace sierra::race

#endif // SIERRA_RACE_RACY_HH
