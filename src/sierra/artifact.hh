/**
 * @file
 * Serializable per-harness analysis artifacts: the reuse unit of
 * `sierra serve` and the store layer (docs/CACHING.md).
 *
 * A HarnessArtifact is the *merge-relevant* projection of one
 * HarnessAnalysis: exactly the fields the detector's deterministic
 * plan-order merge consumes when it folds harness results into an
 * AppReport. By construction, merging a loaded artifact produces the
 * same report bytes as merging the freshly computed analysis it was
 * made from -- that is the warm == cold byte-identity guarantee, and
 * incremental_test pins it over the whole golden corpus.
 *
 * The footprint is the artifact's validity certificate: the sorted
 * (qualified method name, content hash) pairs of every non-framework
 * method reachable in the harness's call graph. An artifact may be
 * reused only when every footprint entry still hashes the same --
 * a body edit to any method the harness could execute re-keys that
 * entry and forces a recompute (the soundness argument is written out
 * in docs/CACHING.md).
 */

#ifndef SIERRA_SIERRA_ARTIFACT_HH
#define SIERRA_SIERRA_ARTIFACT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/deadlock.hh"
#include "analysis/ifds.hh"
#include "analysis/nullflow.hh"
#include "analysis/store.hh"

namespace sierra {

struct HarnessAnalysis;

/**
 * One deduplicatable race row. The site pair is pre-normalized
 * ((m1,i1) <= (m2,i2) lexicographically), matching the detector's
 * app-level dedup key exactly; the description is the rendered
 * `RacyPair::toString` of the pair that produced the row.
 */
struct ArtifactRace {
    std::string m1;  //!< qualified method of the first access site
    int i1{-1};      //!< its instruction index
    std::string m2;  //!< qualified method of the second access site
    int i2{-1};
    std::string key; //!< canonical location key (MemLoc::key)
    std::string description;
    int priority{0};
    bool refuted{false};
    //! null-value-flow verdict of the pair (Unknown with the stage off)
    analysis::NullVerdict severity{analysis::NullVerdict::Unknown};
    std::string severityChain; //!< its provenance (empty for Unknown)
};

/** The merge-relevant projection of one harness's analysis. */
struct HarnessArtifact {
    std::string activity;
    int actions{0};           //!< PointsToResult::numRealActions
    int64_t hbEdges{0};       //!< SHBG closure pairs
    int accessesTotal{0};
    int accessesDropped{0};
    int locksetRefuted{0};
    int enablementRefuted{0};
    std::vector<ArtifactRace> races; //!< in pair order
    std::vector<analysis::UseAfterDestroyFinding> useAfterDestroy;
    std::vector<analysis::DeadlockFinding> deadlocks;
    //! validity certificate: sorted (method, env hash) over the
    //! harness's reachable non-framework methods (empty on an artifact
    //! made without a method-hash table, i.e. not for the store)
    std::vector<std::pair<std::string, uint64_t>> footprint;
};

/** Project a computed analysis into its artifact. The footprint lists
 *  the call graph's methods with their rows of the app's method-hash
 *  table `hashes`; with no table it stays empty (only the store reads
 *  it). */
HarnessArtifact makeArtifact(const HarnessAnalysis &ha,
                             const analysis::store::MethodHashTable *hashes);

/** Deterministic text serialization (byte-stable across processes). */
std::string serializeArtifact(const HarnessArtifact &artifact);

/** Parse a serialized artifact; nullopt on malformed or
 *  version-mismatched input. */
std::optional<HarnessArtifact> parseArtifact(std::string_view blob);

} // namespace sierra

#endif // SIERRA_SIERRA_ARTIFACT_HH
