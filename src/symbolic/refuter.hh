/**
 * @file
 * Refutation driver: runs the backward executor over candidate racy
 * pairs in both orders (paper Section 5).
 *
 * A candidate race <alpha_A, alpha_B> is a true positive iff both
 * orderings are feasible; if either ordering is infeasible the pair is
 * refuted. Budget exhaustion conservatively keeps the report (paper:
 * "in line with our approach to over-approximate actual races").
 *
 * Refutation is serial: one BackwardExecutor decides a harness's pairs
 * in order, so its query memo (and, when enabled, its refuted-node
 * cache) carries across them. Parallelism lives one level up, in the
 * detector's per-harness fan-out.
 */

#ifndef SIERRA_SYMBOLIC_REFUTER_HH
#define SIERRA_SYMBOLIC_REFUTER_HH

#include <vector>

#include "executor.hh"
#include "race/racy.hh"

namespace sierra::symbolic {

/** Aggregate statistics for the evaluation tables. */
struct RefutationStats {
    int refuted{0};
    int survived{0};
    int timedOut{0};
    ExecutorStats exec;
};

/**
 * Mark refuted pairs in place, in order, with one executor built from
 * `options` and the IFDS facts `inter` (may be null; see
 * BackwardExecutor). Pairs already refuted by an earlier stage (lock
 * sets) are skipped and excluded from the statistics.
 */
RefutationStats
refuteRaces(const analysis::PointsToResult &result,
            const std::vector<race::Access> &accesses,
            std::vector<race::RacyPair> &pairs,
            const ExecutorOptions &options = {},
            const analysis::InterConstants *inter = nullptr);

} // namespace sierra::symbolic

#endif // SIERRA_SYMBOLIC_REFUTER_HH
