#include "refuter.hh"

#include "util/trace.hh"

namespace sierra::symbolic {

namespace {

/** How many (action1, action2) pairs to try per racy pair; a pair is
 *  refuted only if every tried pair is refuted. */
constexpr int kMaxActionPairsPerRace = 16;

/** Decide one racy pair with the given executor; updates the verdict
 *  counters. */
void
refutePair(BackwardExecutor &exec,
           const std::vector<race::Access> &accesses,
           race::RacyPair &pair, RefutationStats &stats)
{
    if (pair.refuted)
        return; // already refuted by an earlier (lock-set) stage
    bool any_survives = false;
    bool any_budget = false;
    int tried = 0;
    for (const auto &entry : pair.actionPairs) {
        if (tried++ >= kMaxActionPairsPerRace) {
            // Untried pairs are conservatively assumed to survive.
            any_survives = true;
            break;
        }
        QueryVerdict d1 = exec.orderFeasible(
            accesses[entry.access1], entry.action1, entry.action2);
        if (d1 == QueryVerdict::Infeasible)
            continue;
        QueryVerdict d2 = exec.orderFeasible(
            accesses[entry.access2], entry.action2, entry.action1);
        if (d2 == QueryVerdict::Infeasible)
            continue;
        any_survives = true;
        if (d1 == QueryVerdict::Budget || d2 == QueryVerdict::Budget)
            any_budget = true;
        break; // one surviving ordering pair keeps the report
    }
    pair.refuted = !any_survives;
    if (pair.refuted)
        pair.refutedBy = race::RefutedBy::Symbolic;
    pair.refutationTimedOut = any_budget;
    if (pair.refuted) {
        ++stats.refuted;
        SIERRA_TRACE_INSTANT("refutation", "pair refuted",
                             util::trace::arg("by", "symbolic"));
    } else {
        ++stats.survived;
    }
    if (any_budget)
        ++stats.timedOut;
}

} // namespace

RefutationStats
refuteRaces(const analysis::PointsToResult &result,
            const std::vector<race::Access> &accesses,
            std::vector<race::RacyPair> &pairs,
            const ExecutorOptions &options,
            const analysis::InterConstants *inter)
{
    RefutationStats stats;
    BackwardExecutor exec(result, options, inter);
    for (race::RacyPair &pair : pairs)
        refutePair(exec, accesses, pair, stats);
    stats.exec = exec.stats();
    return stats;
}

} // namespace sierra::symbolic
