#include "racy.hh"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "air/logging.hh"
#include "util/trace.hh"

namespace sierra::race {

using analysis::Action;
using analysis::ObjId;
using analysis::PointsToResult;

const char *
refutedByName(RefutedBy r)
{
    switch (r) {
      case RefutedBy::None: return "none";
      case RefutedBy::Lockset: return "lockset";
      case RefutedBy::Enablement: return "enablement";
      case RefutedBy::Symbolic: return "symbolic";
    }
    return "?";
}

std::string
RacyPair::toString(const PointsToResult &r,
                   const std::vector<Access> &accesses) const
{
    std::string out = "race on " + loc.toString(r) + ": ";
    out += accesses[access1].toString(r);
    out += " vs ";
    out += accesses[access2].toString(r);
    if (!actionPairs.empty()) {
        const Action &a1 = r.actions.get(actionPairs[0].action1);
        const Action &a2 = r.actions.get(actionPairs[0].action2);
        out += " [" + a1.label + " || " + a2.label + "]";
    }
    if (refuted) {
        out += " (refuted";
        if (refutedBy != RefutedBy::None)
            out += std::string(": ") + refutedByName(refutedBy);
        out += ")";
    }
    return out;
}

namespace {

/** Shared locations of two accesses (points-to intersection, with
 *  array element/wildcard aliasing). */
std::vector<MemLoc>
sharedLocs(const Access &a1, const Access &a2)
{
    std::vector<MemLoc> out;
    for (const MemLoc &l1 : a1.locs) {
        for (const MemLoc &l2 : a2.locs) {
            if (locsMayAlias(l1, l2))
                out.push_back(l1);
        }
    }
    return out;
}

} // namespace

std::vector<RacyPair>
findRacyPairs(const PointsToResult &result, const hb::Shbg &shbg,
              const std::vector<Access> &accesses,
              const analysis::FieldEffects *effects,
              const std::vector<char> *live, RacyStats *stats)
{
    // Dedup by (min site, max site, key).
    std::map<std::tuple<int, int, std::string>, RacyPair> dedup;

    // Per-access method summaries for the effect prefilter, fetched
    // once instead of per pair.
    std::vector<const analysis::FieldEffects::Summary *> summaries;
    if (effects) {
        summaries.reserve(accesses.size());
        for (const Access &a : accesses)
            summaries.push_back(&effects->of(result.cg.node(a.node).method));
    }

    // Work counters accumulate in locals (not through the stats
    // pointer) so the quadratic loop costs nothing extra when they are
    // unwanted.
    int64_t considered = 0, prefilter_skipped = 0, alias_checked = 0;

    for (size_t i = 0; i < accesses.size(); ++i) {
        if (live && !(*live)[i])
            continue;
        for (size_t j = i; j < accesses.size(); ++j) {
            if (live && !(*live)[j])
                continue;
            const Access &x = accesses[i];
            const Access &y = accesses[j];
            if (!x.isWrite && !y.isWrite)
                continue;
            ++considered;
            if (effects &&
                !analysis::FieldEffects::mayConflict(*summaries[i],
                                                     *summaries[j])) {
                ++prefilter_skipped;
                continue;
            }
            ++alias_checked;
            std::vector<MemLoc> shared = sharedLocs(x, y);
            if (shared.empty())
                continue;

            std::vector<ActionPairEntry> qualifying;
            // Action pairs that differ only in which instance of the
            // same posting site created them give identical refutation
            // queries; dedup by that signature.
            std::set<std::tuple<int, int, int, int>> signatures;
            for (int a1 : result.cg.actionsOf(x.node)) {
                for (int a2 : result.cg.actionsOf(y.node)) {
                    if (a1 == a2)
                        continue;
                    if (!shbg.unordered(a1, a2))
                        continue;
                    const Action &act1 = result.actions.get(a1);
                    const Action &act2 = result.actions.get(a2);
                    // Paper Section 4.4: two looper actions race only
                    // when they run on the same looper.
                    if (act1.runsOnLooper() && act2.runsOnLooper() &&
                        result.looperOfAction(a1) !=
                            result.looperOfAction(a2)) {
                        continue;
                    }
                    if (!signatures
                             .insert({act1.creationSite,
                                      act1.messageWhat,
                                      act2.creationSite,
                                      act2.messageWhat})
                             .second) {
                        continue;
                    }
                    qualifying.push_back({a1, a2,
                                          static_cast<int>(i),
                                          static_cast<int>(j)});
                }
            }
            if (qualifying.empty())
                continue;

            int s1 = std::min(x.site, y.site);
            int s2 = std::max(x.site, y.site);
            // String key (not the interned id): map iteration order is
            // report order, which must stay lexicographic.
            auto key = std::make_tuple(s1, s2, shared.front().key.str());
            auto it = dedup.find(key);
            if (it == dedup.end()) {
                RacyPair p;
                p.access1 = static_cast<int>(i);
                p.access2 = static_cast<int>(j);
                p.loc = shared.front();
                p.actionPairs = std::move(qualifying);
                dedup.emplace(std::move(key), std::move(p));
            } else {
                // The site-level signature dedup above is per access
                // pair; across access-instance pairs, dedup on the
                // (creationSite, what) signature again.
                auto &existing = it->second;
                for (auto &q : qualifying) {
                    bool dup = false;
                    for (const auto &e : existing.actionPairs) {
                        const Action &ea1 = result.actions.get(e.action1);
                        const Action &ea2 = result.actions.get(e.action2);
                        const Action &qa1 = result.actions.get(q.action1);
                        const Action &qa2 = result.actions.get(q.action2);
                        if (ea1.creationSite == qa1.creationSite &&
                            ea1.messageWhat == qa1.messageWhat &&
                            ea2.creationSite == qa2.creationSite &&
                            ea2.messageWhat == qa2.messageWhat) {
                            dup = true;
                            break;
                        }
                    }
                    if (!dup)
                        existing.actionPairs.push_back(q);
                }
            }
        }
    }

    if (stats) {
        stats->accessPairsConsidered += considered;
        stats->prefilterSkipped += prefilter_skipped;
        stats->aliasChecked += alias_checked;
    }

    std::vector<RacyPair> out;
    out.reserve(dedup.size());
    for (auto &[key, pair] : dedup)
        out.push_back(std::move(pair));
    return out;
}

std::vector<char>
escapeLiveMask(const analysis::EscapeAnalysis &escape,
               const std::vector<Access> &accesses)
{
    std::vector<char> live(accesses.size(), 0);
    for (size_t i = 0; i < accesses.size(); ++i) {
        for (const MemLoc &loc : accesses[i].locs) {
            if (loc.isStatic || escape.escapes(loc.obj)) {
                live[i] = 1;
                break;
            }
        }
    }
    return live;
}

int
refuteWithLockSets(const PointsToResult &result,
                   const analysis::LockSetAnalysis &locks,
                   const std::vector<Access> &accesses,
                   std::vector<RacyPair> &pairs)
{
    int refuted = 0;
    for (RacyPair &pair : pairs) {
        if (pair.refuted || pair.actionPairs.empty())
            continue;
        bool all_protected = true;
        for (const ActionPairEntry &entry : pair.actionPairs) {
            const Action &a1 = result.actions.get(entry.action1);
            const Action &a2 = result.actions.get(entry.action2);
            // Monitors only order truly concurrent accesses. Two
            // same-looper events serialize anyway; their race is
            // event-order nondeterminism, which a lock held inside
            // each event cannot remove.
            if (a1.runsOnLooper() && a2.runsOnLooper()) {
                all_protected = false;
                break;
            }
            const Access &x = accesses[entry.access1];
            const Access &y = accesses[entry.access2];
            std::set<analysis::ObjId> l1 =
                locks.locksHeldAt(x.node, x.instrIdx);
            if (l1.empty()) {
                all_protected = false;
                break;
            }
            std::set<analysis::ObjId> l2 =
                locks.locksHeldAt(y.node, y.instrIdx);
            bool common = false;
            for (analysis::ObjId obj : l1) {
                if (l2.count(obj)) {
                    common = true;
                    break;
                }
            }
            if (!common) {
                all_protected = false;
                break;
            }
        }
        if (all_protected) {
            pair.refuted = true;
            pair.refutedBy = RefutedBy::Lockset;
            ++refuted;
            SIERRA_TRACE_INSTANT("refutation", "pair refuted",
                                 util::trace::arg("by", "lockset"));
        }
    }
    return refuted;
}

int
refuteWithEnablement(analysis::EnablementAnalysis &enablement,
                     const std::function<bool(int, int)> &reaches,
                     std::vector<RacyPair> &pairs)
{
    int refuted = 0;
    for (RacyPair &pair : pairs) {
        if (pair.refuted || pair.actionPairs.empty())
            continue;
        bool all_exonerated = true;
        for (const ActionPairEntry &entry : pair.actionPairs) {
            if (!enablement.disabledBefore(entry.action1, entry.action2,
                                           reaches) &&
                !enablement.disabledBefore(entry.action2, entry.action1,
                                           reaches)) {
                all_exonerated = false;
                break;
            }
        }
        if (all_exonerated) {
            pair.refuted = true;
            pair.refutedBy = RefutedBy::Enablement;
            ++refuted;
            SIERRA_TRACE_INSTANT("refutation", "pair refuted",
                                 util::trace::arg("by", "enablement"));
        }
    }
    return refuted;
}

int
classifyWithNullFlow(analysis::NullFlowAnalysis &nullflow,
                     const std::vector<Access> &accesses,
                     std::vector<RacyPair> &pairs)
{
    int classified = 0;
    for (RacyPair &pair : pairs) {
        if (pair.refuted)
            continue;
        const Access &x = accesses[pair.access1];
        const Access &y = accesses[pair.access2];
        // The sink shape is a reference-typed field read racing a
        // write: read/read and write/write pairs stay Unknown, as do
        // array-element races (no null-dereference shape to chase).
        if (x.isWrite == y.isWrite)
            continue;
        const Access &read = x.isWrite ? y : x;
        const Access &write = x.isWrite ? x : y;
        if (!read.refTyped || read.isArrayElem)
            continue;
        analysis::NullFlowVerdict v = nullflow.classifyRead(
            read.node, read.instrIdx, write.node, write.instrIdx,
            pair.loc.key.str());
        pair.severity = v.verdict;
        pair.severityChain = std::move(v.chain);
        if (v.verdict != analysis::NullVerdict::Unknown) {
            ++classified;
            SIERRA_TRACE_INSTANT(
                "nullflow", "pair classified",
                util::trace::arg(
                    "verdict",
                    analysis::nullVerdictName(v.verdict)));
        }
    }
    return classified;
}

void
prioritize(const PointsToResult &result,
           const std::vector<Access> &accesses,
           std::vector<RacyPair> &pairs)
{
    (void)result;
    for (RacyPair &p : pairs) {
        const Access &x = accesses[p.access1];
        const Access &y = accesses[p.access2];
        int score = 0;
        // Paper heuristic 1/2: application code ranks above framework
        // code reached from the app.
        if (x.inAppCode && y.inAppCode)
            score += 100;
        else if (x.inAppCode || y.inAppCode)
            score += 50;
        // Paper heuristic 3: pointer reference reads/writes can turn
        // into NullPointerExceptions.
        if (x.refTyped || y.refTyped)
            score += 25;
        if (x.isWrite && y.isWrite)
            score += 5;
        p.priority = score;
    }
    std::sort(pairs.begin(), pairs.end(),
              [&](const RacyPair &a, const RacyPair &b) {
                  if (a.priority != b.priority)
                      return a.priority > b.priority;
                  const Access &ax = accesses[a.access1];
                  const Access &bx = accesses[b.access1];
                  if (ax.site != bx.site)
                      return ax.site < bx.site;
                  return accesses[a.access2].site <
                         accesses[b.access2].site;
              });
}

} // namespace sierra::race
