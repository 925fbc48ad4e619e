/**
 * @file
 * Construction of the Static Happens-Before Graph: HB rules 1-7 from
 * paper Section 4.3.
 */

#ifndef SIERRA_HB_RULES_HH
#define SIERRA_HB_RULES_HH

#include <memory>

#include "analysis/entry_plan.hh"
#include "analysis/points_to.hh"
#include "framework/app.hh"
#include "shbg.hh"

namespace sierra::hb {

/** Knobs for SHBG construction. */
struct HbOptions {
    bool enableRule4{true}; //!< intra-procedural domination
    bool enableRule5{true}; //!< inter-procedural ICFG domination
    bool enableRule6{true}; //!< inter-action transitivity
};

/**
 * Applies the HB rules over a pointer-analysis result:
 *
 *  1. action invocation: creator < created;
 *  2. lifecycle order via dominance between harness event sites, which
 *     splits cyclic callbacks into per-site instances (Fig. 5);
 *  3. GUI model order: first-onResume < GUI events < final onStop/
 *     onDestroy, plus layout "enabledAfter" edges (Fig. 6);
 *  4. intra-procedural domination of posting sites (same looper);
 *  5. inter-procedural intra-action domination via removal-reachability
 *     on the action-local ICFG;
 *  6. inter-action transitivity (Fig. 7), iterated with
 *  7. transitive closure (maintained incrementally by Shbg).
 *
 * The AsyncTask pre < background < post chain is added alongside rule 1.
 */
class HbBuilder
{
  public:
    HbBuilder(const analysis::PointsToResult &result,
              const analysis::EntryPlan &plan,
              const framework::App &app, HbOptions options = {});
    ~HbBuilder();

    std::unique_ptr<Shbg> build();

  private:
    class Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace sierra::hb

#endif // SIERRA_HB_RULES_HH
