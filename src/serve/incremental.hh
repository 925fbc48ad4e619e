/**
 * @file
 * Incremental re-analysis on top of the artifact store: the engine
 * behind `sierra serve` (docs/CACHING.md has the full model).
 *
 * Each submission of an app is diffed against the store's record of
 * the previous submission with the same app name: the per-method
 * content hashes identify *changed* methods, and the reverse
 * dependency index over the IFDS summary graph widens them to the
 * *dirty* set (changed methods plus transitive callers whose
 * summaries embed their facts). Per-harness artifacts whose footprint
 * still validates are merged as-is; everything else re-runs the full
 * pipeline for its harness. Because the detector merge consumes only
 * artifact fields, a warm report is byte-identical to a cold one.
 *
 * The store keeps only what a later submission reads back: per app
 * the method index (`methods`), the dependency index (`deps`) and the
 * shape hash (`shape`), plus one `harness` artifact per harness key.
 */

#ifndef SIERRA_SERVE_INCREMENTAL_HH
#define SIERRA_SERVE_INCREMENTAL_HH

#include <set>
#include <string>
#include <vector>

#include "analysis/store.hh"
#include "sierra/detector.hh"

namespace sierra::serve {

/** Outcome of one (possibly warm) analysis pass. */
struct IncrementalResult {
    AppReport report;
    /** `formatReport(report, 50, false)` (no timing line): the byte-
     *  stable form both the daemon and the golden tests compare. */
    std::string reportText;
    int harnessesTotal{0};
    int harnessesReused{0};   //!< artifacts merged without recompute
    int harnessesComputed{0}; //!< full pipeline runs
    int methodsTotal{0};
    int methodsChanged{0};    //!< env-hash differs from last submission
    //! changed plus transitive callers via the IFDS dependency index
    std::set<std::string> dirty;
    std::string shapeHash;    //!< hex app-shape hash
    bool shapeChanged{false}; //!< vs. the previous submission
    bool firstSubmission{false};
};

/**
 * Drives SierraDetector with HarnessReuse hooks wired to a Store.
 * Stateless between calls except for what lives in the store, so one
 * analyzer (and one store) can serve many apps interleaved.
 */
class IncrementalAnalyzer
{
  public:
    explicit IncrementalAnalyzer(analysis::store::Store &store,
                                 util::metrics::Registry *metrics
                                 = nullptr)
        : _store(store), _metrics(metrics)
    {
    }

    /** Analyze `app` under `options`, reusing stored artifacts where
     *  valid and persisting fresh ones. */
    IncrementalResult analyze(framework::App &app,
                              const SierraOptions &options);

    /** The content-hash fingerprint of the ablation-relevant options
     *  (jobs and metrics excluded: they never change reports). */
    static uint64_t optionsFingerprint(const SierraOptions &options);

  private:
    analysis::store::Store &_store;
    util::metrics::Registry *_metrics;
};

} // namespace sierra::serve

#endif // SIERRA_SERVE_INCREMENTAL_HH
