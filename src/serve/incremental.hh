/**
 * @file
 * Incremental re-analysis on top of the artifact store: the engine
 * behind `sierra serve` (docs/CACHING.md has the full model).
 *
 * Each per-harness artifact is stored under a key that folds the
 * app's structure, the report-affecting options and the activity
 * together, and carries its footprint: the content hash of every
 * method its harness reaches. A later submission reuses an artifact
 * exactly when its key hits and every footprint row still matches the
 * submission's method hashes; everything else re-runs the full
 * pipeline for its harness. The footprint is the only invalidation:
 * nothing about a previous submission is kept but the artifacts
 * themselves, so the store is a plain map from harness key to
 * artifact blob. Because the detector merge consumes only artifact
 * fields, a warm report is byte-identical to a cold one.
 */

#ifndef SIERRA_SERVE_INCREMENTAL_HH
#define SIERRA_SERVE_INCREMENTAL_HH

#include <string>

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
    int methodsTotal{0};      //!< bodies hashed for the footprints
    std::string shapeHash;    //!< hex app-shape + options hash
};

/**
 * Drives SierraDetector over a Store: loads and checks each plan's
 * stored artifact into its reuse slot, runs the detector, and stores
 * the slots it filled. Stateless between calls except for what lives
 * in the store, so one analyzer (and one store) can serve many apps
 * interleaved.
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

    /** The content-hash fingerprint of every report-affecting option
     *  (jobs and metrics excluded: they never change reports). */
    static uint64_t optionsFingerprint(const SierraOptions &options);

  private:
    analysis::store::Store &_store;
    util::metrics::Registry *_metrics;
};

} // namespace sierra::serve

#endif // SIERRA_SERVE_INCREMENTAL_HH
