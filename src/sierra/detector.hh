/**
 * @file
 * The SIERRA pipeline (paper Fig. 3): harness generation -> call graph +
 * pointer analysis with action-sensitive contexts -> Static Happens-
 * Before Graph -> racy pairs -> symbolic refutation -> prioritized race
 * reports. This is the library's main public entry point.
 *
 * Harnesses are analyzed in parallel (one task per harness plan, see
 * the threading-model section of docs/INTERNALS.md): every task
 * produces a complete HarnessAnalysis from read-only shared state, and
 * the tasks are merged in plan order afterwards, so the report is
 * byte-identical at every jobs count.
 */

#ifndef SIERRA_SIERRA_DETECTOR_HH
#define SIERRA_SIERRA_DETECTOR_HH

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/deadlock.hh"
#include "analysis/effects.hh"
#include "analysis/enablement.hh"
#include "analysis/ifds.hh"
#include "analysis/points_to.hh"
#include "artifact.hh"
#include "framework/app.hh"
#include "framework/icc.hh"
#include "harness/harness.hh"
#include "hb/rules.hh"
#include "race/racy.hh"
#include "symbolic/refuter.hh"
#include "util/metrics.hh"

namespace sierra {

/** All pipeline options in one place. */
struct SierraOptions {
    analysis::PointsToOptions pta;
    race::RacyOptions racy;
    symbolic::RefuterOptions refuter;
    //! symbolic refutation (`--no-refute` skips it)
    bool runRefutation{true};
    /**
     * The dataflow stage: compute method field-effect summaries
     * (analysis::FieldEffects) once per app and hand them to racy-pair
     * detection as a report-preserving conflict prefilter
     * (`--no-dataflow` ablates it; measured by bench_ablation_dataflow).
     */
    bool effectPrefilter{true};
    /**
     * The escape stage: classify abstract objects as thread-shared
     * (analysis::EscapeAnalysis) and drop accesses whose every base is
     * thread-local before the quadratic racy-pair loop. Time-only and
     * report-preserving (`--no-escape` ablates it).
     */
    bool escapeFilter{true};
    /**
     * The lock-set stage: compute must-held lock sets
     * (analysis::LockSetAnalysis) and refute pairs whose every action
     * pair involves a background thread and shares a common must-alias
     * lock, before symbolic refutation (`--no-lockset` ablates it).
     */
    bool locksetRefutation{true};
    /**
     * The enablement stage: registration typestate
     * (analysis::EnablementAnalysis) composed with SHBG reachability
     * to refute pairs whose callback is must-disabled at every point
     * the other action can run. Demand-driven: runs only over pairs
     * surviving lockset, between deadlock and IFDS (`--no-enablement`
     * ablates it; measured by bench_ablation_enablement).
     */
    bool enablement{true};
    /**
     * The IFDS stage: summary-based interprocedural constant facts
     * (analysis::InterConstants) handed to the symbolic refuter via
     * ExecutorOptions::inter, plus the use-after-destroy typestate
     * client. These are the refuter's only constant facts. Report-
     * preserving for true races -- the facts are sound, so they only
     * refute more false positives (`--no-ifds` ablates it; measured by
     * bench_ablation_ifds).
     */
    bool ifds{true};
    /**
     * The deadlock stage: build the lock-dependency graph over the
     * lock-set results and report cyclic acquisitions reachable from
     * concurrently-runnable contexts (analysis::findDeadlocks). Purely
     * additive — it refutes nothing, it only fills the `deadlocks:`
     * report section (`--no-deadlock` ablates it).
     */
    bool deadlock{true};
    /**
     * The null-value-flow stage (analysis/nullflow): classify each
     * *surviving* pair as HARMFUL (the read can observe null/absent
     * state whose only non-null source is the racing write), GUARDED
     * (a dominating null check protects the sink) or UNKNOWN, and
     * severity-sort the report. Purely additive — it refutes nothing;
     * with the stage off every verdict is Unknown and the races keep
     * their priority order (`--no-nullflow` ablates it; measured by
     * bench_ablation_nullflow).
     */
    bool nullflow{true};
    /**
     * ICC modeling (framework::IccModel): resolve explicit Intent
     * targets at startActivity/startService/sendBroadcast/PendingIntent
     * sites and extend each activity harness with the lifecycles of the
     * activities it launches, so cross-component races are reachable.
     * Consumed at harness-generation time, i.e. by the detector
     * *constructor* — pass the options to the two-argument constructor
     * to ablate it (`--no-icc`); flipping it at analyze() time has no
     * effect.
     */
    bool icc{true};
    /**
     * Worker threads for the harness fan-out: harness plans run as
     * parallel tasks, each stage inside a task runs serially. 0 =
     * hardware_concurrency; 1 = fully serial. The report is identical
     * at every value.
     */
    int jobs{0};
    /**
     * Optional metrics registry, filled during the deterministic merge
     * (counter catalog in docs/OBSERVABILITY.md). Not owned; null
     * disables the bookkeeping. Counters mirror report fields exactly
     * (e.g. `race.lockset_refuted` == AppReport::locksetRefuted) and
     * are identical at every jobs count.
     */
    util::metrics::Registry *metrics{nullptr};
};

/**
 * Per-stage timers (paper Table 4 columns), in per-task wall seconds
 * (each stage's wall time measured inside the task that ran it), so
 * the numbers stay meaningful under parallelism: the per-stage fields
 * sum each task's own stage time, so they approximate the serial
 * (single-job) cost and are comparable across jobs counts; `total` is
 * the real elapsed wall time of the run, which is what shrinks as jobs
 * grow. Each stage field is named by exactly one stageTable() row; a
 * disabled stage keeps its field at zero.
 */
struct StageTimes {
    double cgPa{0};       //!< call graph + pointer analysis (per-task wall s)
    double hbg{0};        //!< SHBG construction (per-task wall s)
    //! field-effect summaries, app-level (wall s)
    double dataflow{0};
    double escape{0};     //!< escape analysis + access filter (per-task wall s)
    double racy{0};       //!< access extraction + racy pairs (per-task wall s)
    double lockset{0};    //!< lock-set analysis + refutation (per-task wall s)
    double deadlock{0};   //!< lock-dependency cycles (per-task wall s)
    //! registration typestate + refutation (per-task wall s)
    double enablement{0};
    double ifds{0};       //!< interprocedural summaries + UAD (per-task wall s)
    double refutation{0}; //!< symbolic refutation (per-task wall s)
    //! null-value-flow severity classification (per-task wall s)
    double nullflow{0};
    //! sum of all per-task stage times; equals the sum of the stage
    //! fields (up to fp rounding) by construction, regardless of task
    //! completion order — the merge runs serially in plan order
    double totalCpu{0};
    double total{0}; //!< elapsed wall-clock of the whole run

    /** Fold another task's stage times in (associative, commutative
     *  component-wise sums; `total` is deliberately excluded — wall
     *  time is a property of the whole run, not of one task). */
    void add(const StageTimes &o);
};

/** The pipeline stages in run and render order (one stageTable() row
 *  each; racy runs in two parts around escape). */
enum class StageId {
    CgPa, Hbg, Dataflow, Escape, Racy, Lockset, Deadlock, Enablement,
    Ifds, Refutation, Nullflow
};
inline constexpr int kNumStages = 11;

/**
 * One pipeline stage, declared once: everything that names the stage
 * outside its own code (timer field, on/off toggle, CLI flag, trace
 * spans, report and metrics names) is read from its row, so adding a
 * stage means an enum entry, a row, a runStage call in the detector
 * and its StageTimes field (plus a SierraOptions bool if it can be
 * switched off).
 */
struct StageDesc {
    StageId id;
    //! stem of the span and histogram names ("stage.<name>...")
    const char *name;
    //! trace span per run part (only racy has a second part)
    const char *spans[2];
    double StageTimes::*time; //!< the stage's timer field
    //! the toggle that switches the stage off; null when always on
    bool SierraOptions::*toggle{nullptr};
    //! `sierra analyze` flag clearing the toggle (null when always on)
    const char *flag{nullptr};
    const char *help{nullptr}; //!< usage text for the flag (\n-split)
    const char *textName; //!< token on the text `time:` line
    const char *jsonName; //!< key in the JSON `timesMs` object
    const char *histogram; //!< per-harness duration histogram
};

/** Every stage exactly once, in StageId order. */
const std::array<StageDesc, kNumStages> &stageTable();

/** The row of one stage. */
const StageDesc &stageDesc(StageId id);

/** Whether `options` runs the stage (always-on stages: true). */
bool stageEnabled(StageId id, const SierraOptions &options);

/** The analysis artifacts of one harness (one activity). */
struct HarnessAnalysis {
    std::string activity;
    std::unique_ptr<analysis::PointsToResult> pta;
    std::unique_ptr<hb::Shbg> shbg;
    //! interprocedural constant facts (null when the stage is off)
    std::unique_ptr<analysis::InterConstants> inter;
    //! use-after-destroy findings (empty when the stage is off)
    std::vector<analysis::UseAfterDestroyFinding> useAfterDestroy;
    //! cyclic lock-acquisition findings (empty when the stage is off)
    std::vector<analysis::DeadlockFinding> deadlocks;
    analysis::DeadlockStats deadlockStats; //!< deadlock-stage work
    std::vector<race::Access> accesses;
    std::vector<race::RacyPair> pairs; //!< prioritized, refuted marked
    symbolic::RefutationStats refutation;
    race::RacyStats racyStats; //!< pair-loop work counters
    int accessesTotal{0};     //!< extracted accesses before filtering
    int accessesDropped{0};   //!< thread-local accesses escape removed
    int locksetRefuted{0};    //!< pairs refuted by the lock-set stage
    int enablementRefuted{0}; //!< pairs refuted by the enablement stage
    //! enablement-stage work counters (all zero when the stage is off)
    analysis::EnablementStats enablementStats;
    //! surviving pairs classified non-Unknown by the nullflow stage
    int nullflowClassified{0};
    //! nullflow-stage work counters (all zero when the stage is off)
    analysis::NullFlowStats nullflowStats;

    int numActions() const { return pta->numRealActions(); }
    int64_t hbEdges() const { return shbg->numClosurePairs(); }
    int racyPairCount() const { return static_cast<int>(pairs.size()); }
    int survivingRaceCount() const;
};

/** One deduplicated, app-level race report row. */
struct AppRace {
    std::string description;
    int priority{0};
    bool refuted{false};
    std::string fieldKey; //!< canonical location key (for scoring)
    //! which activities' harnesses exposed it
    std::vector<std::string> activities;
    //! null-value-flow severity (merged across harnesses: the
    //! highest-rank verdict of any surviving instance wins)
    analysis::NullVerdict severity{analysis::NullVerdict::Unknown};
    //! provenance chain of the winning verdict (empty for Unknown)
    std::string severityChain;
};

/** The aggregated result for one app (paper Table 3/4 rows). */
struct AppReport {
    std::string app;
    int harnesses{0};
    int actions{0};       //!< summed over harnesses (paper does too)
    int64_t hbEdges{0};   //!< summed closure pairs
    double orderedPct{0}; //!< aggregated ordered-pair percentage
    int racyPairs{0};     //!< deduplicated across harnesses
    int afterRefutation{0};
    int accessesDropped{0}; //!< summed thread-local accesses removed
    int locksetRefuted{0};  //!< summed pairs refuted by lock sets
    int enablementRefuted{0}; //!< summed pairs refuted by enablement
    int harmfulRaces{0}; //!< surviving races classified HARMFUL
    int guardedRaces{0}; //!< surviving races classified GUARDED
    StageTimes times;
    std::vector<AppRace> races; //!< deduplicated, priority-ranked
    //! use-after-destroy findings, deduplicated across harnesses
    std::vector<analysis::UseAfterDestroyFinding> useAfterDestroy;
    //! deadlock findings, deduplicated across harnesses
    std::vector<analysis::DeadlockFinding> deadlocks;
    std::vector<HarnessAnalysis> perHarness;
};

/**
 * Stage-level reuse hooks for incremental re-analysis (`sierra serve`).
 *
 * When analyze() is given a HarnessReuse, it consults `tryLoad` for
 * each harness plan *before* the parallel fan-out; a hit skips the
 * whole pipeline for that plan and merges the loaded artifact instead.
 * Misses run normally and their freshly made artifact is offered to
 * `onComputed` for persistence. The merge consumes only artifact
 * fields either way, so a warm report is byte-identical to the cold
 * one by construction (incremental_test pins this; the caching rules
 * live in docs/CACHING.md).
 */
struct HarnessReuse {
    /** Return true and fill `out` to reuse a stored artifact for this
     *  plan. Called serially in plan order. */
    std::function<bool(const harness::HarnessPlan &, HarnessArtifact &)>
        tryLoad;
    /** Offered every freshly computed (plan, artifact) pair, serially
     *  in plan order, for persistence. */
    std::function<void(const harness::HarnessPlan &, const HarnessArtifact &)>
        onComputed;
};

/**
 * The detector. Construction generates the per-activity harnesses into
 * the app's module (once); analyze() may be called repeatedly with
 * different options (e.g. to ablate the context policy). Options that
 * act at harness-generation time (SierraOptions::icc) are honored only
 * by the two-argument constructor.
 */
class SierraDetector
{
  public:
    explicit SierraDetector(framework::App &app);
    SierraDetector(framework::App &app, const SierraOptions &options);

    /** Run the full pipeline over every activity harness. */
    AppReport analyze(const SierraOptions &options = {});

    /** As above, with per-harness reuse hooks; `reuse` may be null
     *  (then identical to the plain overload). */
    AppReport analyze(const SierraOptions &options,
                      const HarnessReuse *reuse);

    /** Analyze a single activity's harness. */
    HarnessAnalysis analyzeActivity(const std::string &activity,
                                    const SierraOptions &options = {});

    const std::vector<harness::HarnessPlan> &plans() const
    {
        return _plans;
    }

    /** ICC scan counters (all zero when icc was off at construction). */
    const framework::IccStats &iccStats() const { return _iccStats; }

    /** Env hashes of every analyzable method, harness classes included:
     *  built on first use (so after harness generation), then kept.
     *  Artifact footprints and the serve store's diff read them; a
     *  plain analyze() without persistence never builds it. */
    const analysis::store::MethodHashTable &methodHashes();

  private:
    const harness::HarnessPlan &planFor(const std::string &activity);

    /**
     * The pipeline stages for one harness plan — the single body
     * both analyzeActivity and (possibly many threads of) analyze run.
     * Reads only shared-immutable state (_app, the plan, the app-level
     * facts `options` points at); everything it produces is owned by
     * the returned HarnessAnalysis. Stage times accumulate into
     * `times`.
     */
    HarnessAnalysis runHarness(const harness::HarnessPlan &plan,
                               const SierraOptions &options,
                               StageTimes &times);

    framework::App &_app;
    std::vector<harness::HarnessPlan> _plans;
    framework::IccStats _iccStats;
    std::optional<analysis::store::MethodHashTable> _methodHashes;
};

/**
 * One key of the JSON `timesMs` object: one entry per stageTable() row
 * plus the two totals. The text `time:` line walks the same table, so
 * a stage cannot miss either output — a static_assert in detector.cc
 * ties the row count to sizeof(StageTimes), and report_times_test
 * checks both renderings cover every stage.
 */
struct StageTimeEntry {
    const char *jsonName; //!< key in the JSON `timesMs` object
    double seconds;       //!< the StageTimes field value
};

/** Every StageTimes field exactly once, in render order. */
std::vector<StageTimeEntry> stageTimeEntries(const StageTimes &times);

/**
 * Render an app report as human-readable text (ranked race list).
 * `with_times` includes the timing line; pass false to get output that
 * is reproducible across runs and jobs counts (the determinism tests
 * compare this form).
 */
std::string formatReport(const AppReport &report, int max_races = 50,
                         bool with_times = true);

} // namespace sierra

#endif // SIERRA_SIERRA_DETECTOR_HH
