#include "detector.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <tuple>

#include "air/logging.hh"
#include "framework/known_api.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace sierra {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

using Opts = SierraOptions;
using Times = StageTimes;

// The stage table; always-on stages have no toggle, flag or help.
constexpr std::array<StageDesc, kNumStages> kStages{{
    {StageId::CgPa, "cg_pa", {"stage.cg_pa"},
     &Times::cgPa, nullptr, nullptr, nullptr,
     "cg+pa", "cgPa", "stage.cg_pa.seconds"},
    {StageId::Hbg, "hbg", {"stage.hbg"},
     &Times::hbg, nullptr, nullptr, nullptr,
     "hbg", "hbg", "stage.hbg.seconds"},
    {StageId::Dataflow, "dataflow", {"stage.dataflow"},
     &Times::dataflow, &Opts::effectPrefilter, "--no-dataflow",
     "disable the dataflow stage (the field-effect\n"
     "prefilter of the racy-pair loop)",
     "dataflow", "dataflow", "stage.dataflow.seconds"},
    {StageId::Escape, "escape", {"stage.escape"},
     &Times::escape, &Opts::escapeFilter, "--no-escape",
     "disable the escape stage (thread-local accesses\n"
     "are kept in the racy-pair loop)",
     "escape", "escape", "stage.escape.seconds"},
    {StageId::Racy, "racy", {"stage.racy.extract", "stage.racy.pairs"},
     &Times::racy, nullptr, nullptr, nullptr,
     "racy", "racy", "stage.racy.seconds"},
    {StageId::Lockset, "lockset", {"stage.lockset"},
     &Times::lockset, &Opts::locksetRefutation, "--no-lockset",
     "disable lock-set refutation (monitor-guarded\n"
     "pairs reach the symbolic refuter)",
     "lockset", "lockset", "stage.lockset.seconds"},
    {StageId::Deadlock, "deadlock", {"stage.deadlock"},
     &Times::deadlock, &Opts::deadlock, "--no-deadlock",
     "disable the deadlock stage (the lock-dependency\n"
     "cycle search; the deadlocks section is skipped)",
     "deadlock", "deadlock", "stage.deadlock.seconds"},
    {StageId::Enablement, "enablement", {"stage.enablement"},
     &Times::enablement, &Opts::enablement, "--no-enablement",
     "disable enablement refutation (pairs whose\n"
     "callback is provably unregistered/removed before\n"
     "the other action runs are no longer pruned)",
     "enablement", "enablement", "stage.enablement.seconds"},
    {StageId::Ifds, "ifds", {"stage.ifds"},
     &Times::ifds, &Opts::ifds, "--no-ifds",
     "disable the interprocedural constant stage (the\n"
     "refuter runs without constant facts and the\n"
     "use-after-destroy section is skipped)",
     "ifds", "ifds", "stage.ifds.seconds"},
    {StageId::Refutation, "refutation", {"stage.refutation"},
     &Times::refutation, &Opts::runRefutation, "--no-refute",
     "skip symbolic refutation",
     "refutation", "refutation", "stage.refutation.seconds"},
    {StageId::Nullflow, "nullflow", {"stage.nullflow"},
     &Times::nullflow, &Opts::nullflow, "--no-nullflow",
     "disable null-value-flow severity classification\n"
     "(every surviving race stays UNKNOWN and the list\n"
     "keeps its priority order)",
     "nullflow", "nullflow", "stage.nullflow.seconds"},
}};

constexpr bool
rowsFollowStageIds()
{
    for (int i = 0; i < kNumStages; ++i) {
        if (static_cast<int>(kStages[i].id) != i)
            return false;
    }
    return static_cast<int>(StageId::Nullflow) + 1 == kNumStages;
}
static_assert(rowsFollowStageIds(),
              "one kStages row per StageId, in StageId order");
// The stage fields + totalCpu + total: a StageTimes field added
// without a table row (or the reverse) trips this.
static_assert(sizeof(StageTimes) == (kNumStages + 2) * sizeof(double),
              "StageTimes changed: update kStages");

/**
 * Run one part of a stage. A switched-off stage is skipped outright:
 * no span, and its time stays zero (the one rule for disabled
 * stages). Otherwise `fn` runs under the part's trace span and its
 * wall time is charged to the stage's StageTimes field and totalCpu.
 */
template <typename Fn>
void
runStage(StageId id, const SierraOptions &options, StageTimes &times,
         [[maybe_unused]] const char *arg_key,
         [[maybe_unused]] const std::string &arg_value, Fn &&fn,
         [[maybe_unused]] int part = 0)
{
    if (!stageEnabled(id, options))
        return;
    const StageDesc &d = stageDesc(id);
    auto start = std::chrono::steady_clock::now();
    double seconds;
    {
        SIERRA_TRACE_SPAN(span, "stage", d.spans[part],
                          util::trace::arg(arg_key, arg_value));
        fn();
        seconds = secondsSince(start);
    }
    times.*d.time += seconds;
    times.totalCpu += seconds;
}

bool
anySurviving(const std::vector<race::RacyPair> &pairs)
{
    return std::any_of(pairs.begin(), pairs.end(),
                       [](const race::RacyPair &p) { return !p.refuted; });
}

/**
 * App-level facts shared by every harness task. Both are pure
 * functions of the module and immutable after construction, so
 * building them once per analysis instead of once per harness removes
 * the dominant redundant work from the plan fan-out (tasks only read
 * them concurrently).
 */
struct AppFacts {
    std::shared_ptr<analysis::ClassHierarchy> cha;
    //! field-effect summaries (dataflow stage; null when it is off)
    std::unique_ptr<analysis::FieldEffects> effects;
};

/** Build the app-level facts and point `task_options` at them. */
void
shareAppFacts(framework::App &app, SierraOptions &task_options,
              AppFacts &facts, StageTimes &times)
{
    facts.cha = std::make_shared<analysis::ClassHierarchy>(app.module());
    task_options.pta.sharedCha = facts.cha;
    runStage(StageId::Dataflow, task_options, times, "app", app.name(),
             [&] {
                 facts.effects = std::make_unique<analysis::FieldEffects>(
                     app.module(), *facts.cha);
                 task_options.racy.effects = facts.effects.get();
             });
}

/**
 * Fold one harness task's counters and stage times into the metrics
 * registry. Called from the serial plan-order merge, so the registry
 * contents are identical at every jobs count (the catalog of names
 * lives in docs/OBSERVABILITY.md; metrics_test pins the counters that
 * mirror report fields).
 */
void
fillMetrics(util::metrics::Registry &m, const HarnessAnalysis &ha,
            const StageTimes &t)
{
    const analysis::PtaStats &pta = ha.pta->stats;
    m.add("pta.worklist_iterations", pta.worklistIterations);
    m.add("pta.local_passes", pta.localPasses);
    m.add("pta.instr_visits", pta.instrVisits);
    m.add("pta.delta_props", pta.deltaSkips);
    m.add("arena.bytes_allocated",
          static_cast<int64_t>(ha.pta->arena.bytesAllocated()));
    m.add("pta.cg_nodes", ha.pta->cg.numNodes());
    m.add("pta.actions", ha.numActions());

    m.add("shbg.direct_edges",
          static_cast<int64_t>(ha.shbg->directEdges().size()));
    m.add("shbg.closure_pairs", ha.hbEdges());

    m.add("race.accesses_extracted", ha.accessesTotal);
    m.add("race.accesses_dropped", ha.accessesDropped);
    m.add("race.access_pairs_considered",
          ha.racyStats.accessPairsConsidered);
    m.add("race.prefilter_skipped", ha.racyStats.prefilterSkipped);
    m.add("race.alias_checked", ha.racyStats.aliasChecked);
    m.add("race.racy_pairs", ha.racyPairCount());
    m.add("race.lockset_refuted", ha.locksetRefuted);
    m.add("race.enablement_refuted", ha.enablementRefuted);

    const analysis::EnablementStats &en = ha.enablementStats;
    m.add("enablement.tracked_actions", en.trackedActions);
    m.add("enablement.enable_sites", en.enableSites);
    m.add("enablement.disable_sites", en.disableSites);
    m.add("enablement.disablers", en.disablers);
    m.add("enablement.queries", en.queries);
    m.add("enablement.exonerated", en.exonerated);

    const symbolic::RefutationStats &ref = ha.refutation;
    m.add("symbolic.refuted", ref.refuted);
    m.add("symbolic.survived", ref.survived);
    m.add("symbolic.timed_out", ref.timedOut);
    m.add("symbolic.queries", ref.exec.queries);
    m.add("symbolic.paths_explored", ref.exec.pathsExplored);
    m.add("symbolic.states_expanded", ref.exec.statesExpanded);
    m.add("symbolic.cache_hits", ref.exec.cacheHits);
    m.add("symbolic.budget_exhausted", ref.exec.budgetExhausted);
    m.add("symbolic.inter_pruned", ref.exec.interPruned);
    m.add("symbolic.inter_applied", ref.exec.interApplied);
    m.add("symbolic.phase_b_reuses", ref.exec.phaseBReuses);

    if (ha.inter) {
        const analysis::IfdsStats &ifds = ha.inter->stats();
        m.add("ifds.methods", ifds.methods);
        m.add("ifds.summary_computations", ifds.summaryComputations);
        m.add("ifds.summary_reuses", ifds.summaryReuses);
        m.add("ifds.must_write_facts", ifds.mustWriteFacts);
        m.add("ifds.budget_exhausted", ifds.budgetExhausted ? 1 : 0);
    }
    m.add("ifds.use_after_destroy",
          static_cast<int64_t>(ha.useAfterDestroy.size()));

    const analysis::NullFlowStats &nf = ha.nullflowStats;
    m.add("nullflow.queries", nf.queries);
    m.add("nullflow.sinks_examined", nf.sinksExamined);
    m.add("nullflow.stores_indexed", nf.storesIndexed);
    m.add("nullflow.null_stores", nf.nullStores);
    m.add("nullflow.guarded", nf.guarded);
    m.add("nullflow.harmful", nf.harmful);
    m.add("nullflow.dom_trees", nf.domTrees);
    m.add("nullflow.classified", ha.nullflowClassified);

    m.add("deadlock.observations", ha.deadlockStats.observations);
    m.add("deadlock.lock_nodes", ha.deadlockStats.lockNodes);
    m.add("deadlock.lock_edges", ha.deadlockStats.lockEdges);
    m.add("deadlock.cycles_examined", ha.deadlockStats.cyclesExamined);
    m.add("deadlock.findings",
          static_cast<int64_t>(ha.deadlocks.size()));

    // Per-pair refutation provenance (RefutedBy kinds).
    int64_t by_none = 0, by_lockset = 0, by_enablement = 0,
            by_symbolic = 0;
    for (const race::RacyPair &p : ha.pairs) {
        switch (p.refutedBy) {
          case race::RefutedBy::None: ++by_none; break;
          case race::RefutedBy::Lockset: ++by_lockset; break;
          case race::RefutedBy::Enablement: ++by_enablement; break;
          case race::RefutedBy::Symbolic: ++by_symbolic; break;
        }
    }
    m.add("refuted_by.none", by_none);
    m.add("refuted_by.lockset", by_lockset);
    m.add("refuted_by.enablement", by_enablement);
    m.add("refuted_by.symbolic", by_symbolic);

    // Per-harness stage durations as histograms (seconds).
    for (const StageDesc &d : kStages)
        m.observe(d.histogram, t.*d.time);
    m.observe("harness.cpu.seconds", t.totalCpu);
}

} // namespace

int
HarnessAnalysis::survivingRaceCount() const
{
    int n = 0;
    for (const auto &p : pairs) {
        if (!p.refuted)
            ++n;
    }
    return n;
}

SierraDetector::SierraDetector(framework::App &app)
    : SierraDetector(app, SierraOptions{})
{
}

SierraDetector::SierraDetector(framework::App &app,
                               const SierraOptions &options)
    : _app(app)
{
    harness::HarnessGenerator gen(app, options.icc);
    _plans = gen.generateAll();
    if (gen.icc())
        _iccStats = gen.icc()->stats();
}

const analysis::store::MethodHashTable &
SierraDetector::methodHashes()
{
    // Never before generation (the constructor ran it), so the
    // synthetic harness classes -- part of every harness's footprint --
    // are hashed too.
    if (!_methodHashes) {
        SIERRA_TRACE_SPAN(span, "store", "store.hash",
                          util::trace::arg("app", _app.name()));
        _methodHashes.emplace(_app);
    }
    return *_methodHashes;
}

const harness::HarnessPlan &
SierraDetector::planFor(const std::string &activity)
{
    for (const auto &plan : _plans) {
        if (plan.activityClass == activity)
            return plan;
    }
    fatal("no harness for activity ", activity);
}

HarnessAnalysis
SierraDetector::runHarness(const harness::HarnessPlan &plan,
                           const SierraOptions &options,
                           StageTimes &times)
{
    HarnessAnalysis ha;
    ha.activity = plan.activityClass;
    SIERRA_TRACE_SPAN(task_span, "task", "harness",
                      util::trace::arg("activity", plan.activityClass));
    auto stage = [&](StageId id, auto &&fn, int part = 0) {
        runStage(id, options, times, "activity", ha.activity, fn, part);
    };
    auto reaches = [&](int a, int b) { return ha.shbg->reaches(a, b); };

    stage(StageId::CgPa, [&] {
        analysis::PointsToAnalysis pta(_app, plan, options.pta);
        ha.pta = pta.run();
    });
    stage(StageId::Hbg, [&] {
        hb::HbBuilder hb_builder(*ha.pta, plan, _app);
        ha.shbg = hb_builder.build();
    });

    race::RacyOptions racy_options = options.racy;
    racy_options.stats = &ha.racyStats;
    stage(StageId::Racy, [&] {
        ha.accesses = race::extractAccesses(*ha.pta);
        ha.accessesTotal = static_cast<int>(ha.accesses.size());
    });

    // Escape stage: drop accesses whose every base object is
    // thread-local before the quadratic pair loop (report-preserving,
    // see analysis/escape.hh).
    std::vector<char> live;
    stage(StageId::Escape, [&] {
        analysis::EscapeAnalysis esc(*ha.pta);
        live = race::escapeLiveMask(esc, ha.accesses);
        racy_options.liveAccess = &live;
        ha.accessesDropped = static_cast<int>(
            std::count(live.begin(), live.end(), 0));
    });

    stage(
        StageId::Racy,
        [&] {
            ha.pairs = race::findRacyPairs(*ha.pta, *ha.shbg, ha.accesses,
                                           racy_options);
        },
        1);

    // Lock-set stage: refute pairs protected by a common must-held
    // monitor on every (background-involving) action pair, so they
    // never reach the expensive symbolic refuter.
    std::unique_ptr<analysis::LockSetAnalysis> locks;
    stage(StageId::Lockset, [&] {
        locks = std::make_unique<analysis::LockSetAnalysis>(*ha.pta);
        ha.locksetRefuted = race::refuteWithLockSets(*ha.pta, *locks,
                                                     ha.accesses, ha.pairs);
    });

    // Deadlock stage: cyclic lock acquisitions over the same lock-set
    // substrate (shared with the refuter above when both are on).
    // Purely additive — it refutes no pairs, it only produces the
    // `deadlocks:` findings.
    stage(StageId::Deadlock, [&] {
        if (!locks)
            locks = std::make_unique<analysis::LockSetAnalysis>(*ha.pta);
        ha.deadlocks = analysis::findDeadlocks(*ha.pta, *locks, reaches,
                                               &ha.deadlockStats);
    });
    locks.reset();

    // Enablement stage: registration typestate composed with SHBG
    // reachability — refute pairs whose callback is must-disabled at
    // every point the other action can run. Demand-driven: the scan
    // and typestate solves only happen when pairs survived lockset.
    stage(StageId::Enablement, [&] {
        if (!anySurviving(ha.pairs))
            return;
        const framework::KnownApis apis(_app.module());
        analysis::EnablementAnalysis en(*ha.pta, apis);
        ha.enablementRefuted =
            race::refuteWithEnablement(en, reaches, ha.pairs);
        ha.enablementStats = en.stats();
    });

    // IFDS stage: interprocedural constant summaries for the symbolic
    // refuter (setter parameters, callee returns, must-write-constant
    // call effects) plus the use-after-destroy typestate client.
    stage(StageId::Ifds, [&] {
        ha.inter = std::make_unique<analysis::InterConstants>(*ha.pta);
        ha.useAfterDestroy =
            analysis::findUseAfterDestroy(*ha.pta, *ha.inter, reaches);
    });

    stage(StageId::Refutation, [&] {
        symbolic::RefuterOptions refuter_options = options.refuter;
        refuter_options.exec.inter = ha.inter.get();
        ha.refutation = symbolic::refuteRaces(*ha.pta, ha.accesses,
                                              ha.pairs, refuter_options);
    });

    // Null-value-flow stage: classify surviving pairs by whether
    // losing the race dereferences null (analysis/nullflow.hh).
    // Demand-driven like enablement: the store index and dominator
    // trees are only built when pairs survived every refuter.
    stage(StageId::Nullflow, [&] {
        if (!anySurviving(ha.pairs))
            return;
        const framework::KnownApis apis(_app.module());
        analysis::NullFlowAnalysis nf(*ha.pta, ha.inter.get(), apis,
                                      reaches);
        ha.nullflowClassified =
            race::classifyWithNullFlow(nf, ha.accesses, ha.pairs);
        ha.nullflowStats = nf.stats();
    });
    race::prioritize(*ha.pta, ha.accesses, ha.pairs);
    return ha;
}

HarnessAnalysis
SierraDetector::analyzeActivity(const std::string &activity,
                                const SierraOptions &options)
{
    SierraOptions task_options = options;
    AppFacts facts;
    StageTimes times;
    shareAppFacts(_app, task_options, facts, times);
    return runHarness(planFor(activity), task_options, times);
}

AppReport
SierraDetector::analyze(const SierraOptions &options)
{
    return analyze(options, nullptr);
}

AppReport
SierraDetector::analyze(const SierraOptions &options,
                        const HarnessReuse *reuse)
{
    AppReport report;
    report.app = _app.name();
    report.harnesses = static_cast<int>(_plans.size());

    const int num_plans = static_cast<int>(_plans.size());
    const int jobs = util::resolveJobs(options.jobs);
    SierraOptions task_options = options;

    auto t_total = std::chrono::steady_clock::now();
    SIERRA_TRACE_SPAN(analyze_span, "pipeline", "analyze",
                      util::trace::arg("app", _app.name()));

    // Reuse pass: consult the store serially in plan order before the
    // fan-out. A hit replaces the whole harness pipeline with a loaded
    // artifact; the merge below reads only artifact fields, so hits
    // and misses are indistinguishable in the report bytes.
    std::vector<HarnessArtifact> artifacts(
        static_cast<size_t>(std::max(num_plans, 1)));
    std::vector<char> reused(
        static_cast<size_t>(std::max(num_plans, 1)), 0);
    if (reuse && reuse->tryLoad) {
        SIERRA_TRACE_SPAN(span, "stage", "stage.store",
                          util::trace::arg("app", _app.name()));
        for (int i = 0; i < num_plans; ++i) {
            if (reuse->tryLoad(_plans[i], artifacts[i]))
                reused[i] = 1;
        }
    }
    int cold_plans = 0;
    for (int i = 0; i < num_plans; ++i)
        cold_plans += reused[i] ? 0 : 1;

    // A fully warm submission runs no task and needs no app facts.
    StageTimes app_times;
    AppFacts facts;
    if (cold_plans > 0)
        shareAppFacts(_app, task_options, facts, app_times);

    // One task per harness plan. Each task reads only shared-immutable
    // state and owns everything it produces, so tasks are independent;
    // results land in plan order regardless of completion order. Plans
    // answered from the store need no task at all -- on a fully warm
    // submission the fan-out (and its worker pool) is skipped.
    std::vector<StageTimes> task_times(
        static_cast<size_t>(std::max(num_plans, 1)));
    std::vector<HarnessAnalysis> analyses(
        static_cast<size_t>(std::max(num_plans, 1)));
    if (cold_plans > 0) {
        analyses = util::parallelMap<HarnessAnalysis>(
            std::min(jobs, cold_plans), num_plans, [&](int i) {
                if (reused[i])
                    return HarnessAnalysis{};
                return runHarness(_plans[i], task_options,
                                  task_times[i]);
            });
    }

    // Project fresh results into artifacts (serially, in plan order)
    // and offer them for persistence. Only a persisted artifact needs
    // its footprint: the merge below never reads it.
    const bool persist = reuse && reuse->onComputed;
    for (int i = 0; i < num_plans; ++i) {
        if (reused[i])
            continue;
        artifacts[i] =
            makeArtifact(analyses[i], persist ? &methodHashes() : nullptr);
        if (persist)
            reuse->onComputed(_plans[i], artifacts[i]);
    }

    SIERRA_TRACE_SPAN(merge_span, "pipeline", "merge",
                      util::trace::arg("app", _app.name()));

    // Everything below is the deterministic merge, done serially in
    // plan order so the dedup map, aggregate counters and timing sums
    // are byte-identical at every jobs count.

    // App-level dedup across harnesses: a race keyed by its two access
    // sites (method + instruction) and location key. Keyed on stable
    // method names — never on air::Method pointers, whose run-to-run
    // values would make the iteration order nondeterministic.
    struct Key {
        std::string m1;
        int i1;
        std::string m2;
        int i2;
        std::string key;
        bool
        operator<(const Key &o) const
        {
            return std::tie(m1, i1, m2, i2, key) <
                   std::tie(o.m1, o.i1, o.m2, o.i2, o.key);
        }
    };
    struct Agg {
        AppRace race;
        bool survivesSomewhere{false};
        //! a surviving instance has stamped the severity; refuted
        //! instances carry Unknown and must not wash out a verdict
        bool haveSeverity{false};
    };
    std::map<Key, Agg> dedup;

    int64_t max_pairs_total = 0;

    for (int i = 0; i < num_plans; ++i) {
        const HarnessArtifact &art = artifacts[i];
        const harness::HarnessPlan &plan = _plans[i];

        // Plan-order, associative sums: totalCpu equals the sum of
        // the per-stage fields no matter which order the tasks
        // *finished* in (they were accumulated per task, merged here
        // serially). Reused plans contribute zero times and no
        // metrics -- no pipeline work happened for them.
        report.times.add(task_times[i]);

        if (options.metrics && !reused[i])
            fillMetrics(*options.metrics, analyses[i], task_times[i]);

        report.accessesDropped += art.accessesDropped;
        report.locksetRefuted += art.locksetRefuted;
        report.enablementRefuted += art.enablementRefuted;

        // Use-after-destroy findings, deduplicated across harnesses in
        // plan order (findings are already sorted per harness, so the
        // merged list is deterministic at every jobs count).
        for (const auto &f : art.useAfterDestroy) {
            if (std::find(report.useAfterDestroy.begin(),
                          report.useAfterDestroy.end(),
                          f) == report.useAfterDestroy.end())
                report.useAfterDestroy.push_back(f);
        }

        // Deadlock findings, same plan-order dedup: cycles are already
        // canonically rotated and sorted per harness, so equal cycles
        // found by several harnesses collapse deterministically.
        for (const auto &f : art.deadlocks) {
            if (std::find(report.deadlocks.begin(),
                          report.deadlocks.end(),
                          f) == report.deadlocks.end())
                report.deadlocks.push_back(f);
        }

        report.actions += art.actions;
        report.hbEdges += art.hbEdges;
        int n = art.actions;
        max_pairs_total += static_cast<int64_t>(n) * (n - 1) / 2;

        for (const ArtifactRace &r : art.races) {
            Key key{r.m1, r.i1, r.m2, r.i2, r.key};
            Agg &agg = dedup[key];
            if (agg.race.description.empty()) {
                agg.race.description = r.description;
                agg.race.priority = r.priority;
                agg.race.fieldKey = r.key;
            }
            agg.race.activities.push_back(plan.activityClass);
            if (!r.refuted) {
                agg.survivesSomewhere = true;
                // Highest-rank verdict of any surviving instance wins
                // (strict >, plan order: deterministic at every jobs
                // count). Initialized from the first surviving row so
                // a Guarded verdict is representable at all.
                if (!agg.haveSeverity ||
                    analysis::nullVerdictRank(r.severity) >
                        analysis::nullVerdictRank(agg.race.severity)) {
                    agg.race.severity = r.severity;
                    agg.race.severityChain = r.severityChain;
                    agg.haveSeverity = true;
                }
            }
        }
        report.perHarness.push_back(std::move(analyses[i]));
    }

    report.racyPairs = static_cast<int>(dedup.size());
    for (auto &[key, agg] : dedup) {
        agg.race.refuted = !agg.survivesSomewhere;
        if (agg.survivesSomewhere) {
            ++report.afterRefutation;
            if (agg.race.severity == analysis::NullVerdict::Harmful)
                ++report.harmfulRaces;
            else if (agg.race.severity ==
                     analysis::NullVerdict::Guarded)
                ++report.guardedRaces;
        }
        report.races.push_back(std::move(agg.race));
    }
    // Severity-ranked order: harmful > unknown > guarded within the
    // surviving block. With the stage off every verdict is Unknown and
    // this degenerates to the pre-nullflow order exactly.
    std::sort(report.races.begin(), report.races.end(),
              [](const AppRace &a, const AppRace &b) {
                  if (a.refuted != b.refuted)
                      return !a.refuted;
                  int ra = analysis::nullVerdictRank(a.severity);
                  int rb = analysis::nullVerdictRank(b.severity);
                  if (ra != rb)
                      return ra > rb;
                  if (a.priority != b.priority)
                      return a.priority > b.priority;
                  return a.description < b.description;
              });

    report.orderedPct =
        max_pairs_total > 0
            ? 100.0 * static_cast<double>(report.hbEdges) /
                  static_cast<double>(max_pairs_total)
            : 0.0;
    // Fold in the app-level shared-fact construction so totalCpu still
    // equals the sum of the per-stage fields.
    report.times.add(app_times);
    report.times.total = secondsSince(t_total);

    if (options.metrics) {
        util::metrics::Registry &m = *options.metrics;
        // ICC scan counters: computed once at construction (harness
        // generation), flushed here so they land in the registry
        // exactly once per analyze() at every jobs count.
        m.add("icc.call_sites", _iccStats.callSites);
        m.add("icc.resolved", _iccStats.resolved);
        m.add("icc.unresolved", _iccStats.unresolved);
        m.add("icc.pending_sites", _iccStats.pendingSites);
        m.add("icc.activity_edges", _iccStats.activityEdges);
        // AIR instruction storage, shared by every harness.
        m.add("arena.bytes_allocated",
              static_cast<int64_t>(
                  _app.module().arena().bytesAllocated()));
        // Counters are monotone; raise the peak-RSS counter to the
        // current process peak rather than summing repeated reads.
        int64_t rss = util::metrics::peakRssBytes();
        int64_t have = m.counter("mem.peak_rss_bytes");
        if (rss > have)
            m.add("mem.peak_rss_bytes", rss - have);
    }
    return report;
}

void
StageTimes::add(const StageTimes &o)
{
    for (const StageDesc &d : kStages)
        this->*d.time += o.*d.time;
    totalCpu += o.totalCpu;
}

const std::array<StageDesc, kNumStages> &
stageTable()
{
    return kStages;
}

const StageDesc &
stageDesc(StageId id)
{
    return kStages[static_cast<size_t>(id)];
}

bool
stageEnabled(StageId id, const SierraOptions &options)
{
    bool SierraOptions::*toggle = stageDesc(id).toggle;
    return !toggle || options.*toggle;
}

std::vector<StageTimeEntry>
stageTimeEntries(const StageTimes &times)
{
    std::vector<StageTimeEntry> entries;
    for (const StageDesc &d : kStages)
        entries.push_back({d.jsonName, times.*d.time});
    entries.push_back({"totalCpu", times.totalCpu});
    entries.push_back({"total", times.total});
    return entries;
}

std::string
formatReport(const AppReport &report, int max_races, bool with_times)
{
    std::ostringstream os;
    os << "=== SIERRA report for " << report.app << " ===\n";
    os << "harnesses: " << report.harnesses
       << "  actions: " << report.actions
       << "  HB edges: " << report.hbEdges << " ("
       << static_cast<int>(report.orderedPct + 0.5) << "% ordered)\n";
    os << "racy pairs: " << report.racyPairs
       << "  lockset-refuted: " << report.locksetRefuted
       << "  enablement-refuted: " << report.enablementRefuted
       << "  after refutation: " << report.afterRefutation
       << "  harmful: " << report.harmfulRaces
       << "  guarded: " << report.guardedRaces
       << "  (thread-local accesses dropped: " << report.accessesDropped
       << ")\n";
    if (with_times) {
        os << "time: ";
        for (const StageDesc &d : kStages)
            os << d.textName << " " << report.times.*d.time << "s, ";
        os << "total " << report.times.total << "s (cpu "
           << report.times.totalCpu << "s)\n";
    }
    int shown = 0;
    for (const auto &race : report.races) {
        if (race.refuted)
            continue;
        if (shown++ >= max_races) {
            os << "  ... (" << report.afterRefutation - max_races
               << " more)\n";
            break;
        }
        os << "  [p" << race.priority << "] " << race.description
           << "\n";
        os << "      severity: "
           << analysis::nullVerdictName(race.severity);
        if (!race.severityChain.empty())
            os << "  (" << race.severityChain << ")";
        os << "\n";
    }
    if (!report.useAfterDestroy.empty()) {
        os << "use-after-destroy: "
           << report.useAfterDestroy.size() << "\n";
        for (const auto &f : report.useAfterDestroy)
            os << "  [uad] " << f.toString() << "\n";
    }
    if (!report.deadlocks.empty()) {
        os << "deadlocks: " << report.deadlocks.size() << "\n";
        for (const auto &f : report.deadlocks)
            os << "  [dl] " << f.toString() << "\n";
    }
    return os.str();
}

} // namespace sierra
