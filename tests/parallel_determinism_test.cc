/**
 * @file
 * Jobs-count determinism of the full pipeline: SierraDetector::analyze
 * must produce byte-identical reports whether it runs serially or on
 * several threads. The parallel path fans out one task per harness plan
 * and merges in plan order; these tests pin that contract on real
 * corpus apps (named + synthetic).
 */

#include <gtest/gtest.h>

#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "test_helpers.hh"

namespace sierra {
namespace {

/** Everything jobs-independent of two reports must match exactly. */
void
expectIdenticalReports(const AppReport &serial, const AppReport &parallel,
                       const std::string &label)
{
    // The rendered report (times excluded: wall-clock differs run to
    // run even serially) is the acceptance-level contract.
    EXPECT_EQ(formatReport(serial, 1000, /*with_times=*/false),
              formatReport(parallel, 1000, /*with_times=*/false))
        << label;

    EXPECT_EQ(serial.harnesses, parallel.harnesses) << label;
    EXPECT_EQ(serial.actions, parallel.actions) << label;
    EXPECT_EQ(serial.hbEdges, parallel.hbEdges) << label;
    EXPECT_DOUBLE_EQ(serial.orderedPct, parallel.orderedPct) << label;
    EXPECT_EQ(serial.racyPairs, parallel.racyPairs) << label;
    EXPECT_EQ(serial.afterRefutation, parallel.afterRefutation) << label;

    // Per-race rows: description, priority, verdict, key, and the
    // activity lists (whose order exercises the plan-order merge).
    ASSERT_EQ(serial.races.size(), parallel.races.size()) << label;
    for (size_t i = 0; i < serial.races.size(); ++i) {
        const AppRace &a = serial.races[i];
        const AppRace &b = parallel.races[i];
        EXPECT_EQ(a.description, b.description) << label << " race " << i;
        EXPECT_EQ(a.priority, b.priority) << label << " race " << i;
        EXPECT_EQ(a.refuted, b.refuted) << label << " race " << i;
        EXPECT_EQ(a.fieldKey, b.fieldKey) << label << " race " << i;
        EXPECT_EQ(a.activities, b.activities) << label << " race " << i;
    }

    // Per-harness artifacts arrive in plan order with identical
    // verdicts regardless of completion order.
    ASSERT_EQ(serial.perHarness.size(), parallel.perHarness.size())
        << label;
    for (size_t h = 0; h < serial.perHarness.size(); ++h) {
        const HarnessAnalysis &x = serial.perHarness[h];
        const HarnessAnalysis &y = parallel.perHarness[h];
        EXPECT_EQ(x.activity, y.activity) << label;
        EXPECT_EQ(x.numActions(), y.numActions()) << label;
        ASSERT_EQ(x.pairs.size(), y.pairs.size())
            << label << " harness " << x.activity;
        for (size_t p = 0; p < x.pairs.size(); ++p) {
            EXPECT_EQ(x.pairs[p].refuted, y.pairs[p].refuted)
                << label << " " << x.activity << " pair " << p;
            EXPECT_EQ(x.pairs[p].priority, y.pairs[p].priority)
                << label << " " << x.activity << " pair " << p;
            EXPECT_EQ(x.pairs[p].loc.key, y.pairs[p].loc.key)
                << label << " " << x.activity << " pair " << p;
        }
        EXPECT_EQ(x.refutation.refuted, y.refutation.refuted) << label;
        EXPECT_EQ(x.refutation.survived, y.refutation.survived) << label;
        EXPECT_EQ(x.refutation.timedOut, y.refutation.timedOut) << label;
    }
}

class NamedAppDeterminism : public ::testing::TestWithParam<const char *>
{
};

TEST_P(NamedAppDeterminism, SerialAndFourJobsMatch)
{
    corpus::BuiltApp built = corpus::buildNamedApp(GetParam());
    SierraDetector detector(*built.app);

    SierraOptions serial_opts;
    serial_opts.jobs = 1;
    AppReport serial = detector.analyze(serial_opts);

    SierraOptions parallel_opts;
    parallel_opts.jobs = 4;
    AppReport parallel = detector.analyze(parallel_opts);

    expectIdenticalReports(serial, parallel, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    ParallelDeterminism, NamedAppDeterminism,
    ::testing::Values("OpenSudoku", "K-9 Mail", "Beem", "FBReader"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

TEST(ParallelDeterminism, SyntheticCorpusSample)
{
    for (int index : {7, 55, 144}) {
        corpus::BuiltApp built = corpus::buildFdroidApp(index);
        SierraDetector detector(*built.app);
        SierraOptions one, four;
        one.jobs = 1;
        four.jobs = 4;
        AppReport serial = detector.analyze(one);
        AppReport parallel = detector.analyze(four);
        expectIdenticalReports(serial, parallel,
                               "fdroid-" + std::to_string(index));
    }
}

TEST(ParallelDeterminism, ManyJobsAndRepeatedRuns)
{
    // More workers than plans, run twice: the second parallel run must
    // also match (no state leaks between analyze() calls).
    corpus::BuiltApp built = corpus::buildNamedApp("OpenSudoku");
    SierraDetector detector(*built.app);
    SierraOptions one, eight;
    one.jobs = 1;
    eight.jobs = 8;
    AppReport serial = detector.analyze(one);
    AppReport first = detector.analyze(eight);
    AppReport second = detector.analyze(eight);
    expectIdenticalReports(serial, first, "jobs=8 run 1");
    expectIdenticalReports(serial, second, "jobs=8 run 2");
}

TEST(ParallelDeterminism, DataflowStageIsJobsDeterministic)
{
    // The dataflow stage (the app-level FieldEffects prefilter every
    // task reads) must not perturb the report at any jobs count --
    // with the stage on or off.
    corpus::BuiltApp built = corpus::buildNamedApp("OpenSudoku");
    SierraDetector detector(*built.app);
    for (bool dataflow : {true, false}) {
        SierraOptions one, four, eight;
        one.jobs = 1;
        four.jobs = 4;
        eight.jobs = 8;
        for (SierraOptions *o : {&one, &four, &eight})
            o->effectPrefilter = dataflow;
        AppReport serial = detector.analyze(one);
        AppReport j4 = detector.analyze(four);
        AppReport j8 = detector.analyze(eight);
        std::string label =
            dataflow ? "dataflow on" : "dataflow off";
        expectIdenticalReports(serial, j4, label + " jobs=4");
        expectIdenticalReports(serial, j8, label + " jobs=8");
    }
}

TEST(ParallelDeterminism, LockStagesAreJobsDeterministic)
{
    // The escape filter and the lock-set refutation run inside each
    // worker's task; their verdicts (dropped accesses, refutedBy
    // provenance, lockset counters) must not depend on the jobs count.
    // ConnectBot's signature carries lockGuarded, so the stages do
    // real work here.
    corpus::BuiltApp built = corpus::buildNamedApp("ConnectBot");
    SierraDetector detector(*built.app);
    for (bool stages : {true, false}) {
        SierraOptions one, four, eight;
        one.jobs = 1;
        four.jobs = 4;
        eight.jobs = 8;
        for (SierraOptions *o : {&one, &four, &eight}) {
            o->escapeFilter = stages;
            o->locksetRefutation = stages;
        }
        AppReport serial = detector.analyze(one);
        AppReport j4 = detector.analyze(four);
        AppReport j8 = detector.analyze(eight);
        std::string label = stages ? "locks on" : "locks off";
        expectIdenticalReports(serial, j4, label + " jobs=4");
        expectIdenticalReports(serial, j8, label + " jobs=8");
        EXPECT_EQ(serial.locksetRefuted, j4.locksetRefuted) << label;
        EXPECT_EQ(serial.locksetRefuted, j8.locksetRefuted) << label;
        EXPECT_EQ(serial.accessesDropped, j4.accessesDropped) << label;
        EXPECT_EQ(serial.accessesDropped, j8.accessesDropped) << label;
        if (stages) {
            EXPECT_GT(serial.locksetRefuted, 0)
                << "lockGuarded must exercise the stage";
        }
        for (size_t h = 0; h < serial.perHarness.size(); ++h) {
            const auto &x = serial.perHarness[h].pairs;
            const auto &y = j8.perHarness[h].pairs;
            ASSERT_EQ(x.size(), y.size()) << label;
            for (size_t p = 0; p < x.size(); ++p)
                EXPECT_EQ(x[p].refutedBy, y[p].refutedBy)
                    << label << " pair " << p;
        }
    }
}

TEST(ParallelDeterminism, NodeCacheIsJobsDeterministic)
{
    // The paper's refuted-node cache (`--node-cache`) is verdict-
    // affecting, but each harness task owns its executor and so its
    // cache: the report must not depend on the jobs count, and every
    // pair the symbolic stage sees is either refuted or survives.
    int64_t cache_hits = 0;
    for (const char *app : {"OpenSudoku", "K-9 Mail"}) {
        corpus::BuiltApp built = corpus::buildNamedApp(app);
        SierraDetector detector(*built.app);
        SierraOptions one, four;
        one.jobs = 1;
        four.jobs = 4;
        for (SierraOptions *o : {&one, &four})
            o->exec.useNodeCache = true;
        AppReport serial = detector.analyze(one);
        AppReport parallel = detector.analyze(four);
        expectIdenticalReports(serial, parallel, app);

        for (const HarnessAnalysis &ha : serial.perHarness) {
            int earlier = 0; // refuted before the symbolic stage
            for (const race::RacyPair &pair : ha.pairs) {
                if (pair.refuted &&
                    pair.refutedBy != race::RefutedBy::Symbolic)
                    ++earlier;
            }
            EXPECT_EQ(ha.refutation.refuted + ha.refutation.survived,
                      static_cast<int>(ha.pairs.size()) - earlier)
                << app << " " << ha.activity;
            cache_hits += ha.refutation.exec.cacheHits;
        }
    }
    EXPECT_GT(cache_hits, 0) << "the node cache must prune something";
}

TEST(ParallelDeterminism, DedupKeysAreStableAcrossDetectors)
{
    // The dedup key is built from qualified method names, not Method
    // pointers: two independently built copies of the same app must
    // produce reports in the same order.
    corpus::BuiltApp a = corpus::buildNamedApp("K-9 Mail");
    corpus::BuiltApp b = corpus::buildNamedApp("K-9 Mail");
    SierraDetector da(*a.app);
    SierraDetector db(*b.app);
    SierraOptions opts;
    opts.jobs = 1;
    AppReport ra = da.analyze(opts);
    AppReport rb = db.analyze(opts);
    expectIdenticalReports(ra, rb, "independent detector copies");
}

TEST(ParallelDeterminism, AnalyzeActivitySharesPipelineBody)
{
    // analyzeActivity and the per-plan task inside analyze() run the
    // same runHarness body: single-activity results must agree with
    // the corresponding perHarness entry of a full run.
    corpus::BuiltApp built = corpus::buildNamedApp("Beem");
    SierraDetector detector(*built.app);
    SierraOptions opts;
    opts.jobs = 2;
    AppReport report = detector.analyze(opts);

    for (const auto &ha : report.perHarness) {
        HarnessAnalysis solo = detector.analyzeActivity(ha.activity, {});
        EXPECT_EQ(solo.numActions(), ha.numActions()) << ha.activity;
        EXPECT_EQ(solo.hbEdges(), ha.hbEdges()) << ha.activity;
        ASSERT_EQ(solo.pairs.size(), ha.pairs.size()) << ha.activity;
        for (size_t p = 0; p < solo.pairs.size(); ++p) {
            EXPECT_EQ(solo.pairs[p].refuted, ha.pairs[p].refuted)
                << ha.activity << " pair " << p;
            EXPECT_EQ(solo.pairs[p].loc.key, ha.pairs[p].loc.key)
                << ha.activity << " pair " << p;
        }
    }
}

} // namespace
} // namespace sierra
