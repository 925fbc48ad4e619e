/** @file A race that is refutable only with constant facts: the
 *  computedGuard pattern clears its guard with `1 - 1`, so plain
 *  backward execution sees an unknown value while the IFDS stage's
 *  constant facts concretize it. Also checks that the dataflow stage
 *  never drops ground-truth true races on named corpus apps. */

#include <gtest/gtest.h>

#include <set>

#include "corpus/named_apps.hh"
#include "corpus/patterns.hh"
#include "test_helpers.hh"

namespace sierra::symbolic {
namespace {

/** True if some surviving race key contains the fragment. */
bool
reportsKeyContaining(const AppReport &report, const std::string &frag)
{
    for (const auto &race : report.races) {
        if (!race.refuted &&
            race.fieldKey.find(frag) != std::string::npos) {
            return true;
        }
    }
    return false;
}

TEST(RefuterConstants, ComputedGuardNeedsConstantFacts)
{
    auto p = test::makePipeline(
        "const-guard", [](corpus::AppFactory &f) {
            auto &act = f.addActivity("CgActivity");
            corpus::addComputedGuard(f, act);
        });

    // The IFDS stage is the refuter's only source of constant facts;
    // without it the baseline is fact-free WP.
    SierraOptions off;
    off.ifds = false;
    AppReport without = p.detector->analyze(off);
    AppReport with = p.detector->analyze({});

    // Plain WP cannot see that 1 - 1 clears the guard: the guarded
    // write survives as a (false) report.
    EXPECT_TRUE(reportsKeyContaining(without, ".mTicks"));
    // With constant facts the ordering is refuted.
    EXPECT_FALSE(reportsKeyContaining(with, ".mTicks"));
    // The guard-variable race is real and survives both ways.
    EXPECT_TRUE(reportsKeyContaining(without, ".mActive"));
    EXPECT_TRUE(reportsKeyContaining(with, ".mActive"));
}

TEST(RefuterConstants, LiteralGuardRefutedEitherWay)
{
    // Control: the literal-constant guardedTimer is refuted by plain
    // WP too -- constants only add power, never remove it.
    auto p = test::makePipeline(
        "literal-guard", [](corpus::AppFactory &f) {
            auto &act = f.addActivity("LgActivity");
            corpus::addGuardedTimer(f, act);
        });
    SierraOptions off;
    off.ifds = false;
    AppReport without = p.detector->analyze(off);
    AppReport with = p.detector->analyze({});
    for (const auto &race : without.races) {
        if (race.fieldKey.find("mAccumTime") != std::string::npos) {
            EXPECT_TRUE(race.refuted) << race.fieldKey;
        }
    }
    for (const auto &race : with.races) {
        if (race.fieldKey.find("mAccumTime") != std::string::npos) {
            EXPECT_TRUE(race.refuted) << race.fieldKey;
        }
    }
}

/** Surviving-report keys that are ground-truth true races. */
std::set<std::string>
survivingTrueKeys(const AppReport &report,
                  const corpus::GroundTruth &truth)
{
    std::set<std::string> keys;
    for (const auto &race : report.races) {
        if (!race.refuted && truth.isTrueRaceKey(race.fieldKey))
            keys.insert(race.fieldKey);
    }
    return keys;
}

TEST(RefuterConstants, DataflowNeverDropsTrueRacesOnNamedApps)
{
    // The effect prefilter must be report-preserving at the key
    // level: every ground-truth race key reported by the
    // dataflow-free pipeline is still reported with the stage on.
    for (const char *name : {"OpenSudoku", "VuDroid", "Beem"}) {
        corpus::BuiltApp built = corpus::buildNamedApp(name);
        SierraDetector det(*built.app);

        SierraOptions off_opts;
        off_opts.effectPrefilter = false;
        AppReport r_off = det.analyze(off_opts);
        AppReport r_on = det.analyze({});

        EXPECT_EQ(survivingTrueKeys(r_on, built.truth),
                  survivingTrueKeys(r_off, built.truth))
            << name;

        corpus::Score s_off = corpus::scoreReport(r_off, built.truth);
        corpus::Score s_on = corpus::scoreReport(r_on, built.truth);
        EXPECT_EQ(s_on.missedTrueKeys, s_off.missedTrueKeys) << name;
        EXPECT_LE(s_on.falsePositives, s_off.falsePositives) << name;
    }
}

} // namespace
} // namespace sierra::symbolic
