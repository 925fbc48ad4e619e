/** @file Tests for callback-enablement refutation wired into the
 *  pipeline: registration typestate + lifecycle reachability. */

#include <set>

#include <gtest/gtest.h>

#include "corpus/named_apps.hh"
#include "corpus/patterns.hh"
#include "test_helpers.hh"

namespace sierra {
namespace {

using test::makePipeline;
using test::reportsKey;

/** Split a pipeline's seeded truth into the pattern's trap key and the
 *  true-race key by note substring. */
void
splitKeys(const test::Pipeline &p, const std::string &pattern,
          std::string &trap_key, std::string &true_key)
{
    for (const auto &seed : p.built.truth.seeded) {
        if (seed.note.find(pattern) != std::string::npos &&
            seed.cls == corpus::SeedClass::FpTrap) {
            trap_key = seed.fieldKey;
        } else if (seed.cls == corpus::SeedClass::TrueRace) {
            true_key = seed.fieldKey;
        }
    }
}

TEST(RefuterEnablement, RemovedCallbackRefutedOnlyWithEnablement)
{
    auto p = makePipeline("en-removed", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("RemovedActivity");
        corpus::addRemovedCallback(f, act);
        corpus::addThreadRace(f, act);
    });
    std::string trap_key, true_key;
    splitKeys(p, "removedCallback", trap_key, true_key);
    ASSERT_FALSE(trap_key.empty());
    ASSERT_FALSE(true_key.empty());

    AppReport with = p.detector->analyze({});
    EXPECT_FALSE(reportsKey(with, trap_key))
        << "onPause must-removeCallbacks before onDestroy reads";
    EXPECT_TRUE(reportsKey(with, true_key))
        << "unrelated true races still surface";
    EXPECT_GT(with.enablementRefuted, 0);

    SierraOptions off;
    off.enablement = false;
    AppReport without = p.detector->analyze(off);
    EXPECT_TRUE(reportsKey(without, trap_key))
        << "without the stage the trap is a false positive";
    EXPECT_EQ(without.enablementRefuted, 0);
}

TEST(RefuterEnablement, ClearedListenerRefutedOnlyWithStageAndClear)
{
    // clearedListener is the activity's only pattern, so its click
    // write vs posted read is the harness's one racy pair.
    struct Outcome {
        size_t pairs{0};
        bool refuted{false};
        race::RefutedBy by{race::RefutedBy::None};
        bool reported{false};
    };
    auto run = [](bool clear, bool stage) {
        auto p = makePipeline(clear ? "en-cleared" : "en-not-cleared",
                              [clear](corpus::AppFactory &f) {
                                  auto &act = f.addActivity("ClearActivity");
                                  corpus::addClearedListener(f, act, clear);
                              });
        std::string trap_key, true_key;
        splitKeys(p, "clearedListener", trap_key, true_key);
        EXPECT_FALSE(trap_key.empty());
        SierraOptions options;
        options.enablement = stage;
        HarnessAnalysis ha = p.detector->analyzeActivity(
            p.app().manifest().activities[0], options);
        Outcome o;
        o.pairs = ha.pairs.size();
        if (!ha.pairs.empty()) {
            o.refuted = ha.pairs[0].refuted;
            o.by = ha.pairs[0].refutedBy;
        }
        o.reported = reportsKey(p.detector->analyze(options), trap_key);
        return o;
    };

    Outcome with = run(/*clear=*/true, /*stage=*/true);
    ASSERT_EQ(with.pairs, 1u);
    EXPECT_TRUE(with.refuted);
    EXPECT_TRUE(with.by == race::RefutedBy::Enablement)
        << "onPause clears the listener before onStop posts the read";
    EXPECT_FALSE(with.reported);

    Outcome without = run(/*clear=*/true, /*stage=*/false);
    ASSERT_EQ(without.pairs, 1u);
    EXPECT_FALSE(without.refuted);
    EXPECT_TRUE(without.reported)
        << "without the stage the trap is a false positive";

    Outcome never_cleared = run(/*clear=*/false, /*stage=*/true);
    ASSERT_EQ(never_cleared.pairs, 1u);
    EXPECT_FALSE(never_cleared.refuted);
    EXPECT_TRUE(never_cleared.reported)
        << "without the clear a click can follow the posted read";
}

TEST(RefuterEnablement, UnregisteredReceiverTrapRefutedOnlyWithStage)
{
    auto p = makePipeline("en-unreg", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("UnregActivity");
        corpus::addUnregisteredFpTrap(f, act);
        corpus::addThreadRace(f, act);
    });
    std::string trap_key, true_key;
    splitKeys(p, "unregisteredFpTrap", trap_key, true_key);
    ASSERT_FALSE(trap_key.empty());
    ASSERT_FALSE(true_key.empty());

    AppReport with = p.detector->analyze({});
    EXPECT_FALSE(reportsKey(with, trap_key));
    EXPECT_TRUE(reportsKey(with, true_key));
    EXPECT_GT(with.enablementRefuted, 0);

    SierraOptions off;
    off.enablement = false;
    AppReport without = p.detector->analyze(off);
    EXPECT_TRUE(reportsKey(without, trap_key));
    EXPECT_EQ(without.enablementRefuted, 0);
}

TEST(RefuterEnablement, RegistrationWindowRaceIsPreserved)
{
    // registeredWindow seeds both sides: a true race between two
    // callbacks live inside the registration window, and a
    // post-teardown read only the enablement stage can exonerate.
    auto p = makePipeline("en-window", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("WindowActivity");
        corpus::addRegisteredWindow(f, act);
    });
    std::string trap_key, true_key;
    splitKeys(p, "registeredWindow", trap_key, true_key);
    ASSERT_FALSE(trap_key.empty());
    ASSERT_FALSE(true_key.empty());

    AppReport with = p.detector->analyze({});
    EXPECT_TRUE(reportsKey(with, true_key))
        << "in-window onReceive vs onClick is a real race";
    EXPECT_FALSE(reportsKey(with, trap_key));

    SierraOptions off;
    off.enablement = false;
    AppReport without = p.detector->analyze(off);
    EXPECT_TRUE(reportsKey(without, true_key));
    EXPECT_TRUE(reportsKey(without, trap_key));
}

TEST(RefuterEnablement, ProvenanceRecordedOnPairs)
{
    auto p = makePipeline("en-provenance", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("ProvActivity");
        corpus::addRemovedCallback(f, act);
    });
    HarnessAnalysis ha = p.detector->analyzeActivity(
        p.app().manifest().activities[0], {});

    bool saw_enablement = false;
    for (const auto &pair : ha.pairs) {
        if (pair.refutedBy == race::RefutedBy::Enablement) {
            saw_enablement = true;
            EXPECT_TRUE(pair.refuted);
            EXPECT_NE(pair.toString(*ha.pta, ha.accesses)
                          .find("refuted: enablement"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(saw_enablement);
    EXPECT_GT(ha.enablementStats.queries, 0);
    EXPECT_GT(ha.enablementStats.exonerated, 0);
}

TEST(RefuterEnablement, EveryRefutedByVariantHasAUniqueName)
{
    // Guards the printer against a new enum variant shipping unprinted:
    // every variant must map to a distinct, real name.
    std::set<std::string> names;
    for (race::RefutedBy r :
         {race::RefutedBy::None, race::RefutedBy::Lockset,
          race::RefutedBy::Enablement, race::RefutedBy::Symbolic}) {
        const char *name = race::refutedByName(r);
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "?");
        names.insert(name);
    }
    EXPECT_EQ(names.size(), 4u);
    EXPECT_TRUE(names.count("enablement"));
}

TEST(RefuterEnablement, EnablementStageIsJobsDeterministic)
{
    // NPR News carries registeredWindow; the stage's refutations must
    // not depend on worker scheduling.
    corpus::BuiltApp built = corpus::buildNamedApp("NPR News");
    SierraDetector detector(*built.app);

    SierraOptions one;
    one.jobs = 1;
    SierraOptions four;
    four.jobs = 4;
    AppReport serial = detector.analyze(one);
    AppReport parallel = detector.analyze(four);
    EXPECT_GT(serial.enablementRefuted, 0);
    EXPECT_EQ(serial.enablementRefuted, parallel.enablementRefuted);
    EXPECT_EQ(formatReport(serial, 50, false),
              formatReport(parallel, 50, false));
}

/** Per-app preservation: the stage only ever removes reports and never
 *  drops a seeded true race, on every named corpus app. */
class EnablementPreservation : public ::testing::TestWithParam<int>
{
};

TEST_P(EnablementPreservation, TrueRacesSurviveWithAndWithout)
{
    const auto &spec = corpus::namedAppSpecs()[GetParam()];
    corpus::BuiltApp built = corpus::buildNamedApp(spec);
    SierraDetector detector(*built.app);

    AppReport with = detector.analyze({});
    corpus::Score s_with = corpus::scoreReport(with, built.truth);
    EXPECT_EQ(s_with.missedTrueKeys, 0) << spec.name;

    SierraOptions off;
    off.enablement = false;
    AppReport without = detector.analyze(off);
    corpus::Score s_without = corpus::scoreReport(without, built.truth);
    EXPECT_EQ(s_without.missedTrueKeys, 0) << spec.name;

    EXPECT_LE(with.afterRefutation, without.afterRefutation)
        << spec.name;
    EXPECT_EQ(s_with.truePositives, s_without.truePositives)
        << spec.name << ": the stage must only drop non-true reports";
}

INSTANTIATE_TEST_SUITE_P(
    Named, EnablementPreservation, ::testing::Range(0, 20),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string n = corpus::namedAppSpecs()[info.param].name;
        for (char &c : n) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

} // namespace
} // namespace sierra
