/** @file Tests for access extraction, racy pairs and prioritization. */

#include <gtest/gtest.h>

#include "corpus/patterns.hh"
#include "hb/rules.hh"
#include "race/racy.hh"
#include "test_helpers.hh"

namespace sierra::race {
namespace {

using test::makePipeline;

struct Analyzed {
    test::Pipeline pipeline;
    std::unique_ptr<analysis::PointsToResult> pta;
    std::unique_ptr<hb::Shbg> shbg;
    std::vector<Access> accesses;
    std::vector<RacyPair> pairs;
};

template <typename Fill>
Analyzed
analyze(const std::string &name, Fill fill)
{
    Analyzed a{makePipeline(name, fill), nullptr, nullptr, {}, {}};
    analysis::PointsToAnalysis pta(
        a.pipeline.app(), a.pipeline.detector->plans()[0], {});
    a.pta = pta.run();
    hb::HbBuilder builder(*a.pta, a.pipeline.detector->plans()[0],
                          a.pipeline.app());
    a.shbg = builder.build();
    a.accesses = extractAccesses(*a.pta);
    a.pairs = findRacyPairs(*a.pta, *a.shbg, a.accesses, {});
    return a;
}

bool
hasPairOnKey(const Analyzed &a, const std::string &key)
{
    for (const auto &p : a.pairs) {
        if (p.loc.key == key)
            return true;
    }
    return false;
}

TEST(Access, ExtractionSkipsHarnessAndFindsAppAccesses)
{
    auto a = analyze("race-access", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("AccActivity");
        corpus::addThreadRace(f, act);
    });
    EXPECT_FALSE(a.accesses.empty());
    for (const auto &acc : a.accesses) {
        const air::Method *m = a.pta->cg.node(acc.node).method;
        EXPECT_FALSE(m->owner()->isSynthetic())
            << "no accesses from harness code";
    }
    // The worker writes a reference-typed field.
    bool ref_write = false;
    for (const auto &acc : a.accesses)
        ref_write |= acc.isWrite && acc.refTyped;
    EXPECT_TRUE(ref_write);
}

TEST(RacyPairs, ThreadVsGuiConflictDetected)
{
    auto a = analyze("race-thread", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("TrActivity");
        corpus::addThreadRace(f, act);
    });
    bool found = false;
    for (const auto &p : a.pairs)
        found |= p.loc.key.find("result$") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(RacyPairs, OrderedAccessesAreNotRacy)
{
    auto a = analyze("race-ordered", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("OrdActivity");
        corpus::addLifecycleSafe(f, act);
        corpus::addOrderedPosts(f, act);
    });
    EXPECT_FALSE(hasPairOnKey(a, "OrdActivity.init$0") ||
                 hasPairOnKey(a, "OrdActivity.init$1"))
        << "onCreate/onDestroy accesses are lifecycle-ordered";
    bool cfg_pair = false;
    for (const auto &p : a.pairs)
        cfg_pair |= p.loc.key.find("cfg$") != std::string::npos;
    EXPECT_FALSE(cfg_pair) << "rule 4 orders the posted runnables";
}

TEST(RacyPairs, ReadReadIsNotARace)
{
    auto a = analyze("race-readread", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("RrActivity");
        act.addField("ro", air::Type::intTy());
        act.on("onResume", [](air::MethodBuilder &b) {
            int r = b.newReg();
            b.getField(r, b.thisReg(), {"RrActivity", "ro"});
        });
        act.on("onPause", [](air::MethodBuilder &b) {
            int r = b.newReg();
            b.getField(r, b.thisReg(), {"RrActivity", "ro"});
        });
    });
    EXPECT_FALSE(hasPairOnKey(a, "RrActivity.ro"));
}

TEST(RacyPairs, ActionPairsCarryMatchingAccessInstances)
{
    auto a = analyze("race-instances", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("InstActivity");
        corpus::addGuardedTimer(f, act);
    });
    for (const auto &p : a.pairs) {
        for (const auto &e : p.actionPairs) {
            const Access &x = a.accesses[e.access1];
            const Access &y = a.accesses[e.access2];
            EXPECT_TRUE(a.pta->cg.actionsOf(x.node).count(e.action1))
                << "access1 must be executable under action1";
            EXPECT_TRUE(a.pta->cg.actionsOf(y.node).count(e.action2))
                << "access2 must be executable under action2";
        }
    }
}

TEST(Prioritize, AppCodeAndRefTypedRankFirst)
{
    auto a = analyze("race-prio", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("PrioActivity");
        corpus::addReceiverDbRace(f, act); // conn is a ref field
        corpus::addGuardedTimer(f, act);   // mIsRunning is int
    });
    prioritize(*a.pta, a.accesses, a.pairs);
    ASSERT_GE(a.pairs.size(), 2u);
    // Priorities are non-increasing.
    for (size_t i = 0; i + 1 < a.pairs.size(); ++i)
        EXPECT_GE(a.pairs[i].priority, a.pairs[i + 1].priority);
    // Some reference-typed race outranks an int guard race.
    int conn_prio = -1;
    int guard_prio = -1;
    for (const auto &p : a.pairs) {
        if (p.loc.key.find(".conn") != std::string::npos)
            conn_prio = std::max(conn_prio, p.priority);
        if (p.loc.key.find("mIsRunning") != std::string::npos)
            guard_prio = std::max(guard_prio, p.priority);
    }
    ASSERT_GE(conn_prio, 0);
    ASSERT_GE(guard_prio, 0);
    EXPECT_GT(conn_prio, guard_prio);
}

TEST(RacyPairs, ToStringMentionsActionsAndLocation)
{
    auto a = analyze("race-str", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("StrActivity");
        corpus::addThreadRace(f, act);
    });
    ASSERT_FALSE(a.pairs.empty());
    std::string s = a.pairs[0].toString(*a.pta, a.accesses);
    EXPECT_NE(s.find("race on"), std::string::npos);
    EXPECT_NE(s.find("||"), std::string::npos);
}

TEST(RacyPairs, MessageActionsOnSameLooperQualify)
{
    auto a = analyze("race-msg", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("MsgActivity");
        corpus::addMessageGuard(f, act);
    });
    bool flag_pair = false;
    for (const auto &p : a.pairs)
        flag_pair |= p.loc.key.find("flagB") != std::string::npos;
    EXPECT_TRUE(flag_pair);
}

} // namespace
} // namespace sierra::race
