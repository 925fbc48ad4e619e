/** @file Tests for the HB rules (paper Section 4.3, Figs. 5-7). */

#include <gtest/gtest.h>

#include "corpus/patterns.hh"
#include "hb/rules.hh"
#include "test_helpers.hh"

namespace sierra::hb {
namespace {

using analysis::ActionKind;
using analysis::PointsToResult;
using test::findAction;
using test::makePipeline;

struct Built {
    test::Pipeline pipeline;
    std::unique_ptr<PointsToResult> pta;
    std::unique_ptr<Shbg> shbg;
};

template <typename Fill>
Built
analyze(const std::string &name, Fill fill)
{
    Built b{makePipeline(name, fill), nullptr, nullptr};
    analysis::PointsToAnalysis pta(
        b.pipeline.app(), b.pipeline.detector->plans()[0], {});
    b.pta = pta.run();
    HbBuilder builder(*b.pta, b.pipeline.detector->plans()[0],
                      b.pipeline.app());
    b.shbg = builder.build();
    return b;
}

/** Find the n-th action with a given callback name (order of ids). */
int
nthAction(const PointsToResult &r, const std::string &cb, int n)
{
    int seen = 0;
    for (const auto &a : r.actions.all()) {
        if (a.callbackName == cb && seen++ == n)
            return a.id;
    }
    return -1;
}

TEST(HbRules, LifecycleDominanceSplitsInstances)
{
    auto b = analyze("hb-lifecycle", [](corpus::AppFactory &f) {
        f.addActivity("LcActivity");
    });
    const auto &r = *b.pta;
    int on_create = nthAction(r, "onCreate", 0);
    int on_destroy = nthAction(r, "onDestroy", 0);
    int start1 = nthAction(r, "onStart", 0);   // entry sequence
    int start2 = nthAction(r, "onStart", 1);   // restart cycle
    int stop_loop = nthAction(r, "onStop", 0); // in-loop onStop
    int resume1 = nthAction(r, "onResume", 0);
    int pause_loop = nthAction(r, "onPause", 0);

    // Fig. 5: onCreate precedes everything, onDestroy follows.
    EXPECT_TRUE(b.shbg->reaches(on_create, on_destroy));
    EXPECT_TRUE(b.shbg->reaches(on_create, start2));
    EXPECT_TRUE(b.shbg->reaches(start1, on_destroy));

    // The "1"/"2" split: onStart "1" < onStop < onStart "2".
    EXPECT_TRUE(b.shbg->reaches(start1, stop_loop));
    EXPECT_TRUE(b.shbg->reaches(stop_loop, start2));
    EXPECT_FALSE(b.shbg->reaches(start2, stop_loop))
        << "the second instance follows the stop";

    // onResume "1" < the loop onPause.
    EXPECT_TRUE(b.shbg->reaches(resume1, pause_loop));

    // Distinct loop iterations stay unordered: the pause/resume-cycle
    // pause vs the stop-cycle resume.
    int resume3 = nthAction(r, "onResume", 2);
    EXPECT_TRUE(b.shbg->unordered(pause_loop, resume3) ||
                b.shbg->reaches(pause_loop, resume3));
}

TEST(HbRules, InvocationRule)
{
    auto b = analyze("hb-invoke", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("InvActivity");
        corpus::addThreadRace(f, act);
    });
    int on_create = nthAction(*b.pta, "onCreate", 0);
    int run = findAction(*b.pta, "Worker");
    ASSERT_GE(run, 0);
    EXPECT_TRUE(b.shbg->reaches(on_create, run))
        << "creator happens-before the created thread body";
}

TEST(HbRules, AsyncChain)
{
    auto b = analyze("hb-async", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("AsyncActivity");
        corpus::addAsyncNewsRace(f, act);
    });
    int bg = findAction(*b.pta, "doInBackground");
    int post = findAction(*b.pta, "onPostExecute");
    ASSERT_GE(bg, 0);
    ASSERT_GE(post, 0);
    EXPECT_TRUE(b.shbg->reaches(bg, post))
        << "doInBackground < onPostExecute";
    EXPECT_GE(b.shbg->numEdgesByRule(HbRule::AsyncChain), 1);
}

TEST(HbRules, IntraProceduralPostOrder)
{
    auto b = analyze("hb-rule4", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("PostActivity");
        corpus::addOrderedPosts(f, act);
    });
    int init = findAction(*b.pta, "InitTask");
    int use = findAction(*b.pta, "UseTask");
    ASSERT_GE(init, 0);
    ASSERT_GE(use, 0);
    EXPECT_TRUE(b.shbg->reaches(init, use))
        << "rule 4: posting order on the same looper";
    EXPECT_GE(b.shbg->numEdgesByRule(HbRule::IntraProcDom), 1);
}

TEST(HbRules, Rule4RequiresSameLooper)
{
    // A thread started before a posted runnable: no post-order edge.
    auto b = analyze("hb-rule4-looper", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("MixActivity");
        corpus::addThreadRace(f, act);   // thread started in onCreate
        corpus::addGuardedTimer(f, act); // runnable posted in onCreate
    });
    int thread = findAction(*b.pta, "Worker");
    int timer = findAction(*b.pta, "Timer");
    ASSERT_GE(thread, 0);
    ASSERT_GE(timer, 0);
    EXPECT_TRUE(b.shbg->unordered(thread, timer))
        << "background thread vs posted runnable are not FIFO-ordered";
}

TEST(HbRules, GuiBoundedByResumeAndStop)
{
    auto b = analyze("hb-gui", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("GuiActivity");
        corpus::addMessageGuard(f, act);
    });
    const auto &r = *b.pta;
    int resume1 = nthAction(r, "onResume", 0);
    int send1 = findAction(r, "onSendOne");
    int send2 = findAction(r, "onSendTwo");
    int destroy = nthAction(r, "onDestroy", 0);
    ASSERT_GE(send1, 0);
    ASSERT_GE(send2, 0);

    EXPECT_TRUE(b.shbg->reaches(resume1, send1));
    EXPECT_TRUE(b.shbg->reaches(send1, destroy));
    EXPECT_TRUE(b.shbg->unordered(send1, send2))
        << "independent widgets are unordered (Fig. 6 loop)";
}

TEST(HbRules, EnabledAfterOrdersGuiActions)
{
    auto b = analyze("hb-gui-flow", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("FlowActivity");
        corpus::addGuiFlowSafe(f, act);
    });
    int pick = findAction(*b.pta, "onPick");
    int confirm = findAction(*b.pta, "onConfirm");
    ASSERT_GE(pick, 0);
    ASSERT_GE(confirm, 0);
    EXPECT_TRUE(b.shbg->reaches(pick, confirm))
        << "Fig. 6: onClick2 < onClick3 via the GUI model";
}

TEST(HbRules, InterActionTransitivity)
{
    // Fig. 7: ordered creators posting to the same looper order their
    // posts. onCreate posts the timer runnable; a GUI handler sends a
    // message; onCreate < gui (registration/dominance) so run < msg.
    auto b = analyze("hb-rule6", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("TransActivity");
        corpus::addGuardedTimer(f, act);  // onCreate posts Timer.run
        corpus::addMessageGuard(f, act);  // gui posts handleMessage
    });
    const auto &r = *b.pta;
    int run = findAction(r, "Timer");
    int msg = findAction(r, "handleMessage");
    ASSERT_GE(run, 0);
    ASSERT_GE(msg, 0);
    EXPECT_TRUE(b.shbg->reaches(run, msg))
        << "rule 6 transitivity through ordered creators";
    EXPECT_GE(b.shbg->numEdgesByRule(HbRule::InterActionTrans), 1);
}

TEST(HbRules, Rule4LabelsTheDirectEdge)
{
    // No other rule orders the two posts: the one direct edge between
    // them is rule 4's.
    auto b = analyze("hb-rule4", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("Rule4Activity");
        corpus::addOrderedPosts(f, act);
    });
    int init = findAction(*b.pta, "InitTask");
    int use = findAction(*b.pta, "UseTask");
    ASSERT_GE(init, 0);
    ASSERT_GE(use, 0);
    const HbEdge *edge = test::directEdge(*b.shbg, init, use);
    ASSERT_NE(edge, nullptr) << "InitTask < UseTask is a direct edge";
    EXPECT_EQ(edge->rule, HbRule::IntraProcDom);
}

TEST(HbRules, OrderedFractionIsSane)
{
    auto b = analyze("hb-fraction", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("FracActivity");
        corpus::addReceiverDbRace(f, act);
    });
    double frac = b.shbg->orderedFraction();
    EXPECT_GT(frac, 0.0);
    EXPECT_LE(frac, 1.0);
}

} // namespace
} // namespace sierra::hb
