/** @file Focused tests for HB rule 5: inter-procedural, intra-action
 *  domination via ICFG removal-reachability (paper Section 4.3 #5). */

#include <gtest/gtest.h>

#include "framework/known_api.hh"
#include "hb/rules.hh"
#include "test_helpers.hh"

namespace sierra::hb {
namespace {

using air::CondKind;
using air::InvokeKind;
using air::MethodBuilder;
using air::Type;
namespace names = framework::names;
using test::findAction;
using test::makePipeline;

/** A runnable class writing one marker field on the activity. */
void
makeRunnable(corpus::AppFactory &f, const std::string &cls,
             const std::string &act_cls, const std::string &field)
{
    air::Klass *k = f.app().module().addClass(cls, names::object);
    k->addInterface(names::runnable);
    k->addField({"act", Type::object(act_cls), false});
    air::Method *init = k->addMethod(
        "<init>", {Type::object(act_cls)}, Type::voidTy(), false);
    {
        MethodBuilder b(init);
        b.putField(b.thisReg(), {cls, "act"}, b.paramReg(0));
        b.finish();
    }
    air::Method *run = k->addMethod("run", {}, Type::voidTy(), false);
    {
        MethodBuilder b(run);
        int ra = b.newReg();
        int rn = b.newReg();
        b.getField(ra, b.thisReg(), {cls, "act"});
        b.newObject(rn, names::object);
        b.putField(ra, {act_cls, field}, rn);
        b.finish();
    }
}

/**
 * Build an activity whose onCreate calls two helper methods; each
 * helper posts one runnable to the main looper. `guarded` wraps the
 * second helper call in a nondeterministic branch.
 */
test::Pipeline
makeApp(const std::string &name, bool guarded)
{
    return makePipeline(name, [&](corpus::AppFactory &f) {
        auto &act = f.addActivity("R5Activity");
        std::string act_cls = act.name();
        act.addField("outA", Type::object(names::object));
        act.addField("outB", Type::object(names::object));
        act.addField("handler", Type::object(names::handler));
        makeRunnable(f, "R5First", act_cls, "outA");
        makeRunnable(f, "R5Second", act_cls, "outB");

        // Helpers on the activity: each posts one runnable.
        for (const char *helper :
             {"postFirst", "postSecond"}) {
            air::Method *m = act.klass()->addMethod(
                helper, {}, Type::voidTy(), false);
            MethodBuilder b(m);
            int rh = b.newReg();
            int rr = b.newReg();
            std::string cls = std::string(helper) == "postFirst"
                                  ? "R5First"
                                  : "R5Second";
            b.getField(rh, b.thisReg(), {act_cls, "handler"});
            b.newObject(rr, cls);
            b.invoke(-1, InvokeKind::Special, {cls, "<init>", 0},
                     {rr, b.thisReg()});
            b.call(rh, names::handler, "post", {rr});
            b.finish();
        }

        act.on("onCreate", [=](MethodBuilder &b) {
            int rh = b.newReg();
            b.newObject(rh, names::handler);
            b.invoke(-1, InvokeKind::Special,
                     {names::handler, "<init>", 0}, {rh});
            b.putField(b.thisReg(), {act_cls, "handler"}, rh);
            b.call(b.thisReg(), act_cls, "postFirst");
            if (guarded) {
                // Nondeterministic: postSecond may run without
                // postFirst's site being on every path... it still is
                // (postFirst dominates), but the branch exercises the
                // path-sensitivity of the reachability walk.
                air::Label skip = b.newLabel();
                int rc = b.newReg();
                b.callStatic(rc, "sierra.Nondet", "choose");
                b.ifz(rc, CondKind::Eq, skip);
                b.call(b.thisReg(), act_cls, "postSecond");
                b.bind(skip);
            } else {
                b.call(b.thisReg(), act_cls, "postSecond");
            }
        });
    });
}

struct Built {
    test::Pipeline pipeline;
    std::unique_ptr<analysis::PointsToResult> pta;
    std::unique_ptr<Shbg> shbg;
};

Built
analyze(test::Pipeline p)
{
    Built b{std::move(p), nullptr, nullptr};
    analysis::PointsToAnalysis pta(
        b.pipeline.app(), b.pipeline.detector->plans()[0], {});
    b.pta = pta.run();
    HbBuilder builder(*b.pta, b.pipeline.detector->plans()[0],
                      b.pipeline.app());
    b.shbg = builder.build();
    return b;
}

TEST(HbRule5, PostsInSeparateMethodsAreOrdered)
{
    Built b = analyze(makeApp("r5-plain", false));
    int first = findAction(*b.pta, "R5First");
    int second = findAction(*b.pta, "R5Second");
    ASSERT_GE(first, 0);
    ASSERT_GE(second, 0);
    EXPECT_TRUE(b.shbg->reaches(first, second))
        << "removing postFirst's site makes postSecond's unreachable";
    EXPECT_GE(b.shbg->numEdgesByRule(HbRule::InterProcDom), 1);
}

TEST(HbRule5, GuardedSecondPostStillOrdered)
{
    // Even under the branch, every path to postSecond's site passes
    // through postFirst's: the edge must still be added.
    Built b = analyze(makeApp("r5-guarded", true));
    int first = findAction(*b.pta, "R5First");
    int second = findAction(*b.pta, "R5Second");
    ASSERT_GE(first, 0);
    ASSERT_GE(second, 0);
    EXPECT_TRUE(b.shbg->reaches(first, second));
}

TEST(HbRule5, Rule5LabelsTheDirectEdge)
{
    // No other rule orders posts in separate methods: the one direct
    // edge between them is rule 5's.
    Built b = analyze(makeApp("r5-label", false));
    int first = findAction(*b.pta, "R5First");
    int second = findAction(*b.pta, "R5Second");
    ASSERT_GE(first, 0);
    ASSERT_GE(second, 0);
    const HbEdge *edge = test::directEdge(*b.shbg, first, second);
    ASSERT_NE(edge, nullptr) << "R5First < R5Second is a direct edge";
    EXPECT_EQ(edge->rule, HbRule::InterProcDom);
}

TEST(HbRule5, NoEdgeWhenEitherOrderPossible)
{
    // postSecond reachable without passing postFirst: branch picks one
    // of the two helpers, so neither dominates the other.
    auto p = makePipeline("r5-either", [&](corpus::AppFactory &f) {
        auto &act = f.addActivity("EitherActivity");
        std::string act_cls = act.name();
        act.addField("outA", Type::object(names::object));
        act.addField("outB", Type::object(names::object));
        act.addField("handler", Type::object(names::handler));
        makeRunnable(f, "EFirst", act_cls, "outA");
        makeRunnable(f, "ESecond", act_cls, "outB");
        for (const char *helper : {"postA", "postB"}) {
            air::Method *m = act.klass()->addMethod(
                helper, {}, Type::voidTy(), false);
            MethodBuilder b(m);
            int rh = b.newReg();
            int rr = b.newReg();
            std::string cls =
                std::string(helper) == "postA" ? "EFirst" : "ESecond";
            b.getField(rh, b.thisReg(), {act_cls, "handler"});
            b.newObject(rr, cls);
            b.invoke(-1, InvokeKind::Special, {cls, "<init>", 0},
                     {rr, b.thisReg()});
            b.call(rh, names::handler, "post", {rr});
            b.finish();
        }
        act.on("onCreate", [=](MethodBuilder &b) {
            int rh = b.newReg();
            b.newObject(rh, names::handler);
            b.invoke(-1, InvokeKind::Special,
                     {names::handler, "<init>", 0}, {rh});
            b.putField(b.thisReg(), {act_cls, "handler"}, rh);
            air::Label other = b.newLabel();
            air::Label end = b.newLabel();
            int rc = b.newReg();
            b.callStatic(rc, "sierra.Nondet", "choose");
            b.ifz(rc, CondKind::Eq, other);
            b.call(b.thisReg(), act_cls, "postA");
            b.call(b.thisReg(), act_cls, "postB");
            b.gotoLabel(end);
            b.bind(other);
            b.call(b.thisReg(), act_cls, "postB");
            b.call(b.thisReg(), act_cls, "postA");
            b.bind(end);
        });
    });
    Built b = analyze(std::move(p));
    int first = findAction(*b.pta, "EFirst");
    int second = findAction(*b.pta, "ESecond");
    ASSERT_GE(first, 0);
    ASSERT_GE(second, 0);
    EXPECT_TRUE(b.shbg->unordered(first, second))
        << "both post orders are reachable: no rule-5 edge";
}

} // namespace
} // namespace sierra::hb
