/** @file Semantics tests for the context policies: what k-cfa, k-obj
 *  and hybrid each can and cannot distinguish (paper Section 3.3). */

#include <gtest/gtest.h>

#include "framework/known_api.hh"
#include "test_helpers.hh"

namespace sierra::analysis {
namespace {

using air::InvokeKind;
using air::MethodBuilder;
using air::Type;
namespace names = framework::names;
using test::makePipeline;

/**
 * Fixture app: a static factory `make()` that allocates a Box, called
 * from two distinct call sites in onCreate; the boxes are stored in
 * two activity fields. Whether the two fields alias depends on the
 * context policy.
 */
test::Pipeline
makeFactoryApp(const std::string &name, int indirection_levels)
{
    return makePipeline(name, [&](corpus::AppFactory &f) {
        auto &act = f.addActivity("CtxActivity");
        std::string act_cls = act.name();
        air::Module &mod = f.app().module();
        air::Klass *box = mod.addClass("Box", names::object);
        box->addField({"v", Type::intTy(), false});
        {
            air::Method *init =
                box->addMethod("<init>", {}, Type::voidTy(), false);
            MethodBuilder b(init);
            b.finish();
        }
        air::Klass *factory = mod.addClass("Factory", names::object);
        {
            air::Method *make = factory->addMethod(
                "make", {}, Type::object("Box"), true);
            MethodBuilder b(make);
            int r = b.newReg();
            b.newObject(r, "Box");
            b.invoke(-1, InvokeKind::Special, {"Box", "<init>", 0},
                     {r});
            b.ret(r);
            b.finish();
        }
        // Optional wrapper layers: defeat k=1 call-site contexts.
        std::string callee = "make";
        for (int level = 0; level < indirection_levels; ++level) {
            std::string wrapper = "wrap" + std::to_string(level);
            air::Method *w = factory->addMethod(
                wrapper, {}, Type::object("Box"), true);
            MethodBuilder b(w);
            int r = b.newReg();
            b.callStatic(r, "Factory", callee);
            b.ret(r);
            b.finish();
            callee = wrapper;
        }
        act.addField("boxA", Type::object("Box"));
        act.addField("boxB", Type::object("Box"));
        std::string entry = callee;
        act.on("onCreate", [=](MethodBuilder &b) {
            int ra = b.newReg();
            int rb = b.newReg();
            b.callStatic(ra, "Factory", entry);
            b.putField(b.thisReg(), {act_cls, "boxA"}, ra);
            b.callStatic(rb, "Factory", entry);
            b.putField(b.thisReg(), {act_cls, "boxB"}, rb);
        });
    });
}

/** Points-to sets of the two box fields. */
std::pair<std::set<ObjId>, std::set<ObjId>>
boxFields(const PointsToResult &r)
{
    std::set<ObjId> a;
    std::set<ObjId> b;
    for (const auto &[key, pts] : r.fieldPts) {
        if (r.keyName(key.second) == "CtxActivity.boxA")
            a.insert(pts.begin(), pts.end());
        if (r.keyName(key.second) == "CtxActivity.boxB")
            b.insert(pts.begin(), pts.end());
    }
    return {a, b};
}

std::unique_ptr<PointsToResult>
runPolicy(test::Pipeline &p, ContextPolicy policy, int k)
{
    PointsToOptions opts;
    opts.ctx.policy = policy;
    opts.ctx.k = k;
    PointsToAnalysis pta(p.app(), p.detector->plans()[0], opts);
    return pta.run();
}

bool
disjoint(const std::set<ObjId> &a, const std::set<ObjId> &b)
{
    for (ObjId o : a) {
        if (b.count(o))
            return false;
    }
    return !a.empty() && !b.empty();
}

TEST(ContextPolicy, InsensitiveMergesDirectFactoryCalls)
{
    auto p = makeFactoryApp("ctx-ins", 0);
    auto r = runPolicy(p, ContextPolicy::Insensitive, 1);
    auto [a, b] = boxFields(*r);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "one abstract Box for both call sites";
}

TEST(ContextPolicy, OneCfaSeparatesDirectCallSites)
{
    auto p = makeFactoryApp("ctx-1cfa", 0);
    auto r = runPolicy(p, ContextPolicy::KCfa, 1);
    auto [a, b] = boxFields(*r);
    EXPECT_TRUE(disjoint(a, b))
        << "distinct call sites get distinct contexts";
}

TEST(ContextPolicy, OneCfaMergesThroughAWrapper)
{
    // One wrapper layer: the allocation's k=1 context is the single
    // wrap0->make call site for both paths (the paper's j > k case).
    auto p = makeFactoryApp("ctx-1cfa-wrap", 1);
    auto r = runPolicy(p, ContextPolicy::KCfa, 1);
    auto [a, b] = boxFields(*r);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "k=1 truncation merges the two chains";
}

TEST(ContextPolicy, TwoCfaSeparatesThroughAWrapper)
{
    auto p = makeFactoryApp("ctx-2cfa-wrap", 1);
    auto r = runPolicy(p, ContextPolicy::KCfa, 2);
    auto [a, b] = boxFields(*r);
    EXPECT_TRUE(disjoint(a, b)) << "k=2 keeps the caller's site";
}

TEST(ContextPolicy, ActionSensitivityDoesNotSplitWithinOneAction)
{
    // Both factory calls happen inside the SAME action (onCreate), so
    // action-sensitivity alone cannot separate them: within an action
    // it behaves like hybrid (paper: "within one action the objects
    // may still lose precision due to last k merges").
    auto p = makeFactoryApp("ctx-as-wrap", 1);
    auto r = runPolicy(p, ContextPolicy::ActionSensitive, 1);
    auto [a, b] = boxFields(*r);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(ContextPolicy, KObjSeparatesReceivers)
{
    // Two container objects each storing into their own field through
    // a shared virtual method: k-obj distinguishes by receiver.
    auto p = makePipeline("ctx-kobj", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("ObjActivity");
        std::string act_cls = act.name();
        air::Module &mod = f.app().module();
        air::Klass *cell = mod.addClass("Cell", names::object);
        cell->addField({"payload", Type::object(names::object), false});
        {
            MethodBuilder b(cell->addMethod("<init>", {},
                                            Type::voidTy(), false));
            b.finish();
        }
        {
            air::Method *fill =
                cell->addMethod("fill", {}, Type::voidTy(), false);
            MethodBuilder b(fill);
            int r = b.newReg();
            b.newObject(r, names::object);
            b.putField(b.thisReg(), {"Cell", "payload"}, r);
            b.finish();
        }
        act.addField("c1", Type::object("Cell"));
        act.addField("c2", Type::object("Cell"));
        act.on("onCreate", [=](MethodBuilder &b) {
            int r1 = b.newReg();
            int r2 = b.newReg();
            b.newObject(r1, "Cell");
            b.invoke(-1, InvokeKind::Special, {"Cell", "<init>", 0},
                     {r1});
            b.newObject(r2, "Cell");
            b.invoke(-1, InvokeKind::Special, {"Cell", "<init>", 0},
                     {r2});
            b.call(r1, "Cell", "fill");
            b.call(r2, "Cell", "fill");
            b.putField(b.thisReg(), {act_cls, "c1"}, r1);
            b.putField(b.thisReg(), {act_cls, "c2"}, r2);
        });
    });
    auto r = runPolicy(p, ContextPolicy::KObj, 1);
    // The payloads allocated inside fill() must be distinct per cell.
    std::set<ObjId> p1;
    std::set<ObjId> p2;
    ObjId c1 = -1;
    ObjId c2 = -1;
    for (const auto &[key, pts] : r->fieldPts) {
        if (r->keyName(key.second) == "ObjActivity.c1")
            c1 = *pts.begin();
        if (r->keyName(key.second) == "ObjActivity.c2")
            c2 = *pts.begin();
    }
    ASSERT_GE(c1, 0);
    ASSERT_GE(c2, 0);
    ASSERT_NE(c1, c2);
    for (const auto &[key, pts] : r->fieldPts) {
        if (r->keyName(key.second) != "Cell.payload")
            continue;
        if (key.first == c1)
            p1.insert(pts.begin(), pts.end());
        if (key.first == c2)
            p2.insert(pts.begin(), pts.end());
    }
    EXPECT_TRUE(disjoint(p1, p2))
        << "k-obj gives fill() a per-receiver context";
}

} // namespace
} // namespace sierra::analysis
