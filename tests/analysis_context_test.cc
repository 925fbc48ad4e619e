/** @file Tests for context interning and the action registry. */

#include <gtest/gtest.h>

#include "analysis/action.hh"
#include "analysis/context.hh"
#include "analysis/heap.hh"

namespace sierra::analysis {
namespace {

TEST(ContextTable, EmptyContextIsZero)
{
    ContextTable table;
    EXPECT_EQ(table.intern(ContextData{}), kEmptyCtx);
    EXPECT_EQ(table.get(kEmptyCtx).actionId, -1);
    EXPECT_TRUE(table.get(kEmptyCtx).elems.empty());
}

TEST(ContextTable, InterningIsStable)
{
    ContextTable table;
    ContextData d;
    d.actionId = 3;
    d.elems = {7, 9};
    CtxId a = table.intern(d);
    CtxId b = table.intern(d);
    EXPECT_EQ(a, b);
    d.elems = {7};
    EXPECT_NE(table.intern(d), a);
}

TEST(ContextTable, PushElemTruncatesToK)
{
    ContextTable table;
    CtxId c0 = kEmptyCtx;
    CtxId c1 = table.pushElem(c0, 11, 2);
    CtxId c2 = table.pushElem(c1, 12, 2);
    CtxId c3 = table.pushElem(c2, 13, 2);
    const ContextData &d = table.get(c3);
    ASSERT_EQ(d.elems.size(), 2u);
    EXPECT_EQ(d.elems[0], 13) << "most recent first";
    EXPECT_EQ(d.elems[1], 12);
}

TEST(ContextTable, PushElemAtKZeroKeepsOnlyTheAction)
{
    ContextTable table;
    CtxId base = table.make(4, {7}, 1);
    CtxId c = table.pushElem(base, 11, 0);
    const ContextData &d = table.get(c);
    EXPECT_EQ(d.actionId, 4);
    EXPECT_TRUE(d.elems.empty());
    EXPECT_EQ(c, table.make(4, {}, 0));
    EXPECT_EQ(table.pushElem(kEmptyCtx, 11, 0), kEmptyCtx);
}

TEST(ContextTable, MakeTruncates)
{
    ContextTable table;
    CtxId c = table.make(5, {1, 2, 3, 4}, 2);
    const ContextData &d = table.get(c);
    EXPECT_EQ(d.actionId, 5);
    ASSERT_EQ(d.elems.size(), 2u);
    EXPECT_EQ(d.elems[0], 1);
}

TEST(ContextTable, WithActionPreservesElems)
{
    ContextTable table;
    CtxId c = table.make(-1, {4, 5}, 4);
    CtxId c2 = table.withAction(c, 9);
    EXPECT_NE(c, c2);
    EXPECT_EQ(table.get(c2).actionId, 9);
    EXPECT_EQ(table.get(c2).elems, table.get(c).elems);
    EXPECT_EQ(table.withAction(c2, 9), c2) << "no-op rewrite";
}

TEST(ContextPolicy, Names)
{
    EXPECT_STREQ(contextPolicyName(ContextPolicy::Insensitive),
                 "insensitive");
    EXPECT_STREQ(contextPolicyName(ContextPolicy::ActionSensitive),
                 "action-sensitive");
    EXPECT_STREQ(contextPolicyName(ContextPolicy::Hybrid), "hybrid");
}

TEST(ObjectTable, InterningByIdentity)
{
    ObjectTable table;
    ObjId a = table.siteObject("Foo", 3, kEmptyCtx);
    ObjId b = table.siteObject("Foo", 3, kEmptyCtx);
    ObjId c = table.siteObject("Foo", 4, kEmptyCtx);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(table.get(a).klassName, "Foo");
}

TEST(ObjectTable, InflatedViewsAliasById)
{
    ObjectTable table;
    ObjId v1 = table.inflatedView("android.widget.Button", 100);
    ObjId v2 = table.inflatedView("android.widget.Button", 100);
    ObjId v3 = table.inflatedView("android.widget.Button", 101);
    EXPECT_EQ(v1, v2) << "same id aliases (InflatedViewContext)";
    EXPECT_NE(v1, v3);
    EXPECT_EQ(table.get(v1).kind, ObjKind::InflatedView);
}

TEST(ObjectTable, SingletonsAndSynthetics)
{
    ObjectTable table;
    ObjId looper = table.singleton("android.os.Looper", kMainLooper);
    EXPECT_EQ(looper, table.singleton("android.os.Looper", kMainLooper));
    ObjId msg = table.syntheticObject("android.os.Message", 9);
    EXPECT_NE(looper, msg);
    EXPECT_EQ(table.get(msg).kind, ObjKind::Synthetic);
}

TEST(ActionRegistry, IdentityAndFolding)
{
    ActionRegistry reg;
    int root = reg.create(ActionKind::HarnessRoot, -1, kNoSite, "H",
                          "main");
    int a = reg.create(ActionKind::Lifecycle, root, 5, "A", "onCreate");
    int a2 = reg.create(ActionKind::Lifecycle, root, 5, "A", "onCreate");
    EXPECT_EQ(a, a2) << "same identity interned once";
    int b = reg.create(ActionKind::Lifecycle, root, 6, "A", "onCreate");
    EXPECT_NE(a, b) << "different creation sites differ";
    EXPECT_EQ(reg.size(), 3);
    EXPECT_EQ(reg.get(a).label, "A.onCreate");
}

TEST(ActionKinds, QueuePostedPredicate)
{
    EXPECT_TRUE(isQueuePosted(ActionKind::PostedRunnable));
    EXPECT_TRUE(isQueuePosted(ActionKind::PostedMessage));
    EXPECT_FALSE(isQueuePosted(ActionKind::Lifecycle));
    EXPECT_FALSE(isQueuePosted(ActionKind::Gui));
    EXPECT_FALSE(isQueuePosted(ActionKind::ThreadRun));
    EXPECT_FALSE(isQueuePosted(ActionKind::Receive));
    EXPECT_FALSE(isQueuePosted(ActionKind::AsyncBackground));
}

TEST(ActionModel, AffinityHelpers)
{
    Action a;
    a.affinity = ThreadAffinity::MainLooper;
    EXPECT_TRUE(a.runsOnLooper());
    a.affinity = ThreadAffinity::Background;
    EXPECT_FALSE(a.runsOnLooper());
    a.affinity = ThreadAffinity::CustomLooper;
    EXPECT_TRUE(a.runsOnLooper());
}

} // namespace
} // namespace sierra::analysis
