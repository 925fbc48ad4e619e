/** @file Tests for the RAICC-style ICC model: Intent target
 *  resolution, PendingIntent field flows, and the cross-component
 *  races only ICC-extended harnesses can reach. */

#include <gtest/gtest.h>

#include "corpus/patterns.hh"
#include "framework/icc.hh"
#include "sierra/detector.hh"

namespace sierra {
namespace {

using air::InvokeKind;
using air::MethodBuilder;
using framework::IccModel;
using framework::IccSite;
using framework::IccTargetKind;
namespace names = framework::names;

corpus::BuiltApp
probeApp(const char *pattern_name)
{
    for (const auto &entry : corpus::patternCatalog()) {
        if (std::string(entry.name) == pattern_name) {
            corpus::AppFactory factory(std::string("probe-") +
                                       pattern_name);
            auto &act = factory.addActivity("ProbeActivity");
            entry.fn(factory, act);
            return factory.finish();
        }
    }
    ADD_FAILURE() << "unknown pattern " << pattern_name;
    return corpus::AppFactory("empty").finish();
}

/** A sender whose onCreate builds `new Intent(target)` and delivers it
 *  through the given virtual call on the activity. */
corpus::BuiltApp
senderApp(const std::string &deliver, const std::string &target,
          bool declare_target)
{
    corpus::AppFactory factory("icc-fixture");
    auto &act = factory.addActivity("Sender");
    if (declare_target)
        factory.addActivity(target);
    act.on("onCreate", [=](MethodBuilder &b) {
        int rs = b.newReg();
        int ri = b.newReg();
        b.constStr(rs, target);
        b.newObject(ri, names::intent);
        b.invoke(-1, InvokeKind::Special, {names::intent, "<init>", 0},
                 {ri, rs});
        b.call(b.thisReg(), "Sender", deliver, {ri});
    });
    return factory.finish();
}

TEST(Icc, ExplicitStartActivityResolves)
{
    corpus::BuiltApp built =
        senderApp("startActivity", "Detail", true);
    IccModel icc(*built.app);

    ASSERT_EQ(icc.sites().size(), 1u);
    const IccSite &s = icc.sites()[0];
    EXPECT_TRUE(s.resolved());
    EXPECT_EQ(s.targetKind, IccTargetKind::Activity);
    EXPECT_EQ(s.senderClass, "Sender");
    EXPECT_EQ(s.targetClass, "Detail");
    EXPECT_FALSE(s.pending);
    EXPECT_NE(s.toString().find("Sender -> Detail"),
              std::string::npos);

    EXPECT_EQ(icc.stats().callSites, 1);
    EXPECT_EQ(icc.stats().resolved, 1);
    EXPECT_EQ(icc.stats().activityEdges, 1);
    EXPECT_EQ(icc.activityTargetsOf("Sender"),
              std::vector<std::string>{"Detail"});
    EXPECT_TRUE(icc.activityTargetsOf("Detail").empty());
}

TEST(Icc, UndeclaredTargetStaysUnresolved)
{
    // The Intent names a class the manifest does not declare: the
    // string could be any extra, so the site must stay unresolved.
    corpus::BuiltApp built =
        senderApp("startActivity", "NoSuchActivity", false);
    IccModel icc(*built.app);

    ASSERT_EQ(icc.sites().size(), 1u);
    EXPECT_FALSE(icc.sites()[0].resolved());
    EXPECT_EQ(icc.stats().unresolved, 1);
    EXPECT_EQ(icc.stats().activityEdges, 0);
    EXPECT_NE(icc.sites()[0].toString().find("<implicit>"),
              std::string::npos);
}

TEST(Icc, SetClassNameResolves)
{
    corpus::AppFactory factory("icc-fixture");
    auto &act = factory.addActivity("Sender");
    factory.addActivity("Detail");
    act.on("onCreate", [](MethodBuilder &b) {
        int rs = b.newReg();
        int ri = b.newReg();
        b.constStr(rs, "Detail");
        b.newObject(ri, names::intent);
        b.invoke(-1, InvokeKind::Special, {names::intent, "<init>", 0},
                 {ri});
        b.call(ri, names::intent, "setClassName", {rs});
        b.call(b.thisReg(), "Sender", "startActivity", {ri});
    });
    corpus::BuiltApp built = factory.finish();
    IccModel icc(*built.app);

    ASSERT_EQ(icc.sites().size(), 1u);
    EXPECT_EQ(icc.sites()[0].targetClass, "Detail");
}

TEST(Icc, PendingIntentFieldFlowResolves)
{
    // The pattern parks the PendingIntent in an activity field in
    // onCreate and send()s it from a GUI handler: the two-pass field
    // tracking must connect them.
    corpus::BuiltApp built = probeApp("iccPendingIntent");
    IccModel icc(*built.app);

    ASSERT_EQ(icc.stats().pendingSites, 1);
    bool found = false;
    for (const IccSite &s : icc.sites()) {
        if (s.pending) {
            EXPECT_TRUE(s.resolved()) << s.toString();
            EXPECT_EQ(s.targetKind, IccTargetKind::Activity);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(icc.stats().activityEdges, 1);
}

TEST(Icc, ConflictingPendingFieldIsDropped)
{
    // The same field stores PendingIntents with two different targets:
    // neither may be trusted at the send site.
    corpus::AppFactory factory("icc-fixture");
    auto &act = factory.addActivity("Sender");
    factory.addActivity("A");
    factory.addActivity("B");
    act.addField("pi", air::Type::object(names::pendingIntent));
    auto store = [](MethodBuilder &b, const char *target) {
        int rs = b.newReg();
        int ri = b.newReg();
        int rp = b.newReg();
        b.constStr(rs, target);
        b.newObject(ri, names::intent);
        b.invoke(-1, InvokeKind::Special, {names::intent, "<init>", 0},
                 {ri, rs});
        b.callStatic(rp, names::pendingIntent, "getActivity", {ri});
        b.putField(b.thisReg(), corpus::fieldRef("Sender", "pi"), rp);
    };
    act.on("onCreate", [&](MethodBuilder &b) { store(b, "A"); });
    act.on("onStart", [&](MethodBuilder &b) { store(b, "B"); });
    act.on("onResume", [](MethodBuilder &b) {
        int rp = b.newReg();
        b.getField(rp, b.thisReg(), corpus::fieldRef("Sender", "pi"));
        b.call(rp, names::pendingIntent, "send");
    });
    corpus::BuiltApp built = factory.finish();
    IccModel icc(*built.app);

    ASSERT_EQ(icc.stats().pendingSites, 1);
    for (const IccSite &s : icc.sites()) {
        if (s.pending) {
            EXPECT_FALSE(s.resolved()) << s.toString();
        }
    }
    EXPECT_EQ(icc.stats().activityEdges, 0);
}

TEST(Icc, CrossComponentRaceNeedsIccModeling)
{
    // The acceptance property: the seeded cross-component race is
    // found with ICC on and invisible with ICC off, because only the
    // ICC-extended sender harness drives the target's onCreate
    // concurrently with the sender's worker thread.
    corpus::BuiltApp built = probeApp("iccStartActivity");

    std::string key;
    for (const auto &seed : built.truth.seeded) {
        if (seed.requiresIcc)
            key = seed.fieldKey;
    }
    ASSERT_FALSE(key.empty());
    EXPECT_TRUE(built.truth.isIccOnlyTrueKey(key));

    auto survivingKeys = [](const AppReport &report) {
        std::vector<std::string> keys;
        for (const auto &race : report.races) {
            if (!race.refuted)
                keys.push_back(race.fieldKey);
        }
        return keys;
    };

    SierraDetector with_icc(*built.app);
    AppReport on = with_icc.analyze({});
    auto on_keys = survivingKeys(on);
    EXPECT_NE(std::find(on_keys.begin(), on_keys.end(), key),
              on_keys.end())
        << "cross-component race missing with ICC on";

    // Harness generation mutates the module, so the ICC-off detector
    // needs a fresh (deterministic) build of the same app.
    corpus::BuiltApp rebuilt = probeApp("iccStartActivity");
    SierraOptions no_icc;
    no_icc.icc = false;
    SierraDetector without_icc(*rebuilt.app, no_icc);
    AppReport off = without_icc.analyze(no_icc);
    auto off_keys = survivingKeys(off);
    EXPECT_EQ(std::find(off_keys.begin(), off_keys.end(), key),
              off_keys.end())
        << "cross-component race should need the ICC edge";
}

TEST(Icc, StatsFlowIntoReportDeterministically)
{
    corpus::BuiltApp built = probeApp("iccStartActivity");
    SierraDetector detector(*built.app);
    AppReport a = detector.analyze({});
    AppReport b = detector.analyze({});
    EXPECT_EQ(formatReport(a, 50, false), formatReport(b, 50, false));
    EXPECT_EQ(detector.iccStats().callSites, 1);
    EXPECT_EQ(detector.iccStats().resolved, 1);
}

} // namespace
} // namespace sierra
