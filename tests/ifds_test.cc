/** @file Tests for the interprocedural IFDS engine (analysis/ifds):
 *  summary propagation, summary-cache reuse, must-write-constant
 *  facts, the use-after-destroy client, the end-to-end guarantees of
 *  the detector stage (more refutation power, no lost true races,
 *  jobs-determinism), and conditional constant propagation within one
 *  method. */

#include <set>
#include <utility>
#include <vector>
#include <string>

#include <gtest/gtest.h>

#include "analysis/ifds.hh"
#include "analysis/points_to.hh"
#include "corpus/named_apps.hh"
#include "corpus/patterns.hh"
#include "framework/app_text.hh"
#include "framework/known_api.hh"
#include "test_helpers.hh"
#include "util/metrics.hh"

namespace sierra::analysis {
namespace {

using air::MethodBuilder;
using air::Type;
using corpus::fieldRef;
namespace names = framework::names;
using test::makePipeline;

/** Run the PA for the first (only) activity of a pipeline. */
std::unique_ptr<PointsToResult>
runPta(test::Pipeline &p)
{
    PointsToAnalysis pta(p.app(), p.detector->plans()[0], {});
    return pta.run();
}

/** The first class whose name starts with the prefix; asserts one. */
const air::Klass *
classWithPrefix(const air::Module &mod, const std::string &prefix)
{
    for (const air::Klass *k : mod.classes()) {
        if (k->name().rfind(prefix, 0) == 0)
            return k;
    }
    return nullptr;
}

TEST(Ifds, ConstantsPropagateThroughSetterChain)
{
    // interprocGuard clears its guard via clear0(0) -> ... -> clear8,
    // so every link's parameter joins to the constant 0 and the chain
    // root accumulates both must-write facts.
    auto p = makePipeline("ifds-chain", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("ChainActivity");
        corpus::addInterprocGuard(f, act);
    });
    auto r = runPta(p);
    InterConstants inter(*r);

    const air::Klass *timer = classWithPrefix(p.app().module(),
                                              "IPGuard$");
    ASSERT_NE(timer, nullptr);
    const std::string cls = timer->name();

    // clear8 stores its parameter into both fields; the summaries
    // prove the parameter is 0 on every invocation.
    const air::Method *leaf = timer->findMethod("clear8");
    ASSERT_NE(leaf, nullptr);
    const auto &leaf_writes = inter.mustWrites(leaf);
    ASSERT_EQ(leaf_writes.size(), 2u);
    for (const auto &w : leaf_writes) {
        EXPECT_EQ(w.field->className, cls);
        EXPECT_EQ(w.value, 0);
        EXPECT_FALSE(w.isStatic);
        EXPECT_TRUE(w.exclusive) << w.field->fieldName
                                 << ": every write rides `this`";
    }
    EXPECT_EQ(leaf_writes[0].field->fieldName, "mHits");
    EXPECT_EQ(leaf_writes[1].field->fieldName, "mOn");

    // The facts compose through the whole chain: clear0's summary
    // carries the same two facts even though it writes nothing itself.
    const air::Method *root = timer->findMethod("clear0");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(inter.mustWrites(root).size(), 2u);

    // stop() only clears on the guarded path, so it has no must-write
    // fact of its own.
    const air::Method *stop = timer->findMethod("stop");
    ASSERT_NE(stop, nullptr);
    EXPECT_TRUE(inter.mustWrites(stop).empty());

    EXPECT_GE(inter.stats().methods, 11);
    EXPECT_GE(inter.stats().paramConsts, 9)
        << "each clearN formal is the constant 0";
    EXPECT_GE(inter.stats().mustWriteFacts, 2 * 9);
    EXPECT_FALSE(inter.stats().budgetExhausted);
}

TEST(Ifds, SummaryIsComputedOnceAndReusedAcrossCallSites)
{
    // One helper, two call sites with the same constant argument: the
    // helper body is solved once and the second site is served from
    // the summary cache.
    auto p = makePipeline("ifds-reuse", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("ReuseActivity");
        air::Klass *act_k = act.klass();
        air::Method *helper = act_k->addMethod(
            "applyMode", {Type::intTy()}, Type::voidTy(), false);
        {
            MethodBuilder b(helper);
            b.putField(b.thisReg(), fieldRef(act.name(), "mode"),
                       b.paramReg(0));
            b.finish();
        }
        std::string act_cls = act.name();
        act.on("onCreate", [act_cls](MethodBuilder &b) {
            int r = b.newReg();
            b.constInt(r, 3);
            b.call(b.thisReg(), act_cls, "applyMode", {r});
            b.call(b.thisReg(), act_cls, "applyMode", {r});
        });
    });
    auto r = runPta(p);
    InterConstants inter(*r);

    const air::Method *helper = p.app()
                                    .module()
                                    .getClass("ReuseActivity")
                                    ->findMethod("applyMode");
    ASSERT_NE(helper, nullptr);
    EXPECT_EQ(inter.solveCountOf(helper), 1)
        << "two call sites, one summary computation";
    EXPECT_GE(inter.stats().summaryReuses, 1);

    // Both actuals are 3, so the join stays constant and the setter
    // write is a must-write fact.
    const auto &writes = inter.mustWrites(helper);
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].field->fieldName, "mode");
    EXPECT_EQ(writes[0].value, 3);
}

TEST(Ifds, ConflictingCallSitesWidenTheParameter)
{
    // Same helper, different constants: the parameter joins to Top and
    // the must-write fact disappears (no unsound "pick one" value).
    auto p = makePipeline("ifds-widen", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("WidenActivity");
        air::Klass *act_k = act.klass();
        air::Method *helper = act_k->addMethod(
            "applyMode", {Type::intTy()}, Type::voidTy(), false);
        {
            MethodBuilder b(helper);
            b.putField(b.thisReg(), fieldRef(act.name(), "mode"),
                       b.paramReg(0));
            b.finish();
        }
        std::string act_cls = act.name();
        act.on("onCreate", [act_cls](MethodBuilder &b) {
            int r3 = b.newReg();
            int r5 = b.newReg();
            b.constInt(r3, 3);
            b.constInt(r5, 5);
            b.call(b.thisReg(), act_cls, "applyMode", {r3});
            b.call(b.thisReg(), act_cls, "applyMode", {r5});
        });
    });
    auto r = runPta(p);
    InterConstants inter(*r);
    const air::Method *helper = p.app()
                                    .module()
                                    .getClass("WidenActivity")
                                    ->findMethod("applyMode");
    ASSERT_NE(helper, nullptr);
    EXPECT_TRUE(inter.mustWrites(helper).empty());
}

TEST(Ifds, ReturnConstantsJoinOverReturnSites)
{
    auto p = makePipeline("ifds-ret", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("RetActivity");
        air::Klass *act_k = act.klass();
        air::Method *seven =
            act_k->addMethod("seven", {}, Type::intTy(), false);
        {
            MethodBuilder b(seven);
            int r = b.newReg();
            b.constInt(r, 7);
            b.ret(r);
            b.finish();
        }
        std::string act_cls = act.name();
        act.on("onCreate", [act_cls](MethodBuilder &b) {
            b.callTo(b.newReg(), b.thisReg(), act_cls, "seven");
        });
    });
    auto r = runPta(p);
    InterConstants inter(*r);
    const air::Method *seven = p.app()
                                   .module()
                                   .getClass("RetActivity")
                                   ->findMethod("seven");
    ASSERT_NE(seven, nullptr);
    ConstVal v = inter.returnConst(seven);
    EXPECT_TRUE(v.isConst());
    EXPECT_EQ(v.value, 7);
    EXPECT_GE(inter.stats().returnConsts, 1);
}

TEST(Ifds, BudgetExhaustionDiscardsAllFacts)
{
    auto p = makePipeline("ifds-budget", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("BudgetActivity");
        corpus::addInterprocGuard(f, act);
    });
    auto r = runPta(p);
    IfdsOptions tiny;
    tiny.maxStates = 1; // exhausts on the first solve
    InterConstants inter(*r, tiny);
    EXPECT_TRUE(inter.stats().budgetExhausted);

    const air::Klass *timer = classWithPrefix(p.app().module(),
                                              "IPGuard$");
    ASSERT_NE(timer, nullptr);
    const air::Method *leaf = timer->findMethod("clear8");
    ASSERT_NE(leaf, nullptr);
    // Sound degradation: every query answers "don't know".
    EXPECT_TRUE(inter.mustWrites(leaf).empty());
    EXPECT_FALSE(inter.returnConst(leaf).isConst());
    EXPECT_TRUE(inter.reachable(leaf, 0));
    EXPECT_TRUE(inter.edgeFeasible(leaf, 0, 1));
}

TEST(Ifds, UseAfterDestroyClientFindsPostedRead)
{
    auto p = makePipeline("ifds-uad", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("UadActivity");
        corpus::addUseAfterDestroy(f, act);
    });
    HarnessAnalysis ha = p.detector->analyzeActivity("UadActivity");

    ASSERT_EQ(ha.useAfterDestroy.size(), 1u);
    const UseAfterDestroyFinding &f = ha.useAfterDestroy[0];
    EXPECT_NE(f.fieldKey.find("UadActivity.view$"), std::string::npos);
    EXPECT_NE(f.teardownAction.find("onDestroy"), std::string::npos);
    EXPECT_NE(f.writeMethod.find("release$"), std::string::npos)
        << "the null store is inside the setter helper";
    EXPECT_NE(f.readMethod.find("Render$"), std::string::npos);
    EXPECT_GE(f.writeInstr, 0);
    EXPECT_GE(f.readInstr, 0);

    // The finding is surfaced through the app report and its text
    // form, and ablating the stage removes the section.
    AppReport report = p.detector->analyze({});
    ASSERT_EQ(report.useAfterDestroy.size(), 1u);
    EXPECT_NE(formatReport(report).find("use-after-destroy: 1"),
              std::string::npos);
    SierraOptions off;
    off.ifds = false;
    AppReport r_off = p.detector->analyze(off);
    EXPECT_TRUE(r_off.useAfterDestroy.empty());
}

TEST(Ifds, LifecycleOrderedTeardownIsNotFlagged)
{
    // A field nulled in onDestroy but only read from onCreate of the
    // same activity: onCreate happens-before onDestroy, so the read
    // can never follow the teardown.
    auto p = makePipeline("ifds-uad-neg", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("SafeActivity");
        act.addField("mRes", Type::object(names::object));
        std::string act_cls = act.name();
        act.on("onCreate", [act_cls](MethodBuilder &b) {
            int rv = b.newReg();
            int rr = b.newReg();
            b.newObject(rv, names::object);
            b.putField(b.thisReg(), fieldRef(act_cls, "mRes"), rv);
            b.getField(rr, b.thisReg(), fieldRef(act_cls, "mRes"));
        });
        act.on("onDestroy", [act_cls](MethodBuilder &b) {
            int rn = b.newReg();
            b.constNull(rn);
            b.putField(b.thisReg(), fieldRef(act_cls, "mRes"), rn);
        });
    });
    HarnessAnalysis ha = p.detector->analyzeActivity("SafeActivity");
    EXPECT_TRUE(ha.useAfterDestroy.empty());
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

/** True if some surviving race key contains the fragment. */
bool
reportsKeyContaining(const AppReport &report, const std::string &frag)
{
    for (const auto &race : report.races) {
        if (!race.refuted &&
            race.fieldKey.find(frag) != std::string::npos)
            return true;
    }
    return false;
}

TEST(Ifds, InterprocGuardRefutedOnlyWithSummaries)
{
    // The 9-deep setter chain is beyond the executor's call-descend
    // limit: without the interprocedural must-write facts the havoc
    // keeps the mHits report; with them the strong update conflicts
    // with the guard constraint and the pair is refuted. The guard
    // variable itself (mOn) races either way.
    auto p = makePipeline("ipg", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("IpgActivity");
        corpus::addInterprocGuard(f, act);
    });
    SierraOptions off;
    off.ifds = false;
    AppReport without = p.detector->analyze(off);
    AppReport with = p.detector->analyze({});

    EXPECT_TRUE(reportsKeyContaining(without, ".mHits"));
    EXPECT_FALSE(reportsKeyContaining(with, ".mHits"));
    EXPECT_TRUE(reportsKeyContaining(without, ".mOn"));
    EXPECT_TRUE(reportsKeyContaining(with, ".mOn"));
}

TEST(Ifds, NeverDropsTrueRacesOnAnyNamedApp)
{
    // Per-key true-race preservation across the whole corpus: every
    // ground-truth key reported without the stage is still reported
    // with it, and the stage never adds false positives.
    for (const auto &spec : corpus::namedAppSpecs()) {
        corpus::BuiltApp built = corpus::buildNamedApp(spec);
        SierraDetector det(*built.app);

        SierraOptions off;
        off.ifds = false;
        AppReport r_off = det.analyze(off);
        AppReport r_on = det.analyze({});

        EXPECT_EQ(survivingTrueKeys(r_on, built.truth),
                  survivingTrueKeys(r_off, built.truth))
            << spec.name;

        corpus::Score s_off = corpus::scoreReport(r_off, built.truth);
        corpus::Score s_on = corpus::scoreReport(r_on, built.truth);
        EXPECT_EQ(s_on.missedTrueKeys, s_off.missedTrueKeys)
            << spec.name;
        EXPECT_LE(s_on.falsePositives, s_off.falsePositives)
            << spec.name;
    }
}

TEST(Ifds, IfdsStageIsJobsDeterministic)
{
    // K-9 Mail carries the useAfterDestroy signature pattern, so this
    // covers the new report section too. The report text and every
    // metrics counter must be byte-identical at any jobs count.
    util::metrics::Registry serial, parallel;
    corpus::BuiltApp b1 = corpus::buildNamedApp("K-9 Mail");
    corpus::BuiltApp b4 = corpus::buildNamedApp("K-9 Mail");
    SierraDetector d1(*b1.app);
    SierraDetector d4(*b4.app);
    SierraOptions o1, o4;
    o1.jobs = 1;
    o1.metrics = &serial;
    o4.jobs = 4;
    o4.metrics = &parallel;
    AppReport r1 = d1.analyze(o1);
    AppReport r4 = d4.analyze(o4);

    EXPECT_EQ(formatReport(r1, 50, false), formatReport(r4, 50, false));
    // Peak RSS is a process-wide measurement, not a deterministic
    // count (see docs/OBSERVABILITY.md); drop it before comparing.
    auto dropRss = [](std::vector<std::pair<std::string, int64_t>> cs) {
        std::erase_if(cs, [](const auto &c) {
            return c.first == "mem.peak_rss_bytes";
        });
        return cs;
    };
    EXPECT_EQ(dropRss(serial.counters()), dropRss(parallel.counters()));
    ASSERT_EQ(r1.useAfterDestroy.size(), r4.useAfterDestroy.size());
    for (size_t i = 0; i < r1.useAfterDestroy.size(); ++i)
        EXPECT_EQ(r1.useAfterDestroy[i].toString(),
                  r4.useAfterDestroy[i].toString());
}

// ---------------------------------------------------------------------
// Conditional constant propagation within one method. The solver is
// the only constant propagation in the repository; these cases pin its
// intraprocedural behaviour on a callback whose parameters are Top.
// ---------------------------------------------------------------------

/**
 * Interprocedural constant facts for the GUI callback `A.onTap(p0)`
 * with the given AIR body. The framework invokes the callback, so it
 * is open: its parameter r1, like every register at its entry, is Top.
 */
class CallbackConstants
{
  public:
    explicit CallbackConstants(const std::string &body)
    {
        framework::AppTextResult parsed = framework::parseAppText(
            R"(
app "callback-constants" {
    package t
    activity A main
    layout A {
        widget 1 "tap" android.widget.Button onclick onTap
    }
}
class A extends android.app.Activity {
    method <init>(): void regs=1 { @0: return-void }
    method onTap(p0: android.view.View): void regs=4 {)" +
            body + "}\n}\n");
        if (!parsed.ok()) {
            ADD_FAILURE() << parsed.error << " at line "
                          << parsed.errorLine;
            return;
        }
        _app = std::move(parsed.app);
        _detector = std::make_unique<SierraDetector>(*_app);
        PointsToAnalysis pta(*_app, _detector->plans()[0], {});
        _pta = pta.run();
        _inter = std::make_unique<InterConstants>(*_pta);
        _method = _app->module().getClass("A")->findMethod("onTap");
    }

    /** The callback was solved (it is in the summary universe). */
    bool ok() const { return _inter && _inter->solveCountOf(_method) > 0; }

    ConstVal before(int instr, int reg) const
    {
        return _inter->before(_method, instr, reg);
    }
    ConstVal after(int instr, int reg) const
    {
        return _inter->after(_method, instr, reg);
    }
    bool reachable(int instr) const
    {
        return _inter->reachable(_method, instr);
    }
    bool edgeFeasible(int from, int to) const
    {
        return _inter->edgeFeasible(_method, from, to);
    }

  private:
    std::unique_ptr<framework::App> _app;
    std::unique_ptr<SierraDetector> _detector;
    std::unique_ptr<PointsToResult> _pta;
    std::unique_ptr<InterConstants> _inter;
    const air::Method *_method{nullptr};
};

TEST(IfdsConstants, StraightLineFolding)
{
    CallbackConstants facts(R"(
        @0: r1 = const 6
        @1: r2 = const 7
        @2: r3 = mul r1, r2
        @3: return-void
    )");
    ASSERT_TRUE(facts.ok());
    EXPECT_TRUE(facts.before(2, 1).isConst());
    EXPECT_EQ(facts.before(2, 1).value, 6);
    ASSERT_TRUE(facts.after(2, 3).isConst());
    EXPECT_EQ(facts.after(2, 3).value, 42);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(facts.reachable(i)) << "@" << i;
}

TEST(IfdsConstants, MergeOfDifferentValuesIsTop)
{
    // r2 is 1 on one arm and 2 on the other; at the join it is Top,
    // but on each arm it stays constant.
    CallbackConstants facts(R"(
        @0: r2 = const 1
        @1: ifz r1 eq goto @3
        @2: r2 = const 2
        @3: return-void
    )");
    ASSERT_TRUE(facts.ok());
    EXPECT_TRUE(facts.after(2, 2).isConst());
    EXPECT_EQ(facts.after(2, 2).value, 2);
    EXPECT_FALSE(facts.before(3, 2).isConst());
    // The parameter of a framework-invoked callback is never constant,
    // so both branch edges stay feasible.
    EXPECT_FALSE(facts.before(1, 1).isConst());
    EXPECT_TRUE(facts.edgeFeasible(1, 2));
    EXPECT_TRUE(facts.edgeFeasible(1, 3));
}

TEST(IfdsConstants, ConstantGuardKillsEdgeAndCode)
{
    // r1 is always 0, so "ifz r1 eq" always jumps: the fallthrough
    // edge is infeasible and @2 is unreachable.
    CallbackConstants facts(R"(
        @0: r1 = const 0
        @1: ifz r1 eq goto @3
        @2: r2 = const 5
        @3: return-void
    )");
    ASSERT_TRUE(facts.ok());
    EXPECT_FALSE(facts.edgeFeasible(1, 2));
    EXPECT_TRUE(facts.edgeFeasible(1, 3));
    EXPECT_FALSE(facts.reachable(2));
    EXPECT_TRUE(facts.reachable(3));
    // Dead code yields no constant.
    EXPECT_FALSE(facts.after(2, 2).isConst());
}

TEST(IfdsConstants, ConditionalPropagationThroughKilledEdge)
{
    // The loop-free chain: r1 = 1; if r1 != 0 skip the r2 = 99
    // assignment. Conditional propagation must see r2 = 7 at the join
    // (the killed edge's state is never merged).
    CallbackConstants facts(R"(
        @0: r1 = const 1
        @1: r2 = const 7
        @2: ifz r1 ne goto @4
        @3: r2 = const 99
        @4: return-void
    )");
    ASSERT_TRUE(facts.ok());
    ASSERT_TRUE(facts.before(4, 2).isConst());
    EXPECT_EQ(facts.before(4, 2).value, 7);
    EXPECT_FALSE(facts.reachable(3));
}

TEST(IfdsConstants, EqEdgeRefinement)
{
    // Nothing is known about the parameter, but on the taken edge of
    // "ifz p eq" the register is known to be 0.
    CallbackConstants facts(R"(
        @0: ifz r1 eq goto @2
        @1: return-void
        @2: r2 = r1
        @3: return-void
    )");
    ASSERT_TRUE(facts.ok());
    ASSERT_TRUE(facts.before(3, 2).isConst());
    EXPECT_EQ(facts.before(3, 2).value, 0);
    EXPECT_FALSE(facts.before(1, 1).isConst())
        << "the fallthrough edge learns nothing";
}

TEST(IfdsConstants, LoopReachesFixpoint)
{
    // r1 counts down from an unknown start: must converge to Top
    // without spinning (the const lattice has height 2, so plain
    // iteration terminates).
    CallbackConstants facts(R"(
        @0: r2 = const 1
        @1: r1 = sub r1, r2
        @2: ifz r1 gt goto @1
        @3: return-void
    )");
    ASSERT_TRUE(facts.ok());
    EXPECT_FALSE(facts.before(3, 1).isConst());
    // The decrement is constant though.
    EXPECT_TRUE(facts.before(1, 2).isConst());
}

} // namespace
} // namespace sierra::analysis
