/**
 * @file
 * Differential test of analysis::isListenerClear against a reference:
 * a copy of the KnownApis::isListenerClear it replaced, which scanned
 * the whole method for jump targets on every call and then walked the
 * listener argument back through moves by itself. At every invoke of
 * the 194 corpus apps and 12 heavy-shape generated apps both must give
 * the same answer. The corpus never clears a listener, so hand-written
 * methods cover the clearing shapes and each way the walk gives up.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "air/parser.hh"
#include "analysis/cfg.hh"
#include "analysis/nullflow.hh"
#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "framework/known_api.hh"

namespace sierra {
namespace ref {

/** The replaced KnownApis::isListenerClear, verbatim. */
bool
isListenerClear(const air::Method &method, int instr_idx)
{
    const air::Instruction &call = method.instr(instr_idx);
    if (!call.isInvoke() || call.srcs.size() < 2)
        return false;
    if (framework::KnownApis::listenerCallback(call.method.methodName)
            .empty())
        return false;

    const int n = static_cast<int>(method.instrs().size());
    std::vector<char> is_target(n, 0);
    for (const air::Instruction &in : method.instrs()) {
        if (in.isBranch() && in.target >= 0 && in.target < n)
            is_target[in.target] = 1;
    }
    int reg = call.srcs[1];
    for (int i = instr_idx - 1; i >= 0; --i) {
        if (is_target[i + 1])
            return false; // another path joins before the call
        const air::Instruction &in = method.instr(i);
        if (in.isBranch() || in.isTerminator())
            return false;
        if (in.dst == reg) {
            if (in.op == air::Opcode::ConstNull)
                return true;
            if (in.op == air::Opcode::Move) {
                reg = in.srcs[0];
                continue;
            }
            return false;
        }
    }
    return false;
}

} // namespace ref

namespace {

TEST(ListenerClearDiff, AgreesWithTheReferenceAtEveryInvoke)
{
    std::vector<corpus::BuiltApp> apps;
    for (const auto &spec : corpus::namedAppSpecs())
        apps.push_back(corpus::buildNamedApp(spec));
    for (int i = 0; i < corpus::kFdroidAppCount; ++i)
        apps.push_back(corpus::buildFdroidApp(i));
    for (uint32_t i = 0; i < 12; ++i) {
        corpus::SyntheticSpec spec;
        spec.seed = 0x4EA7u * 1000003u + i;
        spec.activities = 3;
        spec.minPatternsPerActivity = 12;
        spec.maxPatternsPerActivity = 12;
        apps.push_back(corpus::generateSyntheticApp(
            "Heavy" + std::to_string(i), spec));
    }

    int invokes = 0;
    int listener_calls = 0;
    int clears = 0;
    for (const corpus::BuiltApp &built : apps) {
        for (const air::Klass *k : built.app->module().classes()) {
            for (const auto &m : k->methods()) {
                if (!m->hasBody())
                    continue;
                const analysis::Cfg cfg(*m);
                for (int i = 0; i < m->numInstrs(); ++i) {
                    const air::Instruction &in = m->instr(i);
                    if (!in.isInvoke())
                        continue;
                    ++invokes;
                    const bool want = ref::isListenerClear(*m, i);
                    ASSERT_EQ(analysis::isListenerClear(cfg, i), want)
                        << built.app->name() << " "
                        << m->qualifiedName() << "@" << i;
                    if (!framework::KnownApis::listenerCallback(
                             in.method.methodName)
                             .empty())
                        ++listener_calls;
                    clears += want;
                }
            }
        }
    }
    // The corpus sets listeners and never clears one (the shapes
    // test below covers clears).
    EXPECT_GT(invokes, 5000);
    EXPECT_GT(listener_calls, 100);
    EXPECT_EQ(clears, 0);
}

TEST(ListenerClearDiff, HandWrittenShapes)
{
    auto parsed = air::parseModule(R"(
    class A {
        field pane: java.lang.Object
        field lsn: java.lang.Object
        method direct(): void regs=4 {
            @0: r1 = getfield r0.A.pane
            @1: r2 = null
            @2: invoke-virtual android.view.View.setOnClickListener(r1, r2)
            @3: return-void
        }
        method viaMoves(): void regs=5 {
            @0: r3 = null
            @1: r1 = getfield r0.A.pane
            @2: r4 = r3
            @3: r2 = r4
            @4: invoke-virtual android.view.View.setOnTouchListener(r1, r2)
            @5: return-void
        }
        method setsOne(): void regs=4 {
            @0: r1 = getfield r0.A.pane
            @1: r2 = getfield r0.A.lsn
            @2: invoke-virtual android.view.View.setOnClickListener(r1, r2)
            @3: return-void
        }
        method joinBeforeCall(i: int): void regs=4 {
            @0: r3 = getfield r0.A.pane
            @1: ifz r1 eq goto @4
            @2: r2 = getfield r0.A.lsn
            @3: goto @5
            @4: r2 = null
            @5: invoke-virtual android.view.View.setOnClickListener(r3, r2)
            @6: return-void
        }
        method nullAfterJoin(i: int): void regs=4 {
            @0: ifz r1 eq goto @1
            @1: r3 = getfield r0.A.pane
            @2: r2 = null
            @3: invoke-virtual android.view.View.setOnClickListener(r3, r2)
            @4: return-void
        }
        method notAListenerApi(): void regs=4 {
            @0: r1 = getfield r0.A.pane
            @1: r2 = null
            @2: invoke-virtual android.view.View.setTag(r1, r2)
            @3: return-void
        }
        method parameterListener(l: java.lang.Object): void regs=4 {
            @0: r2 = getfield r0.A.pane
            @1: invoke-virtual android.view.View.setOnClickListener(r2, r1)
            @2: return-void
        }
    })");
    ASSERT_TRUE(parsed.ok()) << parsed.status.error;
    const air::Klass *k = parsed.module->getClass("A");
    ASSERT_NE(k, nullptr);
    const std::map<std::string, int> clear_at = {
        {"direct", 2},         {"viaMoves", 4},
        {"setsOne", -1},       {"joinBeforeCall", -1},
        {"nullAfterJoin", 3},  {"notAListenerApi", -1},
        {"parameterListener", -1},
    };
    for (const auto &m : k->methods()) {
        SCOPED_TRACE(m->name());
        ASSERT_TRUE(clear_at.count(m->name()));
        const analysis::Cfg cfg(*m);
        for (int i = 0; i < m->numInstrs(); ++i) {
            const bool got = analysis::isListenerClear(cfg, i);
            EXPECT_EQ(got, ref::isListenerClear(*m, i)) << i;
            EXPECT_EQ(got, i == clear_at.at(m->name())) << i;
        }
    }
}

} // namespace
} // namespace sierra
