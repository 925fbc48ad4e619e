/** @file Tests for the intraprocedural dataflow framework, its
 *  shipped client (liveness) and field effects.
 *  Constant propagation is tested with the interprocedural solver
 *  that runs it (ifds_test.cc). */

#include <gtest/gtest.h>

#include "air/parser.hh"
#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "analysis/effects.hh"

namespace sierra::analysis {
namespace {

air::Method *
parseMethod(std::unique_ptr<air::Module> &hold, const std::string &body)
{
    auto r = air::parseModule("class T { " + body + " }");
    EXPECT_TRUE(r.ok()) << r.status.error;
    hold = std::move(r.module);
    return hold->getClass("T")->methods().front().get();
}

TEST(DataflowLiveness, StraightLineAndBranch)
{
    std::unique_ptr<air::Module> hold;
    air::Method *m = parseMethod(hold, R"(
    method f(): int regs=4 {
        @0: r1 = const 1
        @1: r2 = const 2
        @2: r1 = const 3
        @3: return r1
    })");
    Cfg cfg(*m);
    Liveness live(cfg);
    // The first store to r1 is overwritten before any read.
    EXPECT_FALSE(live.liveAfter(0, 1));
    // r2 is never read.
    EXPECT_FALSE(live.liveAfter(1, 2));
    // The final r1 flows into the return.
    EXPECT_TRUE(live.liveAfter(2, 1));
}

TEST(DataflowLiveness, LoopCarriedRegisterStaysLive)
{
    std::unique_ptr<air::Module> hold;
    air::Method *m = parseMethod(hold, R"(
    method f(p0: int): void regs=4 {
        @0: r2 = const 1
        @1: r1 = sub r1, r2
        @2: ifz r1 gt goto @1
        @3: return-void
    })");
    Cfg cfg(*m);
    Liveness live(cfg);
    // r1 feeds the next iteration through the back edge.
    EXPECT_TRUE(live.liveAfter(1, 1));
    // r2 is re-read by the loop body via the back edge too.
    EXPECT_TRUE(live.liveAfter(0, 2));
}

TEST(DataflowSolver, BackwardOrderCoversInfiniteLoop)
{
    std::unique_ptr<air::Module> hold;
    // A method whose loop never exits: the backward solve from the
    // synthetic exit cannot reach the loop, and liveness falls back to
    // the conservative all-live default rather than claiming facts.
    air::Method *m = parseMethod(hold, R"(
    method f(): void regs=4 {
        @0: r1 = const 1
        @1: goto @1
    })");
    Cfg cfg(*m);
    Liveness live(cfg);
    EXPECT_TRUE(live.liveAfter(0, 1)); // conservative, not "dead"
}

TEST(FieldEffects, DirectAndTransitive)
{
    auto r = air::parseModule(R"(
    class T {
        field g: int
        static field s: int
        method writer(): void regs=4 {
            @0: putfield r0.T.g = r1
            @1: return-void
        }
        method caller(): void regs=4 {
            @0: invoke-virtual T.writer(r0)
            @1: return-void
        }
        method reader(): int regs=4 {
            @0: r1 = getfield r0.T.g
            @1: return r1
        }
        method pure(): int regs=4 {
            @0: r1 = const 5
            @1: return r1
        }
        method staticToucher(): void regs=4 {
            @0: putstatic T.s = r1
            @1: return-void
        }
    })");
    ASSERT_TRUE(r.ok()) << r.status.error;
    ClassHierarchy cha(*r.module);
    FieldEffects fx(*r.module, cha);

    const air::Klass *t = r.module->getClass("T");
    const air::Method *writer = t->findMethod("writer");
    const air::Method *caller = t->findMethod("caller");
    const air::Method *reader = t->findMethod("reader");
    const air::Method *pure = t->findMethod("pure");
    const air::Method *st = t->findMethod("staticToucher");

    EXPECT_TRUE(fx.of(writer).instanceWrites.count("g"));
    // Transitive: caller inherits writer's effects via CHA.
    EXPECT_TRUE(fx.of(caller).instanceWrites.count("g"));
    EXPECT_FALSE(fx.of(caller).callsUnknown);
    EXPECT_TRUE(fx.of(reader).instanceReads.count("g"));
    EXPECT_TRUE(fx.of(reader).isPure());
    EXPECT_TRUE(fx.isPure(pure));
    EXPECT_FALSE(fx.isPure(writer));
    EXPECT_TRUE(fx.of(st).staticWrites.count("T.s"));

    // Conflicts: writer vs reader share g; pure conflicts with nothing.
    EXPECT_TRUE(FieldEffects::mayConflict(fx.of(writer), fx.of(reader)));
    EXPECT_TRUE(FieldEffects::mayConflict(fx.of(caller), fx.of(reader)));
    EXPECT_FALSE(FieldEffects::mayConflict(fx.of(pure), fx.of(writer)));
    EXPECT_FALSE(
        FieldEffects::mayConflict(fx.of(reader), fx.of(reader)));
    EXPECT_TRUE(FieldEffects::mayConflict(fx.of(st), fx.of(st)));
}

TEST(FieldEffects, UnresolvedCallIsUnknown)
{
    auto r = air::parseModule(R"(
    class T {
        method f(): void regs=4 {
            @0: invoke-virtual Missing.g(r0)
            @1: return-void
        }
    })");
    ASSERT_TRUE(r.ok()) << r.status.error;
    ClassHierarchy cha(*r.module);
    FieldEffects fx(*r.module, cha);
    const air::Method *f = r.module->getClass("T")->findMethod("f");
    EXPECT_TRUE(fx.of(f).callsUnknown);
    EXPECT_FALSE(fx.of(f).isPure());
    // Unknown conflicts with everything, including a pure method.
    FieldEffects::Summary pure;
    EXPECT_TRUE(FieldEffects::mayConflict(fx.of(f), pure));
}

} // namespace
} // namespace sierra::analysis
