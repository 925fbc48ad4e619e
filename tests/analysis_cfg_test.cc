/** @file Tests for CFG construction and dominator trees. */

#include <gtest/gtest.h>

#include "air/parser.hh"
#include "analysis/cfg.hh"
#include "analysis/dominators.hh"

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

TEST(Cfg, StraightLine)
{
    std::unique_ptr<air::Module> hold;
    air::Method *m = parseMethod(hold, R"(
    method f(): void regs=2 {
        @0: r1 = const 1
        @1: r1 = const 2
        @2: return-void
    })");
    Cfg cfg(*m);
    // One real block + synthetic exit.
    EXPECT_EQ(cfg.numBlocks(), 2);
    EXPECT_EQ(cfg.blockOf(0), 0);
    EXPECT_EQ(cfg.blockOf(2), 0);
    ASSERT_EQ(cfg.blocks()[0].succs.size(), 1u);
    EXPECT_EQ(cfg.blocks()[0].succs[0], cfg.exitBlock());
}

TEST(Cfg, Diamond)
{
    std::unique_ptr<air::Module> hold;
    air::Method *m = parseMethod(hold, R"(
    method f(): void regs=2 {
        @0: r1 = const 1
        @1: ifz r1 eq goto @4
        @2: r1 = const 2
        @3: goto @5
        @4: r1 = const 3
        @5: return-void
    })");
    Cfg cfg(*m);
    // Blocks: [0-1], [2-3], [4], [5], exit.
    EXPECT_EQ(cfg.numBlocks(), 5);
    int head = cfg.blockOf(0);
    EXPECT_EQ(cfg.blocks()[head].succs.size(), 2u);
    int join = cfg.blockOf(5);
    EXPECT_EQ(cfg.blocks()[join].preds.size(), 2u);

    DominatorTree dom(cfg);
    EXPECT_TRUE(dom.dominates(head, join));
    EXPECT_FALSE(dom.dominates(cfg.blockOf(2), join));
    EXPECT_FALSE(dom.dominates(cfg.blockOf(4), join));
    EXPECT_TRUE(dom.instrDominates(0, 5));
    EXPECT_TRUE(dom.instrDominates(1, 2));
    EXPECT_FALSE(dom.instrDominates(2, 4));
    EXPECT_FALSE(dom.instrDominates(4, 5)) << "one arm does not dominate";

    // Only branch targets are jump targets: the fall-through into @2
    // and the method entry are not.
    for (int i = 0; i < m->numInstrs(); ++i)
        EXPECT_EQ(cfg.isJumpTarget(i), i == 4 || i == 5) << i;
}

TEST(Cfg, Loop)
{
    std::unique_ptr<air::Module> hold;
    air::Method *m = parseMethod(hold, R"(
    method f(): void regs=2 {
        @0: r1 = const 0
        @1: r1 = const 1
        @2: ifz r1 ne goto @1
        @3: return-void
    })");
    Cfg cfg(*m);
    int header = cfg.blockOf(1);
    EXPECT_EQ(cfg.blocks()[header].preds.size(), 2u)
        << "entry + back edge";
    DominatorTree dom(cfg);
    EXPECT_TRUE(dom.dominates(cfg.blockOf(0), header));
    EXPECT_TRUE(dom.instrDominates(1, 3));
}

TEST(Cfg, InstrLevelEdges)
{
    std::unique_ptr<air::Module> hold;
    air::Method *m = parseMethod(hold, R"(
    method f(): void regs=2 {
        @0: r1 = const 1
        @1: ifz r1 eq goto @3
        @2: r1 = const 2
        @3: return-void
    })");
    Cfg cfg(*m);
    auto s1 = cfg.instrSuccs(1);
    ASSERT_EQ(s1.size(), 2u);
    EXPECT_EQ(s1[0], 2);
    EXPECT_EQ(s1[1], 3);
    // A block's first instruction: the last instruction of each
    // predecessor block, in block order.
    auto p3 = cfg.instrPreds(3);
    ASSERT_EQ(p3.size(), 2u);
    EXPECT_EQ(p3[0], 1);
    EXPECT_EQ(p3[1], 2);
    EXPECT_TRUE(cfg.instrPreds(0).empty());

    auto p2 = cfg.instrPreds(2);
    ASSERT_EQ(p2.size(), 1u);
    EXPECT_EQ(p2[0], 1);
}

TEST(Cfg, UnreachableCodeHasNoDominator)
{
    std::unique_ptr<air::Module> hold;
    air::Method *m = parseMethod(hold, R"(
    method f(): void regs=2 {
        @0: return-void
        @1: r1 = const 1
        @2: return-void
    })");
    Cfg cfg(*m);
    DominatorTree dom(cfg);
    EXPECT_FALSE(dom.reachable(cfg.blockOf(1)));
    EXPECT_FALSE(dom.dominates(cfg.blockOf(1), cfg.blockOf(0)));
}

TEST(Cfg, ThrowEndsBlockToExit)
{
    std::unique_ptr<air::Module> hold;
    air::Method *m = parseMethod(hold, R"(
    method f(): void regs=2 {
        @0: r1 = null
        @1: throw r1
    })");
    Cfg cfg(*m);
    EXPECT_EQ(cfg.blocks()[cfg.blockOf(1)].succs[0], cfg.exitBlock());
}

TEST(Cfg, ToStringMentionsBlocks)
{
    std::unique_ptr<air::Module> hold;
    air::Method *m = parseMethod(hold, R"(
    method f(): void regs=1 {
        @0: return-void
    })");
    Cfg cfg(*m);
    std::string s = cfg.toString();
    EXPECT_NE(s.find("B0"), std::string::npos);
    EXPECT_NE(s.find("exit"), std::string::npos);
}

} // namespace
} // namespace sierra::analysis
