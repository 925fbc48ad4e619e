/** @file Tests for the AIR module verifier. */

#include <gtest/gtest.h>

#include "air/builder.hh"
#include "air/parser.hh"
#include "air/verifier.hh"

namespace sierra::air {
namespace {

std::unique_ptr<Module>
parseOk(const std::string &text)
{
    ParseResult r = parseModule(text);
    EXPECT_TRUE(r.ok()) << r.status.error;
    return std::move(r.module);
}

TEST(AirVerifier, CleanModulePasses)
{
    auto mod = parseOk(R"(
class A {
    field f: int
    method m(): void regs=2 {
        @0: r1 = const 1
        @1: putfield r0.A.f = r1
        @2: return-void
    }
}
)");
    EXPECT_TRUE(verifyModule(*mod).empty());
}

TEST(AirVerifier, RegisterOutOfRange)
{
    auto mod = parseOk(R"(
class A {
    method m(): void regs=1 {
        @0: r5 = const 1
        @1: return-void
    }
}
)");
    auto issues = verifyModule(*mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("out of range"), std::string::npos);
}

TEST(AirVerifier, BranchTargetOutOfRange)
{
    auto mod = parseOk(R"(
class A {
    method m(): void regs=2 {
        @0: r1 = const 0
        @1: ifz r1 eq goto @9
        @2: return-void
    }
}
)");
    auto issues = verifyModule(*mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("branch target"),
              std::string::npos);
}

TEST(AirVerifier, MissingTerminator)
{
    auto mod = parseOk(R"(
class A {
    method m(): void regs=2 {
        @0: r1 = const 0
    }
}
)");
    auto issues = verifyModule(*mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("terminator"), std::string::npos);
}

TEST(AirVerifier, SuperClassCycle)
{
    auto mod = parseOk("class A extends B {} class B extends A {}");
    auto issues = verifyModule(*mod);
    bool found_cycle = false;
    for (const auto &issue : issues)
        found_cycle |= issue.message.find("cycle") != std::string::npos;
    EXPECT_TRUE(found_cycle);
}

TEST(AirVerifier, UnresolvedSuperReported)
{
    auto mod = parseOk("class A extends DoesNotExist {}");
    auto issues = verifyModule(*mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("unresolved super"),
              std::string::npos);
}

TEST(AirVerifier, RegisterFrameSmallerThanParams)
{
    auto mod = parseOk(R"(
class A {
    method m(p0: int, p1: int): void regs=1 {
        @0: return-void
    }
}
)");
    auto issues = verifyModule(*mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("register count"),
              std::string::npos);
}

TEST(AirVerifier, NonStaticInvokeNeedsReceiver)
{
    Module mod;
    Klass *k = mod.addClass("A", "");
    Method *m = k->addMethod("m", {}, Type::voidTy(), false);
    Instruction call;
    call.op = Opcode::Invoke;
    call.invokeKind = InvokeKind::Virtual;
    call.method = mod.methodRef("A", "g", 0);
    m->instrs().push_back(call);
    Instruction ret;
    ret.op = Opcode::ReturnVoid;
    m->instrs().push_back(ret);
    m->setNumRegisters(1);
    auto issues = verifyModule(mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("receiver"), std::string::npos);
}

TEST(AirVerifier, IssuesCarryErrorSeverity)
{
    auto mod = parseOk(R"(
class A {
    method m(): void regs=1 {
        @0: r5 = const 1
        @1: return-void
    }
}
)");
    auto issues = verifyModule(*mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].severity, Severity::Error);
    // toString leads with the severity so output greps by level.
    EXPECT_EQ(issues[0].toString().rfind("error: ", 0), 0u)
        << issues[0].toString();
}

TEST(AirVerifier, RepeatedPerMethodIssuesAreDeduplicated)
{
    // The same complaint at three instructions of one method collapses
    // to one issue with a repeat count.
    auto mod = parseOk(R"(
class A {
    method m(): void regs=1 {
        @0: r5 = const 1
        @1: r5 = const 2
        @2: r5 = const 3
        @3: return-void
    }
}
)");
    auto issues = verifyModule(*mod);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].message.find("out of range"), std::string::npos);
    EXPECT_NE(issues[0].message.find("(x3)"), std::string::npos)
        << issues[0].message;
    // The first occurrence's location is kept.
    EXPECT_EQ(issues[0].where, "A.m@0");
}

TEST(AirVerifier, DedupKeepsDistinctMethodsSeparate)
{
    std::vector<VerifyIssue> issues;
    issues.push_back({"A.m@0", "bad thing", Severity::Error});
    issues.push_back({"A.n@0", "bad thing", Severity::Error});
    issues.push_back({"A.m@4", "bad thing", Severity::Error});
    issues.push_back({"A.m@5", "other thing", Severity::Warning});
    auto deduped = dedupeIssues(std::move(issues));
    ASSERT_EQ(deduped.size(), 3u);
    EXPECT_EQ(deduped[0].where, "A.m@0");
    EXPECT_NE(deduped[0].message.find("(x2)"), std::string::npos);
    EXPECT_EQ(deduped[1].where, "A.n@0");
    EXPECT_EQ(deduped[1].message, "bad thing");
    EXPECT_EQ(deduped[2].message, "other thing");
}

TEST(AirVerifier, AbstractWithBodyRejected)
{
    Module mod;
    Klass *k = mod.addClass("A", "");
    Method *m = k->addMethod("m", {}, Type::voidTy(), false);
    m->setAbstract(true);
    Instruction ret;
    ret.op = Opcode::ReturnVoid;
    m->instrs().push_back(ret);
    m->setNumRegisters(1);
    auto issues = verifyModule(mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("abstract"), std::string::npos);
}

TEST(AirVerifier, BalancedMonitorsPass)
{
    // Reentrant (nested) enters with matching exits are fine, as are
    // regions balanced independently on both sides of a branch.
    auto mod = parseOk(R"(
class B {
    field f: int
    method m(p0: int): void regs=4 {
        @0: r2 = const 1
        @1: monitor-enter r2
        @2: monitor-enter r2
        @3: putfield r0.B.f = r1
        @4: monitor-exit r2
        @5: monitor-exit r2
        @6: ifz r1 eq goto @10
        @7: monitor-enter r2
        @8: putfield r0.B.f = r1
        @9: monitor-exit r2
        @10: return-void
    }
}
)");
    EXPECT_TRUE(verifyModule(*mod).empty());
}

TEST(AirVerifier, MonitorExitWithoutEnterRejected)
{
    auto mod = parseOk(R"(
class A {
    method m(): void regs=2 {
        @0: r1 = const 1
        @1: monitor-exit r1
        @2: return-void
    }
}
)");
    auto issues = verifyModule(*mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].severity, Severity::Error);
    EXPECT_NE(issues[0].message.find("without a dominating"),
              std::string::npos)
        << issues[0].message;
}

TEST(AirVerifier, MonitorEnterWithoutExitRejected)
{
    auto mod = parseOk(R"(
class A {
    method m(): void regs=2 {
        @0: r1 = const 1
        @1: monitor-enter r1
        @2: return-void
    }
}
)");
    auto issues = verifyModule(*mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].severity, Severity::Error);
    EXPECT_NE(issues[0].message.find("no monitor-exit"),
              std::string::npos)
        << issues[0].message;
}

TEST(AirVerifier, MonitorUnbalancedOnOnePathRejected)
{
    // The then-path skips the exit: held on some path to return.
    auto mod = parseOk(R"(
class A {
    method m(p0: int): void regs=3 {
        @0: r2 = const 1
        @1: monitor-enter r2
        @2: ifz r1 eq goto @4
        @3: monitor-exit r2
        @4: return-void
    }
}
)");
    auto issues = verifyModule(*mod);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("no monitor-exit"),
              std::string::npos)
        << issues[0].message;
}

} // namespace
} // namespace sierra::air
