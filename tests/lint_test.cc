/** @file Tests for the AIR lint driver (use-before-def, unreachable
 *  blocks, dead stores) and issue severity/dedup plumbing. */

#include <gtest/gtest.h>

#include "air/parser.hh"
#include "analysis/lint.hh"

namespace sierra::analysis {
namespace {

using air::Severity;
using air::VerifyIssue;

std::unique_ptr<air::Module>
parse(const std::string &text)
{
    auto r = air::parseModule(text);
    EXPECT_TRUE(r.ok()) << r.status.error;
    return std::move(r.module);
}

bool
hasIssue(const std::vector<VerifyIssue> &issues,
         const std::string &fragment, Severity severity)
{
    for (const auto &i : issues) {
        if (i.severity == severity &&
            i.message.find(fragment) != std::string::npos) {
            return true;
        }
    }
    return false;
}

/** The issues whose message contains `fragment`: isolates one check. */
std::vector<VerifyIssue>
withMessage(std::vector<VerifyIssue> issues, const std::string &fragment)
{
    std::erase_if(issues, [&](const VerifyIssue &i) {
        return i.message.find(fragment) == std::string::npos;
    });
    return issues;
}

TEST(Lint, CleanMethodHasNoIssues)
{
    auto mod = parse(R"(
    class T {
        method f(p0: int): int regs=4 {
            @0: r2 = const 1
            @1: r3 = add r1, r2
            @2: return r3
        }
    })");
    EXPECT_TRUE(lintModule(*mod).empty());
}

TEST(Lint, UseBeforeDefIsError)
{
    auto mod = parse(R"(
    class T {
        method f(): int regs=4 {
            @0: r2 = add r1, r1
            @1: return r2
        }
    })");
    auto issues = lintModule(*mod);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_TRUE(hasIssue(issues, "r1 may be used before assignment",
                         Severity::Error));
    EXPECT_EQ(issues[0].where, "T.f@0");
}

TEST(Lint, MaybeUnassignedOnOnePathIsError)
{
    auto mod = parse(R"(
    class T {
        method f(p0: int): int regs=4 {
            @0: ifz r1 eq goto @2
            @1: r2 = const 1
            @2: return r2
        }
    })");
    auto issues = lintModule(*mod);
    EXPECT_TRUE(hasIssue(issues, "r2 may be used before assignment",
                         Severity::Error));
}

TEST(Lint, AssignedOnBothPathsIsClean)
{
    auto mod = parse(R"(
    class T {
        method f(p0: int): int regs=4 {
            @0: ifz r1 eq goto @3
            @1: r2 = const 1
            @2: goto @4
            @3: r2 = const 2
            @4: return r2
        }
    })");
    EXPECT_TRUE(lintModule(*mod).empty());
}

TEST(Lint, UnreachableBlockIsWarning)
{
    auto mod = parse(R"(
    class T {
        method f(): void regs=4 {
            @0: return-void
            @1: r1 = const 1
            @2: return-void
        }
    })");
    auto issues = withMessage(lintModule(*mod), "unreachable basic block");
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].severity, Severity::Warning);
    EXPECT_EQ(issues[0].where, "T.f@1");
}

TEST(Lint, DeadStoreIsWarning)
{
    auto mod = parse(R"(
    class T {
        method f(): int regs=4 {
            @0: r1 = const 1
            @1: r1 = const 2
            @2: return r1
        }
    })");
    auto issues = lintModule(*mod);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_TRUE(hasIssue(issues, "dead store to r1", Severity::Warning));
    EXPECT_EQ(issues[0].where, "T.f@0");
}

TEST(Lint, StoreReadOnlyOnOnePathIsNotDead)
{
    auto mod = parse(R"(
    class T {
        method f(p0: int): int regs=4 {
            @0: r2 = const 7
            @1: ifz r1 eq goto @3
            @2: return r2
            @3: r3 = const 0
            @4: return r3
        }
    })");
    auto issues = lintModule(*mod);
    // r2 is read on the fallthrough path: live. r3 is read too.
    EXPECT_TRUE(issues.empty()) << issues[0].toString();
}

TEST(Lint, CallsAndStoresAreNotDeadStoreCandidates)
{
    auto mod = parse(R"(
    class T {
        method g(): int regs=2 {
            @0: r1 = const 1
            @1: return r1
        }
        method f(): void regs=4 {
            @0: r1 = invoke-virtual T.g(r0)
            @1: return-void
        }
    })");
    // The call result is unread, but calls may have effects: no lint.
    EXPECT_TRUE(lintModule(*mod).empty());
}

TEST(Lint, RepeatedDiagnosticsAreDeduplicated)
{
    // The same use-before-def register read three times in one method
    // collapses to one issue with a count annotation.
    auto mod = parse(R"(
    class T {
        method f(): int regs=4 {
            @0: r2 = add r1, r1
            @1: r2 = add r1, r1
            @2: r2 = add r1, r1
            @3: return r2
        }
    })");
    auto issues = withMessage(lintModule(*mod), "may be used before");
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].message.find("(x6)"), std::string::npos)
        << issues[0].message;
}

TEST(Lint, PostUnderMonitorIsWarning)
{
    auto mod = parse(R"(
    class T {
        method f(p0: java.lang.Object, p1: java.lang.Runnable): void regs=4 {
            @0: monitor-enter r1
            @1: invoke-virtual android.os.Handler.post(r1, r2)
            @2: monitor-exit r1
            @3: return-void
        }
    })");
    auto issues = lintModule(*mod);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_TRUE(hasIssue(issues, "called with a monitor held",
                         Severity::Warning));
    EXPECT_EQ(issues[0].where, "T.f@1");
}

TEST(Lint, PostOutsideMonitorIsClean)
{
    auto mod = parse(R"(
    class T {
        method f(p0: java.lang.Object, p1: java.lang.Runnable): void regs=4 {
            @0: monitor-enter r1
            @1: monitor-exit r1
            @2: invoke-virtual android.os.Handler.post(r1, r2)
            @3: return-void
        }
    })");
    EXPECT_TRUE(lintModule(*mod).empty());
}

TEST(Lint, SendMessageUnderMonitorIsWarning)
{
    auto mod = parse(R"(
    class T {
        method f(p0: java.lang.Object, p1: java.lang.Object): void regs=4 {
            @0: monitor-enter r1
            @1: invoke-virtual android.os.Handler.sendMessage(r1, r2)
            @2: monitor-exit r1
            @3: return-void
        }
    })");
    auto issues = lintModule(*mod);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_TRUE(hasIssue(issues, "called with a monitor held",
                         Severity::Warning));
}

TEST(Lint, NonPostCallUnderMonitorIsClean)
{
    auto mod = parse(R"(
    class T {
        method g(): void regs=2 {
            @0: return-void
        }
        method f(p0: java.lang.Object): void regs=4 {
            @0: monitor-enter r1
            @1: invoke-virtual T.g(r0)
            @2: monitor-exit r1
            @3: return-void
        }
    })");
    EXPECT_TRUE(lintModule(*mod).empty());
}

TEST(Lint, UnreachableCodeProducesNoUseOrStoreNoise)
{
    // Dead code reading an unassigned register: flagged unreachable
    // only, not also use-before-def/dead-store.
    auto mod = parse(R"(
    class T {
        method f(): void regs=4 {
            @0: return-void
            @1: r2 = add r1, r1
            @2: return-void
        }
    })");
    auto issues = lintModule(*mod);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].severity, Severity::Warning);
}

TEST(Lint, LeakedReceiverRegistrationIsWarning)
{
    auto mod = parse(R"(
    class A {
        field recv: java.lang.Object
        method onCreate(): void regs=4 {
            @0: r1 = new A
            @1: putfield r0.A.recv = r1
            @2: r2 = const "org.example.ACTION"
            @3: invoke-virtual android.app.Activity.registerReceiver(r0, r1, r2)
            @4: return-void
        }
    })");
    auto issues = lintModule(*mod);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_TRUE(hasIssue(issues,
                         "not unregistered in any teardown callback",
                         Severity::Warning));
    EXPECT_EQ(issues[0].where, "A.onCreate@3");
}

TEST(Lint, UnregisteredInTeardownIsClean)
{
    auto mod = parse(R"(
    class A {
        field recv: java.lang.Object
        method onCreate(): void regs=4 {
            @0: r1 = new A
            @1: putfield r0.A.recv = r1
            @2: r2 = const "org.example.ACTION"
            @3: invoke-virtual android.app.Activity.registerReceiver(r0, r1, r2)
            @4: return-void
        }
        method onDestroy(): void regs=3 {
            @0: r1 = getfield r0.A.recv
            @1: invoke-virtual android.app.Activity.unregisterReceiver(r0, r1)
            @2: return-void
        }
    })");
    EXPECT_TRUE(lintModule(*mod).empty());
}

TEST(Lint, UnregisterOnOnePathOnlyIsStillLeaked)
{
    // The unregister must happen on *every* path through a teardown
    // callback; a branch that skips it keeps the warning.
    auto mod = parse(R"(
    class A {
        field recv: java.lang.Object
        field flag: int
        method onCreate(): void regs=4 {
            @0: r1 = new A
            @1: putfield r0.A.recv = r1
            @2: r2 = const "org.example.ACTION"
            @3: invoke-virtual android.app.Activity.registerReceiver(r0, r1, r2)
            @4: return-void
        }
        method onDestroy(): void regs=4 {
            @0: r2 = getfield r0.A.flag
            @1: ifz r2 eq goto @4
            @2: r1 = getfield r0.A.recv
            @3: invoke-virtual android.app.Activity.unregisterReceiver(r0, r1)
            @4: return-void
        }
    })");
    auto issues = lintModule(*mod);
    EXPECT_TRUE(hasIssue(issues,
                         "not unregistered in any teardown callback",
                         Severity::Warning));
}

TEST(Lint, ReceiverNeverStoredIsWarning)
{
    auto mod = parse(R"(
    class A {
        method onCreate(): void regs=4 {
            @0: r1 = new A
            @1: r2 = const "org.example.ACTION"
            @2: invoke-virtual android.app.Activity.registerReceiver(r0, r1, r2)
            @3: return-void
        }
    })");
    auto issues = lintModule(*mod);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_TRUE(hasIssue(issues, "never stored in a field",
                         Severity::Warning));
}

TEST(Lint, ListenerOnFieldHeldViewWithoutClearIsWarning)
{
    auto mod = parse(R"(
    class A {
        field pane: java.lang.Object
        field lsn: java.lang.Object
        method onCreate(): void regs=4 {
            @0: r1 = getfield r0.A.pane
            @1: r2 = getfield r0.A.lsn
            @2: invoke-virtual android.view.View.setOnClickListener(r1, r2)
            @3: return-void
        }
    })");
    auto issues = lintModule(*mod);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_TRUE(hasIssue(issues,
                         "not cleared in any teardown callback",
                         Severity::Warning));
    EXPECT_EQ(issues[0].where, "A.onCreate@2");
}

TEST(Lint, ListenerClearedInTeardownIsClean)
{
    auto mod = parse(R"(
    class A {
        field pane: java.lang.Object
        field lsn: java.lang.Object
        method onCreate(): void regs=4 {
            @0: r1 = getfield r0.A.pane
            @1: r2 = getfield r0.A.lsn
            @2: invoke-virtual android.view.View.setOnClickListener(r1, r2)
            @3: return-void
        }
        method onPause(): void regs=4 {
            @0: r1 = getfield r0.A.pane
            @1: r2 = null
            @2: invoke-virtual android.view.View.setOnClickListener(r1, r2)
            @3: return-void
        }
    })");
    EXPECT_TRUE(lintModule(*mod).empty());
}

TEST(Lint, ListenerOnLocalViewIsClean)
{
    // findViewById results die with the activity's view tree; setting a
    // listener on one is the universal idiom, not a leak.
    auto mod = parse(R"(
    class A {
        field lsn: java.lang.Object
        method onCreate(): void regs=5 {
            @0: r1 = const 7
            @1: r2 = invoke-virtual android.app.Activity.findViewById(r0, r1)
            @2: r3 = getfield r0.A.lsn
            @3: invoke-virtual android.view.View.setOnClickListener(r2, r3)
            @4: return-void
        }
    })");
    EXPECT_TRUE(lintModule(*mod).empty());
}

} // namespace
} // namespace sierra::analysis
