/** @file Tests for the sierra command-line tool. */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cli.hh"
#include "test_helpers.hh"

namespace sierra::cli {
namespace {

struct CliRun {
    int code;
    std::string out;
    std::string err;
};

CliRun
run(std::vector<std::string> args)
{
    std::ostringstream out;
    std::ostringstream err;
    int code = runCli(args, out, err);
    return {code, out.str(), err.str()};
}

using sierra::test::TempFile;

TEST(Cli, HelpAndUnknownCommand)
{
    EXPECT_EQ(run({"help"}).code, 0);
    EXPECT_NE(run({"help"}).out.find("usage:"), std::string::npos);
    EXPECT_EQ(run({}).code, 2);
    CliRun bad = run({"frobnicate"});
    EXPECT_EQ(bad.code, 2);
    EXPECT_NE(bad.err.find("unknown command"), std::string::npos);
}

TEST(Cli, ListShowsAppsAndPatterns)
{
    CliRun r = run({"list"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("OpenSudoku"), std::string::npos);
    EXPECT_NE(r.out.find("guardedTimer"), std::string::npos);
    EXPECT_NE(r.out.find("fdroid-173"), std::string::npos);
}

TEST(Cli, DumpAnalyzeRoundTrip)
{
    TempFile file(".air");
    CliRun dump = run({"dump", "OpenSudoku", "-o", file.path()});
    ASSERT_EQ(dump.code, 0) << dump.err;

    CliRun analyze = run({"analyze", file.path()});
    ASSERT_EQ(analyze.code, 0) << analyze.err;
    EXPECT_NE(analyze.out.find("SIERRA report"), std::string::npos);
    EXPECT_NE(analyze.out.find("racy pairs"), std::string::npos);
}

TEST(Cli, DumpFdroidApp)
{
    CliRun r = run({"dump", "fdroid-3"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("app \"fdroid-003\""), std::string::npos);
    EXPECT_EQ(run({"dump", "fdroid-999"}).code, 1);
    EXPECT_EQ(run({"dump", "NoSuchApp"}).code, 1);
}

TEST(Cli, AnalyzeFlags)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "TippyTipper", "-o", file.path()}).code, 0);

    CliRun hybrid = run({"analyze", file.path(), "--policy", "hybrid",
                         "--no-refute"});
    EXPECT_EQ(hybrid.code, 0) << hybrid.err;

    CliRun bad_policy =
        run({"analyze", file.path(), "--policy", "quantum"});
    EXPECT_EQ(bad_policy.code, 2);
    EXPECT_NE(bad_policy.err.find("unknown policy"),
              std::string::npos);

    CliRun missing_value = run({"analyze", file.path(), "--policy"});
    EXPECT_EQ(missing_value.code, 2);
}

TEST(Cli, BadFlagsExitTwo)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "TippyTipper", "-o", file.path()}).code, 0);
    const std::vector<std::vector<std::string>> bad = {
        {"analyze", file.path(), "--bogus-flag"},
        {"analyze", file.path(), "--k", "abc"},
        {"analyze", file.path(), "--k", "1x"},
        {"analyze", file.path(), "--k", "-1"},
        {"analyze", file.path(), "--jobs", "many"},
        {"analyze", file.path(), "--max-races", ""},
        {"dynamic", file.path(), "--schedules", "2.5"},
        {"dynamic", file.path(), "--seed", "x"},
        {"verify", file.path(), "--schedules", "eight"},
    };
    for (const auto &args : bad) {
        CliRun r = run(args);
        EXPECT_EQ(r.code, 2) << args.back();
        EXPECT_EQ(r.err.rfind("error: ", 0), 0u) << r.err;
        EXPECT_TRUE(r.out.empty()) << r.out;
    }

    CliRun k0 = run({"analyze", file.path(), "--k", "0", "--no-refute",
                     "--max-races", "3", "--jobs", "1"});
    EXPECT_EQ(k0.code, 0) << k0.err;
}

TEST(Cli, AnalyzeJson)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "VuDroid", "-o", file.path()}).code, 0);
    CliRun r = run({"analyze", file.path(), "--json"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("\"app\": \"VuDroid\""), std::string::npos);
    EXPECT_NE(r.out.find("\"races\": ["), std::string::npos);
    EXPECT_NE(r.out.find("\"racyPairs\":"), std::string::npos);
}

TEST(Cli, AnalyzeJsonCarriesSchemaVersion)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "VuDroid", "-o", file.path()}).code, 0);
    CliRun r = run({"analyze", file.path(), "--json"});
    ASSERT_EQ(r.code, 0) << r.err;
    // The version is the first key, so consumers can dispatch on it
    // before reading anything else.
    EXPECT_NE(r.out.find("{\n  \"schemaVersion\": 3,"),
              std::string::npos)
        << r.out.substr(0, 200);
}

/** Every value in the emitted JSON must be quoted, numeric, boolean,
 *  or a nested container — a bare string value (the PR-6 class of bug,
 *  where a new field was emitted unquoted) breaks strict parsers. */
void
expectValuesWellFormed(const std::string &json)
{
    for (size_t i = 0; i + 2 < json.size(); ++i) {
        // A key ends with `": ` (an escaped quote inside a string
        // value is `\"` and does not match).
        if (json[i] != '"' || json[i + 1] != ':' ||
            json[i + 2] != ' ' || (i > 0 && json[i - 1] == '\\'))
            continue;
        char v = json[i + 3];
        bool ok = v == '"' || v == '[' || v == '{' || v == '-' ||
                  (v >= '0' && v <= '9') || v == 't' || v == 'f' ||
                  v == 'n';
        EXPECT_TRUE(ok) << "unquoted value at offset " << i << ": ..."
                        << json.substr(i, 60) << "...";
        if (!ok)
            return;
    }
}

TEST(Cli, AnalyzeJsonStringFieldsAreQuoted)
{
    // SipDroid exercises every report section: races, use-after-
    // destroy, and deadlocks; VLC adds resolved ICC edges.
    for (const char *app : {"SipDroid", "VLC"}) {
        TempFile file(".air");
        ASSERT_EQ(run({"dump", app, "-o", file.path()}).code, 0);
        CliRun r = run({"analyze", file.path(), "--json", "--metrics"});
        ASSERT_EQ(r.code, 0) << r.err;
        expectValuesWellFormed(r.out);
    }
}

TEST(Cli, AnalyzeJsonDeadlockSection)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "SipDroid", "-o", file.path()}).code, 0);

    CliRun r = run({"analyze", file.path(), "--json"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("\"deadlocks\": ["), std::string::npos);
    EXPECT_NE(r.out.find("\"heldLock\":"), std::string::npos);
    EXPECT_NE(r.out.find("\"acquiredLock\":"), std::string::npos);

    CliRun off = run({"analyze", file.path(), "--json",
                      "--no-deadlock"});
    ASSERT_EQ(off.code, 0) << off.err;
    EXPECT_NE(off.out.find("\"deadlocks\": []"), std::string::npos);
}

TEST(Cli, AnalyzeNoDeadlockFlag)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "SipDroid", "-o", file.path()}).code, 0);

    CliRun on = run({"analyze", file.path()});
    ASSERT_EQ(on.code, 0) << on.err;
    EXPECT_NE(on.out.find("deadlocks: 1"), std::string::npos);
    EXPECT_NE(on.out.find("[dl] cycle"), std::string::npos);

    CliRun off = run({"analyze", file.path(), "--no-deadlock"});
    ASSERT_EQ(off.code, 0) << off.err;
    EXPECT_EQ(off.out.find("[dl]"), std::string::npos);
}

TEST(Cli, AnalyzeNoIccFlag)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "VLC", "-o", file.path()}).code, 0);

    CliRun on = run({"analyze", file.path()});
    ASSERT_EQ(on.code, 0) << on.err;
    EXPECT_NE(on.out.find("Feed$2.article"), std::string::npos)
        << "cross-component race expected with ICC on";

    CliRun off = run({"analyze", file.path(), "--no-icc"});
    ASSERT_EQ(off.code, 0) << off.err;
    EXPECT_EQ(off.out.find("Feed$2.article"), std::string::npos)
        << "cross-component race requires the ICC edge";
}

TEST(Cli, DynamicCommand)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "VuDroid", "-o", file.path()}).code, 0);
    CliRun r =
        run({"dynamic", file.path(), "--schedules", "2", "--seed", "9"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("schedules: 2"), std::string::npos);
}

TEST(Cli, HarnessCommand)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "VuDroid", "-o", file.path()}).code, 0);

    // Recover the activity name from the dump.
    std::ifstream in(file.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t pos = text.find("activity ");
    ASSERT_NE(pos, std::string::npos);
    std::string activity =
        text.substr(pos + 9, text.find(' ', pos + 9) - pos - 9);

    CliRun r = run({"harness", file.path(), activity});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("Harness$" + activity), std::string::npos);
    EXPECT_NE(r.out.find("invoke-virtual"), std::string::npos);

    EXPECT_EQ(run({"harness", file.path(), "NoSuchActivity"}).code, 1);
}

TEST(Cli, ActionsCommand)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "OpenSudoku", "-o", file.path()}).code, 0);
    std::ifstream in(file.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t pos = text.find("activity ");
    std::string activity =
        text.substr(pos + 9, text.find(' ', pos + 9) - pos - 9);

    CliRun r = run({"actions", file.path(), activity});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("lifecycle"), std::string::npos);
    EXPECT_NE(r.out.find("HB edges by rule:"), std::string::npos);
    EXPECT_NE(r.out.find("closure:"), std::string::npos);
    EXPECT_EQ(run({"actions", file.path(), "Nope"}).code, 1);
    EXPECT_EQ(run({"actions", file.path()}).code, 2);
}

TEST(Cli, LintFlagsSeededDefects)
{
    // A bundle that verifies but trips all three lint checks.
    const char *linty = R"(
app "linty" {
    package org.example.linty
    activity Main main
}
class Main extends android.app.Activity {
    method <init>(): void regs=1 { @0: return-void }
    method useBeforeDef(): int regs=4 {
        @0: r2 = add r1, r1
        @1: return r2
    }
    method deadCode(): void regs=2 {
        @0: return-void
        @1: goto @1
    }
    method deadStore(): int regs=4 {
        @0: r1 = const 1
        @1: r1 = const 2
        @2: return r1
    }
}
)";
    TempFile file(".air");
    {
        std::ofstream out(file.path());
        out << linty;
    }

    CliRun r = run({"lint", file.path()});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.out.find("may be used before assignment"),
              std::string::npos);
    EXPECT_NE(r.out.find("unreachable basic block"), std::string::npos);
    EXPECT_NE(r.out.find("dead store"), std::string::npos);
    EXPECT_NE(r.out.find("3 issue(s)"), std::string::npos) << r.out;

    CliRun errs = run({"lint", file.path(), "--errors-only"});
    EXPECT_EQ(errs.code, 1);
    EXPECT_NE(errs.out.find("may be used before assignment"),
              std::string::npos);
    EXPECT_EQ(errs.out.find("dead store"), std::string::npos);
    EXPECT_EQ(errs.out.find("unreachable"), std::string::npos);
}

TEST(Cli, LintJsonMirrorsTextFindings)
{
    const char *linty = R"(
app "linty" {
    package org.example.linty
    activity Main main
}
class Main extends android.app.Activity {
    method <init>(): void regs=1 { @0: return-void }
    method useBeforeDef(): int regs=4 {
        @0: r2 = add r1, r1
        @1: return r2
    }
    method deadStore(): int regs=4 {
        @0: r1 = const 1
        @1: r1 = const 2
        @2: return r1
    }
}
)";
    TempFile file(".air");
    {
        std::ofstream out(file.path());
        out << linty;
    }

    // Same findings and exit code as the text form, as a JSON array.
    CliRun r = run({"lint", file.path(), "--json"});
    EXPECT_EQ(r.code, 1);
    EXPECT_EQ(r.out.rfind("[", 0), 0u) << r.out;
    EXPECT_NE(r.out.find("\"severity\": \"error\""),
              std::string::npos);
    EXPECT_NE(r.out.find("\"severity\": \"warning\""),
              std::string::npos);
    EXPECT_NE(r.out.find("\"where\": \"Main.useBeforeDef"),
              std::string::npos);
    EXPECT_NE(r.out.find("may be used before assignment"),
              std::string::npos);
    EXPECT_EQ(r.out.find("issue(s)"), std::string::npos)
        << "no text summary line in JSON mode";

    // --errors-only composes: the dead-store warning disappears.
    CliRun errs = run({"lint", file.path(), "--json", "--errors-only"});
    EXPECT_EQ(errs.code, 1);
    EXPECT_EQ(errs.out.find("dead store"), std::string::npos);
    EXPECT_NE(errs.out.find("\"severity\": \"error\""),
              std::string::npos);

    // Clean module: an empty array and exit 0.
    TempFile clean(".air");
    ASSERT_EQ(run({"dump", "VuDroid", "-o", clean.path()}).code, 0);
    CliRun ok = run({"lint", clean.path(), "--json"});
    EXPECT_EQ(ok.code, 0) << ok.out;
    EXPECT_EQ(ok.out, "[]\n");
}

TEST(Cli, LintFlagsLeakedRegistration)
{
    // A receiver registered in onCreate with no teardown unregister:
    // the leaked-registration check fires in both text and JSON modes.
    const char *leaky = R"(
app "leaky" {
    package org.example.leaky
    activity Main main
}
class Main extends android.app.Activity {
    field recv: java.lang.Object
    method <init>(): void regs=1 { @0: return-void }
    method onCreate(): void regs=4 {
        @0: r1 = new Main
        @1: putfield r0.Main.recv = r1
        @2: r2 = const "org.example.ACTION"
        @3: invoke-virtual android.app.Activity.registerReceiver(r0, r1, r2)
        @4: return-void
    }
}
)";
    TempFile file(".air");
    {
        std::ofstream out(file.path());
        out << leaky;
    }

    CliRun r = run({"lint", file.path()});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.out.find("not unregistered in any teardown callback"),
              std::string::npos)
        << r.out;

    CliRun j = run({"lint", file.path(), "--json"});
    EXPECT_EQ(j.code, 1);
    EXPECT_NE(j.out.find("\"severity\": \"warning\""),
              std::string::npos);
    EXPECT_NE(j.out.find("\"where\": \"Main.onCreate@3\""),
              std::string::npos)
        << j.out;
}

TEST(Cli, LintReportsUnbalancedMonitors)
{
    const char *unbalanced = R"(
app "locky" {
    package org.example.locky
    activity Main main
}
class Main extends android.app.Activity {
    method <init>(): void regs=1 { @0: return-void }
    method leaky(): void regs=2 {
        @0: r1 = const 1
        @1: monitor-enter r1
        @2: return-void
    }
}
)";
    TempFile file(".air");
    {
        std::ofstream out(file.path());
        out << unbalanced;
    }
    CliRun r = run({"lint", file.path()});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.out.find("no monitor-exit"), std::string::npos)
        << r.out;
    // Balance violations are verifier errors, not lint warnings.
    CliRun errs = run({"lint", file.path(), "--errors-only"});
    EXPECT_EQ(errs.code, 1);
    EXPECT_NE(errs.out.find("no monitor-exit"), std::string::npos);
}

TEST(Cli, LintCleanAppExitsZero)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "OpenSudoku", "-o", file.path()}).code, 0);
    CliRun r = run({"lint", file.path()});
    EXPECT_EQ(r.code, 0) << r.out;
    EXPECT_NE(r.out.find("no issues"), std::string::npos);
    EXPECT_EQ(run({"lint"}).code, 2);
}

TEST(Cli, AnalyzeNoDataflowFlag)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "VuDroid", "-o", file.path()}).code, 0);
    CliRun r = run({"analyze", file.path(), "--no-dataflow"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("SIERRA report"), std::string::npos);
}

TEST(Cli, AnalyzeNoIfdsFlag)
{
    // APV's signature carries interprocGuard: its mHits trap is only
    // refuted with the interprocedural summaries, so --no-ifds brings
    // the false positive back.
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "APV", "-o", file.path()}).code, 0);

    CliRun with = run({"analyze", file.path()});
    ASSERT_EQ(with.code, 0) << with.err;
    EXPECT_EQ(with.out.find("mHits"), std::string::npos);

    CliRun without = run({"analyze", file.path(), "--no-ifds"});
    ASSERT_EQ(without.code, 0) << without.err;
    EXPECT_NE(without.out.find("mHits"), std::string::npos)
        << "without summaries the deep setter chain is havocked";

    CliRun json = run({"analyze", file.path(), "--json"});
    ASSERT_EQ(json.code, 0) << json.err;
    EXPECT_NE(json.out.find("\"useAfterDestroy\":"),
              std::string::npos);
    EXPECT_NE(json.out.find("\"ifds\":"), std::string::npos);

    // K-9 Mail carries use-after-destroy findings; every field of a
    // finding must be emitted as a quoted JSON string.
    TempFile k9(".air");
    ASSERT_EQ(run({"dump", "K-9 Mail", "-o", k9.path()}).code, 0);
    CliRun uad = run({"analyze", k9.path(), "--json"});
    ASSERT_EQ(uad.code, 0) << uad.err;
    EXPECT_NE(uad.out.find("\"teardownAction\": \""),
              std::string::npos)
        << "use-after-destroy actions must be quoted JSON strings";
    EXPECT_NE(uad.out.find("\"useAction\": \""), std::string::npos);
}

TEST(Cli, AnalyzeLockFlags)
{
    // ConnectBot's signature carries lockGuarded: the monitor-guarded
    // field is refuted by default and only surfaces with --no-lockset.
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "ConnectBot", "-o", file.path()}).code, 0);

    CliRun with = run({"analyze", file.path()});
    ASSERT_EQ(with.code, 0) << with.err;
    EXPECT_EQ(with.out.find("lockset-refuted: 0"), std::string::npos)
        << "the stage refutes at least one pair by default";
    EXPECT_EQ(with.out.find("guardedVal"), std::string::npos);

    CliRun without = run({"analyze", file.path(), "--no-lockset",
                          "--no-escape"});
    ASSERT_EQ(without.code, 0) << without.err;
    EXPECT_NE(without.out.find("lockset-refuted: 0"),
              std::string::npos);
    EXPECT_NE(without.out.find("accesses dropped: 0"),
              std::string::npos);
    EXPECT_NE(without.out.find("guardedVal"), std::string::npos)
        << "without lock sets the guarded pair is reported";

    CliRun json = run({"analyze", file.path(), "--json"});
    ASSERT_EQ(json.code, 0) << json.err;
    EXPECT_NE(json.out.find("\"locksetRefuted\":"), std::string::npos);
    EXPECT_NE(json.out.find("\"accessesDropped\":"),
              std::string::npos);
}

TEST(Cli, AnalyzeEnablementFlags)
{
    // OpenSudoku's signature carries removedCallback: the post-teardown
    // read is refuted by default and only surfaces with --no-enablement.
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "OpenSudoku", "-o", file.path()}).code, 0);

    CliRun with = run({"analyze", file.path()});
    ASSERT_EQ(with.code, 0) << with.err;
    EXPECT_NE(with.out.find("enablement-refuted:"), std::string::npos);
    EXPECT_EQ(with.out.find("enablement-refuted: 0"),
              std::string::npos)
        << "the stage refutes at least one pair by default";
    EXPECT_EQ(with.out.find("jobTicks"), std::string::npos);

    CliRun without = run({"analyze", file.path(), "--no-enablement"});
    ASSERT_EQ(without.code, 0) << without.err;
    EXPECT_NE(without.out.find("enablement-refuted: 0"),
              std::string::npos)
        << "--no-enablement output reports zero enablement refutations";
    EXPECT_NE(without.out.find("jobTicks"), std::string::npos)
        << "without the stage the removed-callback read is reported";

    CliRun json = run({"analyze", file.path(), "--json"});
    ASSERT_EQ(json.code, 0) << json.err;
    EXPECT_NE(json.out.find("\"enablementRefuted\":"),
              std::string::npos);
    EXPECT_NE(json.out.find("\"enablement\":"), std::string::npos)
        << "timesMs carries the stage unconditionally";
}

TEST(Cli, AnalyzeTraceWritesChromeJson)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "OpenSudoku", "-o", file.path()}).code, 0);

    TempFile trace(".json");
    CliRun r = run({"analyze", file.path(), "--trace", trace.path()});
    ASSERT_EQ(r.code, 0) << r.err;

    std::ifstream in(trace.path());
    ASSERT_TRUE(in.good()) << "--trace did not write the file";
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
#ifndef SIERRA_TRACE_DISABLED
    // With tracing compiled out the file is valid but empty: no
    // spans to look for.
    EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(text.find("stage.cg_pa"), std::string::npos);
#endif

    CliRun bad = run({"analyze", file.path(), "--trace",
                      "/no/such/dir/trace.json"});
    EXPECT_EQ(bad.code, 1);
    EXPECT_NE(bad.err.find("cannot write trace"), std::string::npos);
}

TEST(Cli, AnalyzeMetricsFlag)
{
    TempFile file(".air");
    ASSERT_EQ(run({"dump", "ConnectBot", "-o", file.path()}).code, 0);

    CliRun text = run({"analyze", file.path(), "--metrics"});
    ASSERT_EQ(text.code, 0) << text.err;
    EXPECT_NE(text.out.find("pta.worklist_iterations"),
              std::string::npos);
    EXPECT_NE(text.out.find("race.lockset_refuted"),
              std::string::npos);
    EXPECT_NE(text.out.find("stage.refutation.seconds"),
              std::string::npos);

    CliRun json = run({"analyze", file.path(), "--json", "--metrics"});
    ASSERT_EQ(json.code, 0) << json.err;
    EXPECT_NE(json.out.find("\"metrics\":"), std::string::npos);
    EXPECT_NE(json.out.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.out.find("\"dataflow\":"), std::string::npos);
    EXPECT_NE(json.out.find("\"racy\":"), std::string::npos);

    // Without the flag the report carries no metrics block.
    CliRun plain = run({"analyze", file.path(), "--json"});
    EXPECT_EQ(plain.out.find("\"metrics\":"), std::string::npos);
}

TEST(Cli, MissingFileFailsCleanly)
{
    CliRun r = run({"analyze", "/definitely/not/here.air"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace sierra::cli
