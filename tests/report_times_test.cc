/**
 * @file
 * Stage-time rendering completeness (report_times_test).
 *
 * The text `time:` line and the JSON `timesMs` object both walk the
 * stage table (the JSON through stageTimeEntries()); a static_assert
 * in detector.cc pins the table size to sizeof(StageTimes). These
 * tests close the remaining gap: every stage actually reaches both
 * renderings, so it cannot silently miss the report or the
 * machine-readable output.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "corpus/named_apps.hh"
#include "sierra/detector.hh"
#include "test_helpers.hh"

namespace sierra {
namespace {

AppReport
analyzeNamed(const std::string &name, const SierraOptions &options)
{
    corpus::BuiltApp built = corpus::buildNamedApp(name);
    SierraDetector detector(*built.app);
    return detector.analyze(options);
}

/** The `time: ...` line of a text report ("" if absent). */
std::string
timeLine(const std::string &text)
{
    size_t begin = text.find("time: ");
    if (begin == std::string::npos)
        return "";
    size_t end = text.find('\n', begin);
    return text.substr(begin, end - begin);
}

TEST(ReportTimes, EntriesCoverEveryStageTimesField)
{
    AppReport report = analyzeNamed("NotePad", {});
    std::vector<StageTimeEntry> entries = stageTimeEntries(report.times);

    // One row per StageTimes double (the static_assert in detector.cc
    // keeps this count in lock-step with the struct).
    EXPECT_EQ(entries.size(), sizeof(StageTimes) / sizeof(double));

    std::set<std::string> json_names;
    for (const StageTimeEntry &e : entries) {
        EXPECT_TRUE(json_names.insert(e.jsonName).second)
            << "duplicate jsonName " << e.jsonName;
    }
}

TEST(ReportTimes, TextTimeLineRendersEveryInTextEntry)
{
    // Every entry renders, with every stage on and with stages
    // switched off alike (a disabled stage just reads 0s).
    SierraOptions ablated;
    ablated.nullflow = false;
    ablated.enablement = false;
    for (const SierraOptions &options : {SierraOptions{}, ablated}) {
        AppReport report = analyzeNamed("NotePad", options);
        std::string line = timeLine(formatReport(report, 50, true));
        ASSERT_FALSE(line.empty());

        std::vector<std::string> tokens = {"total ", "(stages "};
        for (const StageDesc &d : stageTable())
            tokens.push_back(std::string(d.textName) + " ");
        for (const std::string &token : tokens) {
            EXPECT_NE(line.find(token), std::string::npos)
                << token << "missing from the time line:\n"
                << line;
        }
        EXPECT_EQ(timeLine(formatReport(report, 50, false)), "");
    }
}

using test::TempFile;

/** The `"timesMs": {...}` object of a JSON report ("" if absent). */
std::string
timesMsObject(const std::string &json)
{
    size_t begin = json.find("\"timesMs\": {");
    if (begin == std::string::npos)
        return "";
    size_t end = json.find('}', begin);
    return json.substr(begin, end - begin + 1);
}

TEST(ReportTimes, JsonTimesMsHasOneKeyPerStageTimesField)
{
    TempFile file(".air");
    std::ostringstream out, err;
    ASSERT_EQ(cli::runCli({"dump", "NotePad", "-o", file.path()}, out,
                          err),
              0)
        << err.str();

    // Disabled stages keep their key (the value is just 0), so
    // consumers never need existence checks.
    for (bool ablated : {false, true}) {
        std::vector<std::string> args = {"analyze", file.path(),
                                         "--json"};
        if (ablated) {
            args.push_back("--no-nullflow");
            args.push_back("--no-enablement");
        }
        std::ostringstream jout, jerr;
        ASSERT_EQ(cli::runCli(args, jout, jerr), 0) << jerr.str();
        std::string times = timesMsObject(jout.str());
        ASSERT_FALSE(times.empty()) << jout.str().substr(0, 400);

        AppReport report = analyzeNamed("NotePad", {});
        size_t keys = 0;
        for (const StageTimeEntry &e : stageTimeEntries(report.times)) {
            EXPECT_NE(times.find("\"" + std::string(e.jsonName) +
                                 "\": "),
                      std::string::npos)
                << e.jsonName << " missing from timesMs: " << times;
            ++keys;
        }
        // No extra keys either: entry count == quote-pair count.
        size_t quotes = 0;
        for (char c : times)
            quotes += (c == '"');
        // "timesMs" itself contributes one quoted token.
        EXPECT_EQ(quotes, 2 * (keys + 1)) << times;
    }
}

} // namespace
} // namespace sierra
