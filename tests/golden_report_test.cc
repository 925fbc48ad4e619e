/**
 * @file
 * Golden-report pinning: the full pipeline's text report for every
 * named app must be byte-identical to the committed snapshot under
 * tests/golden/ (captured before the interned-id/bitset memory
 * overhaul). This is the report-preserving contract all representation
 * changes are held to; regenerate the snapshots only for a change that
 * intentionally alters analysis results, never for a perf refactor.
 *
 * Snapshots are written by the recipe below (formatReport with
 * max_races=50 and no timing line); spaces and slashes in app names
 * become underscores in file names.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "cli.hh"
#include "corpus/named_apps.hh"
#include "sierra/detector.hh"
#include "test_helpers.hh"

#ifndef SIERRA_GOLDEN_DIR
#define SIERRA_GOLDEN_DIR "tests/golden"
#endif

namespace sierra {
namespace {

std::string
goldenFileName(const std::string &app_name)
{
    std::string fname;
    for (char c : app_name)
        fname += (c == ' ' || c == '/') ? '_' : c;
    return fname;
}

std::string
goldenPath(const std::string &app_name)
{
    return std::string(SIERRA_GOLDEN_DIR) + "/" +
           goldenFileName(app_name) + ".report.txt";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(GoldenReports, AllNamedAppsByteIdentical)
{
    int checked = 0;
    for (const auto &spec : corpus::namedAppSpecs()) {
        std::string path = goldenPath(spec.name);
        std::string expected = readFile(path);
        ASSERT_FALSE(expected.empty())
            << "missing golden snapshot " << path;

        corpus::BuiltApp built = corpus::buildNamedApp(spec);
        SierraDetector detector(*built.app);
        AppReport report = detector.analyze({});
        std::string actual = formatReport(report, 50, false);

        EXPECT_EQ(actual, expected)
            << spec.name << ": report diverged from " << path;
        ++checked;
    }
    EXPECT_EQ(checked, 20) << "the corpus pins all 20 named apps";
}

/** Descriptions of the surviving races (one per deduplicated race). */
std::set<std::string>
survivingRaces(const AppReport &report)
{
    std::set<std::string> out;
    for (const AppRace &race : report.races) {
        if (!race.refuted)
            out.insert(race.description);
    }
    return out;
}

/**
 * The nullflow stage is purely additive: switching it off keeps the
 * surviving race set of every named app and leaves every verdict
 * Unknown (no tallies, no provenance chains).
 */
TEST(GoldenReports, NullflowOffKeepsRacesAndLeavesSeverityUnknown)
{
    int checked = 0;
    for (const auto &spec : corpus::namedAppSpecs()) {
        corpus::BuiltApp built = corpus::buildNamedApp(spec);
        SierraDetector detector(*built.app);
        AppReport on = detector.analyze({});
        SierraOptions options;
        options.nullflow = false;
        AppReport off = detector.analyze(options);

        EXPECT_EQ(survivingRaces(off), survivingRaces(on)) << spec.name;
        EXPECT_EQ(off.harmfulRaces, 0) << spec.name;
        EXPECT_EQ(off.guardedRaces, 0) << spec.name;
        for (const AppRace &race : off.races) {
            EXPECT_EQ(race.severity, analysis::NullVerdict::Unknown)
                << spec.name << ": " << race.description;
            EXPECT_EQ(race.severityChain, "")
                << spec.name << ": " << race.description;
        }
        ++checked;
    }
    EXPECT_EQ(checked, 20);
}

using test::TempFile;

/** Drop the `"timesMs": {...}` line: stage timings are the one
 *  nondeterministic part of the JSON report. */
std::string
stripTimesMs(const std::string &json)
{
    std::istringstream in(json);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("  \"timesMs\": {", 0) == 0)
            continue;
        out << line << "\n";
    }
    return out.str();
}

/**
 * Machine-readable pinning (schemaVersion 3): the `--json` report for
 * the three apps carrying nullflow signature patterns, severity and
 * provenance fields included, must match the committed snapshots
 * byte-for-byte once the timing line is stripped.
 */
TEST(GoldenReports, JsonReportsByteIdentical)
{
    for (const std::string name :
         {"FBReader", "Astrid", "XBMC remote"}) {
        std::string path = std::string(SIERRA_GOLDEN_DIR) + "/" +
                           goldenFileName(name) + ".report.json";
        std::string expected = readFile(path);
        ASSERT_FALSE(expected.empty())
            << "missing golden snapshot " << path;
        EXPECT_NE(expected.find("\"schemaVersion\": 3,"),
                  std::string::npos);
        EXPECT_NE(expected.find("\"severity\": "), std::string::npos);

        TempFile file(".air");
        std::ostringstream dout, derr;
        ASSERT_EQ(cli::runCli({"dump", name, "-o", file.path()}, dout,
                              derr),
                  0)
            << derr.str();
        std::ostringstream jout, jerr;
        ASSERT_EQ(cli::runCli({"analyze", file.path(), "--json"},
                              jout, jerr),
                  0)
            << jerr.str();

        EXPECT_EQ(stripTimesMs(jout.str()), expected)
            << name << ": JSON report diverged from " << path;
    }
}

} // namespace
} // namespace sierra
