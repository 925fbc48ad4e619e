/**
 * @file
 * The stage table (sierra/detector.hh) is the one declaration of every
 * pipeline stage: its timer field, toggle, CLI flag, trace spans and
 * report/metrics names. These tests pin that each stage has exactly
 * one well-formed row and that the surfaces built from the table (the
 * `sierra analyze` flags and the help text) cover every row.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "cli.hh"
#include "sierra/detector.hh"
#include "test_helpers.hh"

namespace sierra {
namespace {

TEST(StageTable, EveryStageIdHasExactlyOneRow)
{
    ASSERT_EQ(stageTable().size(), static_cast<size_t>(kNumStages));
    std::set<int> ids;
    for (const StageDesc &d : stageTable())
        EXPECT_TRUE(ids.insert(static_cast<int>(d.id)).second);
    for (int i = 0; i < kNumStages; ++i) {
        EXPECT_EQ(static_cast<int>(stageDesc(static_cast<StageId>(i)).id),
                  i);
    }
    // One timer field per row, and every StageTimes stage field is
    // some row's (the two totals are not stages).
    for (const StageDesc &d : stageTable()) {
        ASSERT_NE(d.time, nullptr) << d.name;
        for (const StageDesc &other : stageTable()) {
            if (other.id != d.id) {
                EXPECT_NE(other.time, d.time) << d.name;
            }
        }
    }
    EXPECT_EQ(stageTable().size() + 2,
              sizeof(StageTimes) / sizeof(double));
}

TEST(StageTable, SpanFlagAndJsonNamesAreUnique)
{
    std::set<std::string> spans, flags, json_names, text_names,
        histograms;
    for (const StageDesc &d : stageTable()) {
        const std::string stem = std::string("stage.") + d.name;
        for (const char *span : d.spans) {
            if (!span)
                continue;
            EXPECT_TRUE(spans.insert(span).second) << span;
            EXPECT_EQ(std::string(span).rfind(stem, 0), 0u) << span;
        }
        ASSERT_NE(d.spans[0], nullptr) << d.name;
        EXPECT_TRUE(json_names.insert(d.jsonName).second) << d.jsonName;
        EXPECT_TRUE(text_names.insert(d.textName).second) << d.textName;
        EXPECT_TRUE(histograms.insert(d.histogram).second) << d.histogram;
        EXPECT_EQ(std::string(d.histogram), stem + ".seconds");

        // A stage is switchable iff it has a toggle, a flag and help.
        EXPECT_EQ(d.toggle == nullptr, d.flag == nullptr) << d.name;
        EXPECT_EQ(d.flag == nullptr, d.help == nullptr) << d.name;
        if (d.flag) {
            EXPECT_TRUE(flags.insert(d.flag).second) << d.flag;
            EXPECT_EQ(std::string(d.flag).rfind("--no-", 0), 0u)
                << d.flag;
        }
    }
    // The paper's core pipeline cannot be switched off.
    for (StageId id : {StageId::CgPa, StageId::Hbg, StageId::Racy})
        EXPECT_EQ(stageDesc(id).toggle, nullptr) << stageDesc(id).name;
}

TEST(StageTable, EveryFlagIsAcceptedByAnalyzeAndListedInHelp)
{
    std::ostringstream help, help_err;
    ASSERT_EQ(cli::runCli({"help"}, help, help_err), 0);

    test::TempFile file(".air");
    std::ostringstream dout, derr;
    ASSERT_EQ(cli::runCli({"dump", "NotePad", "-o", file.path()}, dout,
                          derr),
              0)
        << derr.str();

    for (const StageDesc &d : stageTable()) {
        if (!d.flag)
            continue;
        EXPECT_NE(help.str().find(std::string("  ") + d.flag + " "),
                  std::string::npos)
            << d.flag << " missing from help";

        // The flag switches its stage off: the stage never runs, so
        // its timesMs entry is exactly zero.
        std::ostringstream out, err;
        ASSERT_EQ(cli::runCli({"analyze", file.path(), d.flag, "--json"},
                              out, err),
                  0)
            << d.flag << ": " << err.str();
        EXPECT_NE(out.str().find(std::string("\"") + d.jsonName +
                                 "\": 0,"),
                  std::string::npos)
            << d.flag << " did not switch its stage off";
    }
}

} // namespace
} // namespace sierra
