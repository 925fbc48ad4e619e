/** @file Robustness sweeps: the parsers must reject or accept, never
 *  crash, on arbitrary and mutated inputs. The inputs come from
 *  parser_sweeps.hh. */

#include <gtest/gtest.h>

#include "air/parser.hh"
#include "framework/app_text.hh"
#include "parser_sweeps.hh"

namespace sierra {
namespace {

TEST(ParserRobustness, RandomInputNeverCrashes)
{
    for (const std::string &input : test::randomModuleInputs()) {
        air::ParseResult r = air::parseModule(input);
        if (!r.ok()) {
            EXPECT_FALSE(r.status.error.empty());
        }
    }
}

TEST(ParserRobustness, RandomAppBundleNeverCrashes)
{
    for (const std::string &input : test::randomBundleInputs()) {
        framework::AppTextResult r = framework::parseAppText(input);
        if (!r.ok()) {
            EXPECT_FALSE(r.error.empty());
        }
    }
}

TEST(ParserRobustness, MutatedRealModulesNeverCrash)
{
    for (const std::string &mutated : test::mutatedModuleInputs()) {
        air::ParseResult r = air::parseModule(mutated);
        // Either it still parses (benign mutation) or it reports a
        // located error; both are fine, crashing is not.
        if (!r.ok()) {
            EXPECT_FALSE(r.status.error.empty());
            EXPECT_GE(r.status.errorLine, 0);
        }
    }
}

TEST(ParserRobustness, SweepsReachTheRangeChecks)
{
    // The overflow fragments must actually exercise every range check,
    // or the sweeps above would not have caught a throwing conversion.
    std::vector<std::string> inputs = test::randomModuleInputs();
    for (std::string &m : test::mutatedModuleInputs())
        inputs.push_back(std::move(m));
    bool literal = false, reg = false, other = false;
    for (const std::string &input : inputs) {
        air::ParseResult r = air::parseModule(input);
        const std::string &e = r.status.error;
        if (e.find("out of range") == std::string::npos)
            continue;
        literal |= e.rfind("integer literal", 0) == 0;
        reg |= e.rfind("register '", 0) == 0;
        other |= e.rfind("branch target", 0) == 0 ||
                 e.rfind("register count", 0) == 0;
    }
    EXPECT_TRUE(literal);
    EXPECT_TRUE(reg);
    EXPECT_TRUE(other);
}

TEST(ParserRobustness, TruncatedRealBundlesNeverCrash)
{
    for (const std::string &input : test::truncatedBundleInputs()) {
        framework::AppTextResult r = framework::parseAppText(input);
        if (!r.ok()) {
            EXPECT_FALSE(r.error.empty());
        }
    }
}

TEST(ParserRobustness, DeepNestingIsHandled)
{
    // Many unmatched braces in the app header must terminate cleanly.
    framework::AppTextResult r =
        framework::parseAppText(test::deepNestingBundle());
    EXPECT_FALSE(r.ok());
}

} // namespace
} // namespace sierra
