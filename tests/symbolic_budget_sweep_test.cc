/**
 * @file
 * Budget sweep: the refutation verdicts of the whole pipeline, pinned
 * under tight and default executor budgets.
 *
 * The executor reuses work across queries (the query memo, recorded
 * phase-B runs); every such reuse must leave each verdict exactly as a
 * fresh walk would decide it, `Budget` verdicts included. A budget that
 * cuts a query mid-walk is where a replay that miscounts steps, paths
 * or depth would show, so each row runs the 20 named apps and eight
 * heavy generated apps under one budget and pins the verdict totals
 * and a hash of every report's text.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "sierra/detector.hh"

namespace sierra {
namespace {

struct Budget {
    const char *name;
    int maxSteps;
    int maxPaths;
    int maxDepth;
};

struct Totals {
    int refuted{0};
    int timedOut{0};
    int64_t budgetExhausted{0};
    int64_t queries{0};
    uint64_t reportHash{0};

    bool operator==(const Totals &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Totals &t)
{
    return os << "{" << t.refuted << ", " << t.timedOut << ", "
              << t.budgetExhausted << ", " << t.queries << ", 0x"
              << std::hex << t.reportHash << std::dec << "ull}";
}

/** FNV-1a 64 over `s`, continuing from `h`. */
uint64_t
fnv1a(uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** The 20 named apps, then four 3 x 12 (the heavy-app shape) and four
 *  3 x 24 generated apps. */
std::vector<corpus::BuiltApp>
sweepApps()
{
    std::vector<corpus::BuiltApp> apps;
    for (const auto &spec : corpus::namedAppSpecs())
        apps.push_back(corpus::buildNamedApp(spec));
    for (int i = 0; i < 8; ++i) {
        corpus::SyntheticSpec spec;
        spec.seed = 0x4EA7u * 1000003u + static_cast<uint32_t>(i);
        spec.activities = 3;
        spec.minPatternsPerActivity = spec.maxPatternsPerActivity =
            i < 4 ? 12 : 24;
        apps.push_back(corpus::generateSyntheticApp(
            "sweep-" + std::to_string(i), spec));
    }
    return apps;
}

TEST(SymbolicBudgetSweep, VerdictsAndReportsArePinned)
{
    const symbolic::ExecutorOptions defaults;
    const Budget budgets[] = {
        {"default", defaults.maxSteps, defaults.maxPaths,
         defaults.maxDepth},
        {"maxSteps 20", 20, defaults.maxPaths, defaults.maxDepth},
        {"maxSteps 150", 150, defaults.maxPaths, defaults.maxDepth},
        {"maxPaths 2", defaults.maxSteps, 2, defaults.maxDepth},
        {"maxPaths 8", defaults.maxSteps, 8, defaults.maxDepth},
        {"maxDepth 12", defaults.maxSteps, defaults.maxPaths, 12},
    };
    // {refuted, timedOut, budgetExhausted, queries, report hash},
    // captured before the executor reused any phase-B walk. The
    // maxDepth row was captured once a path cut by the depth limit
    // made its query `Budget` instead of ending like a pruned path.
    const Totals expected[] = {
        {523, 0, 24, 4160, 0xb106aed83e32498ull},
        {194, 552, 984, 3204, 0x909db36dcac34ec3ull},
        {386, 138, 208, 3732, 0x2e37c950a3c67706ull},
        {72, 1050, 1695, 2728, 0x8583c7d8c8c2bf18ull},
        {194, 396, 667, 3204, 0x909db36dcac34ec3ull},
        {153, 796, 1427, 3007, 0x30edb664dafdef28ull},
    };

    std::vector<corpus::BuiltApp> apps = sweepApps();
    std::vector<std::unique_ptr<SierraDetector>> detectors;
    for (const auto &built : apps)
        detectors.push_back(std::make_unique<SierraDetector>(*built.app));

    for (size_t b = 0; b < std::size(budgets); ++b) {
        SCOPED_TRACE(budgets[b].name);
        SierraOptions opts;
        opts.refuter.exec.maxSteps = budgets[b].maxSteps;
        opts.refuter.exec.maxPaths = budgets[b].maxPaths;
        opts.refuter.exec.maxDepth = budgets[b].maxDepth;
        Totals got;
        got.reportHash = 1469598103934665603ull;
        for (const auto &detector : detectors) {
            AppReport report = detector->analyze(opts);
            for (const HarnessAnalysis &ha : report.perHarness) {
                got.refuted += ha.refutation.refuted;
                got.timedOut += ha.refutation.timedOut;
                got.budgetExhausted += ha.refutation.exec.budgetExhausted;
                got.queries += ha.refutation.exec.queries;
            }
            got.reportHash =
                fnv1a(got.reportHash, formatReport(report, 1000, false));
        }
        EXPECT_EQ(got, expected[b]);
        // A tighter budget leaves more queries unfinished; it never
        // refutes more pairs than the default budget does.
        EXPECT_LE(got.refuted, expected[0].refuted);
    }
}

} // namespace
} // namespace sierra
