/**
 * @file
 * IFDS sweep: every fact InterConstants answers, pinned under the
 * default budgets and under budgets that exhaust on some apps.
 *
 * The symbolic refuter reads these facts per state, so a rewrite of
 * the solver's storage must answer every query exactly as before:
 * reachability, the value of each register before each instruction,
 * infeasible branch edges, return facts, must-write facts in their
 * order, solve counts and IfdsStats. A budget that runs out mid-way
 * degrades the whole result to Top; the tight rows pin that path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/ifds.hh"
#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "sierra/detector.hh"

namespace sierra::analysis {
namespace {

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

std::string
constText(ConstVal v)
{
    switch (v.state) {
      case ConstVal::State::Bottom: return "_";
      case ConstVal::State::Top: return "T";
      case ConstVal::State::Const: return std::to_string(v.value);
    }
    return "?";
}

/** Every answer of `inter` over the methods of `r`'s call graph, in
 *  first-node order. */
std::string
dumpFacts(const PointsToResult &r, const InterConstants &inter)
{
    std::string out;
    std::vector<const air::Method *> seen;
    for (NodeId n = 0; n < r.cg.numNodes(); ++n) {
        const air::Method *m = r.cg.node(n).method;
        if (!m->hasBody() ||
            std::find(seen.begin(), seen.end(), m) != seen.end())
            continue;
        seen.push_back(m);
        out += "method " + m->qualifiedName() + " solves " +
               std::to_string(inter.solveCountOf(m)) + " ret " +
               constText(inter.returnConst(m)) + "\n";
        const Cfg &cfg = r.cfg(*m);
        for (int i = 0; i < m->numInstrs(); ++i) {
            out += std::to_string(i) +
                   (inter.reachable(m, i) ? " R" : " U");
            for (int reg = 0; reg < m->numRegisters(); ++reg)
                out += " " + constText(inter.before(m, i, reg));
            if (m->instr(i).dst >= 0)
                out += " after " +
                       constText(inter.after(m, i, m->instr(i).dst));
            for (int s : cfg.instrSuccs(i)) {
                if (!inter.edgeFeasible(m, i, s))
                    out += " x" + std::to_string(s);
            }
            out += "\n";
        }
        for (const InterConstants::MustWrite &mw : inter.mustWrites(m)) {
            out += " must " + mw.field->className + "." +
                   mw.field->fieldName + (mw.isStatic ? " S" : " I") +
                   (mw.exclusive ? " X " : " - ") +
                   std::to_string(mw.value) + "\n";
        }
    }
    const IfdsStats &s = inter.stats();
    out += "stats " + std::to_string(s.methods) + " " +
           std::to_string(s.summaryComputations) + " " +
           std::to_string(s.summaryReuses) + " " +
           std::to_string(s.callSites) + " " +
           std::to_string(s.paramConsts) + " " +
           std::to_string(s.returnConsts) + " " +
           std::to_string(s.mustWriteFacts) + " " +
           std::to_string(s.statesVisited) + " " +
           std::to_string(s.budgetExhausted) + "\n";
    return out;
}

struct Budget {
    const char *name;
    int maxSolvesPerMethod;
    int maxStates;
};

struct Totals {
    int64_t exhausted{0}; //!< harnesses whose budget ran out
    uint64_t hash{0};

    bool operator==(const Totals &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Totals &t)
{
    return os << "{" << t.exhausted << ", 0x" << std::hex << t.hash
              << std::dec << "ull}";
}

TEST(IfdsSweep, EveryFactIsPinned)
{
    const IfdsOptions defaults;
    const Budget budgets[] = {
        {"default", defaults.maxSolvesPerMethod, defaults.maxStates},
        {"maxSolvesPerMethod 1", 1, defaults.maxStates},
        {"maxStates 400", defaults.maxSolvesPerMethod, 400},
        {"maxStates 150", defaults.maxSolvesPerMethod, 150},
    };
    // Captured before the solver kept its facts in flat arrays.
    const Totals expected[] = {
        {0, 0x6e57416342f32208ull},
        {47, 0xefcca01d7f42a5c7ull},
        {13, 0x23082ca1de071858ull},
        {56, 0x2489fc387b097ef9ull},
    };

    std::vector<corpus::BuiltApp> apps;
    for (const auto &spec : corpus::namedAppSpecs())
        apps.push_back(corpus::buildNamedApp(spec));
    for (int i = 0; i < 12; ++i) {
        corpus::SyntheticSpec spec;
        spec.seed = 0x4EA7u * 1000003u + static_cast<uint32_t>(i);
        spec.activities = 3;
        spec.minPatternsPerActivity = spec.maxPatternsPerActivity = 12;
        apps.push_back(corpus::generateSyntheticApp(
            "ifds-sweep-" + std::to_string(i), spec));
    }
    std::vector<std::unique_ptr<PointsToResult>> results;
    for (const corpus::BuiltApp &built : apps) {
        SierraDetector detector(*built.app);
        for (const harness::HarnessPlan &plan : detector.plans())
            results.push_back(PointsToAnalysis(*built.app, plan).run());
    }

    for (size_t b = 0; b < std::size(budgets); ++b) {
        SCOPED_TRACE(budgets[b].name);
        IfdsOptions opts;
        opts.maxSolvesPerMethod = budgets[b].maxSolvesPerMethod;
        opts.maxStates = budgets[b].maxStates;
        Totals got;
        got.hash = 1469598103934665603ull;
        for (const auto &r : results) {
            InterConstants inter(*r, opts);
            got.exhausted += inter.stats().budgetExhausted ? 1 : 0;
            got.hash = fnv1a(got.hash, dumpFacts(*r, inter));
        }
        EXPECT_EQ(got, expected[b]);
        // Each tight row degrades some harnesses, never all of them.
        EXPECT_LT(got.exhausted, static_cast<int64_t>(results.size()));
    }
}

} // namespace
} // namespace sierra::analysis
