/**
 * @file
 * Points-to sweep: a canonical dump of every PointsToResult, pinned
 * under every context policy and option the engine reads.
 *
 * The solver's interning order (sites, contexts, objects, nodes,
 * actions, keys) is part of the byte-identical-report contract: later
 * stages and the reports iterate by id. A rewrite of the engine's
 * lookups must therefore leave each table, each points-to set and
 * each counter exactly as it was. Each row runs the 20 named apps and
 * twelve heavy-shape generated apps (3 activities x 12 patterns) under
 * one (policy, k), with `indexSensitiveArrays` off and on, and pins one
 * hash of the dumps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/points_to.hh"
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
setText(const ObjSet &s)
{
    std::string out = "{";
    for (ObjId o : s)
        out += std::to_string(o) + ",";
    return out + "}";
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

/** Every table, set and counter of one result, ids as they are. */
std::string
dumpResult(const PointsToResult &r)
{
    std::string out;
    auto line = [&](const std::string &s) { out += s + "\n"; };
    line("root " + std::to_string(r.rootNode) + " " +
         std::to_string(r.rootAction) + " looper " +
         std::to_string(r.mainLooperObj));
    for (size_t s = 0; s < r.sites.size(); ++s)
        line("site " + r.sites.toString(static_cast<SiteId>(s)));
    for (size_t c = 0; c < r.contexts.size(); ++c)
        line("ctx " + r.contexts.toString(static_cast<CtxId>(c), r.sites));
    for (size_t o = 0; o < r.objects.size(); ++o)
        line("obj " + r.objects.toString(static_cast<ObjId>(o), r.sites));
    for (size_t k = 0; k < r.keys.size(); ++k)
        line("key " + r.keyName(static_cast<FieldId>(k)));
    for (NodeId n = 0; n < r.cg.numNodes(); ++n) {
        const CGNodeData &d = r.cg.node(n);
        line("node " + std::to_string(n) + " " + d.method->qualifiedName() +
             " ctx " + std::to_string(d.ctx) + " acts " +
             setText(r.cg.actionsOf(n)) + " ret " +
             setText(r.returnPts[static_cast<size_t>(n)]));
        const auto &regs = r.regPts[static_cast<size_t>(n)];
        for (size_t reg = 0; reg < regs.size(); ++reg) {
            line(" r" + std::to_string(reg) + " " + setText(regs[reg]) +
                 " " + constText(r.constOf(n, static_cast<int>(reg))));
        }
        for (const CGEdge &e : r.cg.edgesOf(n))
            line(" edge " + std::to_string(e.site) + " -> " +
                 std::to_string(e.callee));
        std::string callers = " callers";
        for (NodeId c : r.cg.callersOf(n))
            callers += " " + std::to_string(c);
        line(callers);
    }
    for (const SpawnEdge &s : r.cg.spawns())
        line("spawn " + std::to_string(s.creator) + " " +
             std::to_string(s.site) + " " + std::to_string(s.actionId));
    for (const auto &[key, pts] : r.fieldPts)
        line("field " + std::to_string(key.first) + " " +
             r.keyName(key.second) + " " + setText(pts));
    for (const auto &[key, pts] : r.staticPts)
        line("static " + r.keyName(key) + " " + setText(pts));
    std::vector<std::pair<ObjId, ObjId>> loopers(r.handlerLooper.begin(),
                                                 r.handlerLooper.end());
    std::sort(loopers.begin(), loopers.end());
    for (auto [h, l] : loopers)
        line("looper " + std::to_string(h) + " " + std::to_string(l));
    for (const Action &a : r.actions.all()) {
        line("action " + std::to_string(a.id) + " " +
             actionKindName(a.kind) + " " + a.label + " " + a.entryClass +
             " " + a.callbackName + " creator " +
             std::to_string(a.creator) + " site " +
             std::to_string(a.creationSite) + " entry " +
             std::to_string(a.entryNode) + " " +
             threadAffinityName(a.affinity) + " looper " +
             std::to_string(a.looperObj) + " widget " +
             std::to_string(a.widgetId) + " what " +
             std::to_string(a.messageWhat));
    }
    line("stats " + std::to_string(r.stats.worklistIterations) + " " +
         std::to_string(r.stats.localPasses) + " " +
         std::to_string(r.stats.instrVisits) + " " +
         std::to_string(r.stats.deltaSkips));
    return out;
}

/** The 20 named apps, then twelve heavy-shape generated apps. */
const std::vector<corpus::BuiltApp> &
sweepApps()
{
    static const std::vector<corpus::BuiltApp> apps = [] {
        std::vector<corpus::BuiltApp> out;
        for (const auto &spec : corpus::namedAppSpecs())
            out.push_back(corpus::buildNamedApp(spec));
        for (int i = 0; i < 12; ++i) {
            corpus::SyntheticSpec spec;
            spec.seed = 0x4EA7u * 1000003u + static_cast<uint32_t>(i);
            spec.activities = 3;
            spec.minPatternsPerActivity = spec.maxPatternsPerActivity = 12;
            out.push_back(corpus::generateSyntheticApp(
                "pts-sweep-" + std::to_string(i), spec));
        }
        return out;
    }();
    return apps;
}

/** Hash of every harness's dump over the sweep apps under `opts`. */
uint64_t
sweepHash(const PointsToOptions &opts)
{
    // One detector per app: it generates the harness plans once.
    static const std::vector<std::unique_ptr<SierraDetector>> detectors =
        [] {
            std::vector<std::unique_ptr<SierraDetector>> out;
            for (const corpus::BuiltApp &built : sweepApps())
                out.push_back(std::make_unique<SierraDetector>(*built.app));
            return out;
        }();
    uint64_t h = 1469598103934665603ull;
    for (size_t a = 0; a < sweepApps().size(); ++a) {
        for (const harness::HarnessPlan &plan : detectors[a]->plans()) {
            PointsToAnalysis pta(*sweepApps()[a].app, plan, opts);
            h = fnv1a(h, dumpResult(*pta.run()));
        }
    }
    return h;
}

struct Row {
    ContextPolicy policy;
    int k;
    uint64_t hash; //!< over indexSensitiveArrays off, then on
};

TEST(PointsToSweep, EveryTableSetAndCounterIsPinned)
{
    // Taken from the engine that still read a separate heap context
    // depth, run with it equal to k, so these rows prove that folding
    // it into k changed nothing. The k = 0 rows of k-cfa and hybrid are
    // the insensitive row (every context string is empty), and
    // action-sensitive at k = 0 keeps the action id alone.
    const Row rows[] = {
        {ContextPolicy::Insensitive, 0, 0xe712b7709500436eull},
        {ContextPolicy::Insensitive, 1, 0xe712b7709500436eull},
        {ContextPolicy::Insensitive, 2, 0xe712b7709500436eull},
        {ContextPolicy::KCfa, 0, 0xe712b7709500436eull},
        {ContextPolicy::KCfa, 1, 0x04ef9932c7e96b7full},
        {ContextPolicy::KCfa, 2, 0x53f88048206d2801ull},
        {ContextPolicy::KObj, 0, 0xe712b7709500436eull},
        {ContextPolicy::KObj, 1, 0xac8699f7d0a43277ull},
        {ContextPolicy::KObj, 2, 0x30ba0b1a971136faull},
        {ContextPolicy::Hybrid, 0, 0xe712b7709500436eull},
        {ContextPolicy::Hybrid, 1, 0x05f547938e7a2324ull},
        {ContextPolicy::Hybrid, 2, 0x5d28189f25c5f05eull},
        {ContextPolicy::ActionSensitive, 0, 0x483f193bfec1c69dull},
        {ContextPolicy::ActionSensitive, 1, 0x61961f9c54618aefull},
        {ContextPolicy::ActionSensitive, 2, 0x9ffc5d23abc4d628ull},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(std::string(contextPolicyName(row.policy)) + " k " +
                     std::to_string(row.k));
        uint64_t h = 1469598103934665603ull;
        for (bool indexed : {false, true}) {
            PointsToOptions opts;
            opts.ctx.policy = row.policy;
            opts.ctx.k = row.k;
            opts.indexSensitiveArrays = indexed;
            h = fnv1a(h, std::to_string(sweepHash(opts)));
        }
        EXPECT_EQ(h, row.hash) << std::hex << "0x" << h << "ull";
    }
}

} // namespace
} // namespace sierra::analysis
