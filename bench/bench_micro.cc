/**
 * @file
 * Google-benchmark microbenchmarks for the core pipeline stages:
 * corpus construction, parser round-trip, pointer analysis, SHBG
 * construction, racy-pair detection, symbolic refutation, the
 * dynamic detector, and the serve store's warm path.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <set>

#include "air/parser.hh"
#include "air/printer.hh"
#include "analysis/ifds.hh"
#include "analysis/store.hh"
#include "bench_util.hh"
#include "corpus/generator.hh"
#include "framework/app_text.hh"
#include "hb/rules.hh"
#include "serve/incremental.hh"
#include "util/bitset.hh"

namespace {

using namespace sierra;

/** Deterministic id stream (LCG) so both containers see identical
 *  insertion orders — no std::random, no run-to-run drift. */
struct IdStream {
    uint32_t x{12345};
    int
    next(int universe)
    {
        x = x * 1664525u + 1013904223u;
        return static_cast<int>((x >> 8) % universe);
    }
};

corpus::BuiltApp
appFor(int size_class)
{
    switch (size_class) {
      case 0: return corpus::buildNamedApp("VuDroid");     // tiny
      case 1: return corpus::buildNamedApp("OpenSudoku");  // small
      case 2: return corpus::buildNamedApp("Beem");        // medium
      default: return corpus::buildNamedApp("Astrid");     // large
    }
}

void
BM_BuildCorpusApp(benchmark::State &state)
{
    for (auto _ : state) {
        corpus::BuiltApp built = appFor(state.range(0));
        benchmark::DoNotOptimize(built.app->codeSize());
    }
}
BENCHMARK(BM_BuildCorpusApp)->DenseRange(0, 3);

void
BM_ParserRoundTrip(benchmark::State &state)
{
    corpus::BuiltApp built = appFor(state.range(0));
    std::string text = air::printModule(built.app->module());
    for (auto _ : state) {
        air::ParseResult r = air::parseModule(text);
        benchmark::DoNotOptimize(r.module->numClasses());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * text.size());
}
BENCHMARK(BM_ParserRoundTrip)->DenseRange(0, 3);

void
BM_PointsToAnalysis(benchmark::State &state)
{
    corpus::BuiltApp built = appFor(state.range(0));
    SierraDetector detector(*built.app);
    const auto &plan = detector.plans()[0];
    // One hierarchy for every run, as the pipeline shares one across
    // harnesses: the timed loop measures the solver alone.
    auto cha =
        std::make_shared<analysis::ClassHierarchy>(built.app->module());
    for (auto _ : state) {
        analysis::PointsToAnalysis pta(*built.app, plan, {}, cha);
        auto result = pta.run();
        benchmark::DoNotOptimize(result->cg.numNodes());
    }
}
BENCHMARK(BM_PointsToAnalysis)->DenseRange(0, 3);

void
BM_InterConstants(benchmark::State &state)
{
    corpus::BuiltApp built = appFor(state.range(0));
    SierraDetector detector(*built.app);
    const auto &plan = detector.plans()[0];
    analysis::PointsToAnalysis pta(*built.app, plan, {});
    auto result = pta.run();
    for (auto _ : state) {
        analysis::InterConstants inter(*result);
        benchmark::DoNotOptimize(inter.stats().statesVisited);
    }
}
BENCHMARK(BM_InterConstants)->DenseRange(0, 3);

void
BM_ShbgConstruction(benchmark::State &state)
{
    corpus::BuiltApp built = appFor(state.range(0));
    SierraDetector detector(*built.app);
    const auto &plan = detector.plans()[0];
    analysis::PointsToAnalysis pta(*built.app, plan, {});
    auto result = pta.run();
    for (auto _ : state) {
        hb::HbBuilder builder(*result, plan, *built.app);
        auto shbg = builder.build();
        benchmark::DoNotOptimize(shbg->numClosurePairs());
    }
}
BENCHMARK(BM_ShbgConstruction)->DenseRange(0, 3);

void
BM_FullPipeline(benchmark::State &state)
{
    corpus::BuiltApp built = appFor(state.range(0));
    SierraDetector detector(*built.app);
    for (auto _ : state) {
        AppReport report = detector.analyze({});
        benchmark::DoNotOptimize(report.afterRefutation);
    }
}
BENCHMARK(BM_FullPipeline)->DenseRange(0, 3);

/** The first activity's harness analysed up to refutation, for the
 *  refuter benchmarks (BM_Refutation and the BENCH JSON rows). */
struct RefutationInput {
    corpus::BuiltApp built;
    std::unique_ptr<SierraDetector> detector;
    HarnessAnalysis ha;

    explicit RefutationInput(int size_class)
        : built(appFor(size_class)),
          detector(std::make_unique<SierraDetector>(*built.app))
    {
        SierraOptions no_refute;
        no_refute.runRefutation = false;
        ha = detector->analyzeActivity(
            built.app->manifest().activities[0], no_refute);
    }

    void
    refuteOnce() const
    {
        auto pairs = ha.pairs; // fresh flags each iteration
        symbolic::RefutationStats stats = symbolic::refuteRaces(
            *ha.pta, ha.accesses, pairs, {});
        benchmark::DoNotOptimize(stats.refuted);
    }
};

void
BM_Refutation(benchmark::State &state)
{
    RefutationInput input(static_cast<int>(state.range(0)));
    for (auto _ : state)
        input.refuteOnce();
}
BENCHMARK(BM_Refutation)->DenseRange(0, 3);

void
BM_EventRacerSchedule(benchmark::State &state)
{
    corpus::BuiltApp built = appFor(state.range(0));
    // Install the framework model / Nondet like the detector would.
    harness::HarnessGenerator gen(*built.app);
    uint32_t seed = 1;
    for (auto _ : state) {
        dynamic::RunOptions run;
        run.seed = seed++;
        dynamic::Interpreter interp(*built.app, run);
        dynamic::Trace trace = interp.run();
        benchmark::DoNotOptimize(trace.accesses.size());
    }
}
BENCHMARK(BM_EventRacerSchedule)->DenseRange(0, 3);

void
BM_ShbgClosureScaling(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        hb::Shbg g(n);
        for (int i = 0; i + 1 < n; ++i)
            g.addEdge(i, i + 1, hb::HbRule::Invocation);
        benchmark::DoNotOptimize(g.numClosurePairs());
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_ShbgClosureScaling)->RangeMultiplier(2)->Range(32, 512);

// --- ObjBitset vs std::set<ObjId>: the representation swap behind ---
// --- the points-to/escape/effects overhaul, measured head-to-head ---

void
BM_PtsInsert_StdSet(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        std::set<int> s;
        IdStream ids;
        for (int i = 0; i < n; ++i)
            s.insert(ids.next(n * 4));
        benchmark::DoNotOptimize(s.size());
    }
}
BENCHMARK(BM_PtsInsert_StdSet)->RangeMultiplier(8)->Range(16, 1024);

void
BM_PtsInsert_ObjBitset(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        util::ObjBitset s;
        IdStream ids;
        for (int i = 0; i < n; ++i)
            s.insert(ids.next(n * 4));
        benchmark::DoNotOptimize(s.size());
    }
}
BENCHMARK(BM_PtsInsert_ObjBitset)->RangeMultiplier(8)->Range(16, 1024);

void
BM_PtsUnion_StdSet(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::set<int> a, b;
    IdStream ids;
    for (int i = 0; i < n; ++i) {
        a.insert(ids.next(n * 4));
        b.insert(ids.next(n * 4));
    }
    for (auto _ : state) {
        std::set<int> dst = a;
        dst.insert(b.begin(), b.end());
        benchmark::DoNotOptimize(dst.size());
    }
}
BENCHMARK(BM_PtsUnion_StdSet)->RangeMultiplier(8)->Range(16, 1024);

void
BM_PtsUnion_ObjBitset(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    util::ObjBitset a, b;
    IdStream ids;
    for (int i = 0; i < n; ++i) {
        a.insert(ids.next(n * 4));
        b.insert(ids.next(n * 4));
    }
    for (auto _ : state) {
        util::ObjBitset dst = a;
        dst.unionWith(b);
        benchmark::DoNotOptimize(dst.size());
    }
}
BENCHMARK(BM_PtsUnion_ObjBitset)->RangeMultiplier(8)->Range(16, 1024);

void
BM_PtsIterate_StdSet(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::set<int> s;
    IdStream ids;
    for (int i = 0; i < n; ++i)
        s.insert(ids.next(n * 4));
    for (auto _ : state) {
        int64_t sum = 0;
        for (int v : s)
            sum += v;
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_PtsIterate_StdSet)->RangeMultiplier(8)->Range(16, 1024);

void
BM_PtsIterate_ObjBitset(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    util::ObjBitset s;
    IdStream ids;
    for (int i = 0; i < n; ++i)
        s.insert(ids.next(n * 4));
    for (auto _ : state) {
        int64_t sum = 0;
        for (int v : s)
            sum += v;
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_PtsIterate_ObjBitset)->RangeMultiplier(8)->Range(16, 1024);

/**
 * What a warm `sierra serve` request does besides parsing and merging,
 * on one app of the perfbench heavy-app shape (3 activities x 12
 * patterns, the first app of its pinned pool): arg 0 builds the
 * method-hash table, arg 1 takes the shape hash, arg 2 decodes every
 * harness artifact of the app as the store hands it out.
 */
void
BM_StoreWarmPath(benchmark::State &state)
{
    namespace store = analysis::store;
    corpus::SyntheticSpec spec;
    spec.seed = 0x4EA7u * 1000003u;
    spec.activities = 3;
    spec.minPatternsPerActivity = 12;
    spec.maxPatternsPerActivity = 12;
    corpus::BuiltApp built = corpus::generateSyntheticApp("heavy-0", spec);
    store::Store st;
    serve::IncrementalAnalyzer(st).analyze(*built.app, SierraOptions{});
    const framework::App &app = *built.app;

    for (auto _ : state) {
        switch (state.range(0)) {
          case 0: {
            store::MethodHashTable table(app);
            benchmark::DoNotOptimize(table.size());
            break;
          }
          case 1:
            benchmark::DoNotOptimize(store::shapeHash(app));
            break;
          default: {
            for (uint64_t key : st.keys()) {
                auto art = parseArtifact(*st.get(key));
                benchmark::DoNotOptimize(art->races.size());
            }
          }
        }
    }
}
BENCHMARK(BM_StoreWarmPath)->DenseRange(0, 2);

/** Best-of-5 ns/op for `fn` run `iters` times (for the BENCH JSON
 *  rows; the google-benchmark output above stays the primary view). */
template <typename Fn>
double
nsPerOp(int iters, Fn fn)
{
    double best = 1e18;
    for (int rep = 0; rep < 5; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            fn();
        double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count() /
                    iters;
        if (ns < best)
            best = ns;
    }
    return best;
}

void
emitMicroBenchJson()
{
    const int n = 256, universe = 1024, iters = 2000;
    std::set<int> sa, sb;
    util::ObjBitset ba, bb;
    IdStream ids;
    for (int i = 0; i < n; ++i) {
        int v1 = ids.next(universe), v2 = ids.next(universe);
        sa.insert(v1);
        sb.insert(v2);
        ba.insert(v1);
        bb.insert(v2);
    }

    double set_insert = nsPerOp(iters, [&] {
        std::set<int> s;
        IdStream is;
        for (int i = 0; i < n; ++i)
            s.insert(is.next(universe));
        benchmark::DoNotOptimize(s.size());
    });
    double bits_insert = nsPerOp(iters, [&] {
        util::ObjBitset s;
        IdStream is;
        for (int i = 0; i < n; ++i)
            s.insert(is.next(universe));
        benchmark::DoNotOptimize(s.size());
    });
    double set_union = nsPerOp(iters, [&] {
        std::set<int> dst = sa;
        dst.insert(sb.begin(), sb.end());
        benchmark::DoNotOptimize(dst.size());
    });
    double bits_union = nsPerOp(iters, [&] {
        util::ObjBitset dst = ba;
        dst.unionWith(bb);
        benchmark::DoNotOptimize(dst.size());
    });
    double set_iter = nsPerOp(iters, [&] {
        int64_t sum = 0;
        for (int v : sa)
            sum += v;
        benchmark::DoNotOptimize(sum);
    });
    double bits_iter = nsPerOp(iters, [&] {
        int64_t sum = 0;
        for (int v : ba)
            sum += v;
        benchmark::DoNotOptimize(sum);
    });

    // One refuteRaces call per BM_Refutation app, best of 5.
    double refute_ns[4];
    for (int size_class = 0; size_class < 4; ++size_class) {
        RefutationInput input(size_class);
        refute_ns[size_class] =
            nsPerOp(20, [&] { input.refuteOnce(); });
    }

    // One parseAppText call per BM_ParserRoundTrip app, best of 5.
    double parse_ns[4];
    for (int size_class = 0; size_class < 4; ++size_class) {
        std::string text = framework::printAppText(*appFor(size_class).app);
        parse_ns[size_class] = nsPerOp(50, [&] {
            framework::AppTextResult r = framework::parseAppText(text);
            benchmark::DoNotOptimize(r.app->module().numClasses());
        });
    }

    bench::benchJson(
        "micro",
        "{\"bench\":\"micro\",\"n\":%d,\"universe\":%d,\"rows\":["
        "{\"op\":\"insert\",\"std_set_ns\":%.1f,\"objbitset_ns\":%.1f},"
        "{\"op\":\"union\",\"std_set_ns\":%.1f,\"objbitset_ns\":%.1f},"
        "{\"op\":\"iterate\",\"std_set_ns\":%.1f,\"objbitset_ns\":%.1f}"
        "],\"refutation_ns\":{\"VuDroid\":%.0f,\"OpenSudoku\":%.0f,"
        "\"Beem\":%.0f,\"Astrid\":%.0f},\"parse_ns\":{\"VuDroid\":%.0f,"
        "\"OpenSudoku\":%.0f,\"Beem\":%.0f,\"Astrid\":%.0f}}",
        n, universe, set_insert, bits_insert, set_union, bits_union,
        set_iter, bits_iter, refute_ns[0], refute_ns[1], refute_ns[2],
        refute_ns[3], parse_ns[0], parse_ns[1], parse_ns[2], parse_ns[3]);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    emitMicroBenchJson();
    return 0;
}
