/**
 * @file
 * Paper Table 4: SIERRA efficiency -- per-stage analysis time, driven
 * by the metrics registry (SierraOptions::metrics) so the table and
 * the counter-derived rates come from the same instrumented run.
 *
 * The paper reports seconds on real APKs with WALA; the model corpus
 * runs in milliseconds, so times are printed in ms. The *shape* to
 * check against the paper: call graph + pointer analysis and symbolic
 * refutation dominate, SHBG construction is cheap.
 *
 * Reproduce with: ./build/bench/bench_table4_efficiency
 * (optionally SIERRA_TRACE=table4.json to also capture a trace).
 */

#include "bench_util.hh"

#include "util/metrics.hh"

int
main()
{
    using namespace sierra;
    bench::header("Table 4: SIERRA efficiency (times in milliseconds)");
    std::printf("%-18s %8s %7s %7s %7s %10s %8s %8s\n", "App", "CG+PA",
                "HBG", "Racy", "Lock", "Refute", "Stages", "Wall");

    std::vector<double> cg, hbg, racy, lockset, refute, stages, wall;
    util::metrics::Registry all;
    for (const auto &spec : corpus::namedAppSpecs()) {
        corpus::BuiltApp built = corpus::buildNamedApp(spec);
        SierraDetector detector(*built.app);
        SierraOptions options;
        options.metrics = &all;
        AppReport report = detector.analyze(options);
        const StageTimes &t = report.times;
        std::printf("%-18s %8.2f %7.2f %7.2f %7.2f %10.2f %8.2f "
                    "%8.2f\n",
                    spec.name.c_str(), t.cgPa * 1e3, t.hbg * 1e3,
                    (t.dataflow + t.escape + t.racy) * 1e3,
                    t.lockset * 1e3, t.refutation * 1e3,
                    t.stages * 1e3, t.total * 1e3);
        cg.push_back(t.cgPa * 1e3);
        hbg.push_back(t.hbg * 1e3);
        racy.push_back((t.dataflow + t.escape + t.racy) * 1e3);
        lockset.push_back(t.lockset * 1e3);
        refute.push_back(t.refutation * 1e3);
        stages.push_back(t.stages * 1e3);
        wall.push_back(t.total * 1e3);
    }
    std::printf("%-18s %8.2f %7.2f %7.2f %7.2f %10.2f %8.2f %8.2f\n",
                "Median", bench::median(cg), bench::median(hbg),
                bench::median(racy), bench::median(lockset),
                bench::median(refute), bench::median(stages),
                bench::median(wall));

    // Counter-derived work rates over the whole corpus, straight from
    // the registry the pipeline filled.
    const int64_t considered = all.counter("race.access_pairs_considered");
    const int64_t skipped = all.counter("race.prefilter_skipped");
    const int64_t queries = all.counter("symbolic.queries");
    const int64_t states = all.counter("symbolic.states_expanded");
    const int64_t hits = all.counter("symbolic.cache_hits");
    const double stage_s =
        all.histogram("harness.stages.seconds").sum;
    std::printf("\ncorpus totals (metrics registry):\n");
    std::printf("  pta worklist iterations: %lld, instr visits: %lld\n",
                (long long)all.counter("pta.worklist_iterations"),
                (long long)all.counter("pta.instr_visits"));
    std::printf("  shbg direct edges: %lld, closure pairs: %lld\n",
                (long long)all.counter("shbg.direct_edges"),
                (long long)all.counter("shbg.closure_pairs"));
    std::printf("  access pairs considered: %lld, prefilter skipped: "
                "%.1f%%\n",
                (long long)considered,
                considered ? 100.0 * skipped / considered : 0.0);
    std::printf("  symbolic queries: %lld, states expanded: %lld "
                "(%.0f states/stage-s), cache hit rate: %.1f%%\n",
                (long long)queries, (long long)states,
                stage_s > 0 ? states / stage_s : 0.0,
                (hits + states) ? 100.0 * hits / (hits + states) : 0.0);
    std::printf("  refuted: lockset %lld, symbolic %lld, surviving "
                "%lld\n",
                (long long)all.counter("refuted_by.lockset"),
                (long long)all.counter("refuted_by.symbolic"),
                (long long)all.counter("refuted_by.none"));

    bench::benchJson(
        "table4_efficiency",
        "{\"bench\":\"table4_efficiency\","
        "\"median_ms\":{\"cg_pa\":%.2f,\"hbg\":%.2f,"
        "\"racy\":%.2f,\"lockset\":%.2f,\"refutation\":%.2f,"
        "\"total\":%.2f},"
        "\"counters\":{\"symbolic_queries\":%lld,"
        "\"states_expanded\":%lld,\"cache_hits\":%lld,"
        "\"pairs_considered\":%lld,\"prefilter_skipped\":%lld,"
        "\"pta_delta_props\":%lld,\"arena_bytes\":%lld,"
        "\"peak_rss_bytes\":%lld}"
        "}",
        bench::median(cg), bench::median(hbg), bench::median(racy),
        bench::median(lockset), bench::median(refute),
        bench::median(wall), (long long)queries, (long long)states,
        (long long)hits, (long long)considered, (long long)skipped,
        (long long)all.counter("pta.delta_props"),
        (long long)all.counter("arena.bytes_allocated"),
        (long long)all.counter("mem.peak_rss_bytes"));

    std::printf("\nPaper medians (seconds, real APKs): CG+PA 1310, HBG "
                "28.5, refutation 560.5,\ntotal 1899. Expected shape: "
                "HBG << CG+PA and refutation.\n");
    return 0;
}
