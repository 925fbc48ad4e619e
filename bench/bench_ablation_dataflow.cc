/**
 * @file
 * Ablation: the dataflow stage (the field-effect prefilter).
 *
 * Two configurations over the 20-app corpus:
 *   - dataflow on (default): app-level field-effect summaries drop
 *     access pairs whose methods cannot conflict before the points-to
 *     alias check of the racy-pair loop;
 *   - dataflow off: every candidate access pair reaches the alias
 *     check.
 *
 * The prefilter is time-only: the stage must leave every report
 * byte-identical (formatReport without times, all 20 apps) while doing
 * strictly less work (fewer `race.alias_checked` pairs).
 *
 * Emits one machine-readable `BENCH {...}` JSON line.
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Ablation: dataflow (field-effect prefilter)");

    struct Config {
        const char *name;
        bool dataflow;
    };
    const Config configs[] = {
        {"dataflow on", true},
        {"dataflow off", false},
    };

    struct Totals {
        int racy{0};
        int refuted{0};
        int surviving{0};
        int missed{0};
        int64_t aliasChecked{0};
        int64_t prefilterSkipped{0};
        int64_t statesExpanded{0};
        double racyMs{0};
        double dataflowMs{0};
    };
    Totals totals[2];
    std::vector<std::string> reports[2];

    std::printf("%-14s %8s %8s %10s %8s %10s %10s %10s %12s %9s\n",
                "config", "racy", "refuted", "surviving", "missed",
                "alias", "skipped", "states", "dataflow ms", "racy ms");
    for (int c = 0; c < 2; ++c) {
        Totals &t = totals[c];
        for (const auto &spec : corpus::namedAppSpecs()) {
            corpus::BuiltApp built = corpus::buildNamedApp(spec);
            SierraDetector detector(*built.app);
            SierraOptions opts;
            opts.effectPrefilter = configs[c].dataflow;
            AppReport report = detector.analyze(opts);
            reports[c].push_back(formatReport(report, 50, false));
            t.racy += report.racyPairs;
            t.refuted += report.racyPairs - report.afterRefutation;
            t.surviving += report.afterRefutation;
            t.missed +=
                corpus::scoreReport(report, built.truth).missedTrueKeys;
            for (const auto &ha : report.perHarness) {
                t.aliasChecked += ha.racyStats.aliasChecked;
                t.prefilterSkipped += ha.racyStats.prefilterSkipped;
                t.statesExpanded += ha.refutation.exec.statesExpanded;
            }
            t.racyMs += report.times.racy * 1e3;
            t.dataflowMs += report.times.dataflow * 1e3;
        }
        std::printf("%-14s %8d %8d %10d %8d %10lld %10lld %10lld %12.2f "
                    "%9.2f\n",
                    configs[c].name, t.racy, t.refuted, t.surviving,
                    t.missed, static_cast<long long>(t.aliasChecked),
                    static_cast<long long>(t.prefilterSkipped),
                    static_cast<long long>(t.statesExpanded),
                    t.dataflowMs, t.racyMs);
    }

    const Totals &on = totals[0];
    const Totals &off = totals[1];
    int diverged = 0;
    for (size_t i = 0; i < reports[0].size(); ++i) {
        if (reports[0][i] != reports[1][i]) {
            ++diverged;
            std::printf("  !! %s report differs with the prefilter off\n",
                        corpus::namedAppSpecs()[i].name.c_str());
        }
    }
    bool preserved = diverged == 0;
    bool less_work = on.aliasChecked < off.aliasChecked;
    std::printf("\nreports byte-identical: %s; strictly fewer alias "
                "checks: %s (%lld -> %lld)\n",
                preserved ? "yes" : "NO (regression!)",
                less_work ? "yes" : "NO (regression!)",
                static_cast<long long>(off.aliasChecked),
                static_cast<long long>(on.aliasChecked));

    bench::benchJson(
        "ablation_dataflow",
        "{\"bench\":\"ablation_dataflow\",\"corpus\":20,"
        "\"on\":{\"racy\":%d,\"refuted\":%d,\"surviving\":%d,"
        "\"missed\":%d,\"alias_checked\":%lld,"
        "\"prefilter_skipped\":%lld,\"states\":%lld,"
        "\"dataflow_ms\":%.2f,\"racy_ms\":%.2f},"
        "\"off\":{\"racy\":%d,\"refuted\":%d,\"surviving\":%d,"
        "\"missed\":%d,\"alias_checked\":%lld,\"states\":%lld,"
        "\"racy_ms\":%.2f},"
        "\"diverged\":%d,\"preserved\":%s,\"less_work\":%s}",
        on.racy, on.refuted, on.surviving, on.missed,
        static_cast<long long>(on.aliasChecked),
        static_cast<long long>(on.prefilterSkipped),
        static_cast<long long>(on.statesExpanded), on.dataflowMs,
        on.racyMs, off.racy, off.refuted, off.surviving, off.missed,
        static_cast<long long>(off.aliasChecked),
        static_cast<long long>(off.statesExpanded), off.racyMs, diverged,
        preserved ? "true" : "false", less_work ? "true" : "false");
    return preserved && less_work ? 0 : 1;
}
