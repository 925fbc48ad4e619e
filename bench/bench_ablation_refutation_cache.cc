/**
 * @file
 * Ablation: the refutation caches (paper Section 5 "Caching").
 *
 * Compares three configurations over the 20 named apps:
 *   - memo only (default): the sound caches, always on -- the
 *     per-query memo and the recorded phase-B walks;
 *   - paper node cache: additionally prune any phase-A path that enters
 *     a call-graph node visited by an earlier refuted query (the
 *     paper's scheme; unsound, may refute true races);
 *   - tiny budget: a 12-step budget per query, to show how budget
 *     exhaustion degrades (candidates are conservatively reported).
 *
 * Exits 1 unless the printed expectation holds: memo only misses no
 * seeded race, and the tiny budget refutes no more candidates than
 * memo only and misses no more. The node cache is unsound by design,
 * so its row is reported, not gated.
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Ablation: refutation caching");

    struct Config {
        const char *name;
        bool nodeCache;
        int maxSteps;
    };
    const Config configs[] = {
        {"memo only", false, 200000},
        {"paper node cache", true, 200000},
        {"tiny budget", false, 12},
    };
    struct Totals {
        int racy{0};
        int refuted{0};
        int tp{0};
        int fp{0};
        int missed{0};
        int64_t states{0};
        int64_t phaseBReuses{0};
        double ms{0};
    };
    Totals totals[std::size(configs)];

    std::printf("%-18s %6s %8s %5s %5s %7s %8s %9s %9s\n", "config",
                "racy", "refuted", "TP", "FP", "missed", "states",
                "B reuses", "time ms");
    for (size_t c = 0; c < std::size(configs); ++c) {
        const Config &config = configs[c];
        Totals &t = totals[c];
        for (const auto &spec : corpus::namedAppSpecs()) {
            corpus::BuiltApp built = corpus::buildNamedApp(spec);
            SierraDetector detector(*built.app);
            SierraOptions opts;
            opts.exec.useNodeCache = config.nodeCache;
            opts.exec.maxSteps = config.maxSteps;
            AppReport report = detector.analyze(opts);
            t.racy += report.racyPairs;
            t.refuted += report.racyPairs - report.afterRefutation;
            corpus::Score score =
                corpus::scoreReport(report, built.truth);
            t.tp += score.truePositives;
            t.fp += score.falsePositives;
            t.missed += score.missedTrueKeys;
            for (const auto &ha : report.perHarness) {
                t.states += ha.refutation.exec.statesExpanded;
                t.phaseBReuses += ha.refutation.exec.phaseBReuses;
            }
            t.ms += report.times.refutation * 1e3;
        }
        std::printf("%-18s %6d %8d %5d %5d %7d %8lld %9lld %9.2f\n",
                    config.name, t.racy, t.refuted, t.tp, t.fp,
                    t.missed, static_cast<long long>(t.states),
                    static_cast<long long>(t.phaseBReuses), t.ms);
    }

    const Totals &memo = totals[0];
    const Totals &tiny = totals[2];
    const bool memo_sound = memo.missed == 0;
    const bool tiny_refutes_less = tiny.refuted <= memo.refuted;
    const bool tiny_misses_no_more = tiny.missed <= memo.missed;
    std::printf("\nExpected: memo only misses no seeded race; the tiny "
                "budget refutes no more\ncandidates than memo only "
                "(more FPs) and misses no more. The node cache\nis "
                "unsound (it may refute true races) and is not "
                "checked.\n");
    std::printf("memo only misses none: %s; tiny budget refutes <= "
                "memo only: %s; tiny budget misses no more: %s\n",
                memo_sound ? "yes" : "NO (regression!)",
                tiny_refutes_less ? "yes" : "NO (regression!)",
                tiny_misses_no_more ? "yes" : "NO (regression!)");
    return memo_sound && tiny_refutes_less && tiny_misses_no_more ? 0
                                                                  : 1;
}
