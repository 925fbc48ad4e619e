/**
 * @file
 * Ablation: index-insensitive vs. index-sensitive array analysis
 * (paper Section 6.5 names index-insensitivity as an FP source and
 * cites Dillig et al. as the fix; this bench measures the fix). Exits
 * 1 unless index sensitivity has fewer FPs and neither mode misses a
 * seeded race.
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    bench::header("Ablation: array index sensitivity (20-app corpus)");
    std::printf("%-20s %10s %8s %8s %10s\n", "mode", "racyPairs",
                "FPs", "missed", "time ms");

    int fps[2] = {0, 0};
    int misses[2] = {0, 0};
    for (bool sensitive : {false, true}) {
        int racy = 0;
        int fp = 0;
        int missed = 0;
        double ms = 0;
        for (const auto &spec : corpus::namedAppSpecs()) {
            corpus::BuiltApp built = corpus::buildNamedApp(spec);
            SierraDetector detector(*built.app);
            SierraOptions options;
            options.pta.indexSensitiveArrays = sensitive;
            AppReport report = detector.analyze(options);
            corpus::Score score =
                corpus::scoreReport(report, built.truth);
            racy += report.racyPairs;
            fp += score.falsePositives;
            missed += score.missedTrueKeys;
            ms += report.times.total * 1e3;
        }
        std::printf("%-20s %10d %8d %8d %10.2f\n",
                    sensitive ? "index-sensitive"
                              : "index-insensitive",
                    racy, fp, missed, ms);
        fps[sensitive] = fp;
        misses[sensitive] = missed;
    }
    std::printf("\nExpected: index sensitivity removes the arrayIndexTrap"
                " false positives\n(every app that carries the pattern) "
                "at no cost in missed races.\n");
    if (fps[1] < fps[0] && misses[0] == 0 && misses[1] == 0)
        return 0;
    std::fprintf(stderr,
                 "MISMATCH: index-sensitive %d FPs (%d missed) vs "
                 "index-insensitive %d FPs (%d missed)\n",
                 fps[1], misses[1], fps[0], misses[0]);
    return 1;
}
