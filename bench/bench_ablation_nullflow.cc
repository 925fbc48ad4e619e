/**
 * @file
 * Ablation: null-value-flow severity classification.
 *
 * Two configurations over the full corpus (20 named apps + the
 * F-Droid-analogue apps):
 *   - nullflow on (default): surviving pairs are classified
 *     HARMFUL / GUARDED / UNKNOWN and the report is severity-ranked;
 *   - nullflow off: every verdict stays UNKNOWN.
 *
 * Contract checked here (exit non-zero on any violation):
 *   1. the stage is additive: off-config reports classify nothing
 *      (harmful = guarded = 0, every verdict UNKNOWN) and keep exactly
 *      the on-config set of surviving races (all apps);
 *   2. every ground-truth key seeded harmful classifies HARMFUL with
 *      the stage on, and no seeded trap ever does;
 *   3. ground truth is preserved in both configurations (severity
 *      never changes which races survive);
 *   4. the on-config report is byte-identical at --jobs 1 and 4.
 *
 * Emits one machine-readable `BENCH {...}` JSON line.
 */

#include <set>
#include <string>

#include "bench_util.hh"

namespace {

/** Descriptions of the surviving races (one per deduplicated race). */
std::set<std::string>
survivingRaces(const sierra::AppReport &report)
{
    std::set<std::string> out;
    for (const auto &race : report.races) {
        if (!race.refuted)
            out.insert(race.description);
    }
    return out;
}

} // namespace

int
main()
{
    using namespace sierra;
    bench::header("Ablation: null-value-flow severity classification");

    struct Totals {
        int surviving{0};
        int harmful{0};
        int guarded{0};
        int missed{0};
        int64_t queries{0};
        int64_t storesIndexed{0};
        double nullflowMs{0};
    };
    Totals on, off;

    int off_classified = 0;     // off-config races not UNKNOWN
    int survival_changes = 0;   // apps whose surviving set differs
    int harmful_keys = 0;       // ground-truth keys seeded harmful
    int harmful_missed = 0;     // ...that did not classify HARMFUL
    int harmful_traps = 0;      // FpTrap keys rated HARMFUL
    // KnownFp keys rated HARMFUL: allowed, informational only. The
    // implicit-dependency FP class (paper Section 6.5) is deliberately
    // shape-identical to a real null crash — "beyond static
    // reasoning" covers the severity verdict too.
    int known_fp_harmful = 0;
    int jobs_divergences = 0;   // on-config jobs 1 vs 4 byte diffs

    auto run = [&](const std::string &name, corpus::BuiltApp built) {
        SierraDetector detector(*built.app);

        // On configuration, serial.
        AppReport report = detector.analyze({});
        on.surviving += report.afterRefutation;
        on.harmful += report.harmfulRaces;
        on.guarded += report.guardedRaces;
        on.missed +=
            corpus::scoreReport(report, built.truth).missedTrueKeys;
        for (const auto &ha : report.perHarness) {
            on.queries += ha.nullflowStats.queries;
            on.storesIndexed += ha.nullflowStats.storesIndexed;
        }
        on.nullflowMs += report.times.nullflow * 1e3;

        // Off configuration: the stage must vanish without residue.
        SierraOptions off_opts;
        off_opts.nullflow = false;
        AppReport off_report = detector.analyze(off_opts);
        off.surviving += off_report.afterRefutation;
        off.harmful += off_report.harmfulRaces;
        off.guarded += off_report.guardedRaces;
        off.missed += corpus::scoreReport(off_report, built.truth)
                          .missedTrueKeys;
        for (const auto &race : off_report.races) {
            if (race.severity != analysis::NullVerdict::Unknown) {
                ++off_classified;
                std::printf("  !! %s classified with the stage off in "
                            "%s\n",
                            race.description.c_str(), name.c_str());
            }
        }
        if (survivingRaces(off_report) != survivingRaces(report)) {
            ++survival_changes;
            std::printf("  !! %s surviving races differ on vs off\n",
                        name.c_str());
        }

        for (const auto &seed : built.truth.seeded) {
            bool is_harmful_seed =
                seed.cls == corpus::SeedClass::TrueRace &&
                built.truth.isHarmfulKey(seed.fieldKey);
            bool classified = false;
            for (const auto &race : report.races) {
                if (race.refuted || race.fieldKey != seed.fieldKey)
                    continue;
                if (race.severity == analysis::NullVerdict::Harmful)
                    classified = true;
            }
            if (is_harmful_seed) {
                ++harmful_keys;
                if (!classified) {
                    ++harmful_missed;
                    std::printf("  !! harmful key %s not HARMFUL in "
                                "%s\n",
                                seed.fieldKey.c_str(), name.c_str());
                }
            }
            if (classified &&
                seed.cls == corpus::SeedClass::FpTrap) {
                ++harmful_traps;
                std::printf("  !! trap key %s rated HARMFUL in %s\n",
                            seed.fieldKey.c_str(), name.c_str());
            }
            if (classified &&
                seed.cls == corpus::SeedClass::KnownFp)
                ++known_fp_harmful;
        }

        // On configuration, fanned out: reports are plan-order merged,
        // so the bytes must not depend on the worker count.
        SierraOptions par;
        par.jobs = 4;
        if (formatReport(detector.analyze(par), 50, false) !=
            formatReport(report, 50, false)) {
            ++jobs_divergences;
            std::printf("  !! %s report differs at jobs 1 vs 4\n",
                        name.c_str());
        }
    };

    for (const auto &spec : corpus::namedAppSpecs())
        run(spec.name, corpus::buildNamedApp(spec));
    for (int i = 0; i < corpus::kFdroidAppCount; ++i)
        run("fdroid-" + std::to_string(i), corpus::buildFdroidApp(i));

    std::printf("%-10s %10s %8s %8s %7s %9s %8s %9s\n", "config",
                "surviving", "harmful", "guarded", "missed", "queries",
                "stores", "stage ms");
    std::printf("%-10s %10d %8d %8d %7d %9lld %8lld %9.2f\n",
                "null on", on.surviving, on.harmful, on.guarded,
                on.missed, static_cast<long long>(on.queries),
                static_cast<long long>(on.storesIndexed),
                on.nullflowMs);
    std::printf("%-10s %10d %8d %8d %7d %9s %8s %9s\n", "null off",
                off.surviving, off.harmful, off.guarded, off.missed, "-",
                "-", "-");

    bool additive = off.harmful == 0 && off.guarded == 0 &&
                    off_classified == 0 && survival_changes == 0;
    bool truth_classified = harmful_missed == 0 && harmful_traps == 0;
    bool preserved =
        on.missed == 0 && off.missed == 0 &&
        on.surviving == off.surviving;
    bool deterministic = jobs_divergences == 0;
    std::printf("\nstage additive (off: nothing classified, same "
                "survivors): %s; "
                "harmful keys classified: %s (%d/%d, traps flagged: "
                "%d, known-FP harmful: %d); survival preserved: %s; "
                "jobs-deterministic: %s\n",
                additive ? "yes" : "NO (regression!)",
                truth_classified ? "yes" : "NO (regression!)",
                harmful_keys - harmful_missed, harmful_keys,
                harmful_traps, known_fp_harmful,
                preserved ? "yes" : "NO (regression!)",
                deterministic ? "yes" : "NO (regression!)");

    bench::benchJson(
        "ablation_nullflow",
        "{\"bench\":\"ablation_nullflow\",\"corpus\":%d,"
        "\"on\":{\"surviving\":%d,\"harmful\":%d,\"guarded\":%d,"
        "\"missed\":%d,\"queries\":%lld,\"stores_indexed\":%lld,"
        "\"nullflow_ms\":%.2f},"
        "\"off\":{\"surviving\":%d,\"harmful\":%d,\"guarded\":%d,"
        "\"missed\":%d},"
        "\"harmful_keys\":%d,\"harmful_missed\":%d,"
        "\"harmful_traps\":%d,\"known_fp_harmful\":%d,"
        "\"off_classified\":%d,\"survival_changes\":%d,"
        "\"additive\":%s,\"truth_classified\":%s,\"preserved\":%s,"
        "\"jobs_deterministic\":%s}",
        20 + corpus::kFdroidAppCount, on.surviving, on.harmful,
        on.guarded, on.missed, static_cast<long long>(on.queries),
        static_cast<long long>(on.storesIndexed), on.nullflowMs,
        off.surviving, off.harmful, off.guarded, off.missed,
        harmful_keys, harmful_missed, harmful_traps, known_fp_harmful,
        off_classified, survival_changes,
        additive ? "true" : "false",
        truth_classified ? "true" : "false",
        preserved ? "true" : "false",
        deterministic ? "true" : "false");
    return additive && truth_classified && preserved && deterministic
               ? 0
               : 1;
}
