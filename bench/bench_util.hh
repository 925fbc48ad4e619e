/** @file Shared helpers for the table/figure reproduction benches. */

#ifndef SIERRA_BENCH_BENCH_UTIL_HH
#define SIERRA_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "dynamic/event_racer.hh"
#include "sierra/detector.hh"
#include "util/trace.hh"

namespace sierra::bench {

/**
 * Every bench honors `SIERRA_TRACE=<file>`: when set, the whole bench
 * run is traced and the Chrome trace-event JSON is written at process
 * exit (see docs/OBSERVABILITY.md). Implemented as an inline-variable
 * RAII guard so each bench binary gets the hook by including this
 * header — no per-bench code.
 */
struct TraceEnvHook {
    std::string path;
    TraceEnvHook()
    {
        const char *p = std::getenv("SIERRA_TRACE");
        if (p && *p) {
            path = p;
            util::trace::start();
        }
    }
    ~TraceEnvHook()
    {
        if (!path.empty()) {
            if (util::trace::writeJson(path))
                std::fprintf(stderr, "trace written to %s\n",
                             path.c_str());
            else
                std::fprintf(stderr,
                             "error: cannot write trace '%s'\n",
                             path.c_str());
        }
    }
};
inline TraceEnvHook g_traceEnvHook;

/** Everything one app contributes to the evaluation tables. */
struct AppStats {
    std::string name;
    size_t codeSize{0};
    int harnesses{0};
    int actions{0};
    int64_t hbEdges{0};
    double orderedPct{0};
    int racyNoAs{-1}; //!< racy pairs without action-sensitivity
    int racyAs{0};    //!< racy pairs with action-sensitivity
    int afterRefutation{0};
    int truePositives{0};
    int falsePositives{0};
    int missed{0};
    int eventRacerRaces{-1};
    StageTimes times;
};

/** Options for the shared per-app evaluation driver. */
struct EvalOptions {
    bool ablateContext{false}; //!< also run the Hybrid (no-AS) policy
    bool runEventRacer{false};
    int eventRacerSchedules{3};
};

/** Run the full evaluation for one built app. */
inline AppStats
evaluateApp(const std::string &name, corpus::BuiltApp built,
            const EvalOptions &eval = {})
{
    AppStats stats;
    stats.name = name;
    stats.codeSize = built.app->codeSize();

    SierraDetector detector(*built.app);
    AppReport report = detector.analyze({});
    stats.harnesses = report.harnesses;
    stats.actions = report.actions;
    stats.hbEdges = report.hbEdges;
    stats.orderedPct = report.orderedPct;
    stats.racyAs = report.racyPairs;
    stats.afterRefutation = report.afterRefutation;
    stats.times = report.times;

    corpus::Score score = corpus::scoreReport(report, built.truth);
    stats.truePositives = score.truePositives;
    stats.falsePositives = score.falsePositives;
    stats.missed = score.missedTrueKeys;

    if (eval.ablateContext) {
        SierraOptions hybrid;
        hybrid.pta.ctx.policy = analysis::ContextPolicy::Hybrid;
        hybrid.runRefutation = false;
        stats.racyNoAs = detector.analyze(hybrid).racyPairs;
    }
    if (eval.runEventRacer) {
        dynamic::EventRacerOptions er;
        er.numSchedules = eval.eventRacerSchedules;
        stats.eventRacerRaces = static_cast<int>(
            runEventRacer(*built.app, er).raceKeys().size());
    }
    return stats;
}

/** Find an action by label substring within a harness analysis. */
inline int
findAction(const HarnessAnalysis &ha, const std::string &needle)
{
    for (const auto &a : ha.pta->actions.all()) {
        if (a.label.find(needle) != std::string::npos)
            return a.id;
    }
    return -1;
}

/** Keys of surviving races of one harness analysis. */
inline std::vector<std::string>
survivingKeys(const HarnessAnalysis &ha)
{
    std::vector<std::string> keys;
    for (const auto &p : ha.pairs) {
        if (!p.refuted)
            keys.push_back(p.loc.key.str());
    }
    return keys;
}

/** Median of a (copied) numeric vector; 0 when empty. */
template <typename T>
double
median(std::vector<T> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return static_cast<double>(values[mid]);
    return (static_cast<double>(values[mid - 1]) +
            static_cast<double>(values[mid])) /
           2.0;
}

/**
 * Emit one machine-readable benchmark record: prints the historical
 * `BENCH {...}` stdout line and mirrors the same JSON object to
 * `BENCH_<name>.json` so runs leave a diffable artifact (the committed
 * snapshots under bench/trajectory/ form the in-repo perf trajectory).
 * Files go to the current directory unless SIERRA_BENCH_DIR is set;
 * that directory is created if missing, and a failed write exits 1.
 */
inline void
benchJson(const char *name, const char *fmt, ...)
{
    char buf[8192];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    std::printf("\nBENCH %s\n", buf);

    const char *env = std::getenv("SIERRA_BENCH_DIR");
    const std::string dir = env && *env ? env : ".";
    const std::string path = dir + "/BENCH_" + name + ".json";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    FILE *f = std::fopen(path.c_str(), "w");
    bool written = f && std::fprintf(f, "%s\n", buf) >= 0;
    if (f)
        written = std::fclose(f) == 0 && written;
    if (!written) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        std::exit(1);
    }
}

/** printf-style row helper with a fixed-width first column. */
inline void
row(const std::string &first, const char *fmt, ...)
{
    std::printf("%-18s", first.c_str());
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::printf("\n");
}

inline void
header(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace sierra::bench

#endif // SIERRA_BENCH_BENCH_UTIL_HH
