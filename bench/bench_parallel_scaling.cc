/**
 * @file
 * Parallel-scaling bench: wall-clock time of the full static pipeline
 * at 1/2/4 jobs over two pools, analyzed one app after another:
 *
 *  - `corpus`: the 20-app named corpus (median app under 2 ms, a
 *    few small harnesses each);
 *  - `heavy-3x12`: 40 generated apps of 3 activities x 12 patterns
 *    each, fixed seeds, where refutation is the largest stage.
 *
 * The engine's only parallelism is the per-harness fan-out in
 * SierraDetector::analyze (docs/INTERNALS.md "Threading model"), so
 * the measured speedup is the engine's, not an embarrassingly-parallel
 * pool sweep. Report contents are asserted identical across jobs
 * counts while timing.
 *
 * Each pass runs every app at every jobs count back to back, so
 * machine drift hits all counts alike; an app's time is its minimum
 * over the passes. Emits one machine-readable `BENCH {...}` JSON line
 * with, per pool and jobs count, the summed and the median per-app
 * time.
 * Meaningful speedup needs real cores: hw_threads is included in the
 * line so a 1-core CI box is not mistaken for a regression.
 */

#include <chrono>
#include <thread>

#include "bench_util.hh"

namespace {

using namespace sierra;

constexpr int kJobCounts[] = {1, 2, 4};
constexpr int kNumJobCounts = 3;
constexpr int kPasses = 7;

// The heavy pool: seeds and shape of the first apps of the repository
// benchmark's heavy-app workload.
constexpr uint32_t kHeavySeed = 0x4EA7u;
constexpr int kHeavyApps = 40;
constexpr int kHeavyActivities = 3;
constexpr int kHeavyPatterns = 12; // per activity

struct Pool {
    std::string name;
    std::vector<corpus::BuiltApp> apps;
    std::vector<std::unique_ptr<SierraDetector>> detectors;
    //! [jobs index][app] -> minimum seconds over the passes
    std::vector<std::vector<double>> best;
    //! per app: the jobs=1 report, times excluded
    std::vector<std::string> reference;
};

void
addApp(Pool &pool, corpus::BuiltApp built)
{
    pool.apps.push_back(std::move(built));
    pool.detectors.push_back(
        std::make_unique<SierraDetector>(*pool.apps.back().app));
}

/** One pass over the pool: each app at every jobs count in turn, so
 *  machine drift hits all counts alike. The pass number rotates which
 *  count runs first on an app, the one that finds its data out of
 *  cache. Returns the first jobs count whose report differs from
 *  jobs=1, or 0. Pass 0 records the references. */
int
runPass(Pool &pool, int pass)
{
    using clock = std::chrono::steady_clock;
    const size_t n = pool.detectors.size();
    pool.best.resize(kNumJobCounts);
    for (std::vector<double> &best : pool.best)
        best.resize(n, 1e30);
    pool.reference.resize(n);
    for (size_t i = 0; i < n; ++i) {
        for (int k = 0; k < kNumJobCounts; ++k) {
            const int j = (k + pass) % kNumJobCounts;
            SierraOptions options;
            options.jobs = kJobCounts[j];
            auto t0 = clock::now();
            AppReport report = pool.detectors[i]->analyze(options);
            double s = std::chrono::duration<double>(clock::now() - t0)
                           .count();
            pool.best[j][i] = std::min(pool.best[j][i], s);
            std::string text =
                formatReport(report, 1000, /*with_times=*/false);
            if (pass == 0 && j == 0)
                pool.reference[i] = std::move(text);
            else if (text != pool.reference[i])
                return kJobCounts[j];
        }
    }
    return 0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
sum(const std::vector<double> &v)
{
    double total = 0;
    for (double x : v)
        total += x;
    return total;
}

} // namespace

int
main()
{
    bench::header("Parallel scaling: full pipeline, corpus + heavy pool");

    // Build every app (and its harnesses) once, outside the timed
    // region; analyze() is re-runnable.
    Pool corpus_pool{"corpus", {}, {}, {}, {}};
    for (const auto &spec : corpus::namedAppSpecs())
        addApp(corpus_pool, corpus::buildNamedApp(spec));
    Pool heavy_pool{"heavy-3x12", {}, {}, {}, {}};
    for (int i = 0; i < kHeavyApps; ++i) {
        corpus::SyntheticSpec spec;
        spec.seed = kHeavySeed * 1000003u + static_cast<uint32_t>(i);
        spec.activities = kHeavyActivities;
        spec.minPatternsPerActivity = kHeavyPatterns;
        spec.maxPatternsPerActivity = kHeavyPatterns;
        addApp(heavy_pool, corpus::generateSyntheticApp(
                               "heavy-" + std::to_string(i), spec));
    }
    Pool *pools[] = {&corpus_pool, &heavy_pool};

    // The first pass warms caches and allocators up and records the
    // reference reports; only the passes after it are timed.
    for (int pass = 0; pass <= kPasses; ++pass) {
        for (Pool *pool : pools) {
            if (pass == 1)
                pool->best.clear();
            if (int jobs = runPass(*pool, pass)) {
                std::printf("ERROR: %s report at jobs=%d differs from "
                            "jobs=1\n",
                            pool->name.c_str(), jobs);
                return 1;
            }
        }
    }

    unsigned hw = std::thread::hardware_concurrency();
    std::string pools_json;
    for (Pool *pool : pools) {
        std::printf("\n%s: %zu apps, best of %d passes\n",
                    pool->name.c_str(), pool->detectors.size(), kPasses);
        std::printf("%-8s %12s %14s %10s\n", "jobs", "seconds",
                    "app ms p50", "speedup");
        std::string runs;
        const double base = median(pool->best[0]);
        for (int j = 0; j < kNumJobCounts; ++j) {
            double total = sum(pool->best[j]);
            double p50 = median(pool->best[j]);
            std::printf("%-8d %12.4f %14.3f %9.2fx\n", kJobCounts[j],
                        total, p50 * 1e3, base / p50);
            char one[128];
            std::snprintf(one, sizeof(one),
                          "%s{\"jobs\":%d,\"seconds\":%.6f,"
                          "\"app_ms_p50\":%.4f}",
                          j ? "," : "", kJobCounts[j], total, p50 * 1e3);
            runs += one;
        }
        double speedup4 = base / median(pool->best[kNumJobCounts - 1]);
        char head[160];
        std::snprintf(head, sizeof(head),
                      "%s{\"pool\":\"%s\",\"apps\":%zu,"
                      "\"speedup_4v1\":%.3f,\"runs\":[",
                      pools_json.empty() ? "" : ",", pool->name.c_str(),
                      pool->detectors.size(), speedup4);
        pools_json += head + runs + "]}";
    }
    std::printf("\n(%u hardware thread%s; speedup is the ratio of "
                "median app times)\n",
                hw, hw == 1 ? "" : "s");

    bench::benchJson("parallel_scaling",
                     "{\"bench\":\"parallel_scaling\",\"hw_threads\":%u,"
                     "\"passes\":%d,\"pools\":[%s]}",
                     hw, kPasses, pools_json.c_str());
    return 0;
}
