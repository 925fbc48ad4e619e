// Warm-request phase probe: wall time (best of N per app, mean over
// apps) and heap allocations (mean per call) of each step of a warm
// `sierra serve` analyze request on apps of the perfbench heavy-app
// shape. Build it against a checkout's library sources:
//
//   cmake -S . -B build -G Ninja -DCMAKE_BUILD_TYPE=Release \
//         -DSIERRA_ROOT=/path/to/checkout
//   ninja -C build warm_probe && ./build/warm_probe 40 20
//
// (CMakeLists.txt next to this file.) The probe uses only entry points
// that exist both before and after the interned-names change, so the
// same source measures either side.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "analysis/store.hh"
#include "corpus/generator.hh"
#include "framework/app_text.hh"
#include "framework/known_api.hh"
#include "serve/incremental.hh"
#include "serve/protocol.hh"
#include "serve/serve.hh"
#include "sierra/detector.hh"

namespace {
thread_local long g_allocs = 0;
} // namespace

void *
operator new(size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
void *
operator new[](size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
void *
operator new(size_t n, std::align_val_t a)
{
    ++g_allocs;
    const size_t align = static_cast<size_t>(a);
    if (void *p = std::aligned_alloc(align, (n + align - 1) / align * align))
        return p;
    throw std::bad_alloc();
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace sierra;
using Clock = std::chrono::steady_clock;

int
main(int argc, char **argv)
{
    const int napps = argc > 1 ? std::atoi(argv[1]) : 40;
    const int reps = argc > 2 ? std::atoi(argv[2]) : 20;
    std::vector<std::string> texts, lines;
    for (int i = 0; i < napps; ++i) {
        corpus::SyntheticSpec spec;
        spec.seed = 0x4EA7u * 1000003u + static_cast<uint32_t>(i);
        spec.activities = 3;
        spec.minPatternsPerActivity = 12;
        spec.maxPatternsPerActivity = 12;
        auto built = corpus::generateSyntheticApp(
            "heavy-" + std::to_string(i), spec);
        texts.push_back(framework::printAppText(*built.app));
        serve::Json req = serve::Json::object();
        req.set("id", serve::Json::integer(i + 1));
        req.set("kind", serve::Json::str("analyze"));
        req.set("app", serve::Json::str(texts.back()));
        req.set("jobs", serve::Json::integer(1));
        lines.push_back(req.dump());
    }

    enum {
        kRequest, kJsonParse, kParse, kHarness, kHashes, kShape,
        kIncremental, kTeardown, kResponseDump, kSteps
    };
    const char *names[kSteps] = {
        "warm request (handleLine)", "request JSON parse",
        "parseAppText", "harness generation", "methodHashes",
        "shapeHash", "IncrementalAnalyzer::analyze",
        "app teardown", "response JSON dump"};
    double total[kSteps] = {0};
    long allocs[kSteps] = {0};
    analysis::store::Store store;
    for (int i = 0; i < napps; ++i) {
        double best[kSteps];
        std::fill(best, best + kSteps, 1e9);
        auto tick = [&](int k, auto fn) {
            const long a0 = g_allocs;
            const auto t0 = Clock::now();
            fn();
            best[k] = std::min(
                best[k], std::chrono::duration<double, std::milli>(
                             Clock::now() - t0)
                             .count());
            allocs[k] += g_allocs - a0;
        };
        serve::ServeSession session(serve::ServeOptions{});
        std::string response = session.handleLine(lines[i]); // cold
        SierraOptions options;
        options.jobs = 1;
        {
            framework::AppTextResult cold = framework::parseAppText(texts[i]);
            serve::IncrementalAnalyzer(store).analyze(*cold.app, options);
        }
        for (int r = 0; r < reps; ++r) {
            tick(kRequest, [&] { response = session.handleLine(lines[i]); });
            serve::Json request, reply;
            std::string err;
            tick(kJsonParse,
                 [&] { serve::Json::parse(lines[i], request, err); });
            framework::AppTextResult parsed;
            tick(kParse, [&] { parsed = framework::parseAppText(texts[i]); });
            std::unique_ptr<SierraDetector> detector;
            tick(kHarness, [&] {
                detector =
                    std::make_unique<SierraDetector>(*parsed.app, options);
            });
            tick(kHashes, [&] { detector->methodHashes(); });
            tick(kShape, [&] {
                volatile uint64_t h = analysis::store::shapeHash(*parsed.app);
                (void)h;
            });
            serve::Json::parse(response, reply, err);
            tick(kResponseDump, [&] {
                volatile size_t n = reply.dump().size();
                (void)n;
            });
            tick(kTeardown, [&] {
                detector.reset();
                parsed.app.reset();
            });
            framework::AppTextResult again = framework::parseAppText(texts[i]);
            tick(kIncremental, [&] {
                serve::IncrementalAnalyzer(store).analyze(*again.app, options);
            });
        }
        for (int k = 0; k < kSteps; ++k)
            total[k] += best[k];
    }
    std::printf("%-30s %10s %10s\n", "step", "ms", "allocs");
    for (int k = 0; k < kSteps; ++k)
        std::printf("%-30s %10.4f %10.1f\n", names[k], total[k] / napps,
                    static_cast<double>(allocs[k]) / (napps * reps));
    return 0;
}
