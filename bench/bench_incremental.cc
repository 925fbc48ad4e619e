/**
 * @file
 * Incremental re-analysis benchmark: the `sierra serve` store on the
 * 20-app corpus (docs/CACHING.md).
 *
 * Three phases against one artifact store:
 *   1. cold  -- every app analyzed from an empty store;
 *   2. warm  -- every app re-submitted unchanged: all per-harness
 *      artifacts reuse, no pipeline runs;
 *   3. edit  -- one method body of one app gets a dead no-op appended,
 *      then the whole corpus is re-submitted: only the harnesses whose
 *      footprint covers the edit recompute.
 *
 * Checked invariants (exit nonzero on violation):
 *   - warm reports are byte-identical to cold reports, per app;
 *   - the post-edit report is byte-identical to a fresh-store cold
 *     analysis of the identically edited app;
 *   - the edit recomputes exactly the harnesses whose cold-run
 *     footprint lists the edited method, and there is at least one;
 *   - warm corpus passes (phases 2 and 3) are >= 5x faster than cold.
 *
 * Emits one machine-readable `BENCH {...}` JSON line.
 */

#include <algorithm>
#include <chrono>

#include "bench_util.hh"
#include "serve/incremental.hh"
#include "sierra/artifact.hh"

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Append a dead no-op to the first app method body: the benign edit
 *  of docs/CACHING.md's walkthrough. Returns the qualified name. */
std::string
appendNop(sierra::framework::App &app)
{
    for (sierra::air::Klass *klass : app.module().classes()) {
        if (klass->isFramework() || klass->isSynthetic())
            continue;
        for (const auto &m : klass->methods()) {
            if (m->hasBody()) {
                m->instrs().push_back(sierra::air::Instruction{});
                return m->qualifiedName();
            }
        }
    }
    return {};
}

} // namespace

int
main()
{
    using namespace sierra;
    namespace store = analysis::store;
    bench::header("Incremental re-analysis (serve store)");

    const std::string edited_app = "OpenSudoku";
    const int kCycles = 3;
    SierraOptions options;

    // The harnesses the edit must recompute: those whose cold-run
    // footprint lists the edited method, read from the artifacts a
    // cold analysis of the edited app stores.
    std::string edited_method;
    int covering = 0;
    {
        store::Store probe;
        corpus::BuiltApp built = corpus::buildNamedApp(edited_app);
        serve::IncrementalAnalyzer(probe).analyze(*built.app, options);
        edited_method = appendNop(*built.app); // its name; not analyzed
        for (uint64_t key : probe.keys()) {
            auto art = parseArtifact(*probe.get(key));
            if (art && std::any_of(art->footprint.begin(),
                                   art->footprint.end(),
                                   [&](const auto &row) {
                                       return row.first == edited_method;
                                   }))
                ++covering;
        }
    }

    // Each phase times analyzer.analyze() only: app construction
    // stands in for the client's submission (parse) cost, identical
    // across phases, and is excluded so the ratio isolates what the
    // store actually saves. The whole three-phase experiment runs
    // kCycles times against fresh stores; per-phase minima damp
    // scheduler noise while the invariants must hold on EVERY cycle.
    auto buildCorpus = [] {
        std::vector<corpus::BuiltApp> apps;
        for (const auto &spec : corpus::namedAppSpecs())
            apps.push_back(corpus::buildNamedApp(spec));
        return apps;
    };

    double cold_ms = 0, warm_ms = 0, edit_ms = 0;
    int cold_harnesses = 0;
    bool warm_identical = true, exact_recompute = true;
    int warm_reused = 0, warm_computed = 0;
    int edit_reused = 0, edit_computed = 0;
    std::string edit_report;

    for (int cycle = 0; cycle < kCycles; ++cycle) {
        store::Store st; // memory-only: measures analysis, not disk
        serve::IncrementalAnalyzer analyzer(st);

        // Phase 1: cold. Every harness computes, every artifact
        // persists.
        std::map<std::string, std::string> cold_reports;
        cold_harnesses = 0;
        std::vector<corpus::BuiltApp> apps = buildCorpus();
        auto t0 = std::chrono::steady_clock::now();
        for (corpus::BuiltApp &built : apps) {
            serve::IncrementalResult r =
                analyzer.analyze(*built.app, options);
            cold_reports[built.app->name()] = r.reportText;
            cold_harnesses += r.harnessesComputed;
        }
        double cycle_cold = msSince(t0);

        // Phase 2: warm. Unchanged re-submission of the corpus.
        warm_reused = 0;
        warm_computed = 0;
        apps = buildCorpus();
        t0 = std::chrono::steady_clock::now();
        for (corpus::BuiltApp &built : apps) {
            serve::IncrementalResult r =
                analyzer.analyze(*built.app, options);
            warm_reused += r.harnessesReused;
            warm_computed += r.harnessesComputed;
            if (r.reportText != cold_reports[built.app->name()])
                warm_identical = false;
        }
        double cycle_warm = msSince(t0);

        // Phase 3: one-method edit, whole corpus re-submitted.
        edit_reused = 0;
        edit_computed = 0;
        apps = buildCorpus();
        for (corpus::BuiltApp &built : apps) {
            if (built.app->name() == edited_app)
                appendNop(*built.app);
        }
        t0 = std::chrono::steady_clock::now();
        for (corpus::BuiltApp &built : apps) {
            serve::IncrementalResult r =
                analyzer.analyze(*built.app, options);
            const bool is_edited = built.app->name() == edited_app;
            if (is_edited)
                edit_report = r.reportText;
            if (r.harnessesComputed != (is_edited ? covering : 0))
                exact_recompute = false;
            edit_reused += r.harnessesReused;
            edit_computed += r.harnessesComputed;
        }
        double cycle_edit = msSince(t0);

        if (cycle == 0) {
            cold_ms = cycle_cold;
            warm_ms = cycle_warm;
            edit_ms = cycle_edit;
        } else {
            cold_ms = std::min(cold_ms, cycle_cold);
            warm_ms = std::min(warm_ms, cycle_warm);
            edit_ms = std::min(edit_ms, cycle_edit);
        }
    }

    // The edited app's warm report must match a fresh-store cold
    // analysis of the identically edited app.
    store::Store fresh;
    serve::IncrementalAnalyzer cold_analyzer(fresh);
    corpus::BuiltApp rebuilt = corpus::buildNamedApp(edited_app);
    appendNop(*rebuilt.app);
    serve::IncrementalResult edited_cold =
        cold_analyzer.analyze(*rebuilt.app, options);
    bool edit_identical = edit_report == edited_cold.reportText;

    double warm_speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;
    double edit_speedup = edit_ms > 0 ? cold_ms / edit_ms : 0;

    std::printf("%-22s %10s %10s %10s %10s\n", "phase", "ms",
                "computed", "reused", "speedup");
    bench::row("cold", "%10.2f %10d %10d %10s", cold_ms,
               cold_harnesses, 0, "1.0x");
    bench::row("warm (no edit)", "%10.2f %10d %10d %9.1fx", warm_ms,
               warm_computed, warm_reused, warm_speedup);
    bench::row("warm (1-method edit)", "%10.2f %10d %10d %9.1fx",
               edit_ms, edit_computed, edit_reused, edit_speedup);

    bool all_reused = warm_computed == 0 &&
                      warm_reused == cold_harnesses;
    exact_recompute = exact_recompute && covering >= 1;
    bool fast_enough = warm_speedup >= 5.0 && edit_speedup >= 5.0;
    std::printf("\nwarm == cold bytes: %s; edited warm == edited cold "
                "bytes: %s;\nall artifacts reused when unchanged: %s; "
                "edit recomputed exactly the %d covering harness(es): "
                "%s;\n>= 5x speedup: %s (edited method: %s)\n",
                warm_identical ? "yes" : "NO (regression!)",
                edit_identical ? "yes" : "NO (regression!)",
                all_reused ? "yes" : "NO (regression!)", covering,
                exact_recompute ? "yes" : "NO (regression!)",
                fast_enough ? "yes" : "NO (regression!)",
                edited_method.c_str());

    bench::benchJson(
        "incremental",
        "{\"bench\":\"incremental\",\"corpus\":20,"
        "\"harnesses\":%d,"
        "\"cold_ms\":%.2f,"
        "\"warm\":{\"ms\":%.2f,\"computed\":%d,\"reused\":%d,"
        "\"speedup\":%.1f},"
        "\"edit\":{\"ms\":%.2f,\"computed\":%d,\"reused\":%d,"
        "\"covering\":%d,\"speedup\":%.1f},"
        "\"warm_identical\":%s,\"edit_identical\":%s,"
        "\"all_reused\":%s}",
        cold_harnesses, cold_ms, warm_ms, warm_computed, warm_reused,
        warm_speedup, edit_ms, edit_computed, edit_reused,
        covering, edit_speedup,
        warm_identical ? "true" : "false",
        edit_identical ? "true" : "false",
        all_reused ? "true" : "false");
    return warm_identical && edit_identical && all_reused &&
                   exact_recompute && fast_enough
               ? 0
               : 1;
}
