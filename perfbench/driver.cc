/**
 * @file
 * The repository benchmark driver: one single-process, closed-loop run
 * (one client, pipeline jobs pinned to 1) of one workload. Prints one
 * JSON line of raw results on stdout; perfbench/run.py turns it into
 * the metrics named in BENCHMARK.json (perfbench/README.md has the
 * workload and metric definitions).
 *
 * Every app of the workload's pool goes through the same four timed
 * operations, each through a public entry point of the library:
 *
 *   direct  -- what `sierra analyze` does on the edited app text:
 *              framework::parseAppText, the SierraDetector constructor
 *              (harness generation), SierraDetector::analyze and
 *              formatReport;
 *   cold    -- the original text as a jsonl `analyze` request through
 *              serve::ServeSession::handleLine, first submission;
 *   warm    -- the same request again, unchanged;
 *   edit    -- the edited text (one method body gets a dead no-op
 *              appended) as a third submission.
 *
 * The direct path doubles as the fresh cold analysis of the edited app
 * that the edit response must match byte for byte. A pass walks the
 * whole pool; each app's three requests go to a fresh memory-store
 * session. After a warm-up
 * pass, which records no timing, passes repeat until --seconds have
 * been measured; the run ends at a pass boundary. Set-up (pool build,
 * text rendering, session start) is timed before the first pass and
 * again after every pass, outside the timed operations.
 *
 * Usage:
 *   perfbench_driver --workload corpus-batch|heavy-app
 *                    --seed N --seconds S [--trace 0|1]
 *
 * With --trace 1, pass 0 is traced whole as a warm-up; after it every
 * other app is traced, alternating which per pass, so each app has as
 * many traced as untraced passes and traced and untraced work
 * interleave app by app. Traced apps run under a util::trace session
 * with the driver's own spans around each public call; after every
 * traced app the collected events are folded into per-span self times.
 * The tracing overhead compares the traced with the untraced operation
 * times of the measured passes.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "framework/app_text.hh"
#include "serve/serve.hh"
#include "util/metrics.hh"
#include "util/trace.hh"

namespace {

using namespace sierra;
using Clock = std::chrono::steady_clock;
using serve::Json;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

struct Args {
    std::string workload;
    uint32_t seed{1};
    double seconds{10};
    bool trace{false};
};

constexpr const char *kGoldenDir = "tests/golden";
// A run times at least this many set-ups.
constexpr size_t kMinSetups = 5;
// An untraced run measures at least this many passes after warm-up:
// run.py takes each app's best time over a window of consecutive passes.
constexpr int kMinPasses = 3;

/** One app of the pool, pre-rendered during set-up. */
struct Input {
    std::string name;
    std::string editedText; //!< the direct path's input
    std::string coldLine;   //!< analyze request, original text
    std::string editLine;   //!< analyze request, edited text
    corpus::GroundTruth truth;
    const std::string *golden{nullptr}; //!< expected cold report
};

/** Append a dead no-op to the first app method body (the benign edit of
 *  docs/CACHING.md, as in bench/bench_incremental.cc). */
void
appendNop(framework::App &app)
{
    for (air::Klass *klass : app.module().classes()) {
        if (klass->isFramework() || klass->isSynthetic())
            continue;
        for (const auto &m : klass->methods()) {
            if (m->hasBody()) {
                m->instrs().push_back(air::Instruction{});
                return;
            }
        }
    }
}

std::string
analyzeRequest(int64_t id, const std::string &text)
{
    Json request = Json::object();
    request.set("id", Json::integer(id));
    request.set("kind", Json::str("analyze"));
    request.set("app", Json::str(text));
    request.set("jobs", Json::integer(1));
    return request.dump();
}

Input
makeInput(corpus::BuiltApp built, int64_t id)
{
    Input in;
    in.name = built.app->name();
    in.truth = std::move(built.truth);
    in.coldLine = analyzeRequest(id, framework::printAppText(*built.app));
    appendNop(*built.app);
    in.editedText = framework::printAppText(*built.app);
    in.editLine = analyzeRequest(id, in.editedText);
    return in;
}

// The heavy-app pool. Refutation grows superlinearly with the patterns
// of one activity, so many patterns per activity make it the largest
// stage. Every app gets the same counts: the apps then differ only in
// which patterns they draw, and the pool's cost has no far outliers, so
// its p95 does not sit on a jump between a few outliers and the rest
// (README.md).
constexpr uint32_t kHeavyPoolSeed = 0x4EA7u;
constexpr int kHeavyApps = 200;
constexpr int kHeavyActivities = 3;
constexpr int kHeavyPatterns = 12; // per activity

/** A pinned pool of generated apps, in an order shuffled by the run's
 *  seed. The apps themselves do not vary with the seed: a pool's p95 rests
 *  on its few most expensive apps, and pools drawn from the seed spread
 *  their p95 across seeds wider than any usable bound (README.md). */
std::vector<Input>
syntheticPool(const std::string &prefix, uint32_t pool_seed,
              uint32_t order_seed, int apps, int activities, int patterns)
{
    std::vector<Input> pool;
    for (int i = 0; i < apps; ++i) {
        corpus::SyntheticSpec spec;
        spec.seed = pool_seed * 1000003u + static_cast<uint32_t>(i);
        spec.activities = activities;
        spec.minPatternsPerActivity = patterns;
        spec.maxPatternsPerActivity = patterns;
        pool.push_back(makeInput(
            corpus::generateSyntheticApp(prefix + std::to_string(i), spec),
            i + 1));
    }
    std::shuffle(pool.begin(), pool.end(), std::mt19937(order_seed));
    return pool;
}

std::string
goldenFileName(const std::string &app_name)
{
    std::string fname;
    for (char c : app_name)
        fname += (c == ' ' || c == '/') ? '_' : c;
    return fname;
}

/** Build the workload's pool. Named corpus apps point at their golden
 *  report in `goldens`. */
std::vector<Input>
buildPool(const Args &args,
          const std::map<std::string, std::string> &goldens)
{
    if (args.workload == "heavy-app")
        return syntheticPool("heavy-", kHeavyPoolSeed, args.seed,
                             kHeavyApps, kHeavyActivities, kHeavyPatterns);
    // corpus-batch: the pinned reproduction corpus; the seed is unused.
    std::vector<Input> pool;
    int64_t id = 1;
    for (const auto &spec : corpus::namedAppSpecs()) {
        pool.push_back(makeInput(corpus::buildNamedApp(spec), id++));
        pool.back().golden = &goldens.at(spec.name);
    }
    for (int i = 0; i < corpus::kFdroidAppCount; ++i)
        pool.push_back(makeInput(corpus::buildFdroidApp(i), id++));
    return pool;
}

std::map<std::string, std::string>
readGoldens(const Args &args)
{
    std::map<std::string, std::string> goldens;
    if (args.workload != "corpus-batch")
        return goldens;
    for (const auto &spec : corpus::namedAppSpecs()) {
        std::string path = std::string(kGoldenDir) + "/" +
                           goldenFileName(spec.name) + ".report.txt";
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        if (!in || ss.str().empty()) {
            std::fprintf(stderr, "perfbench: missing golden %s\n",
                         path.c_str());
            std::exit(1);
        }
        goldens[spec.name] = ss.str();
    }
    return goldens;
}

/** The `report` string of an analyze response; nullopt on an error
 *  response or a malformed line. */
std::optional<std::string>
responseReport(const std::string &line)
{
    Json response;
    std::string error;
    if (!Json::parse(line, response, error) || response.field("error"))
        return std::nullopt;
    const Json *result = response.field("result");
    const Json *report = result ? result->field("report") : nullptr;
    if (!report || report->kind() != Json::Kind::Str)
        return std::nullopt;
    return report->asStr();
}

/**
 * Self time per span, folded from util::trace::toJson() output (one
 * event per line). Spans nest per track; a span's self time is its
 * duration minus the part its child spans cover. Self times are keyed
 * by the root span (the driver's own span around one public call) and
 * the span name.
 */
struct TraceFold {
    std::map<std::string, std::map<std::string, double>> selfMs;
    std::map<std::string, double> rootMs;
    std::map<std::string, int64_t> rootCount;
    double incrementalMs{0}; //!< stage.store directly under a serve span
    int64_t incrementalCount{0};

    struct Open {
        std::string name;
        double startUs;
        double childUs;
    };
    std::map<int, std::vector<Open>> stacks;

    static bool
    field(const std::string &line, const char *key, std::string &out)
    {
        size_t at = line.find(key);
        if (at == std::string::npos)
            return false;
        at += std::strlen(key);
        size_t end = line.find_first_of(",}\"", at);
        out = line.substr(at, end - at);
        return true;
    }

    void
    fold(const std::string &json)
    {
        std::istringstream in(json);
        std::string line, ph, tid, ts, name;
        while (std::getline(in, line)) {
            if (!field(line, "\"ph\":\"", ph) ||
                (ph != "B" && ph != "E") ||
                !field(line, "\"tid\":", tid) ||
                !field(line, "\"ts\":", ts) ||
                !field(line, "\"name\":\"", name))
                continue;
            std::vector<Open> &stack = stacks[std::atoi(tid.c_str())];
            double t = std::atof(ts.c_str());
            if (ph == "B") {
                stack.push_back({name, t, 0});
                continue;
            }
            if (stack.empty() || stack.back().name != name)
                continue; // unmatched end: drop it
            Open open = stack.back();
            stack.pop_back();
            double dur = t - open.startUs;
            const std::string &root =
                stack.empty() ? open.name : stack.front().name;
            selfMs[root][open.name] += (dur - open.childUs) / 1e3;
            if (stack.empty()) {
                rootMs[root] += dur / 1e3;
                ++rootCount[root];
            } else {
                stack.back().childUs += dur;
                if (open.name == "stage.store" && stack.size() == 1 &&
                    stack.back().name.rfind("serve.", 0) == 0) {
                    incrementalMs += dur / 1e3;
                    ++incrementalCount;
                }
            }
        }
    }
};

void
stageMs(const StageTimes &t, std::map<std::string, double> &sum)
{
    sum["stage.cg_pa_ms"] += t.cgPa * 1e3;
    sum["stage.hbg_ms"] += t.hbg * 1e3;
    sum["stage.dataflow_ms"] += t.dataflow * 1e3;
    sum["stage.escape_ms"] += t.escape * 1e3;
    sum["stage.racy_ms"] += t.racy * 1e3;
    sum["stage.lockset_ms"] += t.lockset * 1e3;
    sum["stage.deadlock_ms"] += t.deadlock * 1e3;
    sum["stage.enablement_ms"] += t.enablement * 1e3;
    sum["stage.ifds_ms"] += t.ifds * 1e3;
    sum["stage.refutation_ms"] += t.refutation * 1e3;
    sum["stage.nullflow_ms"] += t.nullflow * 1e3;
}

std::string
jsonNumbers(const std::vector<double> &values)
{
    std::string out = "[";
    char buf[32];
    for (size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "",
                      values[i]);
        out += buf;
    }
    return out + "]";
}

template <typename Map>
std::string
jsonObject(const Map &values)
{
    std::string out = "{";
    char buf[64];
    bool first = true;
    for (const auto &[key, value] : values) {
        std::snprintf(buf, sizeof(buf), "%.9g",
                      static_cast<double>(value));
        out += (first ? "\"" : ",\"") + key + "\":" + buf;
        first = false;
    }
    return out + "}";
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = static_cast<uint32_t>(std::stoul(value));
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else
            return false;
    }
    return argc % 2 == 1 &&
           (args.workload == "corpus-batch" || args.workload == "heavy-app");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload corpus-batch|"
                     "heavy-app --seed N --seconds S [--trace 0|1]\n");
        return 2;
    }
    namespace trace = util::trace;

    // Set-up: build or generate the pool, render every app text and
    // request line, start a session. It is timed again after every
    // pass, so the best set-up is taken over the whole run.
    const std::map<std::string, std::string> goldens = readGoldens(args);
    std::vector<double> setup_s;
    serve::ServeOptions serve_options;
    serve_options.jobs = 1;
    auto set_up = [&] {
        auto t0 = Clock::now();
        std::vector<Input> built = buildPool(args, goldens);
        serve::ServeSession session(serve_options);
        setup_s.push_back(msSince(t0) / 1e3);
        return built;
    };
    const std::vector<Input> pool = set_up();

    SierraOptions options;
    options.jobs = 1;
    util::metrics::Registry registry;
    options.metrics = &registry;

    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> layer_sum;
    std::map<std::string, int64_t> counters, serve_counters;
    std::vector<std::string> first_texts(pool.size());
    double traced_op_ms = 0, untraced_op_ms = 0;
    TraceFold fold;
    int64_t attempted = 0, failed = 0, protocol_ops = 0;
    size_t apps_done = 0;
    int passes = 0;

    auto fail = [&](const Input &in, const char *what) {
        ++failed;
        if (failed <= 5)
            std::fprintf(stderr, "perfbench: %s failed on %s\n", what,
                         in.name.c_str());
    };

    Clock::time_point run_start = Clock::now();
    bool finished = false;
    while (!finished) {
        if (passes == 1)
            run_start = Clock::now(); // the run is measured after warm-up
        for (size_t i = 0; i < pool.size(); ++i) {
            const Input &in = pool[i];
            // A fresh session per app: its store holds that app alone, so
            // an app's serve times do not depend on the apps before it,
            // and the heap stays as small as one app needs.
            serve::ServeSession session(serve_options);
            const bool traced =
                args.trace && (passes == 0 || (i + passes) % 2 == 0);
            if (traced)
                trace::start();

            // direct: the `sierra analyze` path on the edited text.
            auto t0 = Clock::now();
            framework::AppTextResult parsed;
            {
                trace::Span span("bench", "bench.parse");
                parsed = framework::parseAppText(in.editedText);
            }
            double parse_ms = msSince(t0);
            attempted += 4;
            if (!parsed.ok()) {
                fail(in, "parse");
                failed += 3; // the serve operations are skipped
                if (traced)
                    trace::stop();
                continue;
            }
            auto t1 = Clock::now();
            std::optional<SierraDetector> detector;
            {
                trace::Span span("bench", "bench.harness");
                detector.emplace(*parsed.app, options);
            }
            double harness_ms = msSince(t1);
            auto t2 = Clock::now();
            AppReport report;
            {
                trace::Span span("bench", "bench.analyze");
                report = detector->analyze(options);
            }
            double analyze_ms = msSince(t2);
            auto t3 = Clock::now();
            std::string text;
            {
                trace::Span span("bench", "bench.report");
                text = formatReport(report);
            }
            double report_ms = msSince(t3);
            const double app_ms = msSince(t0);

            // serve: cold, warm and edited submissions.
            auto submit = [&](const std::string &line, const char *name,
                              double &ms) {
                auto t = Clock::now();
                std::string response;
                {
                    trace::Span span("bench", name);
                    response = session.handleLine(line);
                }
                ms = msSince(t);
                return response;
            };
            double cold_ms = 0, warm_ms = 0, edit_ms = 0;
            std::string cold = submit(in.coldLine, "serve.cold", cold_ms);
            std::string warm = submit(in.coldLine, "serve.warm", warm_ms);
            std::string edit = submit(in.editLine, "serve.edit", edit_ms);
            if (traced)
                trace::stop();

            // Everything below is outside the timed operations. Pass 0
            // warms the process up and records no timing: its times run
            // higher than those of later passes.
            if (passes > 0) {
                samples["app_ms"].push_back(app_ms);
                samples["serve_cold_ms"].push_back(cold_ms);
                samples["serve_warm_ms"].push_back(warm_ms);
                samples["serve_edit_ms"].push_back(edit_ms);
                layer_sum["framework.parse_ms"] += parse_ms;
                layer_sum["harness.generate_ms"] += harness_ms;
                layer_sum["sierra.analyze_ms"] += analyze_ms;
                layer_sum["sierra.report_ms"] += report_ms;
                stageMs(report.times, layer_sum);
                (traced ? traced_op_ms : untraced_op_ms) +=
                    app_ms + cold_ms + warm_ms + edit_ms;
                ++apps_done;
            }

            if (traced && passes > 0) {
                // Protocol work of the three requests, timed on the
                // same bytes: request JSON parse + response dump.
                for (const std::string *line :
                     {&in.coldLine, &in.coldLine, &in.editLine}) {
                    Json request;
                    std::string error;
                    auto tp = Clock::now();
                    Json::parse(*line, request, error);
                    layer_sum["serve.protocol_ms"] += msSince(tp);
                }
                for (const std::string *line : {&cold, &warm, &edit}) {
                    Json response;
                    std::string error;
                    Json::parse(*line, response, error);
                    auto tp = Clock::now();
                    std::string dumped = response.dump();
                    layer_sum["serve.protocol_ms"] += msSince(tp);
                }
                protocol_ops += 3;
                fold.fold(trace::toJson());
            }

            const std::string fresh = formatReport(report, 50, false);
            corpus::Score score = corpus::scoreReport(report, in.truth);
            if (passes == 0)
                first_texts[i] = fresh;
            if (score.missedTrueKeys > 0)
                fail(in, "direct (missed seeded true race)");
            else if (fresh != first_texts[i])
                fail(in, "direct (report differs between passes)");
            std::optional<std::string> cold_report = responseReport(cold);
            std::optional<std::string> warm_report = responseReport(warm);
            std::optional<std::string> edit_report = responseReport(edit);
            if (!cold_report ||
                (in.golden && *cold_report != *in.golden))
                fail(in, "cold (error or golden mismatch)");
            if (!warm_report || warm_report != cold_report)
                fail(in, "warm (error or warm != cold bytes)");
            if (!edit_report || *edit_report != fresh)
                fail(in, "edit (error or != fresh cold of edited app)");
            if (passes == 0) {
                for (const auto &[name, value] : session.metrics().counters())
                    serve_counters[name] += value;
            }
        }
        // A run ends at a pass boundary once --seconds have been
        // measured: an untraced run after at least kMinPasses passes, a
        // traced run after an even number, so every app has as many
        // traced as untraced passes. --seconds 0 runs the warm-up pass
        // alone.
        const bool timed_out =
            passes > 0 && msSince(run_start) >= args.seconds * 1e3;
        if (args.seconds == 0 ||
            (timed_out &&
             (args.trace ? passes % 2 == 0 : passes >= kMinPasses)))
            finished = true;
        if (passes == 0) {
            // Counters cover exactly the warm-up pass, so they are a
            // function of the pool alone and repeat run to run.
            for (const auto &[name, value] : registry.counters())
                counters[name] = value;
            for (const auto &[name, value] : serve_counters)
                counters[name] = value;
            counters.erase("mem.peak_rss_bytes");
        }
        ++passes;
        if (!finished)
            set_up();
    }
    while (setup_s.size() < kMinSetups)
        set_up();

    std::printf("{\"workload\":\"%s\",\"seed\":%u,\"pool\":%zu,"
                "\"passes\":%d,\"apps\":%zu,\"attempted\":%lld,"
                "\"failed\":%lld,\"seconds\":%.6f,"
                "\"peak_rss_bytes\":%lld,\"setup_s\":%s,",
                args.workload.c_str(), args.seed, pool.size(), passes,
                apps_done, static_cast<long long>(attempted),
                static_cast<long long>(failed),
                msSince(run_start) / 1e3,
                static_cast<long long>(util::metrics::peakRssBytes()),
                jsonNumbers(setup_s).c_str());
    std::printf("\"samples\":{");
    bool first = true;
    for (const auto &[name, values] : samples) {
        std::printf("%s\"%s\":%s", first ? "" : ",", name.c_str(),
                    jsonNumbers(values).c_str());
        first = false;
    }
    std::printf("},\"layer_sum_ms\":%s,\"counters\":%s,"
                "\"first_pass_apps\":%zu",
                jsonObject(layer_sum).c_str(),
                jsonObject(counters).c_str(), pool.size());
    if (args.trace) {
        std::printf(",\"trace\":{\"protocol_ops\":%lld,"
                    "\"incremental_ms\":%.6f,\"incremental_count\":%lld,"
                    "\"traced_op_ms\":%.6f,\"untraced_op_ms\":%.6f,"
                    "\"root_ms\":%s,\"root_count\":%s,\"self_ms\":{",
                    static_cast<long long>(protocol_ops),
                    fold.incrementalMs,
                    static_cast<long long>(fold.incrementalCount),
                    traced_op_ms, untraced_op_ms,
                    jsonObject(fold.rootMs).c_str(),
                    jsonObject(fold.rootCount).c_str());
        first = true;
        for (const auto &[root, by_name] : fold.selfMs) {
            std::printf("%s\"%s\":%s", first ? "" : ",", root.c_str(),
                        jsonObject(by_name).c_str());
            first = false;
        }
        std::printf("}}");
    }
    std::printf("}\n");
    return 0;
}
