#include "cli.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <string_view>

#include "air/printer.hh"
#include "air/verifier.hh"
#include "analysis/lint.hh"
#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "corpus/patterns.hh"
#include "dynamic/event_racer.hh"
#include "dynamic/race_verifier.hh"
#include "framework/app_text.hh"
#include "serve/serve.hh"
#include "sierra/detector.hh"
#include "util/metrics.hh"
#include "util/trace.hh"

namespace sierra::cli {

namespace {

const char *kUsageHead = R"(usage: sierra <command> [options]

commands:
  analyze <file.air> [options]   run the static detector on an app bundle
  dynamic <file.air> [options]   run the dynamic (EventRacer-style) detector
  verify <file.air> [options]    statically detect, then verify the surviving
                                 races by hunting both orders dynamically
  lint <file.air> [options]      structural verification plus dataflow
                                 lint (use-before-def, unreachable
                                 blocks, dead stores, leaked
                                 registrations); non-zero exit on any
                                 finding
  dump <app> [-o FILE]           write a corpus app as an app bundle
                                 (<app> is a Table 2 name or fdroid-N)
  harness <file.air> <activity>  print the generated harness for one activity
  actions <file.air> <activity>  print the actions and HB relations of one
                                 activity's harness (SHBG introspection)
  serve [options]                run as a long-lived analysis daemon
                                 speaking jsonl on stdin/stdout (see
                                 docs/DAEMON_PROTOCOL.md)
  list                           list corpus apps and race patterns
  help                           this message

analyze options:
  --policy P        insensitive | k-cfa | k-obj | hybrid | action-sensitive
                    (default: action-sensitive)
  --k N             context depth, also of heap contexts (default 1)
  --index-sensitive   per-element array locations (removes the
                      index-insensitivity FP class)
  --node-cache      enable the paper's refuted-node cache
  --jobs N          worker threads for per-harness analysis (default:
                    hardware concurrency; reports are identical at
                    every N)
)";

const char *kUsageTail =
    R"(  --no-icc          disable inter-component (Intent) modeling: target
                    activities launched via startActivity/PendingIntent
                    are not driven by the sender's harness, so
                    cross-component races are missed
  --max-races N     cap the printed race list (default 50)
  --show-refuted    also print refuted candidates
  --trace FILE      write a Chrome trace-event JSON profile of the run
                    (open in Perfetto or chrome://tracing; see
                    docs/OBSERVABILITY.md)
  --metrics         collect and print the pipeline metrics registry
                    (embedded under "metrics" with --json)
  --json            machine-readable output

lint options:
  --errors-only     report only errors (skip warnings)
  --json            machine-readable output: a JSON array of findings
                    with severity/where/message fields ("[]" when
                    clean; exit codes are unchanged)

dynamic options:
  --schedules N     randomized schedules to run (default 3)
  --seed N          base RNG seed (default 1)
  --no-coverage-filter  disable the race-coverage filter

serve options:
  --store DIR       persist the artifact store to DIR so later daemon
                    runs warm-start from it (default: memory only;
                    caching model in docs/CACHING.md)
  --socket PATH     listen on a Unix domain socket instead of
                    stdin/stdout (one connection at a time)
  --jobs N          default worker threads per analyze request
                    (overridable per request)
)";

/** The usage text: the analyze options list one `--no-X` flag per
 *  switchable stage-table row, in pipeline order. */
std::string
usage()
{
    std::ostringstream os;
    os << kUsageHead;
    for (const StageDesc &d : stageTable()) {
        if (!d.flag)
            continue;
        os << "  " << std::left << std::setw(18) << d.flag;
        for (char c : std::string_view(d.help)) {
            os << c;
            if (c == '\n')
                os << std::string(20, ' ');
        }
        os << "\n";
    }
    os << kUsageTail;
    return os.str();
}

struct ParsedFlags {
    std::map<std::string, std::string> values;
    std::vector<std::string> positional;
    std::string error;

    bool has(const std::string &flag) const { return values.count(flag); }
    std::string
    get(const std::string &flag, const std::string &fallback = "") const
    {
        auto it = values.find(flag);
        return it == values.end() ? fallback : it->second;
    }
    /** An integer flag's value; parseFlags has checked its syntax. */
    int
    getInt(const std::string &flag, int fallback) const
    {
        auto it = values.find(flag);
        return it == values.end() ? fallback : std::stoi(it->second);
    }
};

/** Flags whose value is an integer, then those with any other value. */
constexpr std::string_view kIntFlags[] = {"--k", "--jobs", "--max-races",
                                          "--schedules", "--seed"};
constexpr std::string_view kTextFlags[] = {"--policy", "--trace",
                                           "--store", "--socket", "-o"};
/** Boolean flags besides the stage table's `--no-X` flags. */
constexpr std::string_view kSwitches[] = {
    "--index-sensitive", "--node-cache", "--no-icc", "--show-refuted",
    "--metrics", "--json", "--errors-only", "--no-coverage-filter"};

bool
isSwitch(const std::string &flag)
{
    return std::ranges::count(kSwitches, flag) ||
           std::ranges::any_of(stageTable(), [&](const StageDesc &d) {
               return d.flag && flag == d.flag;
           });
}

ParsedFlags
parseFlags(const std::vector<std::string> &args, size_t start)
{
    ParsedFlags out;
    for (size_t i = start; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a.rfind("-", 0) != 0) {
            out.positional.push_back(a);
            continue;
        }
        if (isSwitch(a)) {
            out.values[a] = "1";
            continue;
        }
        const bool is_int = std::ranges::count(kIntFlags, a);
        if (!is_int && !std::ranges::count(kTextFlags, a)) {
            out.error = "unknown flag '" + a + "' (try 'sierra help')";
            return out;
        }
        if (i + 1 >= args.size()) {
            out.error = a + " requires a value";
            return out;
        }
        const std::string &value = args[++i];
        if (is_int) {
            int v = 0;
            const char *end = value.data() + value.size();
            auto [ptr, ec] = std::from_chars(value.data(), end, v);
            if (ec != std::errc() || ptr != end || (a == "--k" && v < 0)) {
                out.error = a + " needs a" +
                            (a == "--k" ? " non-negative" : "n") +
                            " integer, not '" + value + "'";
                return out;
            }
        }
        out.values[a] = value;
    }
    return out;
}

bool
policyFromName(const std::string &name, analysis::ContextPolicy &out)
{
    using analysis::ContextPolicy;
    static const struct {
        const char *n;
        ContextPolicy p;
    } table[] = {
        {"insensitive", ContextPolicy::Insensitive},
        {"k-cfa", ContextPolicy::KCfa},
        {"k-obj", ContextPolicy::KObj},
        {"hybrid", ContextPolicy::Hybrid},
        {"action-sensitive", ContextPolicy::ActionSensitive},
    };
    for (const auto &e : table) {
        if (name == e.n) {
            out = e.p;
            return true;
        }
    }
    return false;
}

/** Load an app bundle or a corpus app named on the command line. */
std::unique_ptr<framework::App>
loadApp(const std::string &spec, std::ostream &err)
{
    std::ifstream in(spec);
    if (!in) {
        err << "error: cannot open '" << spec << "'\n";
        return nullptr;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    framework::AppTextResult result =
        framework::parseAppText(buffer.str());
    if (!result.ok()) {
        err << "error: " << spec << ":" << result.errorLine << ": "
            << result.error << "\n";
        return nullptr;
    }
    return std::move(result.app);
}

/** Build a corpus app by name ("OpenSudoku" or "fdroid-17"). */
corpus::BuiltApp
buildCorpusApp(const std::string &name, bool &ok, std::ostream &err)
{
    ok = true;
    if (name.rfind("fdroid-", 0) == 0) {
        int index = -1;
        try {
            index = std::stoi(name.substr(7));
        } catch (...) {
        }
        if (index < 0 || index >= corpus::kFdroidAppCount) {
            err << "error: fdroid index out of range (0-"
                << corpus::kFdroidAppCount - 1 << ")\n";
            ok = false;
            return {};
        }
        return corpus::buildFdroidApp(index);
    }
    for (const auto &spec : corpus::namedAppSpecs()) {
        if (spec.name == name)
            return corpus::buildNamedApp(spec);
    }
    err << "error: unknown corpus app '" << name
        << "' (try 'sierra list')\n";
    ok = false;
    return {};
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

void
printReportJson(const AppReport &report, std::ostream &out,
                const util::metrics::Registry *metrics = nullptr)
{
    out << "{\n";
    // Bumped whenever a field is added, renamed or retyped, so
    // downstream consumers can gate on the shape they understand.
    // v3: per-race severity + provenance, harmful/guarded tallies,
    // timesMs gains the nullflow stage.
    out << "  \"schemaVersion\": 3,\n";
    out << "  \"app\": \"" << jsonEscape(report.app) << "\",\n";
    out << "  \"harnesses\": " << report.harnesses << ",\n";
    out << "  \"actions\": " << report.actions << ",\n";
    out << "  \"hbEdges\": " << report.hbEdges << ",\n";
    out << "  \"orderedPct\": " << report.orderedPct << ",\n";
    out << "  \"racyPairs\": " << report.racyPairs << ",\n";
    out << "  \"afterRefutation\": " << report.afterRefutation << ",\n";
    out << "  \"locksetRefuted\": " << report.locksetRefuted << ",\n";
    out << "  \"enablementRefuted\": " << report.enablementRefuted
        << ",\n";
    out << "  \"harmfulRaces\": " << report.harmfulRaces << ",\n";
    out << "  \"guardedRaces\": " << report.guardedRaces << ",\n";
    out << "  \"accessesDropped\": " << report.accessesDropped << ",\n";
    // Generated from the stage table like the text `time:` line, so
    // every StageTimes field is present (report_times_test pins this).
    out << "  \"timesMs\": {";
    bool first_time = true;
    for (const StageTimeEntry &e : stageTimeEntries(report.times)) {
        out << (first_time ? "" : ", ") << "\"" << e.jsonName
            << "\": " << e.seconds * 1e3;
        first_time = false;
    }
    out << "},\n";
    if (metrics)
        out << "  \"metrics\": " << metrics->toJson() << ",\n";
    out << "  \"useAfterDestroy\": [";
    for (size_t i = 0; i < report.useAfterDestroy.size(); ++i) {
        const auto &f = report.useAfterDestroy[i];
        out << (i ? ",\n    " : "\n    ")
            << "{\"field\": \"" << jsonEscape(f.fieldKey)
            << "\", \"teardownAction\": \""
            << jsonEscape(f.teardownAction) << "\", \"useAction\": \""
            << jsonEscape(f.useAction)
            << "\", \"writeMethod\": \"" << jsonEscape(f.writeMethod)
            << "\", \"readMethod\": \"" << jsonEscape(f.readMethod)
            << "\"}";
    }
    out << (report.useAfterDestroy.empty() ? "],\n" : "\n  ],\n");
    out << "  \"deadlocks\": [";
    for (size_t i = 0; i < report.deadlocks.size(); ++i) {
        const auto &f = report.deadlocks[i];
        out << (i ? ",\n    " : "\n    ") << "{\"edges\": [";
        for (size_t j = 0; j < f.edges.size(); ++j) {
            const auto &e = f.edges[j];
            out << (j ? ", " : "") << "{\"heldLock\": \""
                << jsonEscape(e.heldLock) << "\", \"acquiredLock\": \""
                << jsonEscape(e.acquiredLock) << "\", \"method\": \""
                << jsonEscape(e.method)
                << "\", \"instrIdx\": " << e.instrIdx
                << ", \"action\": \"" << jsonEscape(e.actionLabel)
                << "\"}";
        }
        out << "]}";
    }
    out << (report.deadlocks.empty() ? "],\n" : "\n  ],\n");
    out << "  \"races\": [\n";
    bool first = true;
    for (const auto &race : report.races) {
        if (!first)
            out << ",\n";
        first = false;
        out << "    {\"location\": \"" << jsonEscape(race.fieldKey)
            << "\", \"priority\": " << race.priority
            << ", \"refuted\": " << (race.refuted ? "true" : "false")
            << ", \"severity\": \""
            << analysis::nullVerdictName(race.severity)
            << "\", \"provenance\": \""
            << jsonEscape(race.severityChain)
            << "\", \"description\": \""
            << jsonEscape(race.description) << "\"}";
    }
    out << "\n  ]\n}\n";
}

int
cmdAnalyze(const ParsedFlags &flags, std::ostream &out,
           std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: analyze needs an app bundle file\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;

    SierraOptions options;
    if (flags.has("--policy")) {
        if (!policyFromName(flags.get("--policy"),
                            options.pta.ctx.policy)) {
            err << "error: unknown policy '" << flags.get("--policy")
                << "'\n";
            return 2;
        }
    }
    options.pta.ctx.k = flags.getInt("--k", 1);
    options.refuter.exec.useNodeCache = flags.has("--node-cache");
    options.pta.indexSensitiveArrays = flags.has("--index-sensitive");
    options.jobs = flags.getInt("--jobs", 0);
    for (const StageDesc &d : stageTable()) {
        if (d.flag && flags.has(d.flag))
            options.*d.toggle = false;
    }
    options.icc = !flags.has("--no-icc");

    util::metrics::Registry registry;
    const bool want_metrics = flags.has("--metrics");
    if (want_metrics)
        options.metrics = &registry;
    const std::string trace_path = flags.get("--trace");
    if (!trace_path.empty())
        util::trace::start();

    // ICC acts at harness generation, so the options must reach the
    // constructor, not just analyze().
    SierraDetector detector(*app, options);
    AppReport report = detector.analyze(options);

    int status = 0;
    if (!trace_path.empty() &&
        !util::trace::writeJson(trace_path)) {
        err << "error: cannot write trace file '" << trace_path
            << "'\n";
        status = 1;
    }

    if (flags.has("--json")) {
        printReportJson(report, out,
                        want_metrics ? &registry : nullptr);
        return status;
    }
    out << formatReport(report, flags.getInt("--max-races", 50));
    if (want_metrics)
        out << "\n" << registry.toText();
    if (flags.has("--show-refuted")) {
        out << "refuted candidates:\n";
        for (const auto &race : report.races) {
            if (race.refuted)
                out << "  " << race.description << "\n";
        }
    }
    return status;
}

int
cmdDynamic(const ParsedFlags &flags, std::ostream &out,
           std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: dynamic needs an app bundle file\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;

    dynamic::EventRacerOptions options;
    options.numSchedules = flags.getInt("--schedules", 3);
    options.run.seed =
        static_cast<uint32_t>(flags.getInt("--seed", 1));
    options.raceCoverageFilter = !flags.has("--no-coverage-filter");

    dynamic::EventRacerReport report = runEventRacer(*app, options);
    out << "schedules: " << report.schedulesRun
        << "  events: " << report.eventsExecuted
        << "  raw races: " << report.rawRaceCount << "\n";
    for (const auto &race : report.races) {
        out << "  " << (race.filteredByCoverage ? "(filtered) " : "")
            << race.fieldKey << ": " << race.event1 << " || "
            << race.event2 << "\n";
    }
    return 0;
}

int
cmdVerify(const ParsedFlags &flags, std::ostream &out,
          std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: verify needs an app bundle file\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;

    SierraDetector detector(*app);
    SierraOptions static_options;
    static_options.jobs = flags.getInt("--jobs", 0);
    AppReport report = detector.analyze(static_options);
    std::set<std::string> key_set;
    for (const auto &race : report.races) {
        if (!race.refuted)
            key_set.insert(race.fieldKey);
    }
    std::vector<std::string> keys(key_set.begin(), key_set.end());

    dynamic::RaceVerifierOptions options;
    options.numSchedules = flags.getInt("--schedules", 8);
    options.run.seed = static_cast<uint32_t>(flags.getInt("--seed", 1));
    dynamic::RaceVerificationReport verification =
        verifyRacesDynamically(*app, keys, options);

    out << "static reports: " << keys.size() << "\n";
    out << "  confirmed (both orders observed): "
        << verification.confirmed << "\n";
    out << "  conflict observed (single order): "
        << verification.observed << "\n";
    out << "  never observed (schedules missed them): "
        << verification.unobserved << "\n";
    for (const auto &race : verification.races) {
        const char *tag = race.bothOrdersObserved ? "CONFIRMED "
                          : race.conflictObserved ? "observed  "
                                                  : "unobserved";
        out << "  " << tag << " " << race.fieldKey << " ("
            << race.schedulesWithConflict << " schedules)\n";
    }
    return 0;
}

int
cmdLint(const ParsedFlags &flags, std::ostream &out, std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: lint needs an app bundle file\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;

    std::vector<air::VerifyIssue> issues =
        air::verifyModule(app->module());
    for (air::VerifyIssue &issue :
         analysis::lintModule(app->module())) {
        issues.push_back(std::move(issue));
    }

    const bool errors_only = flags.has("--errors-only");
    if (flags.has("--json")) {
        // Same findings and exit codes as the text form, as a JSON
        // array (one object per finding, "[]" when clean).
        int shown = 0;
        out << "[";
        for (const air::VerifyIssue &issue : issues) {
            if (errors_only && issue.severity != air::Severity::Error)
                continue;
            out << (shown ? ",\n " : "\n ") << "{\"severity\": \""
                << air::severityName(issue.severity)
                << "\", \"where\": \"" << jsonEscape(issue.where)
                << "\", \"message\": \"" << jsonEscape(issue.message)
                << "\"}";
            ++shown;
        }
        out << (shown ? "\n]\n" : "]\n");
        return shown == 0 ? 0 : 1;
    }
    int shown = 0;
    for (const air::VerifyIssue &issue : issues) {
        if (errors_only && issue.severity != air::Severity::Error)
            continue;
        out << issue.toString() << "\n";
        ++shown;
    }
    if (shown == 0) {
        out << "no issues\n";
        return 0;
    }
    out << shown << " issue(s)\n";
    return 1;
}

int
cmdDump(const ParsedFlags &flags, std::ostream &out, std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: dump needs a corpus app name\n";
        return 2;
    }
    bool ok = false;
    corpus::BuiltApp built =
        buildCorpusApp(flags.positional[0], ok, err);
    if (!ok)
        return 1;
    std::string text = framework::printAppText(*built.app);
    if (flags.has("-o")) {
        std::ofstream file(flags.get("-o"));
        if (!file) {
            err << "error: cannot write '" << flags.get("-o") << "'\n";
            return 1;
        }
        file << text;
        out << "wrote " << text.size() << " bytes to "
            << flags.get("-o") << "\n";
    } else {
        out << text;
    }
    return 0;
}

int
cmdActions(const ParsedFlags &flags, std::ostream &out,
           std::ostream &err)
{
    if (flags.positional.size() < 2) {
        err << "error: actions needs <file.air> <activity>\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;
    if (!app->manifest().hasActivity(flags.positional[1])) {
        err << "error: no such activity '" << flags.positional[1]
            << "'\n";
        return 1;
    }
    SierraDetector detector(*app);
    SierraOptions options;
    options.runRefutation = false;
    HarnessAnalysis ha =
        detector.analyzeActivity(flags.positional[1], options);

    out << "actions (" << ha.numActions() << "):\n";
    for (const auto &action : ha.pta->actions.all()) {
        if (action.kind == analysis::ActionKind::HarnessRoot)
            continue;
        out << "  [" << action.id << "] "
            << analysis::actionKindName(action.kind) << " "
            << action.label << " ("
            << analysis::threadAffinityName(action.affinity);
        if (action.messageWhat >= 0)
            out << ", what=" << action.messageWhat;
        if (action.creator > 0)
            out << ", creator=" << action.creator;
        out << ")\n";
    }
    out << "\nHB edges by rule:\n";
    for (auto rule :
         {hb::HbRule::Invocation, hb::HbRule::Lifecycle,
          hb::HbRule::GuiOrder, hb::HbRule::AsyncChain,
          hb::HbRule::IntraProcDom, hb::HbRule::InterProcDom,
          hb::HbRule::InterActionTrans}) {
        out << "  " << hb::hbRuleName(rule) << ": "
            << ha.shbg->numEdgesByRule(rule) << "\n";
    }
    out << "closure: " << ha.shbg->numClosurePairs()
        << " ordered pairs ("
        << static_cast<int>(100 * ha.shbg->orderedFraction() + 0.5)
        << "%)\n";
    return 0;
}

int
cmdHarness(const ParsedFlags &flags, std::ostream &out,
           std::ostream &err)
{
    if (flags.positional.size() < 2) {
        err << "error: harness needs <file.air> <activity>\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;
    if (!app->manifest().hasActivity(flags.positional[1])) {
        err << "error: no such activity '" << flags.positional[1]
            << "'\n";
        return 1;
    }
    SierraDetector detector(*app);
    const air::Klass *harness_cls = app->module().getClass(
        "Harness$" + flags.positional[1]);
    out << air::printKlass(*harness_cls);
    return 0;
}

int
cmdServe(const ParsedFlags &flags, std::ostream &out,
         std::ostream &err)
{
    serve::ServeOptions options;
    options.storeDir = flags.get("--store");
    options.jobs = flags.getInt("--jobs", 0);
    if (flags.has("--socket"))
        return serve::serveSocket(flags.get("--socket"), options, err);
    // stdin/stdout transport: requests arrive on std::cin; `out` is
    // the session's response stream (the tests pass stringstreams).
    serve::serveLoop(std::cin, out, options);
    return 0;
}

int
cmdList(std::ostream &out)
{
    out << "corpus apps (paper Table 2):\n";
    for (const auto &spec : corpus::namedAppSpecs()) {
        out << "  " << spec.name << " (" << spec.activities
            << " activities)\n";
    }
    out << "synthetic apps: fdroid-0 .. fdroid-"
        << corpus::kFdroidAppCount - 1 << "\n";
    out << "race patterns:\n";
    for (const auto &entry : corpus::patternCatalog()) {
        out << "  " << entry.name << " (" << entry.seededTrueRaces
            << " true races, " << entry.seededTraps << " traps)\n";
    }
    return 0;
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
        out << usage();
        return args.empty() ? 2 : 0;
    }
    const std::string &command = args[0];
    ParsedFlags flags = parseFlags(args, 1);
    if (!flags.error.empty()) {
        err << "error: " << flags.error << "\n";
        return 2;
    }
    if (command == "analyze")
        return cmdAnalyze(flags, out, err);
    if (command == "dynamic")
        return cmdDynamic(flags, out, err);
    if (command == "verify")
        return cmdVerify(flags, out, err);
    if (command == "lint")
        return cmdLint(flags, out, err);
    if (command == "dump")
        return cmdDump(flags, out, err);
    if (command == "harness")
        return cmdHarness(flags, out, err);
    if (command == "actions")
        return cmdActions(flags, out, err);
    if (command == "serve")
        return cmdServe(flags, out, err);
    if (command == "list")
        return cmdList(out);
    err << "error: unknown command '" << command
        << "' (try 'sierra help')\n";
    return 2;
}

} // namespace sierra::cli
