/**
 * @file
 * The warm == cold byte-identity contract of incremental re-analysis
 * (docs/CACHING.md): re-submitting an unchanged app reuses every
 * per-harness artifact and reproduces the cold report bytes exactly
 * (which are themselves the golden-snapshot bytes); editing one method
 * body recomputes exactly the harnesses whose footprint lists it; a
 * change to any report-affecting option reuses nothing. The store
 * holds only the harness artifacts the analyzer reads back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include <unistd.h>

#include "analysis/store.hh"
#include "corpus/named_apps.hh"
#include "serve/incremental.hh"
#include "sierra/artifact.hh"
#include "sierra/detector.hh"

#ifndef SIERRA_GOLDEN_DIR
#define SIERRA_GOLDEN_DIR "tests/golden"
#endif

namespace sierra {
namespace {

namespace store = analysis::store;
namespace fs = std::filesystem;

std::string
goldenPath(const std::string &app_name)
{
    std::string fname;
    for (char c : app_name)
        fname += (c == ' ' || c == '/') ? '_' : c;
    return std::string(SIERRA_GOLDEN_DIR) + "/" + fname +
           ".report.txt";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Append a dead no-op to the named method's body: the canonical
 *  "benign body edit" of docs/CACHING.md's walkthrough. */
void
appendNop(framework::App &app, const std::string &qualified_name)
{
    for (air::Klass *klass : app.module().classes()) {
        for (const auto &m : klass->methods()) {
            if (m->qualifiedName() == qualified_name) {
                m->instrs().push_back(air::Instruction{});
                return;
            }
        }
    }
    FAIL() << "method not found: " << qualified_name;
}

/** One report-affecting option outside the stage table, set off its
 *  default. */
struct OptionChange {
    const char *name;
    std::function<void(SierraOptions &)> apply;
};

const std::vector<OptionChange> &
optionChanges()
{
    static const std::vector<OptionChange> changes = {
        {"pta.ctx.policy",
         [](SierraOptions &o) {
             o.pta.ctx.policy = analysis::ContextPolicy::Insensitive;
         }},
        {"pta.ctx.k", [](SierraOptions &o) { o.pta.ctx.k = 2; }},
        {"pta.indexSensitiveArrays",
         [](SierraOptions &o) { o.pta.indexSensitiveArrays = true; }},
        {"refuter.exec.useNodeCache",
         [](SierraOptions &o) { o.refuter.exec.useNodeCache = true; }},
        {"refuter.exec.maxCallDepth",
         [](SierraOptions &o) { o.refuter.exec.maxCallDepth = 0; }},
    };
    return changes;
}

TEST(Incremental, WarmEqualsColdOverGoldenCorpus)
{
    store::Store st; // memory-only
    serve::IncrementalAnalyzer analyzer(st);
    SierraOptions options;
    for (const corpus::NamedAppSpec &spec : corpus::namedAppSpecs()) {
        corpus::BuiltApp cold_app = corpus::buildNamedApp(spec);
        serve::IncrementalResult cold =
            analyzer.analyze(*cold_app.app, options);
        EXPECT_EQ(cold.harnessesReused, 0) << spec.name;
        EXPECT_EQ(cold.harnessesComputed, cold.harnessesTotal)
            << spec.name;

        // The cold bytes are the pinned golden bytes: serving through
        // the store must not perturb the report-preserving contract.
        EXPECT_EQ(cold.reportText, readFile(goldenPath(spec.name)))
            << spec.name;

        corpus::BuiltApp warm_app = corpus::buildNamedApp(spec);
        serve::IncrementalResult warm =
            analyzer.analyze(*warm_app.app, options);
        EXPECT_EQ(warm.shapeHash, cold.shapeHash) << spec.name;
        EXPECT_EQ(warm.methodsTotal, cold.methodsTotal) << spec.name;
        EXPECT_EQ(warm.harnessesReused, warm.harnessesTotal)
            << spec.name;
        EXPECT_EQ(warm.harnessesComputed, 0) << spec.name;
        EXPECT_EQ(warm.reportText, cold.reportText)
            << "warm report must be byte-identical for " << spec.name;
    }
}

TEST(Incremental, BodyEditRecomputesExactlyTheCoveringHarnesses)
{
    store::Store st;
    serve::IncrementalAnalyzer analyzer(st);
    SierraOptions options;

    corpus::BuiltApp first = corpus::buildNamedApp("OpenSudoku");
    serve::IncrementalResult cold =
        analyzer.analyze(*first.app, options);
    ASSERT_GE(cold.harnessesTotal, 2)
        << "need >= 2 harnesses to show partial reuse";

    // Load the per-harness artifacts the cold run persisted and pick an
    // *app* method covered by exactly one harness, so the edit must
    // recompute that harness and reuse every other.
    std::map<std::string, std::string> cold_blobs;
    std::map<std::string, std::vector<std::string>> footprints;
    for (const std::string &key : st.keys("harness")) {
        auto blob = st.get("harness", key);
        ASSERT_TRUE(blob.has_value());
        auto art = parseArtifact(*blob);
        ASSERT_TRUE(art.has_value());
        cold_blobs[key] = std::string(*blob);
        for (const auto &[method, hash] : art->footprint)
            footprints[key].push_back(method);
    }
    ASSERT_EQ(static_cast<int>(cold_blobs.size()), cold.harnessesTotal);

    auto covers = [&](const std::string &key, const std::string &name) {
        const std::vector<std::string> &fp = footprints[key];
        return std::find(fp.begin(), fp.end(), name) != fp.end();
    };
    auto coveringHarnesses = [&](const std::string &name) {
        int n = 0;
        for (const auto &[key, blob] : cold_blobs)
            n += covers(key, name) ? 1 : 0;
        return n;
    };
    std::string edited;
    {
        corpus::BuiltApp probe = corpus::buildNamedApp("OpenSudoku");
        for (air::Klass *klass : probe.app->module().classes()) {
            if (klass->isFramework() || klass->isSynthetic())
                continue;
            for (const auto &m : klass->methods()) {
                if (m->hasBody() &&
                    coveringHarnesses(m->qualifiedName()) == 1) {
                    edited = m->qualifiedName();
                    break;
                }
            }
            if (!edited.empty())
                break;
        }
    }
    ASSERT_FALSE(edited.empty())
        << "no app method covered by exactly one harness";

    corpus::BuiltApp second = corpus::buildNamedApp("OpenSudoku");
    appendNop(*second.app, edited);
    serve::IncrementalResult warm =
        analyzer.analyze(*second.app, options);

    EXPECT_EQ(warm.shapeHash, cold.shapeHash)
        << "instruction lines must not feed the shape hash";
    EXPECT_EQ(warm.harnessesComputed, 1)
        << "only the covering harness recomputes";
    EXPECT_EQ(warm.harnessesReused, warm.harnessesTotal - 1);
    // Harness keys do not see bodies, so the recomputed artifact
    // replaced the covering harness's blob under the same key, and
    // every other blob is untouched.
    ASSERT_EQ(st.keys("harness").size(), cold_blobs.size());
    for (const auto &[key, blob] : cold_blobs) {
        auto now = st.get("harness", key);
        ASSERT_TRUE(now.has_value()) << key;
        if (covers(key, edited))
            EXPECT_NE(*now, blob) << "covering harness " << key;
        else
            EXPECT_EQ(*now, blob) << "untouched harness " << key;
    }

    // Byte-identity under the edit: the warm report equals a cold
    // fresh-store analysis of an identically edited app.
    store::Store fresh;
    serve::IncrementalAnalyzer cold_analyzer(fresh);
    corpus::BuiltApp third = corpus::buildNamedApp("OpenSudoku");
    appendNop(*third.app, edited);
    serve::IncrementalResult edited_cold =
        cold_analyzer.analyze(*third.app, options);
    EXPECT_EQ(warm.reportText, edited_cold.reportText);
}

TEST(Incremental, StoreContentsIndependentOfJobsCount)
{
    // Same app at different jobs counts must write byte-identical
    // store blobs under identical keys: keys derive from content, and
    // blobs are serialized from deterministically merged results.
    auto run = [](int jobs, store::Store &st) {
        serve::IncrementalAnalyzer analyzer(st);
        SierraOptions options;
        options.jobs = jobs;
        corpus::BuiltApp built = corpus::buildNamedApp("OpenSudoku");
        return analyzer.analyze(*built.app, options);
    };
    store::Store serial_store, parallel_store;
    serve::IncrementalResult serial = run(1, serial_store);
    serve::IncrementalResult parallel = run(4, parallel_store);

    EXPECT_EQ(serial.reportText, parallel.reportText);
    EXPECT_EQ(serial.shapeHash, parallel.shapeHash)
        << "jobs must not feed the options fingerprint";
    auto keys = serial_store.keys("harness");
    ASSERT_EQ(keys, parallel_store.keys("harness"));
    for (const std::string &key : keys) {
        EXPECT_EQ(serial_store.get("harness", key),
                  parallel_store.get("harness", key))
            << key;
    }
}

TEST(Incremental, StoreHoldsOnlyKindsItReads)
{
    // The store keeps only what a later request reads back: after a
    // cold, a warm and a one-method-edit submission, the disk store
    // holds the version stamp and the harness artifacts.
    const fs::path dir =
        fs::temp_directory_path() /
        ("sierra_incremental_test_" + std::to_string(::getpid()));
    std::error_code ec;
    fs::remove_all(dir, ec);
    {
        store::Store st(dir.string());
        serve::IncrementalAnalyzer analyzer(st);
        SierraOptions options;

        corpus::BuiltApp cold_app = corpus::buildNamedApp("OpenSudoku");
        serve::IncrementalResult cold =
            analyzer.analyze(*cold_app.app, options);
        EXPECT_GT(cold.harnessesComputed, 0);

        corpus::BuiltApp warm_app = corpus::buildNamedApp("OpenSudoku");
        serve::IncrementalResult warm =
            analyzer.analyze(*warm_app.app, options);
        EXPECT_EQ(warm.harnessesComputed, 0);

        corpus::BuiltApp edit_app = corpus::buildNamedApp("OpenSudoku");
        std::string edited;
        for (air::Klass *klass : edit_app.app->module().classes()) {
            if (klass->isFramework() || klass->isSynthetic())
                continue;
            for (const auto &m : klass->methods()) {
                if (m->hasBody() && edited.empty())
                    edited = m->qualifiedName();
            }
        }
        ASSERT_FALSE(edited.empty());
        appendNop(*edit_app.app, edited);
        serve::IncrementalResult edit =
            analyzer.analyze(*edit_app.app, options);
        EXPECT_EQ(edit.harnessesReused + edit.harnessesComputed,
                  edit.harnessesTotal);
    }

    std::set<std::string> entries;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        entries.insert(entry.path().filename().string());
    EXPECT_EQ(entries, (std::set<std::string>{"VERSION", "harness"}));
    fs::remove_all(dir, ec);
}

TEST(Incremental, OptionsFingerprintSeparatesAblations)
{
    SierraOptions base;
    uint64_t fp = serve::IncrementalAnalyzer::optionsFingerprint(base);

    SierraOptions jobs_only = base;
    jobs_only.jobs = 8;
    EXPECT_EQ(serve::IncrementalAnalyzer::optionsFingerprint(jobs_only),
              fp)
        << "jobs never changes reports, so it must not re-key";

    SierraOptions no_ifds = base;
    no_ifds.ifds = false;
    SierraOptions no_lockset = base;
    no_lockset.locksetRefutation = false;
    SierraOptions small_budget = base;
    small_budget.refuter.exec.maxPaths /= 2;
    EXPECT_NE(serve::IncrementalAnalyzer::optionsFingerprint(no_ifds),
              fp);
    EXPECT_NE(
        serve::IncrementalAnalyzer::optionsFingerprint(no_lockset),
        fp);
    EXPECT_NE(
        serve::IncrementalAnalyzer::optionsFingerprint(small_budget),
        fp);
    // Distinct ablations get distinct harness keys, so a run with
    // ablated options can never satisfy a default-options lookup.
    EXPECT_NE(serve::IncrementalAnalyzer::optionsFingerprint(no_ifds),
              serve::IncrementalAnalyzer::optionsFingerprint(
                  no_lockset));

    // The same holds for every switchable stage-table row (and ICC):
    // each single-toggle ablation re-keys, and no two collide.
    std::set<uint64_t> seen = {fp};
    for (const StageDesc &d : stageTable()) {
        if (!d.toggle)
            continue;
        SierraOptions off = base;
        off.*d.toggle = false;
        EXPECT_TRUE(
            seen.insert(serve::IncrementalAnalyzer::optionsFingerprint(off))
                .second)
            << d.flag << " shares a fingerprint";
    }
    SierraOptions no_icc = base;
    no_icc.icc = false;
    EXPECT_TRUE(
        seen.insert(serve::IncrementalAnalyzer::optionsFingerprint(no_icc))
            .second)
        << "--no-icc shares a fingerprint";
    // And for the report-affecting options outside the table.
    for (const OptionChange &change : optionChanges()) {
        SierraOptions changed = base;
        change.apply(changed);
        EXPECT_TRUE(
            seen.insert(
                    serve::IncrementalAnalyzer::optionsFingerprint(changed))
                .second)
            << change.name << " shares a fingerprint";
    }
}

TEST(Incremental, ChangedOptionReusesNothing)
{
    // Submit with defaults, then resubmit the same app to the same
    // store with one option changed: nothing may be reused, and the
    // report must equal a fresh-store analysis under that option.
    int reports_changed = 0;
    for (const OptionChange &change : optionChanges()) {
        store::Store st;
        serve::IncrementalAnalyzer analyzer(st);
        SierraOptions defaults;
        SierraOptions changed = defaults;
        change.apply(changed);

        corpus::BuiltApp first = corpus::buildNamedApp("K-9 Mail");
        serve::IncrementalResult base = analyzer.analyze(*first.app, defaults);
        corpus::BuiltApp second = corpus::buildNamedApp("K-9 Mail");
        serve::IncrementalResult warm = analyzer.analyze(*second.app, changed);

        store::Store fresh;
        serve::IncrementalAnalyzer cold_analyzer(fresh);
        corpus::BuiltApp third = corpus::buildNamedApp("K-9 Mail");
        serve::IncrementalResult cold =
            cold_analyzer.analyze(*third.app, changed);

        EXPECT_EQ(warm.harnessesReused, 0) << change.name;
        EXPECT_EQ(warm.harnessesComputed, warm.harnessesTotal)
            << change.name;
        EXPECT_EQ(warm.reportText, cold.reportText) << change.name;
        reports_changed += cold.reportText != base.reportText ? 1 : 0;
    }
    // The check bites: on this app, the context policy, index
    // sensitivity and the call depth change the report.
    EXPECT_GE(reports_changed, 3);
}

} // namespace
} // namespace sierra
