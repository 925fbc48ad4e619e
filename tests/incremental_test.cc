/**
 * @file
 * The warm == cold byte-identity contract of incremental re-analysis
 * (docs/CACHING.md): re-submitting an unchanged app reuses every
 * per-harness artifact and reproduces the cold report bytes exactly
 * (which are themselves the golden-snapshot bytes); editing one method
 * body dirties exactly the DepIndex closure of the edit and recomputes
 * only the harnesses whose footprint covers it. The store holds only
 * the kinds the driver reads back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
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

TEST(Incremental, WarmEqualsColdOverGoldenCorpus)
{
    store::Store st; // memory-only
    serve::IncrementalAnalyzer analyzer(st);
    SierraOptions options;
    for (const corpus::NamedAppSpec &spec : corpus::namedAppSpecs()) {
        corpus::BuiltApp cold_app = corpus::buildNamedApp(spec);
        serve::IncrementalResult cold =
            analyzer.analyze(*cold_app.app, options);
        EXPECT_TRUE(cold.firstSubmission) << spec.name;
        EXPECT_EQ(cold.harnessesReused, 0) << spec.name;
        EXPECT_EQ(cold.harnessesComputed, cold.harnessesTotal)
            << spec.name;
        EXPECT_EQ(cold.methodsChanged, cold.methodsTotal) << spec.name;

        // The cold bytes are the pinned golden bytes: serving through
        // the store must not perturb the report-preserving contract.
        EXPECT_EQ(cold.reportText, readFile(goldenPath(spec.name)))
            << spec.name;

        corpus::BuiltApp warm_app = corpus::buildNamedApp(spec);
        serve::IncrementalResult warm =
            analyzer.analyze(*warm_app.app, options);
        EXPECT_FALSE(warm.firstSubmission) << spec.name;
        EXPECT_EQ(warm.methodsChanged, 0) << spec.name;
        EXPECT_FALSE(warm.shapeChanged) << spec.name;
        EXPECT_EQ(warm.harnessesReused, warm.harnessesTotal)
            << spec.name;
        EXPECT_EQ(warm.harnessesComputed, 0) << spec.name;
        EXPECT_EQ(warm.reportText, cold.reportText)
            << "warm report must be byte-identical for " << spec.name;
    }
}

TEST(Incremental, BodyEditDirtiesExactlyTheDepClosure)
{
    store::Store st;
    serve::IncrementalAnalyzer analyzer(st);
    SierraOptions options;

    corpus::BuiltApp first = corpus::buildNamedApp("OpenSudoku");
    const std::string app_name = first.app->name();
    serve::IncrementalResult cold =
        analyzer.analyze(*first.app, options);
    ASSERT_GE(cold.harnessesTotal, 2)
        << "need >= 2 harnesses to show partial reuse";

    // Load the per-harness footprints the cold run persisted and pick
    // an *app* method covered by exactly one harness, so the edit must
    // recompute that harness and reuse every other.
    std::vector<std::vector<std::string>> footprints;
    for (const std::string &key : st.keys("harness")) {
        auto blob = st.get("harness", key);
        ASSERT_TRUE(blob.has_value());
        auto art = parseArtifact(*blob);
        ASSERT_TRUE(art.has_value());
        std::vector<std::string> names;
        for (const auto &[method, hash] : art->footprint)
            names.push_back(method);
        footprints.push_back(std::move(names));
    }
    ASSERT_EQ(static_cast<int>(footprints.size()),
              cold.harnessesTotal);

    auto coveringHarnesses = [&](const std::string &name) {
        int n = 0;
        for (const auto &fp : footprints) {
            if (std::find(fp.begin(), fp.end(), name) != fp.end())
                ++n;
        }
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

    // The expected dirty set is the DepIndex closure the store itself
    // recorded: the edited method plus its transitive summary callers.
    auto deps_blob = st.get("deps", app_name);
    ASSERT_TRUE(deps_blob.has_value());
    store::DepIndex deps = store::DepIndex::parse(*deps_blob);
    std::set<std::string> expected_dirty = deps.dirtyClosure({edited});

    corpus::BuiltApp second = corpus::buildNamedApp("OpenSudoku");
    appendNop(*second.app, edited);
    serve::IncrementalResult warm =
        analyzer.analyze(*second.app, options);

    EXPECT_FALSE(warm.firstSubmission);
    EXPECT_EQ(warm.methodsChanged, 1);
    EXPECT_FALSE(warm.shapeChanged)
        << "instruction lines must not feed the shape hash";
    EXPECT_EQ(warm.dirty, expected_dirty);
    EXPECT_EQ(warm.harnessesComputed, 1)
        << "only the covering harness recomputes";
    EXPECT_EQ(warm.harnessesReused, warm.harnessesTotal - 1);

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
    for (const char *kind : {"methods", "deps", "shape", "harness"}) {
        auto keys = serial_store.keys(kind);
        ASSERT_EQ(keys, parallel_store.keys(kind)) << kind;
        for (const std::string &key : keys) {
            EXPECT_EQ(serial_store.get(kind, key),
                      parallel_store.get(kind, key))
                << kind << "/" << key;
        }
    }
}

TEST(Incremental, StoreHoldsOnlyKindsItReads)
{
    // The store keeps only what a later request reads back: after a
    // cold, a warm and a one-method-edit submission, the disk store
    // holds the version stamp and the four kinds the driver gets.
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
        EXPECT_EQ(edit.methodsChanged, 1);
    }

    std::set<std::string> entries;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        entries.insert(entry.path().filename().string());
    EXPECT_EQ(entries, (std::set<std::string>{"VERSION", "deps", "harness",
                                              "methods", "shape"}));
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
}

} // namespace
} // namespace sierra
