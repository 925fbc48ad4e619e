#include "incremental.hh"

#include <optional>
#include <string_view>

#include "air/method.hh"
#include "util/trace.hh"

namespace sierra::serve {

namespace store = analysis::store;

uint64_t
IncrementalAnalyzer::optionsFingerprint(const SierraOptions &o)
{
    // Only report-affecting toggles participate -- every stage-table
    // toggle plus ICC: two submissions under different toggles must
    // never share artifacts, while jobs and metrics are free to vary
    // (the pipeline is deterministic in both). Refuter budgets ride
    // along for safety -- a budget change can flip a refutation
    // verdict.
    uint64_t bits = o.icc ? 1u : 0u;
    for (const StageDesc &d : stageTable()) {
        if (d.toggle)
            bits = (bits << 1) | (o.*d.toggle ? 1u : 0u);
    }
    uint64_t h = store::mixHash(store::fnv64("sierra-options"), bits);
    h = store::mixHash(
        h, static_cast<uint64_t>(o.refuter.maxActionPairsPerRace));
    h = store::mixHash(h, static_cast<uint64_t>(o.refuter.exec.maxPaths));
    h = store::mixHash(h, static_cast<uint64_t>(o.refuter.exec.maxSteps));
    h = store::mixHash(
        h, static_cast<uint64_t>(o.refuter.exec.maxDepth));
    return h;
}

IncrementalResult
IncrementalAnalyzer::analyze(framework::App &app,
                             const SierraOptions &options)
{
    SIERRA_TRACE_SPAN(span, "stage", "stage.store",
                      util::trace::arg("app", app.name()));

    IncrementalResult res;

    // Harness generation happens at detector construction, and the
    // detector's method-hash table is taken right after it, so it
    // covers the synthetic harness classes too -- they are part of
    // every harness's footprint.
    SierraDetector detector(app, options);
    const store::MethodHashTable &hashes = detector.methodHashes();

    const uint64_t opts_hash = optionsFingerprint(options);
    uint64_t shape;
    {
        SIERRA_TRACE_SPAN(hash_span, "store", "store.hash",
                          util::trace::arg("app", app.name()));
        shape = store::mixHash(store::shapeHash(app), opts_hash);
    }
    res.shapeHash = store::hashHex(shape);
    res.methodsTotal = static_cast<int>(hashes.size());

    // Diff against the previous submission of the same app name: a
    // merge walk over two name-sorted lists.
    const std::string &app_key = app.name();
    std::set<std::string> changed;
    std::optional<std::string_view> prev_deps;
    if (auto prev = _store.get("methods", app_key)) {
        res.firstSubmission = false;
        std::vector<store::MethodIndexRow> prev_index;
        {
            SIERRA_TRACE_SPAN(decode_span, "store", "store.decode",
                              util::trace::arg("kind", "methods"));
            prev_index = store::parseMethodIndex(*prev);
        }
        const std::vector<store::MethodHashEntry> &rows = hashes.entries();
        size_t i = 0, j = 0;
        while (i < rows.size() || j < prev_index.size()) {
            if (j == prev_index.size() ||
                (i < rows.size() &&
                 std::string_view(rows[i].name) < prev_index[j].first)) {
                changed.insert(rows[i++].name); // a new body
            } else if (i == rows.size() ||
                       prev_index[j].first < rows[i].name) {
                // a removed body dirties its callers
                changed.emplace(prev_index[j++].first);
            } else {
                if (rows[i].hash != prev_index[j].second)
                    changed.insert(rows[i].name);
                ++i;
                ++j;
            }
        }
        prev_deps = _store.get("deps", app_key);
        if (auto prev_shape = _store.get("shape", app_key))
            res.shapeChanged = *prev_shape != res.shapeHash;
        else
            res.shapeChanged = true;
    } else {
        res.firstSubmission = true;
        for (const store::MethodHashEntry &row : hashes.entries())
            changed.insert(row.name);
        res.shapeChanged = true;
    }
    res.methodsChanged = static_cast<int>(changed.size());

    // The previous dependency index is decoded only when something
    // needs it: a dirty closure to take, or the state to roll forward.
    // It views the store's "deps" blob, which no put below replaces
    // before it is decoded.
    std::optional<store::DepIndex> deps;
    auto prevDeps = [&]() -> store::DepIndex & {
        if (!deps) {
            SIERRA_TRACE_SPAN(decode_span, "store", "store.decode",
                              util::trace::arg("kind", "deps"));
            deps = prev_deps ? store::DepIndex::parse(*prev_deps)
                             : store::DepIndex();
        }
        return *deps;
    };
    if (!changed.empty())
        res.dirty = prevDeps().dirtyClosure(changed);

    // Per-harness reuse. The artifact key folds the activity into the
    // shape+options hash; the stored footprint then proves the
    // artifact is still valid under the *current* method bodies.
    store::DepIndex new_deps;
    int hits = 0, misses = 0;
    HarnessReuse reuse;
    reuse.tryLoad = [&](const harness::HarnessPlan &plan,
                        HarnessArtifact &out) {
        const std::string key = store::hashHex(store::mixHash(
            shape, store::fnv64(plan.activityClass)));
        auto blob = _store.get("harness", key);
        if (!blob)
            return false;
        std::optional<HarnessArtifact> parsed;
        {
            SIERRA_TRACE_SPAN(decode_span, "store", "store.decode",
                              util::trace::arg("kind", "harness"));
            parsed = parseArtifact(*blob);
        }
        if (!parsed || parsed->activity != plan.activityClass)
            return false;
        for (const auto &[method, hash] : parsed->footprint) {
            const store::MethodHashEntry *row = hashes.find(method);
            if (!row || row->hash != hash)
                return false; // a reachable body changed: recompute
        }
        out = std::move(*parsed);
        ++hits;
        return true;
    };
    reuse.onComputed = [&](const harness::HarnessPlan &plan,
                           const HarnessAnalysis &ha,
                           const HarnessArtifact &art) {
        ++misses;
        const std::string key = store::hashHex(store::mixHash(
            shape, store::fnv64(plan.activityClass)));
        _store.put("harness", key, serializeArtifact(art));
        // The IFDS summaries' callee lists feed the dependency index.
        if (ha.inter) {
            for (const auto &sum : ha.inter->exportSummaries()) {
                for (const std::string &callee : sum.callees)
                    new_deps.addEdge(sum.method, callee);
            }
        }
    };

    res.report = detector.analyze(options, &reuse);
    res.reportText = formatReport(res.report, 50, /*with_times=*/false);
    res.harnessesTotal = res.report.harnesses;
    res.harnessesReused = hits;
    res.harnessesComputed = misses;

    // Roll the app's incremental state forward: union the dependency
    // edges (reused harnesses contributed none, but their old edges
    // are still valid -- their methods did not change), then prune to
    // methods that still exist. A fully clean re-submission (nothing
    // changed, nothing computed) leaves the state bit-identical, so
    // skip the decode and the re-serialization entirely.
    const bool state_dirty = res.firstSubmission || !changed.empty() ||
                             new_deps.numEdges() > 0 ||
                             res.shapeChanged;
    if (state_dirty) {
        store::DepIndex &rolled = prevDeps();
        rolled.merge(new_deps);
        std::set<std::string> keep;
        for (const store::MethodHashEntry &row : hashes.entries())
            keep.insert(keep.end(), row.name);
        rolled.prune(keep);
        _store.put("methods", app_key,
                   store::serializeMethodIndex(hashes.entries()));
        _store.put("deps", app_key, rolled.serialize());
        _store.put("shape", app_key, res.shapeHash);
    }

    if (_metrics) {
        _metrics->add("store.harness_hits", hits);
        _metrics->add("store.harness_misses", misses);
        _metrics->add("store.methods_changed", res.methodsChanged);
        _metrics->add("store.dirty_methods",
                      static_cast<int64_t>(res.dirty.size()));
    }
    return res;
}

} // namespace sierra::serve
