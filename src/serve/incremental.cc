#include "incremental.hh"

#include <map>

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

    // Harness generation happens at detector construction, so hashing
    // after it covers the synthetic harness classes too -- they are
    // part of every harness's footprint.
    SierraDetector detector(app, options);

    const uint64_t opts_hash = optionsFingerprint(options);
    const std::map<std::string, uint64_t> hashes =
        store::hashMethods(app);
    const uint64_t shape = store::mixHash(store::shapeHash(app),
                                          opts_hash);
    res.shapeHash = store::hashHex(shape);
    res.methodsTotal = static_cast<int>(hashes.size());

    // Diff against the previous submission of the same app name.
    const std::string app_key = app.name();
    std::set<std::string> changed;
    store::DepIndex deps;
    if (auto prev = _store.get("methods", app_key)) {
        res.firstSubmission = false;
        const std::map<std::string, uint64_t> prev_index =
            store::parseMethodIndex(*prev);
        for (const auto &[name, hash] : hashes) {
            auto it = prev_index.find(name);
            if (it == prev_index.end() || it->second != hash)
                changed.insert(name);
        }
        for (const auto &[name, hash] : prev_index) {
            if (!hashes.count(name))
                changed.insert(name); // removed bodies dirty callers
        }
        if (auto prev_deps = _store.get("deps", app_key))
            deps = store::DepIndex::parse(*prev_deps);
        if (auto prev_shape = _store.get("shape", app_key))
            res.shapeChanged = *prev_shape != res.shapeHash;
        else
            res.shapeChanged = true;
    } else {
        res.firstSubmission = true;
        for (const auto &[name, hash] : hashes)
            changed.insert(name);
        res.shapeChanged = true;
    }
    res.methodsChanged = static_cast<int>(changed.size());
    res.dirty = deps.dirtyClosure(changed);

    // Per-harness reuse. The artifact key folds the activity into the
    // shape+options hash; the stored footprint then proves the
    // artifact is still valid under the *current* method bodies.
    store::DepIndex new_deps;
    int hits = 0, misses = 0;
    int64_t ifds_saved = 0;
    HarnessReuse reuse;
    reuse.tryLoad = [&](const harness::HarnessPlan &plan,
                        HarnessArtifact &out) {
        const std::string key = store::hashHex(store::mixHash(
            shape, store::fnv64(plan.activityClass)));
        auto blob = _store.get("harness", key);
        if (!blob)
            return false;
        auto parsed = parseArtifact(*blob);
        if (!parsed || parsed->activity != plan.activityClass)
            return false;
        for (const auto &[method, hash] : parsed->footprint) {
            auto it = hashes.find(method);
            if (it == hashes.end() || it->second != hash)
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

        // Per-method facts under content-hash keys: IFDS summaries
        // feed the dependency index; SCCP facts and CFG digests are
        // stored on first sight of a body (their key already encodes
        // the body, so a hit can never be stale).
        if (ha.inter) {
            for (const auto &sum : ha.inter->exportSummaries()) {
                for (const std::string &callee : sum.callees)
                    new_deps.addEdge(sum.method, callee);
                auto it = hashes.find(sum.method);
                if (it == hashes.end())
                    continue;
                const std::string mkey = store::hashHex(it->second);
                if (!_store.get("ifds", mkey)) {
                    _store.put("ifds", mkey,
                               analysis::serializeSummaries({sum}));
                    ++ifds_saved;
                }
            }
        }
        // Refutation verdicts: one row per race site pair. These are
        // the persistable face of the symbolic stage -- the in-memory
        // refuted-node cache holds process-local node ids and is
        // deliberately not serialized (docs/CACHING.md explains why).
        std::string verdicts;
        for (const ArtifactRace &r : art.races) {
            verdicts += r.m1 + "\t" + std::to_string(r.i1) + "\t" +
                        r.m2 + "\t" + std::to_string(r.i2) + "\t" +
                        r.key + "\t" + (r.refuted ? "1" : "0") + "\n";
        }
        _store.put("refute", key, verdicts);
    };

    res.report = detector.analyze(options, &reuse);
    res.reportText = formatReport(res.report, 50, /*with_times=*/false);
    res.harnessesTotal = res.report.harnesses;
    res.harnessesReused = hits;
    res.harnessesComputed = misses;

    // Persist per-body facts for every *changed* method (cheap, local
    // solves) so diagnostics can inspect them without a pipeline run.
    if (!changed.empty()) {
        std::map<std::string, const air::Method *> by_name;
        for (const air::Klass *klass : app.module().classes()) {
            if (klass->isFramework())
                continue;
            for (const auto &m : klass->methods()) {
                if (m->hasBody())
                    by_name.emplace(m->qualifiedName(), m.get());
            }
        }
        for (const std::string &name : changed) {
            auto hit = hashes.find(name);
            auto mit = by_name.find(name);
            if (hit == hashes.end() || mit == by_name.end())
                continue;
            const std::string mkey = store::hashHex(hit->second);
            if (_store.get("cfg", mkey))
                continue;
            _store.put("cfg", mkey, store::cfgDigest(*mit->second));
            _store.put("sccp", mkey,
                       store::sccpFactsBlob(*mit->second));
        }
    }

    // Roll the app's incremental state forward: union the dependency
    // edges (reused harnesses contributed none, but their old edges
    // are still valid -- their methods did not change), then prune to
    // methods that still exist. A fully clean re-submission (nothing
    // changed, nothing computed) leaves the state bit-identical, so
    // skip the re-serialization entirely.
    const bool state_dirty = res.firstSubmission || !changed.empty() ||
                             new_deps.numEdges() > 0 ||
                             res.shapeChanged;
    if (state_dirty) {
        deps.merge(new_deps);
        std::set<std::string> keep;
        for (const auto &[name, hash] : hashes)
            keep.insert(name);
        deps.prune(keep);
        _store.put("methods", app_key,
                   store::serializeMethodIndex(hashes));
        _store.put("deps", app_key, deps.serialize());
        _store.put("shape", app_key, res.shapeHash);
    }

    if (_metrics) {
        _metrics->add("store.harness_hits", hits);
        _metrics->add("store.harness_misses", misses);
        _metrics->add("store.methods_changed", res.methodsChanged);
        _metrics->add("store.dirty_methods",
                      static_cast<int64_t>(res.dirty.size()));
        _metrics->add("store.ifds_saved", ifds_saved);
    }
    return res;
}

} // namespace sierra::serve
