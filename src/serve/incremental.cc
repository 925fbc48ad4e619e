#include "incremental.hh"

#include <optional>

#include "util/trace.hh"

namespace sierra::serve {

namespace store = analysis::store;

uint64_t
IncrementalAnalyzer::optionsFingerprint(const SierraOptions &o)
{
    // Every option that can change a report byte participates: each
    // stage-table toggle plus ICC, the points-to context settings and
    // array index sensitivity, and the refuter's node cache, call depth
    // and budgets (a budget change can flip a refutation verdict). Two
    // submissions under different such options never share artifacts,
    // while jobs and metrics are free to vary (the pipeline is
    // deterministic in both).
    uint64_t bits = o.icc ? 1u : 0u;
    for (const StageDesc &d : stageTable()) {
        if (d.toggle)
            bits = (bits << 1) | (o.*d.toggle ? 1u : 0u);
    }
    for (bool b : {o.pta.indexSensitiveArrays, o.refuter.exec.useNodeCache})
        bits = (bits << 1) | (b ? 1u : 0u);
    uint64_t h = store::mixHash(store::fnv64("sierra-options"), bits);
    for (int v : {static_cast<int>(o.pta.ctx.policy), o.pta.ctx.k,
                  o.refuter.exec.maxPaths, o.refuter.exec.maxSteps,
                  o.refuter.exec.maxDepth, o.refuter.exec.maxCallDepth})
        h = store::mixHash(h, static_cast<uint64_t>(v));
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

    uint64_t shape;
    {
        SIERRA_TRACE_SPAN(hash_span, "store", "store.hash",
                          util::trace::arg("app", app.name()));
        shape = store::mixHash(store::shapeHash(app),
                               optionsFingerprint(options));
    }
    res.shapeHash = store::hashHex(shape);
    res.methodsTotal = static_cast<int>(hashes.size());

    // Per-harness reuse. The artifact key folds the activity into the
    // shape+options hash; the stored footprint then proves the
    // artifact is still valid under the *current* method bodies.
    auto harnessKey = [&](const harness::HarnessPlan &plan) {
        return store::hashHex(
            store::mixHash(shape, store::fnv64(plan.activityClass)));
    };
    HarnessReuse reuse;
    reuse.tryLoad = [&](const harness::HarnessPlan &plan,
                        HarnessArtifact &out) {
        auto blob = _store.get("harness", harnessKey(plan));
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
        ++res.harnessesReused;
        return true;
    };
    reuse.onComputed = [&](const harness::HarnessPlan &plan,
                           const HarnessArtifact &art) {
        ++res.harnessesComputed;
        _store.put("harness", harnessKey(plan), serializeArtifact(art));
    };

    res.report = detector.analyze(options, &reuse);
    res.reportText = formatReport(res.report, 50, /*with_times=*/false);
    res.harnessesTotal = res.report.harnesses;

    if (_metrics) {
        _metrics->add("store.harness_hits", res.harnessesReused);
        _metrics->add("store.harness_misses", res.harnessesComputed);
    }
    return res;
}

} // namespace sierra::serve
