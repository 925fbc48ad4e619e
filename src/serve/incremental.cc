#include "incremental.hh"

#include <optional>

#include "util/trace.hh"

namespace sierra::serve {

namespace store = analysis::store;

namespace {

/** Whether every footprint row of `art` still hashes as in `hashes`:
 *  a reachable body that changed (or vanished) forces a recompute. */
bool
footprintHolds(const HarnessArtifact &art,
               const store::MethodHashTable &hashes)
{
    for (const auto &[method, hash] : art.footprint) {
        const store::MethodHashEntry *row = hashes.find(method);
        if (!row || row->hash != hash)
            return false;
    }
    return true;
}

} // namespace

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
    for (bool b : {o.pta.indexSensitiveArrays, o.exec.useNodeCache})
        bits = (bits << 1) | (b ? 1u : 0u);
    uint64_t h = store::mixHash(store::hashBytes("sierra-options"), bits);
    for (int v : {static_cast<int>(o.pta.ctx.policy), o.pta.ctx.k,
                  o.exec.maxPaths, o.exec.maxSteps, o.exec.maxDepth,
                  o.exec.maxCallDepth})
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

    // Load: the artifact key folds the activity into the shape+options
    // hash; the stored footprint then proves the artifact is still
    // valid under the *current* method bodies. A valid artifact fills
    // its plan's slot; every other slot stays empty and is computed.
    const std::vector<harness::HarnessPlan> &plans = detector.plans();
    std::vector<uint64_t> keys;
    std::vector<std::optional<HarnessArtifact>> slots(plans.size());
    std::vector<char> loaded(plans.size(), 0);
    for (size_t i = 0; i < plans.size(); ++i) {
        const std::string &activity = plans[i].activityClass;
        keys.push_back(store::mixHash(shape, store::hashBytes(activity)));
        auto blob = _store.get(keys[i]);
        if (!blob)
            continue;
        std::optional<HarnessArtifact> art;
        {
            SIERRA_TRACE_SPAN(decode_span, "store", "store.decode",
                              util::trace::arg("activity", activity));
            art = parseArtifact(*blob);
        }
        if (art && art->activity == activity &&
            footprintHolds(*art, hashes)) {
            slots[i] = std::move(art);
            loaded[i] = 1;
            ++res.harnessesReused;
        }
    }

    res.report = detector.analyze(options, slots);

    // Store: persist every artifact the run computed, in plan order.
    for (size_t i = 0; i < slots.size(); ++i) {
        if (loaded[i])
            continue;
        ++res.harnessesComputed;
        _store.put(keys[i], serializeArtifact(*slots[i]));
    }
    res.reportText = formatReport(res.report, 50, /*with_times=*/false);
    res.harnessesTotal = res.report.harnesses;

    if (_metrics) {
        _metrics->add("store.harness_hits", res.harnessesReused);
        _metrics->add("store.harness_misses", res.harnessesComputed);
    }
    return res;
}

} // namespace sierra::serve
