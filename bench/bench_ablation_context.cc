/**
 * @file
 * Ablation: context policies for the pointer analysis (paper Section
 * 3.3 / Table 3 columns 6-7).
 *
 * Sweeps insensitive / k-cfa / k-obj / hybrid / action-sensitive (and
 * k = 1, 2) over a fixed app sample and reports racy pairs and scored
 * false positives before refutation. Expected shape: action-sensitive
 * contexts produce the fewest racy pairs; the alias-trap pattern is a
 * false racy pair under every non-AS policy. Exits 1 unless
 * action-sensitive k = 1 has no more racy pairs and FPs than any other
 * row, and strictly fewer of both than every other k = 1 row.
 */

#include "bench_util.hh"

int
main()
{
    using namespace sierra;
    using analysis::ContextPolicy;
    bench::header("Ablation: context policy (racy pairs, FPs; "
                  "no refutation)");

    const char *apps[] = {"OpenSudoku", "TippyTipper", "FBReader",
                          "NotePad", "Beem"};
    struct PolicyCase {
        const char *name;
        ContextPolicy policy;
        int k;
    };
    const PolicyCase cases[] = {
        {"insensitive", ContextPolicy::Insensitive, 1},
        {"1-cfa", ContextPolicy::KCfa, 1},
        {"2-cfa", ContextPolicy::KCfa, 2},
        {"1-obj", ContextPolicy::KObj, 1},
        {"2-obj", ContextPolicy::KObj, 2},
        {"hybrid k=1", ContextPolicy::Hybrid, 1},
        {"hybrid k=2", ContextPolicy::Hybrid, 2},
        {"action-sens k=1", ContextPolicy::ActionSensitive, 1},
        {"action-sens k=2", ContextPolicy::ActionSensitive, 2},
    };

    std::printf("%-16s %10s %10s %10s %10s\n", "policy", "racyPairs",
                "survFP", "nodes", "time ms");
    struct Row {
        const PolicyCase *pc;
        int64_t racy;
        int fp;
    };
    std::vector<Row> rows;
    for (const auto &pc : cases) {
        int64_t racy = 0;
        int fp = 0;
        int64_t nodes = 0;
        double ms = 0;
        for (const char *app : apps) {
            corpus::BuiltApp built = corpus::buildNamedApp(app);
            SierraDetector detector(*built.app);
            SierraOptions opts;
            opts.pta.ctx.policy = pc.policy;
            opts.pta.ctx.k = pc.k;
            opts.runRefutation = false;
            AppReport report = detector.analyze(opts);
            racy += report.racyPairs;
            fp += corpus::scoreReport(report, built.truth)
                      .falsePositives;
            for (const auto &ha : report.perHarness)
                nodes += ha.pta->cg.numNodes();
            ms += report.times.total * 1e3;
        }
        std::printf("%-16s %10lld %10d %10lld %10.2f\n", pc.name,
                    static_cast<long long>(racy), fp,
                    static_cast<long long>(nodes), ms);
        rows.push_back({&pc, racy, fp});
    }
    std::printf("\nExpected shape: action-sensitive < hybrid <= "
                "obj/cfa <= insensitive in racy\npairs; the Buffer$ "
                "alias trap contributes FPs to every non-AS row "
                "(paper:\n431 -> 80.5 racy pairs, a ~5x reduction).\n");

    const Row *as1 = nullptr;
    for (const Row &r : rows) {
        if (r.pc->policy == ContextPolicy::ActionSensitive && r.pc->k == 1)
            as1 = &r;
    }
    bool ok = true;
    for (const Row &r : rows) {
        if (&r == as1)
            continue;
        const bool strict = r.pc->k == 1;
        if (strict ? (as1->racy < r.racy && as1->fp < r.fp)
                   : (as1->racy <= r.racy && as1->fp <= r.fp))
            continue;
        std::fprintf(stderr,
                     "MISMATCH: action-sens k=1 (%lld/%d) is not %s %s "
                     "(%lld/%d)\n",
                     static_cast<long long>(as1->racy), as1->fp,
                     strict ? "below" : "at or below", r.pc->name,
                     static_cast<long long>(r.racy), r.fp);
        ok = false;
    }
    return ok ? 0 : 1;
}
