#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload corpus-batch --seed 1 --seconds 30 --trace 0

builds perfbench_driver from source (into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench), runs one workload in one process and
prints one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
(and a per-layer self-time table on standard error). The exit code is
nonzero when any operation failed its correctness check.

Other modes:

  --record FILE      also append {"workload", "seed", "trace", "result"}
                     to FILE (JSON lines), the input of --compare
  --check-repeat     run every workload's warm-up pass twice untraced
                     and once traced; every counter-type per-layer
                     metric must repeat exactly
  --compare PARENT CHANGE
                     one row per workload x end-to-end metric: both
                     sides' median and quartiles, and a verdict
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

WORKLOADS = ("corpus-batch", "heavy-app")
DRIVER_TIMEOUT_S = 170
# Best times kept per run: a p95 has ten values beyond it.
TAIL_VALUES = 200
# --compare gives no improved or regressed verdict on fewer pairs
# (choosing-metrics section 8).
MIN_PAIRS = 10

# Per-layer metrics that are counts made by the program: a function of
# the workload's inputs alone, so they must repeat exactly.
COUNTER_METRICS = (
    "pta.instr_visits", "pta.delta_props", "arena.bytes_allocated",
    "shbg.closure_pairs", "race.access_pairs_considered",
    "race.prefilter_skip_ratio", "ifds.summary_reuse_ratio",
    "ifds.budget_exhausted", "symbolic.queries",
    "symbolic.states_expanded", "symbolic.cache_hit_ratio",
    "symbolic.refuted_per_query", "symbolic.budget_exhausted",
    "store.harness_hit_ratio", "store.dirty_methods",
)

# Trace span -> layer, for the self-time table. Spans not named here
# (worker and task glue) fall under "other".
SPAN_LAYER = {
    "bench.parse": "framework (parse)",
    "bench.harness": "harness",
    "bench.analyze": "sierra (pipeline glue)",
    "analyze": "sierra (pipeline glue)",
    "merge": "sierra (pipeline glue)",
    "harness": "sierra (pipeline glue)",
    "bench.report": "sierra (report)",
    "stage.cg_pa": "analysis (cg+pa)",
    "pta.solve": "analysis (cg+pa)",
    "stage.hbg": "hb",
    "shbg.build": "hb",
    "stage.racy.extract": "race",
    "stage.racy.pairs": "race",
    "stage.dataflow": "analysis (dataflow)",
    "stage.escape": "analysis (escape)",
    "stage.lockset": "analysis (lockset)",
    "stage.deadlock": "analysis (deadlock)",
    "stage.enablement": "analysis (enablement)",
    "stage.ifds": "analysis (ifds)",
    "stage.nullflow": "analysis (nullflow)",
    "stage.refutation": "symbolic",
    "refute.shard": "symbolic",
    "stage.store": "analysis/store + serve/incremental",
    "serve.cold": "serve (protocol + parse)",
    "serve.warm": "serve (protocol + parse)",
    "serve.edit": "serve (protocol + parse)",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no library sources under ./src: run from a checkout root")
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace):
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out on " + workload)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("driver exited %d on %s" % (proc.returncode, workload))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Harrell-Davis quantile estimate: a mean of the order statistics
    weighted by the Beta(q(n+1), (1-q)(n+1)) density (here at the
    midpoint of each rank's interval). Where the nearest-rank p95 reads
    one app's best time, this spreads the weight over the dozen ranks
    around the 95th percentile, so which of the apps near it ran
    luckiest moves it less."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) +
            (b - 1) * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * x for wi, x in zip(w, ordered)) / sum(w)


def ratio(num, den):
    return num / den if den else 0.0


def best_times(raw, values):
    """Each app's best time in each window of whole passes (samples are
    in time order, pool order repeating every pass). A run has as few
    windows as keep TAIL_VALUES best times, each as many passes long as
    the run allows; a trailing partial window is dropped. So a heavy-app
    run (200 apps) has one window of all its passes, a corpus-batch run
    (194 apps) two. A pass that another tenant of the machine slows only
    ever adds time, and the longer the window, the likelier each app
    runs once undisturbed."""
    pool = raw["pool"]
    passes = len(values) // pool
    windows = min(passes, math.ceil(TAIL_VALUES / pool))
    size = passes // windows * pool
    best = []
    for start in range(0, windows * size, size):
        window = values[start:start + size]
        best += [min(window[app::pool]) for app in range(pool)]
    return best


def end_to_end(raw):
    """Timings are taken over per-app best times (best_times), set-up is
    the best of the run's set-ups: on a shared machine, slowdowns from
    other tenants only ever add time, so the best is the steadiest
    estimate of the program's own cost."""
    s = raw["samples"]
    app = best_times(raw, s["app_ms"])
    metrics = {
        "setup_s": (min(raw["setup_s"]), "s"),
        "app_ms_p50": (percentile(app, 0.50), "ms"),
        "app_ms_p95": (percentile(app, 0.95), "ms"),
        "apps_per_s": (len(app) / (sum(app) / 1e3), "1/s"),
    }
    for phase in ("cold", "warm", "edit"):
        times = best_times(raw, s["serve_%s_ms" % phase])
        metrics["serve_%s_ms_p50" % phase] = (percentile(times, 0.50), "ms")
        metrics["serve_%s_ms_p95" % phase] = (percentile(times, 0.95), "ms")
    metrics["peak_rss_mb"] = (raw["peak_rss_bytes"] / 2**20, "MB")
    return metrics


def counter_metrics(raw):
    c = raw["counters"].get
    n = raw["first_pass_apps"]
    per_app = ("pta.instr_visits", "pta.delta_props", "arena.bytes_allocated",
               "shbg.closure_pairs", "race.access_pairs_considered",
               "symbolic.queries", "symbolic.states_expanded",
               "store.dirty_methods")
    m = {name: (c(name, 0) / n, "count") for name in per_app}
    m["arena.bytes_allocated"] = (m["arena.bytes_allocated"][0], "bytes")
    m["race.prefilter_skip_ratio"] = (ratio(
        c("race.prefilter_skipped", 0),
        c("race.access_pairs_considered", 0)), "ratio")
    m["ifds.summary_reuse_ratio"] = (ratio(
        c("ifds.summary_reuses", 0),
        c("ifds.summary_reuses", 0) + c("ifds.summary_computations", 0)),
        "ratio")
    m["ifds.budget_exhausted"] = (c("ifds.budget_exhausted", 0), "count")
    m["symbolic.cache_hit_ratio"] = (ratio(
        c("symbolic.cache_hits", 0), c("symbolic.queries", 0)), "ratio")
    m["symbolic.refuted_per_query"] = (ratio(
        c("symbolic.refuted", 0), c("symbolic.queries", 0)), "ratio")
    m["symbolic.budget_exhausted"] = (
        c("symbolic.budget_exhausted", 0), "count")
    m["store.harness_hit_ratio"] = (ratio(
        c("store.harness_hits", 0),
        c("store.harness_hits", 0) + c("store.harness_misses", 0)), "ratio")
    return m


def per_layer(raw):
    apps = len(raw["samples"]["app_ms"])
    sums = raw["layer_sum_ms"]
    t = raw["trace"]
    m = {}
    for name in ("framework.parse_ms", "harness.generate_ms",
                 "sierra.report_ms") + tuple(
                     k for k in sorted(sums) if k.startswith("stage.")):
        m[name] = (sums.get(name, 0.0) / apps, "ms")
    m["serve.incremental_ms"] = (
        ratio(t["incremental_ms"], t["incremental_count"]), "ms")
    m["serve.protocol_ms"] = (
        ratio(sums.get("serve.protocol_ms", 0.0), t["protocol_ops"]), "ms")
    m.update(counter_metrics(raw))
    m["trace.overhead_pct"] = (
        100.0 * (ratio(t["traced_op_ms"], t["untraced_op_ms"]) - 1), "%")
    return m


def self_time_table(raw):
    """Share of each layer's self time, per root span group."""
    t = raw["trace"]
    groups = {"direct": ["bench.parse", "bench.harness", "bench.analyze",
                         "bench.report"]}
    for phase in ("cold", "warm", "edit"):
        groups["serve." + phase] = ["serve." + phase]
    lines = []
    for group, roots in groups.items():
        layers = {}
        for root in roots:
            for span, ms in t["self_ms"].get(root, {}).items():
                layer = SPAN_LAYER.get(span, "other")
                layers[layer] = layers.get(layer, 0.0) + ms
        total = sum(layers.values())
        ops = t["root_count"].get(roots[0], 0)
        lines.append("%s: %d ops, %.2f ms self per op" %
                     (group, ops, ratio(total, ops)))
        for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append("  %-36s %6.1f%%" % (layer, 100 * ratio(ms, total)))
    return "\n".join(lines)


def result(raw, trace):
    metrics = per_layer(raw) if trace else end_to_end(raw)
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def check_repeat(driver, seed):
    """Every counter-type per-layer metric repeats exactly, run to run
    and with tracing on."""
    ok = True
    for workload in WORKLOADS:
        # --seconds 0: the warm-up pass alone, which the counters cover.
        runs = [run_driver(driver, workload, seed, 0, trace)
                for trace in (False, False, True)]
        counts = [counter_metrics(raw) for raw in runs]
        raws = [raw["counters"] for raw in runs]
        for name in COUNTER_METRICS:
            values = [c[name][0] for c in counts]
            same = values[0] == values[1] == values[2]
            ok &= same
            print("%-14s %-30s %-6s %s" % (workload, name,
                                           "ok" if same else "DIFFER",
                                           values[0]))
        if not raws[0] == raws[1] == raws[2]:
            ok = False
            print("%-14s raw registry counters DIFFER" % workload)
        if any(raw["failed"] for raw in runs):
            ok = False
            print("%-14s operations FAILED" % workload)
    print("exact-repeat check: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def load_records(path):
    """workload -> every untraced record in file order, as
    (seed, failed, metrics)."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(
                        (rec["seed"], rec["result"]["failed"],
                         rec["result"]["metrics"]))
    return runs


def pair_runs(parent, change):
    """Pairs parent and change records of one workload: the k-th run of
    a seed on one side with the k-th run of that seed on the other."""
    def keyed(records):
        seen, out = {}, {}
        for seed, failed, metrics in records:
            k = seen[seed] = seen.get(seed, -1) + 1
            out[(seed, k)] = (failed, metrics)
        return out
    p, c = keyed(parent), keyed(change)
    return [(p[key], c[key]) for key in sorted(set(p) & set(c))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs, better, bound, more_failures):
    """choosing-metrics section 8, over (parent, change) value pairs.
    improved: at least MIN_PAIRS pairs, the change wins at least 9/10 of
    them, the medians differ by more than the parent's inter-quartile
    spread, and the change fails no more operations than the parent.
    regressed: at least MIN_PAIRS pairs and the change's median is worse
    than the parent's by more than the bound. unresolved: too few pairs,
    or the parent's own spread is wider than the bound. Otherwise no
    worse."""
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles([p for p, _ in pairs])
    _, cm, _ = quartiles([c for _, c in pairs])
    gain = sign * (pm - cm)
    if wins >= 0.9 * len(pairs) and gain > p3 - p1 and not more_failures:
        return "improved"
    if -gain > bound * pm:
        return "regressed"
    if p3 - p1 > bound * pm:
        return "unresolved"
    return "no worse"


def compare(parent_path, change_path):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parent, change = load_records(parent_path), load_records(change_path)
    print("%-13s %-17s %-26s %-26s %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3",
        "verdict"))
    for workload in sorted(set(parent) & set(change)):
        runs = pair_runs(parent[workload], change[workload])
        if not runs:
            print("%-13s no seed-paired runs" % workload)
            continue
        more_failures = (sum(c[0] for _, c in runs) >
                         sum(p[0] for p, _ in runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(p[1][name]["value"], c[1][name]["value"])
                     for p, c in runs]
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("%-13s %-17s %-26s %-26s %s (%d pairs%s)" % (
                workload, name, fmt(quartiles([p for p, _ in pairs])),
                fmt(quartiles([c for _, c in pairs])),
                verdict(pairs, metric["better"], metric["bound"],
                        more_failures),
                len(pairs), ", more failed ops" if more_failures else ""))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record")
    ap.add_argument("--check-repeat", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    driver = build()
    if args.check_repeat:
        return check_repeat(driver, args.seed)
    if not args.workload:
        ap.error("--workload is required")

    raw = run_driver(driver, args.workload, args.seed, args.seconds,
                     args.trace == 1)
    res = result(raw, args.trace == 1)
    if args.trace:
        print(self_time_table(raw), file=sys.stderr)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload,
                                "seed": args.seed, "trace": args.trace,
                                "result": res}) + "\n")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
