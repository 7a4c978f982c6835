#!/usr/bin/env python3
"""tjbench runner: builds the driver, runs workloads, checks, reports.

One run of one workload (the form BENCHMARK.json's command uses):

    python3 bench/tjbench/run.py --workload forkjoin --seed 1 \
        --seconds 15 --trace 0

prints every metric as `name value unit`, then one JSON line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs the workload untraced and then traced
(same seed) and reports the per-layer metrics, trace_overhead included.
The JSON line holds the per-layer metrics BENCHMARK.json declares, which
every workload measures; the span metrics of calls only some workloads
make are printed as lines for those workloads only.
A broken invariant makes the driver exit non-zero, and so does this script.

Suites and comparisons:

    run.py --sets=3 --seed=1 [--trace] [--out=FILE]  every workload, N sets
    run.py --compare A.json B.json           apply BENCHMARK.json's bounds
    run.py --smoke [--binary=PATH]           ~1 s per workload, traced
    run.py --startup-check                   async at T vs 2T seconds

The driver is built on first use into .bench_build/tjbench under the
repository root (CMake, RelWithDebInfo).
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "tjbench"
WORKLOADS = ["apps", "forkjoin", "promise", "async", "service"]
APPS = ["jacobi", "smithwaterman", "crypt", "strassen", "series", "nqueens"]
# A traced run starts the driver twice; both must end within 180 s.
RUN_TIMEOUT_S = 85


class BenchError(Exception):
    pass


# ---- end-to-end metrics: name -> (unit, value from an untraced result) ----

E2E = {
    "setup_s": ("s", lambda r: statistics.median(r["setup_s"])),
    "peak_rss_mb": ("MiB", lambda r: r["peak_rss_mb"]),
    "ops_per_s": ("1/s", lambda r: r["ops_per_s"]),
    "op_p50_us": ("us", lambda r: r["op_p50_us"]),
    "op_p90_us": ("us", lambda r: r["op_p90_us"]),
}
# Reported by --sets next to the metrics, but not gated: on a shared 4-vCPU
# machine a window's p99 moves by 20-30% from run to run (see README).
DIAGNOSTICS = ["op_p99_us", "samples"]

# ---- per-layer metrics ----

# Counters and probe results the driver computes itself.
COUNTERS = {
    "sched.inline_share": "ratio",
    "sched.eff_par": "workers",
    "sched.blocked_join_share": "ratio",
    "sched.idle_share": "ratio",
    "sched.threads_added": "count",
    "gate.cycle_checks_per_op": "1/op",
    "gate.rejections_per_op": "1/op",
    "verifier.peak_kb": "KiB",
    "owp.peak_kb": "KiB",
    "recorder.events_per_op": "1/op",
    "recorder.dropped": "count",
    "detector.failed_over": "count",
    "adm.shed_share": "ratio",
    "adm.overload_shed_share": "ratio",
    "governor.level": "count",
    "gen.late_p99_us": "us",
    "verifier.add_child_ns": "ns",
    "verifier.permits_join_ns": "ns",
    "wfg.add_remove_ns": "ns",
    "wfg.checked_add_ns": "ns",
    "recorder.emit_ns": "ns",
    "recorder.consume_ns_per_event": "ns",
}
for _site in ["sched.queue", "wfg.graph", "gate.await", "recorder.registry"]:
    COUNTERS[f"lock.{_site}.contended_share"] = "ratio"
    COUNTERS[f"lock.{_site}.wait_share"] = "ratio"

# Span name -> (metric stem, unit, ns per unit, workloads that make the
# call). Each yields .p50 and .p99, on those workloads only. apps makes no
# layer call of its own (the app kernels do), and forkjoin joins only
# children that have not run yet: the joiner runs them inline, so it never
# joins a finished task and never waits for a wake-up.
SPAWNING = ["forkjoin", "promise", "async", "service"]
PROMISES = ["promise", "async", "service"]
SPANS = {
    "rt.spawn": ("rt.spawn_ns", "ns", 1.0, SPAWNING),
    "sched.queue_delay": ("sched.queue_delay_us", "us", 1e3, SPAWNING),
    "gate.join_ready": ("gate.join_ready_ns", "ns", 1.0, PROMISES),
    "sched.join_wait": ("sched.join_wait_us", "us", 1e3, SPAWNING),
    "owp.make_promise": ("owp.make_promise_ns", "ns", 1.0, PROMISES),
    "owp.await": ("owp.await_us", "us", 1e3, PROMISES),
    "owp.fulfill": ("owp.fulfill_ns", "ns", 1.0, PROMISES),
    "sched.wake": ("sched.wake_us", "us", 1e3, ["promise", "async"]),
    "adm.admit": ("adm.admit_ns", "ns", 1.0, ["service"]),
    "apps.kernel": ("apps.kernel_ms", "ms", 1e6, ["service"]),
}
# Spans that contain other spans: their median self time is reported too.
SELF_TIMES = {
    "op": ("op.self_us.p50", "us", 1e3, WORKLOADS),
    "sched.join_wait": ("sched.join_wait_us.self_p50", "us", 1e3, SPAWNING),
}


def span_units(workload):
    """Span metrics of the calls `workload` makes."""
    units = {}
    for stem, unit, _, where in SPANS.values():
        if workload in where:
            units[stem + ".p50"] = unit
            units[stem + ".p99"] = unit
    for name, unit, _, where in SELF_TIMES.values():
        if workload in where:
            units[name] = unit
    if workload == "apps":
        for app in APPS:
            units[f"apps.{app}.none_s"] = "s"
            units[f"apps.{app}.tjsp_s"] = "s"
        units["apps.overhead_x"] = "ratio"
    return units


def per_layer_units():
    """The per-layer metrics BENCHMARK.json declares: those every workload
    measures from its own run."""
    units = dict(COUNTERS)
    common = set.intersection(*(set(span_units(w)) for w in WORKLOADS))
    units.update({n: u for n, u in span_units(WORKLOADS[0]).items()
                  if n in common})
    units["trace.spans_dropped"] = "count"
    units["trace_overhead"] = "ratio"
    return units


# ---- statistics ----


def quantile(values, q):
    """Exact nearest-rank order statistic, as tjbench computes it."""
    v = sorted(values)
    rank = min(max(math.ceil(q * len(v)), 1), len(v))
    return v[rank - 1]


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---- building and running the driver ----


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "tjbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "tjbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))
    return BUILD / "tjbench"


def run_driver(binary, workload, seed, seconds, trace):
    out = BUILD / "runs"
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / f"{workload}.json"
    trace_path = out / f"{workload}.trace.json"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={result_path}"]
    if trace:
        cmd.append(f"--trace={trace_path}")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: driver exited {proc.returncode}")
    with open(result_path) as f:
        result = json.load(f)
    if trace:
        result["trace_path"] = str(trace_path)
    return result


# ---- spans ----


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "id": e["args"]["id"],
             "parent": e["args"]["parent"], "t0": e["args"]["t0"],
             "t1": e["args"]["t1"]} for e in events]


def self_times(spans):
    """span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, end = 0, s["t0"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s["id"]] = s["t1"] - s["t0"] - covered
    return out


def nesting_violations(spans):
    """Child spans that start before or end after their parent."""
    by_id = {s["id"]: s for s in spans}
    bad = []
    for s in spans:
        p = by_id.get(s["parent"]) if s["parent"] else None
        if s["parent"] and (p is None or s["t0"] < p["t0"]
                            or s["t1"] > p["t1"]):
            bad.append(s)
    return bad


def span_metrics(spans, workload):
    """The span metrics of the calls `workload` makes, from its own spans."""
    selves = self_times(spans)
    if any(v < 0 for v in selves.values()):
        raise BenchError("negative span self time")

    def durations(name, want_self=False):
        vals = [selves[s["id"]] if want_self else s["t1"] - s["t0"]
                for s in spans if s["name"] == name]
        if not vals:
            raise BenchError(f"{workload}: no '{name}' spans in the trace")
        return vals

    m = {}
    for name, (stem, _, scale, where) in SPANS.items():
        if workload in where:
            d = durations(name)
            m[stem + ".p50"] = quantile(d, 0.50) / scale
            m[stem + ".p99"] = quantile(d, 0.99) / scale
    for name, (metric, _, scale, where) in SELF_TIMES.items():
        if workload in where:
            m[metric] = quantile(durations(name, want_self=True), 0.50) / scale
    if workload == "apps":
        ratios = []
        for app in APPS:
            none = quantile(durations(f"apps.{app}.none"), 0.5) / 1e9
            tjsp = quantile(durations(f"apps.{app}.tjsp"), 0.5) / 1e9
            m[f"apps.{app}.none_s"] = none
            m[f"apps.{app}.tjsp_s"] = tjsp
            ratios.append(tjsp / none)
        m["apps.overhead_x"] = geomean(ratios)
    return m


# ---- one workload run -> metrics ----


def e2e_metrics(result):
    return {name: (fn(result), unit) for name, (unit, fn) in E2E.items()}


def per_layer_metrics(untraced, traced):
    """Every per-layer metric of the workload: the declared ones and the
    span metrics of the calls it makes."""
    workload = traced["workload"]
    units = per_layer_units()
    units.update(span_units(workload))
    values = {name: traced["counters"][name] for name in COUNTERS}
    values.update(span_metrics(load_spans(traced["trace_path"]), workload))
    values["trace.spans_dropped"] = traced["spans_dropped"]
    values["trace_overhead"] = traced["op_p50_us"] / untraced["op_p50_us"]
    return {name: (values[name], units[name]) for name in units}


def measure(binary, workload, seed, seconds, trace):
    """One contract run: (result the counts come from, metrics)."""
    untraced = run_driver(binary, workload, seed, seconds, False)
    if not trace:
        return untraced, e2e_metrics(untraced)
    traced = run_driver(binary, workload, seed, seconds, True)
    return traced, per_layer_metrics(untraced, traced)


def validate(metrics, positive):
    for name, (value, _) in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} is not a finite number: {value}")
        if positive and value <= 0:
            raise BenchError(f"end-to-end metric {name} is not positive")


def contract_run(args):
    binary = build()
    result, metrics = measure(binary, args.workload, args.seed, args.seconds,
                              args.trace == 1)
    validate(metrics, positive=args.trace == 0)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    declared = E2E if args.trace == 0 else per_layer_units()
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items() if n in declared},
    }))


# ---- suites ----


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def environment(binary_result):
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True
                             ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"nproc": os.cpu_count(), "workers": binary_result["workers"],
            "compiler": binary_result["compiler"],
            "build_type": binary_result["build_type"], "git_rev": rev}


def suite(args):
    binary = Path(args.binary) if args.binary else build()
    runs = {w: [] for w in WORKLOADS}
    env = None
    t0 = time.time()
    for i in range(args.sets):
        seed = args.seed + i
        # Alternate the order so no workload always runs first.
        for w in (WORKLOADS if i % 2 == 0 else list(reversed(WORKLOADS))):
            result, metrics = measure(binary, w, seed, args.seconds, False)
            validate(metrics, positive=True)
            if args.trace:
                traced = run_driver(binary, w, seed, args.seconds, True)
                layer = per_layer_metrics(result, traced)
                validate(layer, positive=False)
                metrics.update(layer)
            env = env or environment(result)
            runs[w].append({"seed": seed, "attempted": result["attempted"],
                            "failed": result["failed"],
                            "metrics": {n: v for n, (v, _) in metrics.items()},
                            "diagnostics": {n: result[n] for n in DIAGNOSTICS}})
            print(f"set {i + 1}/{args.sets} {w} seed={seed} done "
                  f"({time.time() - t0:.0f} s)", file=sys.stderr)
    summary = {}
    for w, rs in runs.items():
        units = {n: u for n, (u, _) in E2E.items()}
        units.update(per_layer_units())
        units.update(span_units(w))
        summary[w] = {}
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name] for r in rs]
            summary[w][name] = {"median": statistics.median(vals),
                                "spread": spread(vals), "values": vals,
                                "unit": units[name]}
            print(f"{w} {name} {statistics.median(vals)!r} {units[name]} "
                  f"(spread {spread(vals):.3f}, n={len(vals)})")
    doc = {"env": env, "seconds": args.seconds, "sets": args.sets,
           "base_seed": args.seed, "runs": runs, "summary": summary}
    out = Path(args.out) if args.out else BUILD / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


def compare(path_a, path_b):
    """Applies each end-to-end metric's bound to B against A, per workload.
    A change inside the bound but beyond both sides' spread is named too:
    on a quiet workload it is a real change the bound lets through."""
    spec = benchmark_spec()
    a = json.loads(Path(path_a).read_text())["summary"]
    b = json.loads(Path(path_b).read_text())["summary"]
    regressions = 0
    for w in a:
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            if name not in a[w] or name not in b.get(w, {}):
                continue
            ma, mb = a[w][name]["median"], b[w][name]["median"]
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            noisy = max(a[w][name]["spread"], b[w][name]["spread"])
            if noisy > bound:
                verdict = "unresolved (spread above bound)"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif worse > noisy:
                verdict = "ok (worse beyond spread)"
            else:
                verdict = "ok"
            print(f"{w:9} {name:12} A={ma:<12.6g} B={mb:<12.6g} "
                  f"worse={worse:+.3f} bound={bound} spread={noisy:.3f} "
                  f"{verdict}")
    return 1 if regressions else 0


def smoke(args):
    """Every workload traced at a ~1 s budget: exactly the metrics declared
    for it present, spans nest inside their parents."""
    binary = Path(args.binary) if args.binary else build()
    spec = benchmark_spec()
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layer = {m["name"] for m in spec["per_layer"]}
    if declared_e2e != set(E2E) or declared_layer != set(per_layer_units()):
        raise BenchError("BENCHMARK.json and run.py declare different metrics")
    for w in WORKLOADS:
        _, e2e = measure(binary, w, 1, 1, False)
        validate(e2e, positive=True)
        # Missing spans of a call the workload makes already raised.
        traced, layer = measure(binary, w, 1, 1, True)
        validate(layer, positive=False)
        spans = load_spans(traced["trace_path"])
        stray = {s["name"] for s in spans
                 if s["name"] in SPANS and w not in SPANS[s["name"]][3]}
        if stray:
            raise BenchError(f"{w}: spans of calls not declared for it: "
                             f"{sorted(stray)}")
        bad = nesting_violations(spans)
        if bad:
            raise BenchError(f"{w}: {len(bad)} spans outside their parent, "
                             f"e.g. {bad[0]}")
        print(f"{w}: {len(e2e)} end-to-end and {len(layer)} per-layer "
              f"metrics, {traced['spans']} spans nested", file=sys.stderr)
    print("tjbench smoke passed")


def startup_check(args):
    """async ops_per_s over T s must be within the bound of the value over
    2T s: start-up cost must not leak into throughput."""
    binary = build()
    bound = next(m["bound"] for m in benchmark_spec()["end_to_end"]
                 if m["name"] == "ops_per_s")
    short, long = [], []
    for seed in range(args.seed, args.seed + 3):
        short.append(run_driver(binary, "async", seed, args.seconds,
                                False)["ops_per_s"])
        long.append(run_driver(binary, "async", seed, 2 * args.seconds,
                               False)["ops_per_s"])
    ms, ml = statistics.median(short), statistics.median(long)
    gap = abs(ms - ml) / ml
    print(f"async ops_per_s: {ms:.0f} at {args.seconds} s, {ml:.0f} at "
          f"{2 * args.seconds} s, gap {gap:.3f} (bound {bound})")
    return 0 if gap <= bound else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--sets", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--startup-check", action="store_true")
    p.add_argument("--binary", help="prebuilt tjbench (skips the build)")
    args = p.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.smoke:
            smoke(args)
        elif args.startup_check:
            return startup_check(args)
        elif args.sets:
            suite(args)
        elif args.workload:
            contract_run(args)
        else:
            p.error("give --workload, --sets, --compare, --smoke or "
                    "--startup-check")
    except BenchError as e:
        print(f"tjbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
