#!/usr/bin/env python3
"""Repository benchmark: builds the bench binary, runs one workload, prints metrics.

    python3 perfbench/run.py --workload design_cold|refit_sweep
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The bench binary (perfbench/vmap_perfbench.cpp) is
built from source into .bench_build/perfbench and run in its own process.

--trace 0 runs the workload's timed phase for --seconds and reports the
end-to-end metrics. --trace 1 runs one untraced and one traced (VMAP_TRACE) timed
iteration and reports the per-layer metrics: outside timers and counters
from the binary, self times and shares from the library's trace spans, and
the tracing overhead between the two runs.

The last line of stdout is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "vmap_perfbench")
# Every binary process of one run must end within this many seconds.
RUN_BUDGET_S = 170

WORKLOADS = ("design_cold", "refit_sweep")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("serve.p50_ms", "ms"),
]

PER_LAYER = [
    ("dataset.collect_s", "s"),
    ("dataset.calibration_s", "s"),
    ("collect.busy_frac", "frac"),
    ("collect.other_s", "s"),
    ("dataset.save_ms", "ms"),
    ("dataset.load_ms", "ms"),
    ("transient.steps", "count"),
    ("setup.transient.steps", "count"),
    ("transient.step_us", "us"),
    ("transient.bytes_per_step", "B"),
    ("transient.flops_per_step", "flop"),
    ("transient.gbps", "GB/s"),
    ("grid.factor_ms", "ms"),
    ("grid.factorizations", "count"),
    ("gl.penalized_solves", "count"),
    ("gl.budget_solves", "count"),
    ("gl.sweeps", "count"),
    ("gl.cap_hits", "count"),
    ("gl.self_s", "s"),
    ("gl.sweep_ns", "ns"),
    ("gl.sweeps_per_s", "1/s"),
    ("pipeline.fit_s", "s"),
    ("pipeline.core_ms.p50", "ms"),
    ("pipeline.core_ms.max", "ms"),
    ("gram.self_ms", "ms"),
    ("ols.refit_ms", "ms"),
    ("eval.predict_ms", "ms"),
    ("eval.detect_ms", "ms"),
    ("eagle.place_ms", "ms"),
    ("serve.readings_per_s", "1/s"),
    ("serve.p99_ms", "ms"),
    ("serve.ingest_ns", "ns"),
    ("serve.predict_ns", "ns"),
    ("serve.processed", "count"),
    ("serve.shed", "count"),
    ("serve.alarm_events", "count"),
    ("serve.alarm_samples", "count"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("cpu_util", "frac"),
    ("pool.batches", "count"),
    ("pool.worker_indices", "count"),
    ("transient.share", "frac"),
    ("collect.share", "frac"),
    ("dataset.share", "frac"),
    ("gl.share", "frac"),
    ("gram.share", "frac"),
    ("ols.share", "frac"),
    ("pipeline.share", "frac"),
    ("eval.share", "frac"),
    ("eagle.share", "frac"),
    ("bench.share", "frac"),
    ("trace.attributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]

SHARE_LAYERS = ["transient", "collect", "dataset", "gl", "gram", "ols",
                "pipeline", "eval", "eagle", "bench"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the binary (a no-op when up to date)."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "vmap_perfbench", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def run_binary(workload, seed, seconds, scratch, once, trace_file, deadline):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--scratch", scratch]
    if once:
        cmd.append("--once")
    env = dict(os.environ)
    env.pop("VMAP_TRACE", None)
    env.pop("VMAP_THREADS", None)
    if trace_file:
        env["VMAP_TRACE"] = trace_file
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"bench binary exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- Trace analysis --------------------------------------------------------

def load_spans(path):
    with open(path) as f:
        doc = json.load(f)
    spans = {}
    for e in doc["traceEvents"]:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        spans[args["id"]] = {
            "name": e["name"], "tid": e["tid"], "start": e["ts"],
            "end": e["ts"] + e["dur"], "parent": args.get("parent", 0),
            "children": []}
    for sid, s in spans.items():
        if s["parent"] in spans:
            spans[s["parent"]]["children"].append(sid)
    return spans


def descendants(spans, root):
    out, stack = [], [root]
    while stack:
        sid = stack.pop()
        out.append(sid)
        stack.extend(spans[sid]["children"])
    return out


def self_intervals(spans, sid):
    """The span's interval minus the union of its children's (any thread)."""
    s = spans[sid]
    kids = sorted((spans[c]["start"], spans[c]["end"]) for c in s["children"])
    out, cursor = [], s["start"]
    for a, b in kids:
        if a > cursor:
            out.append((cursor, min(a, s["end"])))
        cursor = max(cursor, b)
        if cursor >= s["end"]:
            break
    if cursor < s["end"]:
        out.append((cursor, s["end"]))
    return out


def self_time(spans, sid):
    return sum(b - a for a, b in self_intervals(spans, sid))


def layer_of(name):
    for prefix, layer in (("transient.", "transient"), ("cg.", "transient"),
                          ("collect.", "collect"), ("dataset.", "dataset"),
                          ("gl.", "gl"), ("backend.sel.", "gram"),
                          ("backend.pred.", "ols"), ("pipeline.", "pipeline"),
                          ("bench.eval.", "eval"), ("bench.eagle", "eagle")):
        if name.startswith(prefix):
            return layer
    return "bench"


def wall_shares(spans, ids, window):
    """Splits the window's wall time among the layers whose spans run self
    time in it: at each instant, each running self interval gets an equal
    part. The shares sum to the attributed fraction (at most 1)."""
    events = []
    for sid in ids:
        layer = layer_of(spans[sid]["name"])
        for a, b in self_intervals(spans, sid):
            a, b = max(a, window[0]), min(b, window[1])
            if b > a:
                events.append((a, 1, layer))
                events.append((b, -1, layer))
    events.sort(key=lambda e: (e[0], e[1]))
    active = {layer: 0 for layer in SHARE_LAYERS}
    total = 0
    attributed = {layer: 0.0 for layer in SHARE_LAYERS}
    last = window[0]
    for t, delta, layer in events:
        if total > 0 and t > last:
            for name, n in active.items():
                if n:
                    attributed[name] += (t - last) * n / total
        last = t
        active[layer] += delta
        total += delta
    wall = window[1] - window[0]
    return {name: v / wall for name, v in attributed.items()}


def trace_layers(path, counts, threads):
    spans = load_spans(path)
    m = {}
    timed = [sid for sid, s in spans.items() if s["name"] == "bench.timed"]
    root = timed[0]
    ids = descendants(spans, root)
    window = (spans[root]["start"], spans[root]["end"])
    # The timed span's own self time is what no layer span covers; it is
    # left out, so the shares sum to the attributed fraction.
    shares = wall_shares(spans, ids[1:], window)
    for layer in SHARE_LAYERS:
        m[f"{layer}.share"] = shares[layer]
    m["trace.attributed_frac"] = sum(shares.values())

    def named(prefix):
        return [sid for sid in ids if spans[sid]["name"].startswith(prefix)]

    gl_self_us = sum(self_time(spans, sid) for sid in named("gl."))
    m["gl.self_s"] = gl_self_us * 1e-6
    sweeps = counts.get("gl.sweeps", 0)
    m["gl.sweep_ns"] = gl_self_us * 1e3 / sweeps if sweeps else 0.0
    m["gl.sweeps_per_s"] = sweeps / (gl_self_us * 1e-6) if gl_self_us else 0.0
    core_ms = [(spans[s]["end"] - spans[s]["start"]) * 1e-3
               for s in named("pipeline.fit_core")]
    m["pipeline.core_ms.p50"] = statistics.median(core_ms) if core_ms else 0.0
    m["pipeline.core_ms.max"] = max(core_ms, default=0.0)
    m["gram.self_ms"] = 1e-3 * sum(self_time(spans, s)
                                   for s in named("backend.sel."))
    m["ols.refit_ms"] = 1e-3 * sum(spans[s]["end"] - spans[s]["start"]
                                   for s in named("backend.pred."))

    # Collection layers, from the last collection in the trace: the timed
    # phase's on design_cold, the set-up's on refit_sweep.
    collects = [sid for sid, s in spans.items()
                if s["name"] == "dataset.collect"]
    for key in ("dataset.calibration_s", "collect.busy_frac",
                "collect.other_s", "transient.step_us", "grid.factorizations"):
        m[key] = 0.0
    if collects:
        c = max(collects, key=lambda sid: spans[sid]["start"])
        sub = descendants(spans, c)
        calib = [s for s in sub if spans[s]["name"] == "dataset.calibration"]
        benches = [s for s in sub if spans[s]["name"].startswith("collect.")]
        steps = [s for s in sub if spans[s]["name"] == "transient.step"]
        parallel_start = spans[calib[0]]["end"] if calib else spans[c]["start"]
        parallel_wall = spans[c]["end"] - parallel_start
        busy = sum(spans[s]["end"] - spans[s]["start"] for s in benches)
        if calib:
            m["dataset.calibration_s"] = (
                spans[calib[0]]["end"] - spans[calib[0]]["start"]) * 1e-6
        m["collect.busy_frac"] = busy / (threads * parallel_wall)
        m["collect.other_s"] = 1e-6 * sum(self_time(spans, s) for s in benches)
        if steps:
            m["transient.step_us"] = statistics.fmean(
                spans[s]["end"] - spans[s]["start"] for s in steps)
        # Inferred: each simulator construction factors the stepping
        # matrix, and shows as a gap of about one factorization on its
        # thread before the first benchmark of a worker's chunk.
        gap_us = 0.5 * 1e3 * counts.get("grid.factor_ms", 0.0)
        starts = len(calib)
        by_tid = {}
        for s in sorted(benches, key=lambda s: spans[s]["start"]):
            by_tid.setdefault(spans[s]["tid"], []).append(s)
        for seq in by_tid.values():
            starts += 1
            for prev, cur in zip(seq, seq[1:]):
                if spans[cur]["start"] - spans[prev]["end"] >= gap_us:
                    starts += 1
        m["grid.factorizations"] = starts
    step_us = m["transient.step_us"]
    bytes_per_step = counts.get("transient.bytes_per_step", 0.0)
    m["transient.gbps"] = bytes_per_step / (step_us * 1e3) if step_us else 0.0
    return m


# --- Metrics -----------------------------------------------------------------

def end_to_end(result):
    layer = result["layer"]
    return {
        "wall_s": statistics.median(result["wall_s"]),
        "setup_s": statistics.median(result["setup_s"]),
        "cpu_s": statistics.median(result["cpu_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "serve.p50_ms": layer["serve.p50_ms"],
    }


def per_layer(plain, traced):
    threads = plain["threads"]
    m = dict(plain["layer"])
    m.update(trace_layers(traced["trace_file"], traced["layer"], threads))
    wall, cpu = plain["wall_s"][0], plain["cpu_s"][0]
    m["cpu_util"] = cpu / (wall * threads)
    m["trace.overhead_frac"] = traced["wall_s"][0] / wall - 1.0
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20150607)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = os.path.join(".bench_build", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        def run(once, trace_file=None):
            return run_binary(args.workload, args.seed, args.seconds,
                              scratch, once, trace_file, deadline)
        if args.trace:
            plain = run(once=True)
            trace_file = os.path.join(scratch, "trace.json")
            traced = run(once=True, trace_file=trace_file)
            traced["trace_file"] = trace_file
            values = per_layer(plain, traced)
            names, results = PER_LAYER, [plain, traced]
        else:
            result = run(once=False)
            values = end_to_end(result)
            names, results = END_TO_END, [result]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for failure in r["failures"]:
            log(f"[{args.workload}] FAILED: {failure}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in names}
    layer = results[0]["layer"]
    for name, unit in names:
        note = ""
        if name in ("serve.p50_ms", "serve.p99_ms"):
            note = f"  (n={int(layer['serve.alarm_samples'])} alarm transitions)"
        print(f"{args.workload} {name} = {metrics[name]['value']:.6g} {unit}{note}")
    if layer.get("gl.cap_hits"):
        print(f"{args.workload} known defect: group-lasso fits stopped at the "
              f"iteration cap: {int(layer['gl.cap_hits'])} in one timed phase")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError, TypeError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        sys.exit(1)
