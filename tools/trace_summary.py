#!/usr/bin/env python3
"""Summarize a VMAP_TRACE Chrome-trace JSON: top spans by self-time.

Usage:
  tools/trace_summary.py trace.json [--top 20] [--per-job]

Self-time of a span is its duration minus the durations of its direct
children (parent links are carried in each event's args, so children on
pool workers are attributed to the span that submitted them). Spans are
aggregated by name; the table shows call count, total/self wall time,
and the mean span duration — the first place to look when a run is
slower than its baseline.

Works on both single-process traces (one bench run) and the merged
multi-process traces the sweep supervisor writes (sweep_trace.json):
span ids are only unique within one process, so parent/child links are
resolved per pid. --per-job adds a per-worker critical-path table for
merged traces — scenario, outcome, traced wall time, and each job's
dominant self-time spans.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_events(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_summary: cannot read {path}: {e}", file=sys.stderr)
        return None
    return doc.get("traceEvents", [])


def span_stats(events, key_of):
    """Aggregates X events into {key: {count,total,self}} with per-pid
    parent links (span ids collide across merged processes)."""
    child_us = defaultdict(float)
    for e in events:
        parent = e.get("args", {}).get("parent", 0)
        if parent:
            child_us[(e.get("pid", 0), parent)] += float(e.get("dur", 0.0))
    stats = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0})
    for e in events:
        dur = float(e.get("dur", 0.0))
        span_id = e.get("args", {}).get("id", 0)
        s = stats[key_of(e)]
        s["count"] += 1
        s["total"] += dur
        s["self"] += max(
            0.0, dur - child_us.get((e.get("pid", 0), span_id), 0.0))
    return stats


def job_metadata(all_events):
    """Per-pid job rows from the merge's metadata events. Empty for a
    plain single-process trace (no job process_name rows)."""
    jobs = {}
    for e in all_events:
        pid = e.get("pid", 0)
        name = e.get("name", "")
        args = e.get("args", {})
        if e.get("ph") == "M" and name == "process_name":
            label = args.get("name", "")
            if label.startswith("job_"):
                jobs.setdefault(pid, {})["label"] = label
        elif e.get("ph") == "M" and name == "process_labels":
            jobs.setdefault(pid, {})["status"] = args.get("labels", "")
        elif e.get("ph") == "i" and name == "job_meta":
            jobs.setdefault(pid, {})["scenario"] = args.get("scenario", "")
    return {pid: meta for pid, meta in jobs.items() if "label" in meta}


def print_summary(events, top):
    stats = span_stats(events, lambda e: e.get("name", "?"))
    threads = {(e.get("pid", 0), e.get("tid", 0)) for e in events}
    wall_us = max(float(e.get("ts", 0)) + float(e.get("dur", 0))
                  for e in events)
    print(f"{len(events)} spans, {len(stats)} distinct names, "
          f"{len(threads)} timeline rows, {wall_us / 1e6:.3f} s traced")
    print()
    header = f"{'span':<36} {'count':>8} {'self(ms)':>12} " \
             f"{'total(ms)':>12} {'mean(us)':>10} {'self%':>6}"
    print(header)
    print("-" * len(header))
    total_self = sum(s["self"] for s in stats.values()) or 1.0
    ranked = sorted(stats.items(), key=lambda kv: -kv[1]["self"])
    for name, s in ranked[:top]:
        mean_us = s["total"] / s["count"]
        print(f"{name:<36} {s['count']:>8} {s['self'] / 1e3:>12.2f} "
              f"{s['total'] / 1e3:>12.2f} {mean_us:>10.1f} "
              f"{100.0 * s['self'] / total_self:>5.1f}%")
    if len(ranked) > top:
        rest = sum(s["self"] for _, s in ranked[top:])
        print(f"{'(other)':<36} {'':>8} {rest / 1e3:>12.2f}")


def print_backends(events):
    """Fit-stage section: the placement pipeline's 'backend.sel.group_lasso'
    (normalize + group lasso + selection) and 'backend.pred.ols' (OLS
    refit) spans, aggregated so a fit's time splits into selection vs
    refit at a glance. Silent when the trace has no such spans
    (non-pipeline workloads)."""
    backend = [e for e in events
               if e.get("name", "").startswith("backend.")]
    if not backend:
        return
    stats = span_stats(backend, lambda e: e.get("name", "?"))
    print()
    header = f"{'fit stage':<36} {'count':>8} {'total(ms)':>12} " \
             f"{'mean(ms)':>10}"
    print(header)
    print("-" * len(header))
    for name, s in sorted(stats.items(),
                          key=lambda kv: -kv[1]["total"]):
        print(f"{name:<36} {s['count']:>8} {s['total'] / 1e3:>12.2f} "
              f"{s['total'] / s['count'] / 1e3:>10.2f}")


def print_per_job(all_events, events, paths):
    jobs = job_metadata(all_events)
    if not jobs:
        print("trace_summary: --per-job needs a merged sweep trace "
              "(sweep_trace.json) — this trace has no job process rows; "
              "run without --per-job for the plain span summary",
              file=sys.stderr)
        return 2
    stats = span_stats(events, lambda e: (e.get("pid", 0),
                                          e.get("name", "?")))
    by_pid = defaultdict(list)
    for (pid, name), s in stats.items():
        by_pid[pid].append((name, s))
    flights = defaultdict(int)
    for e in all_events:
        if e.get("ph") == "i" and e.get("name", "").startswith("flight:"):
            flights[e.get("pid", 0)] += 1

    print()
    header = f"{'job':<28} {'status':<26} {'spans':>7} {'wall(ms)':>10} " \
             f"{'critical path (top self-time spans)'}"
    print(header)
    print("-" * len(header))
    for pid in sorted(jobs):
        meta = jobs[pid]
        spans = by_pid.get(pid, [])
        job_events = [e for e in events if e.get("pid", 0) == pid]
        wall_ms = 0.0
        if job_events:
            hi = max(float(e.get("ts", 0)) + float(e.get("dur", 0))
                     for e in job_events)
            lo = min(float(e.get("ts", 0)) for e in job_events)
            wall_ms = (hi - lo) / 1e3
        ranked = sorted(spans, key=lambda kv: -kv[1]["self"])[:paths]
        chain = " > ".join(
            f"{name} {s['self'] / 1e3:.1f}ms" for name, s in ranked)
        if flights.get(pid):
            chain += f"  [flight tail: {flights[pid]} events]"
        count = sum(s["count"] for _, s in spans)
        print(f"{meta.get('label', '?'):<28} "
              f"{meta.get('status', '?'):<26} {count:>7} {wall_ms:>10.2f} "
              f"{chain}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="top spans by self-time from a Chrome trace")
    parser.add_argument("trace", help="trace JSON written via VMAP_TRACE, "
                        "or a merged sweep_trace.json")
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--per-job", action="store_true",
                        help="per-worker critical-path table "
                             "(merged sweep traces only)")
    parser.add_argument("--paths", type=int, default=3,
                        help="spans per job in the --per-job chain")
    args = parser.parse_args()

    all_events = load_events(args.trace)
    if all_events is None:
        return 2
    events = [e for e in all_events if e.get("ph") == "X"]
    if not events:
        if args.per_job and job_metadata(all_events):
            # A merged trace where every worker crashed before tracing:
            # still a valid per-job view (flight tails, zero spans).
            return print_per_job(all_events, events, args.paths)
        print("trace_summary: no complete ('X') events in the trace")
        return 0

    print_summary(events, args.top)
    print_backends(events)
    if args.per_job:
        return print_per_job(all_events, events, args.paths)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # `trace_summary.py ... | head` is fine
        sys.exit(0)
