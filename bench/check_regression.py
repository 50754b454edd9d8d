#!/usr/bin/env python3
"""Perf regression gate + report for the BENCH_*.json artifacts (DESIGN.md §6).

Takes one or more freshly produced BENCH_*.json files, groups them by their
embedded "benchmark" name, and compares each benchmark's rows against its
committed baseline (bench/baseline/<same filename>). Rows are matched on the
benchmark's key fields (see SCHEMAS); when several input files — or several
rows within one file — share a key, the compared value is the PER-KEY MEDIAN
of the metric across all samples, which is also how baselines are captured
(run the bench a few times, pass every artifact, --update; a one-shot capture
under load desensitizes the gate, a lucky-fast one cries wolf).

Only the engine microbench is a hard gate: a matched row whose median
ns_per_message regressed by more than the threshold (default 20%) fails with
exit 1. The app benches (mst / mincut / noleader / cds_kdom) are ingested
REPORT-ONLY — their per-row medians and ratios are printed for drift
tracking, but they never fail CI: their wall clocks sit on top of whole
algorithm stacks whose variance hasn't been characterized (ROADMAP), so a
hard gate would cry wolf.

The engine has one round close (DESIGN.md §8), so rows carry no close-mode
key; a `pipeline` field left in an older baseline row is ignored. The
`skew` key is the skewed_flood hot-band denominator (senders = top n/skew
ids); rows without it — all non-skewed workloads, plus skewed rows written
before the sweep existed — default to the historical 8.
Rows present on only one side are reported but never fail,
so adding or retiring bench configurations (e.g. the autotuned thread sweep
producing different thread counts on different runner classes) doesn't
require lock-step baseline edits. Schema details: bench/README.md.

Usage:
  check_regression.py CURRENT... [--threshold 0.20] [--update]
                      [--baseline FILE]

  CURRENT...   one or more BENCH_*.json files (mixed benchmarks fine)
  --baseline   override the baseline path (single-benchmark input only)
  --update     rewrite each benchmark's baseline from the pooled medians
"""

import argparse
import json
import os
import statistics
import sys

BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "baseline")
METRIC = "ns_per_message"
# Key fields absent from a row default here, so rows written before a key
# column existed keep matching: `skew` predates the skewed_flood hot-band
# sweep (8 = the historical top-n/8 band; non-skewed workloads
# never carry the field, so they default identically on both sides), and
# `transport` predates the §10 shared-memory ring backend ("inproc" was the
# only data plane transport).
KEY_DEFAULTS = {"skew": 8, "transport": "inproc"}

# Key fields per benchmark name (the "benchmark" field of the artifact).
# `gated`: regressions FAIL; otherwise the comparison is report-only.
SCHEMAS = {
    "engine_microbench": {
        "file": "BENCH_engine.json",
        "keys": ("workload", "n", "threads", "skew", "transport"),
        "gated": True,
    },
    "mst_corollary_1_3": {
        "file": "BENCH_mst.json",
        "keys": ("graph", "strategy", "threads"),
        "gated": False,
    },
    "mincut_corollary_1_4": {
        "file": "BENCH_mincut.json",
        "keys": ("graph", "eps", "threads"),
        "gated": False,
    },
    "noleader_ablation_ab3": {
        "file": "BENCH_noleader.json",
        "keys": ("graph", "threads"),
        "gated": False,
    },
    "cds_kdom_corollaries_a2_a3": {
        "file": "BENCH_cds_kdom.json",
        "keys": ("section", "graph", "primitive", "n", "k", "threads"),
        "gated": False,
    },
    "fault_degradation": {
        "file": "BENCH_fault.json",
        "keys": ("workload", "graph", "drop_prob", "threads"),
        "gated": False,
    },
}


def row_key(row, keys):
    return tuple(row.get(k, KEY_DEFAULTS.get(k)) for k in keys)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    name = doc.get("benchmark")
    if name not in SCHEMAS:
        raise SystemExit(f"{path}: unknown benchmark {name!r} "
                         f"(known: {', '.join(sorted(SCHEMAS))})")
    return name, doc.get("rows", [])


def pool_medians(row_lists, keys):
    """Groups rows by key; returns {key: (representative row, median metric,
    sample count)}. Rows without the metric are kept (count 0, median None)
    so [no data] keys still show up in the report."""
    groups = {}
    for rows in row_lists:
        for row in rows:
            groups.setdefault(row_key(row, keys), []).append(row)
    pooled = {}
    for key, rows in groups.items():
        values = [r[METRIC] for r in rows if r.get(METRIC)]
        median = statistics.median(values) if values else None
        pooled[key] = (rows[0], median, len(values))
    return pooled


def fmt_key(key):
    return "/".join("-" if k is None else str(k) for k in key)


def write_baseline(path, name, pooled, keys):
    """One representative row per key, its metric replaced by the median.

    Keys whose pooled median is None (no sample carried the metric) are
    SKIPPED with a warning: a baseline row without the metric could never
    gate anything, it would only ever print [no data] forever."""
    rows = []
    skipped = 0
    for key in sorted(pooled, key=fmt_key):
        rep, median, _ = pooled[key]
        if median is None:
            print(f"  warning: {fmt_key(key)}: no {METRIC} in any sample, "
                  f"not writing a metric-less baseline row")
            skipped += 1
            continue
        row = dict(rep)
        row[METRIC] = median
        rows.append(row)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"benchmark": name, "rows": rows}, f, indent=2)
        f.write("\n")
    note = f", {skipped} metric-less key(s) skipped" if skipped else ""
    print(f"baseline updated: {path} ({len(rows)} rows{note})")


def compare(name, pooled, baseline_path, threshold):
    """Prints the per-key report; returns the list of gating failures."""
    schema = SCHEMAS[name]
    gated = schema["gated"]
    print(f"== {name} ({'GATED' if gated else 'report-only'}) "
          f"vs {os.path.relpath(baseline_path)}")
    if not os.path.exists(baseline_path):
        print("  [no baseline] nothing to compare against "
              "(--update creates it)")
        return [], 0
    base_name, base_rows = load(baseline_path)
    if base_name != name:
        raise SystemExit(f"{baseline_path}: benchmark {base_name!r} does not "
                         f"match current {name!r}")
    base = pool_medians([base_rows], schema["keys"])

    regressions = []
    compared = 0
    for key in sorted(pooled, key=fmt_key):
        _, cur_v, samples = pooled[key]
        if key not in base:
            print(f"  [new]      {fmt_key(key)}: no baseline row, skipped")
            continue
        base_v = base[key][1]
        if cur_v is None or base_v is None:
            # A row can legitimately lack the metric (e.g. a phase that moved
            # zero messages): warn-and-skip rather than crash on the ratio or
            # silently count it as compared.
            side = "current" if cur_v is None else "baseline"
            print(f"  [no data]  {fmt_key(key)}: {side} side has no "
                  f"{METRIC} median, skipped")
            continue
        if not cur_v or not base_v:
            print(f"  [no data]  {fmt_key(key)}: zero {METRIC}, skipped")
            continue
        compared += 1
        ratio = cur_v / base_v
        tag = "ok"
        if ratio > 1 + threshold:
            if gated:
                tag = "REGRESSED"
                regressions.append((key, base_v, cur_v, ratio))
            else:
                tag = "slower (report-only)"
        elif ratio < 1 / (1 + threshold):
            tag = "improved (baseline stale? rerun with --update)"
        note = f" [{samples} samples]" if samples > 1 else ""
        print(f"  [{ratio:5.2f}x]   {fmt_key(key)}: "
              f"{base_v:.1f} -> {cur_v:.1f} {METRIC}  {tag}{note}")
    # Baseline rows with no current counterpart. The thread sweep autotunes
    # to host cores, so rows captured on a bigger machine (their `threads`
    # exceeds this capture's host_threads) CANNOT be reproduced here — that
    # is a property of the runner, not a lost configuration: summarize them
    # in one line instead of a per-row [gone] wall. Everything else still
    # reports per row.
    host = None
    for rep, _, _ in pooled.values():
        ht = rep.get("host_threads")
        if isinstance(ht, (int, float)) and not isinstance(ht, bool):
            host = ht if host is None else max(host, ht)
    keys = schema["keys"]
    t_idx = keys.index("threads") if "threads" in keys else None
    oversized = 0
    for key in sorted(set(base) - set(pooled), key=fmt_key):
        threads = key[t_idx] if t_idx is not None else None
        if (host is not None and isinstance(threads, (int, float))
                and not isinstance(threads, bool) and threads > host):
            oversized += 1
            continue
        print(f"  [gone]     {fmt_key(key)}: baseline row not reproduced")
    if oversized:
        print(f"  [skipped]  {oversized} baseline row(s): threads exceeds "
              f"host_threads={host} of this capture")
    return regressions, compared


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", nargs="+",
                    help="freshly produced BENCH_*.json file(s)")
    ap.add_argument("--baseline",
                    help="baseline path override (single-benchmark input only;"
                         " default: bench/baseline/<artifact filename>)")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed fractional ns/message regression "
                         "(default 0.20)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite each benchmark's baseline from the pooled "
                         "per-key medians of the given files")
    args = ap.parse_args()

    by_benchmark = {}
    for path in args.current:
        name, rows = load(path)
        by_benchmark.setdefault(name, []).append(rows)
    if args.baseline and len(by_benchmark) > 1:
        raise SystemExit("--baseline only applies to single-benchmark input")

    regressions = []
    compared_gated = 0
    saw_gated = False
    for name, row_lists in by_benchmark.items():
        schema = SCHEMAS[name]
        pooled = pool_medians(row_lists, schema["keys"])
        baseline_path = args.baseline or os.path.join(BASELINE_DIR,
                                                      schema["file"])
        if args.update:
            write_baseline(baseline_path, name, pooled, schema["keys"])
            continue
        fails, compared = compare(name, pooled, baseline_path, args.threshold)
        regressions.extend(fails)
        if schema["gated"]:
            saw_gated = True
            compared_gated += compared
    if args.update:
        return 0

    if saw_gated and compared_gated == 0:
        print("error: no comparable rows for the gated benchmark")
        return 1
    if regressions:
        print(f"\nFAIL: {len(regressions)} gated row(s) regressed more than "
              f"{args.threshold:.0%} on {METRIC}:")
        for key, base_v, cur_v, ratio in regressions:
            print(f"  {fmt_key(key)}: {base_v:.1f} -> {cur_v:.1f} "
                  f"({ratio:.2f}x)")
        return 1
    print(f"\nOK: no gated regressions "
          f"({compared_gated} gated row(s) within {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
