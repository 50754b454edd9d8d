#!/usr/bin/env python3
"""Inproc-vs-shm transport-tax summary for BENCH_engine.json (DESIGN.md §10).

Pairs every shm-transport row with its matching inproc row (same workload,
n, threads, skew) and prints the per-key ns_per_message delta —
the live transport tax of the zero-copy wire path. Pure report: exit code
is 0 whenever the input parses and at least one pair exists (the regression
gate in check_regression.py is what fails CI). CI runs this in bench-smoke
and uploads the table next to the JSON artifacts.

Usage:
  shm_delta.py BENCH_engine.json [more BENCH_engine.json ...]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_regression as cr  # noqa: E402

KEYS = cr.SCHEMAS["engine_microbench"]["keys"]
T_IDX = KEYS.index("transport")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__.strip())
    row_lists = []
    for path in argv[1:]:
        name, rows = cr.load(path)
        if name != "engine_microbench":
            sys.exit(f"{path}: expected engine_microbench, got {name!r}")
        row_lists.append(rows)
    pooled = cr.pool_medians(row_lists, KEYS)

    pairs = []
    for key, (_, median, _) in pooled.items():
        if key[T_IDX] != "shm" or median is None:
            continue
        inproc_key = key[:T_IDX] + ("inproc",) + key[T_IDX + 1:]
        base = pooled.get(inproc_key)
        if base is None or base[1] is None:
            print(f"  [unpaired] {cr.fmt_key(key)}: no inproc row to compare")
            continue
        pairs.append((key, base[1], median))

    print("== shm transport tax (ns_per_message, shm vs inproc)")
    if not pairs:
        sys.exit("error: no shm/inproc row pairs found — was the bench run "
                 "with the transport sweep?")
    worst = 0.0
    for key, inproc_v, shm_v in sorted(pairs, key=lambda p: cr.fmt_key(p[0])):
        tax = shm_v / inproc_v - 1.0
        worst = max(worst, tax)
        print(f"  [{tax:+7.1%}] {cr.fmt_key(key)}: "
              f"{inproc_v:.1f} -> {shm_v:.1f}")
    print(f"worst shm tax: {worst:+.1%} across {len(pairs)} pair(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
