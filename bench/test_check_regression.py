#!/usr/bin/env python3
"""Unit tests for check_regression.py's metric-less-row handling.

A BENCH_*.json row can legitimately lack ns_per_message (e.g. a phase that
moved zero messages, or an emitter bug): the pooling keeps such keys visible,
compare() must skip-and-warn on a None median on EITHER side instead of
crashing on the ratio or silently counting the key as compared, and --update
must never write a baseline row without the metric (it could never gate
anything and would print [no data] forever).

Run directly (python3 bench/test_check_regression.py) or via ctest
(check_regression_py).
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_regression as cr  # noqa: E402

KEYS = cr.SCHEMAS["engine_microbench"]["keys"]


def row(workload="flood_steady", n=1024, threads=1, metric=10.0,
        skew=None, transport=None):
    r = {"workload": workload, "n": n, "threads": threads}
    if skew is not None:
        r["skew"] = skew
    if transport is not None:
        r["transport"] = transport
    if metric is not None:
        r[cr.METRIC] = metric
    return r


class PoolMediansTest(unittest.TestCase):
    def test_metricless_row_kept_with_none_median(self):
        pooled = cr.pool_medians([[row(metric=None)]], KEYS)
        self.assertEqual(len(pooled), 1)
        ((rep, median, samples),) = pooled.values()
        self.assertIsNone(median)
        self.assertEqual(samples, 0)
        self.assertNotIn(cr.METRIC, rep)

    def test_median_pools_across_files_and_skips_metricless_samples(self):
        lists = [[row(metric=10.0)], [row(metric=None)], [row(metric=30.0)]]
        pooled = cr.pool_medians(lists, KEYS)
        ((_, median, samples),) = pooled.values()
        self.assertEqual(median, 20.0)
        self.assertEqual(samples, 2)


class CompareTest(unittest.TestCase):
    def _compare(self, current_rows, baseline_rows):
        pooled = cr.pool_medians([current_rows], KEYS)
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "BENCH_engine.json")
            with open(baseline, "w") as f:
                json.dump({"benchmark": "engine_microbench",
                           "rows": baseline_rows}, f)
            out = io.StringIO()
            with redirect_stdout(out):
                regressions, compared = cr.compare(
                    "engine_microbench", pooled, baseline, 0.20)
        return regressions, compared, out.getvalue()

    def test_metricless_current_row_skips_and_warns(self):
        regressions, compared, out = self._compare(
            [row(metric=None), row(n=8192, metric=10.0)],
            [row(metric=10.0), row(n=8192, metric=10.0)])
        self.assertEqual(regressions, [])
        self.assertEqual(compared, 1)  # only the row with data on both sides
        self.assertIn("current side has no", out)

    def test_leftover_pipeline_field_is_not_a_key(self):
        # Rows captured while the engine had two round-close modes carry a
        # `pipeline` field; it no longer splits keys, so they still match.
        old = dict(row(threads=4, metric=10.0), pipeline=0)
        regressions, compared, _ = self._compare(
            [row(threads=4, metric=11.0)], [old])
        self.assertEqual(regressions, [])
        self.assertEqual(compared, 1)

    def test_metricless_baseline_row_skips_and_warns(self):
        regressions, compared, out = self._compare(
            [row(metric=10.0)], [row(metric=None)])
        self.assertEqual(regressions, [])
        self.assertEqual(compared, 0)
        self.assertIn("baseline side has no", out)

    def test_real_regression_still_fails(self):
        regressions, compared, _ = self._compare(
            [row(metric=30.0), row(n=8192, metric=None)],
            [row(metric=10.0), row(n=8192, metric=None)])
        self.assertEqual(compared, 1)
        self.assertEqual(len(regressions), 1)


class SkewKeyTest(unittest.TestCase):
    """The skew column joined the engine schema after baselines existed:
    old skewless rows must keep gating against new skew=8 rows (the KEY
    DEFAULT is the historical top-n/8 band), while distinct skew settings
    form distinct keys."""

    def test_old_skewless_baseline_matches_current_skew8_row(self):
        pooled = cr.pool_medians(
            [[row(workload="skewed_flood", skew=8, metric=30.0)]], KEYS)
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "BENCH_engine.json")
            with open(baseline, "w") as f:
                json.dump({"benchmark": "engine_microbench",
                           "rows": [row(workload="skewed_flood",
                                        metric=10.0)]}, f)
            out = io.StringIO()
            with redirect_stdout(out):
                regressions, compared = cr.compare(
                    "engine_microbench", pooled, baseline, 0.20)
        self.assertEqual(compared, 1)  # matched despite the baseline's
        self.assertEqual(len(regressions), 1)  # missing skew field — and gated

    def test_distinct_skews_are_distinct_keys(self):
        pooled = cr.pool_medians(
            [[row(workload="skewed_flood", skew=8, metric=10.0),
              row(workload="skewed_flood", skew=32, metric=10.0)]], KEYS)
        self.assertEqual(len(pooled), 2)

    def test_new_skew_row_reports_as_new_not_fails(self):
        pooled = cr.pool_medians(
            [[row(workload="skewed_flood", skew=8, metric=10.0),
              row(workload="skewed_flood", skew=32, metric=99.0)]], KEYS)
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "BENCH_engine.json")
            with open(baseline, "w") as f:
                json.dump({"benchmark": "engine_microbench",
                           "rows": [row(workload="skewed_flood",
                                        metric=10.0)]}, f)
            out = io.StringIO()
            with redirect_stdout(out):
                regressions, compared = cr.compare(
                    "engine_microbench", pooled, baseline, 0.20)
        self.assertEqual(compared, 1)
        self.assertEqual(regressions, [])
        self.assertIn("[new]", out.getvalue())

    def test_non_skewed_workloads_unaffected_by_skew_default(self):
        pooled = cr.pool_medians([[row(metric=10.0)]], KEYS)
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "BENCH_engine.json")
            with open(baseline, "w") as f:
                json.dump({"benchmark": "engine_microbench",
                           "rows": [row(metric=10.0)]}, f)
            out = io.StringIO()
            with redirect_stdout(out):
                regressions, compared = cr.compare(
                    "engine_microbench", pooled, baseline, 0.20)
        self.assertEqual(compared, 1)
        self.assertEqual(regressions, [])


class TransportKeyTest(unittest.TestCase):
    """The transport column joined the engine schema after baselines existed
    (the §10 shm ring backend): transport-less rows must keep gating against
    explicit transport="inproc" rows (the KEY DEFAULT — in-proc was the only
    data plane), while shm rows form distinct, independently gated keys."""

    def _compare(self, current_rows, baseline_rows):
        pooled = cr.pool_medians([current_rows], KEYS)
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "BENCH_engine.json")
            with open(baseline, "w") as f:
                json.dump({"benchmark": "engine_microbench",
                           "rows": baseline_rows}, f)
            out = io.StringIO()
            with redirect_stdout(out):
                regressions, compared = cr.compare(
                    "engine_microbench", pooled, baseline, 0.20)
        return regressions, compared, out.getvalue()

    def test_old_transportless_baseline_matches_explicit_inproc_row(self):
        regressions, compared, _ = self._compare(
            [row(threads=4, transport="inproc", metric=30.0)],
            [row(threads=4, metric=10.0)])
        self.assertEqual(compared, 1)  # matched despite the baseline's
        self.assertEqual(len(regressions), 1)  # missing field — and gated

    def test_shm_and_inproc_rows_are_distinct_keys(self):
        pooled = cr.pool_medians(
            [[row(threads=4, metric=10.0),
              row(threads=4, transport="shm", metric=10.0)]], KEYS)
        self.assertEqual(len(pooled), 2)

    def test_new_shm_row_reports_as_new_against_old_baseline(self):
        regressions, compared, out = self._compare(
            [row(threads=4, metric=10.0),
             row(threads=4, transport="shm", metric=99.0)],
            [row(threads=4, metric=10.0)])
        self.assertEqual(compared, 1)
        self.assertEqual(regressions, [])
        self.assertIn("[new]", out)

    def test_shm_regression_gates_independently(self):
        regressions, compared, _ = self._compare(
            [row(threads=4, metric=10.0),
             row(threads=4, transport="shm", metric=40.0)],
            [row(threads=4, metric=10.0),
             row(threads=4, transport="shm", metric=12.0)])
        self.assertEqual(compared, 2)
        self.assertEqual(len(regressions), 1)


class GoneRowTest(unittest.TestCase):
    """Baseline rows whose `threads` exceeds the current capture's
    host_threads cannot be reproduced on this runner (the thread sweep
    autotunes to host cores): they collapse into one [skipped] summary line
    instead of a per-row [gone] wall. Gone rows within the host's reach —
    and every gone row when no current sample carries host_threads — still
    report per row."""

    def _compare(self, current_rows, baseline_rows):
        pooled = cr.pool_medians([current_rows], KEYS)
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "BENCH_engine.json")
            with open(baseline, "w") as f:
                json.dump({"benchmark": "engine_microbench",
                           "rows": baseline_rows}, f)
            out = io.StringIO()
            with redirect_stdout(out):
                regressions, compared = cr.compare(
                    "engine_microbench", pooled, baseline, 0.20)
        return regressions, compared, out.getvalue()

    @staticmethod
    def _hosted(r, host_threads):
        r["host_threads"] = host_threads
        return r

    def test_oversized_gone_rows_collapse_to_skipped_summary(self):
        regressions, compared, out = self._compare(
            [self._hosted(row(threads=1, metric=10.0), 2),
             self._hosted(row(threads=2, metric=10.0), 2)],
            [row(threads=1, metric=10.0), row(threads=2, metric=10.0),
             row(threads=4, metric=10.0), row(threads=8, metric=10.0)])
        self.assertEqual(regressions, [])
        self.assertEqual(compared, 2)
        self.assertNotIn("[gone]", out)
        self.assertIn("[skipped]  2 baseline row(s)", out)
        self.assertIn("host_threads=2", out)

    def test_reachable_gone_row_still_reports_per_row(self):
        _, _, out = self._compare(
            [self._hosted(row(threads=2, metric=10.0), 4)],
            [row(threads=2, metric=10.0),
             row(workload="skewed_flood", threads=2, skew=8, metric=10.0),
             row(threads=8, metric=10.0)])
        self.assertIn("[gone]", out)       # skewed_flood/2 is reachable
        self.assertIn("skewed_flood", out)
        self.assertIn("[skipped]  1 baseline row(s)", out)  # threads=8 is not

    def test_without_host_threads_every_gone_row_reports(self):
        _, _, out = self._compare(
            [row(threads=1, metric=10.0)],
            [row(threads=1, metric=10.0), row(threads=64, metric=10.0)])
        self.assertIn("[gone]", out)
        self.assertNotIn("[skipped]", out)


class UpdateTest(unittest.TestCase):
    def test_update_never_writes_metricless_baseline_row(self):
        pooled = cr.pool_medians(
            [[row(metric=None), row(n=8192, metric=12.0)]], KEYS)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_engine.json")
            out = io.StringIO()
            with redirect_stdout(out):
                cr.write_baseline(path, "engine_microbench", pooled, KEYS)
            with open(path) as f:
                doc = json.load(f)
        self.assertEqual(len(doc["rows"]), 1)
        for r in doc["rows"]:
            self.assertIn(cr.METRIC, r)
        self.assertIn("not writing a metric-less baseline row", out.getvalue())


if __name__ == "__main__":
    unittest.main()
