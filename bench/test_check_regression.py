#!/usr/bin/env python3
"""Unit tests for check_regression.py.

A BENCH_*.json row can legitimately lack ns_per_message (e.g. a phase that
moved zero messages, or an emitter bug): the pooling keeps such keys visible,
compare() must skip-and-warn on a None median on EITHER side instead of
crashing on the ratio or silently counting the key as compared, and --update
must never write a baseline row without the metric (it could never gate
anything and would print [no data] forever). Counts and oracle columns are
compared exactly on every schema (ExactColumnsTest).

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
        skew=None, **extra):
    r = {"workload": workload, "n": n, "threads": threads, **extra}
    if skew is not None:
        r["skew"] = skew
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


def compare_against(name, current_rows, baseline_rows):
    keys = cr.SCHEMAS[name]["keys"]
    pooled = cr.pool_medians([current_rows], keys)
    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, cr.SCHEMAS[name]["file"])
        with open(baseline, "w") as f:
            json.dump({"benchmark": name, "rows": baseline_rows}, f)
        out = io.StringIO()
        with redirect_stdout(out):
            failures, compared = cr.compare(name, pooled, baseline, 0.20)
    return failures, compared, out.getvalue()


class ExactColumnsTest(unittest.TestCase):
    """Round/message counts and oracle verdicts do not depend on the host:
    any difference from the baseline is a behaviour change and fails, on
    report-only schemas too, however close the timings are."""

    def test_equal_counts_pass(self):
        failures, compared, out = compare_against(
            "engine_microbench",
            [row(metric=10.5, rounds=12, messages=6144)],
            [row(metric=10.0, rounds=12, messages=6144)])
        self.assertEqual(failures, [])
        self.assertEqual(compared, 1)
        self.assertNotIn("[CHANGED]", out)

    def test_message_count_change_fails_on_gated_schema(self):
        failures, compared, out = compare_against(
            "engine_microbench",
            [row(metric=10.0, rounds=12, messages=6143)],
            [row(metric=10.0, rounds=12, messages=6144)])
        self.assertEqual(len(failures), 1)
        self.assertIn("messages 6144 -> 6143 (behaviour change)", failures[0])
        self.assertIn("[CHANGED]", out)
        self.assertEqual(compared, 1)  # the timing still compares

    def test_round_count_change_fails_on_report_only_schema(self):
        mst = {"graph": "GNM(n=1024)", "strategy": "ours", "threads": 1,
               "weight_ok": "yes", "messages": 311101}
        failures, _, _ = compare_against(
            "mst_corollary_1_3",
            [dict(mst, rounds=1668, ns_per_message=50.0)],
            [dict(mst, rounds=3979, ns_per_message=50.0)])
        self.assertEqual(len(failures), 1)
        self.assertIn("rounds 3979 -> 1668", failures[0])

    def test_oracle_verdict_change_fails(self):
        cut = {"graph": "GNM(n=96)", "eps": 0.25, "threads": 1, "rounds": 9,
               "messages": 90, "exact_cut": 3, "ns_per_message": 90.0}
        failures, _, _ = compare_against(
            "mincut_corollary_1_4",
            [dict(cut, found_cut=4)], [dict(cut, found_cut=3)])
        self.assertEqual(len(failures), 1)
        self.assertIn("found_cut 3 -> 4", failures[0])

    def test_table2_setup_count_change_fails_without_a_time_gate(self):
        pa = {"family": "planar(grid)", "n": 576, "mode": "rand",
              "rounds": 48, "messages": 1150, "setup_rounds": 196}
        failures, compared, out = compare_against(
            "table2_pa_runtimes",
            [dict(pa, setup_messages=20607, ns_per_message=500.0)],
            [dict(pa, setup_messages=20606, ns_per_message=100.0)])
        self.assertEqual(len(failures), 1)
        self.assertIn("rand: setup_messages 20606 -> 20607", failures[0])
        self.assertEqual(compared, 1)
        self.assertIn("slower (report-only)", out)
        failures, _, _ = compare_against(
            "table2_pa_runtimes",
            [dict(pa, setup_messages=20606, ns_per_message=500.0),
             dict(pa, mode="det", setup_messages=1)],
            [dict(pa, setup_messages=20606, ns_per_message=100.0)])
        self.assertEqual(failures, [])

    def test_verification_verdict_and_count_changes_fail(self):
        v = {"verifier": "spanning-tree(true)", "n": 512, "m": 1400,
             "rounds": 831, "ns_per_message": 40.0}
        failures, compared, _ = compare_against(
            "verification_corollary_a1",
            [dict(v, verdict="accept", messages=62899)],
            [dict(v, verdict="accept", messages=62899)])
        self.assertEqual(failures, [])
        self.assertEqual(compared, 1)
        failures, _, _ = compare_against(
            "verification_corollary_a1",
            [dict(v, verdict="reject", messages=62900)],
            [dict(v, verdict="accept", messages=62899)])
        self.assertEqual(len(failures), 2)
        self.assertIn("messages 62899 -> 62900", failures[0])
        self.assertIn("verdict 'accept' -> 'reject'", failures[1])

    def test_sssp_counts_and_stretch_are_exact_per_beta(self):
        s = {"graph": "GNM(n=256,w<=50)", "scales": 4, "rounds": 900,
             "messages": 70000, "relax_rounds": 40, "relax_messages": 3000,
             "mean_stretch": 1.0, "ns_per_message": 40.0}
        failures, compared, _ = compare_against(
            "sssp_corollary_1_5",
            [dict(s, beta=0.5, max_stretch=1.25),
             dict(s, beta=0.1, max_stretch=1.0)],
            [dict(s, beta=0.5, max_stretch=1.25),
             dict(s, beta=0.1, max_stretch=1.0)])
        self.assertEqual(failures, [])
        self.assertEqual(compared, 2)
        failures, _, _ = compare_against(
            "sssp_corollary_1_5",
            [dict(s, beta=0.5, max_stretch=1.5)],
            [dict(s, beta=0.5, max_stretch=1.25),
             dict(s, beta=0.1, max_stretch=1.0)])
        self.assertEqual(len(failures), 1)
        self.assertIn("0.5: max_stretch 1.25 -> 1.5", failures[0])

    def test_column_missing_on_one_side_is_a_change(self):
        arq = {"workload": "arq_flood", "graph": "general(GNM)",
               "drop_prob": 0, "threads": 1, "rounds": 9, "messages": 6280,
               "ns_per_message": 50.0}
        failures, _, _ = compare_against(
            "fault_degradation", [arq], [dict(arq, completed=1)])
        self.assertEqual(len(failures), 1)
        self.assertIn("completed 1 -> None", failures[0])

    def test_new_key_is_not_compared(self):
        failures, _, out = compare_against(
            "engine_microbench",
            [row(n=8192, rounds=3, messages=9)],
            [row(rounds=12, messages=6144)])
        self.assertEqual(failures, [])
        self.assertIn("[new]", out)

    def test_samples_that_disagree_are_unstable(self):
        keys = cr.SCHEMAS["engine_microbench"]["keys"]
        exact = cr.SCHEMAS["engine_microbench"]["exact"]
        lists = [[row(rounds=12, messages=6144), row(n=8192, rounds=3)],
                 [row(rounds=12, messages=6145), row(n=8192, rounds=3)]]
        unstable = cr.unstable_keys(lists, keys, exact)
        self.assertEqual(list(unstable),
                         [cr.row_key(row(), keys)])
        self.assertEqual(unstable[cr.row_key(row(), keys)],
                         ("messages", ["6144", "6145"]))

    def test_update_refuses_unstable_samples(self):
        with tempfile.TemporaryDirectory() as tmp:
            inputs = []
            for i, messages in enumerate((6144, 6145)):
                path = os.path.join(tmp, f"run{i}.json")
                with open(path, "w") as f:
                    json.dump({"benchmark": "engine_microbench",
                               "rows": [row(rounds=12, messages=messages)]},
                              f)
                inputs.append(path)
            baseline = os.path.join(tmp, "baseline.json")
            argv = ["check_regression.py", *inputs, "--update",
                    "--baseline", baseline]
            out = io.StringIO()
            saved = sys.argv
            try:
                sys.argv = argv
                with redirect_stdout(out):
                    status = cr.main()
            finally:
                sys.argv = saved
            self.assertEqual(status, 1)
            self.assertFalse(os.path.exists(baseline))
            self.assertIn("samples disagree on messages", out.getvalue())


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
