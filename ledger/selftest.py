#!/usr/bin/env python3
"""Self-tests of the ledger's own statistics and checks.

    python3 ledger/selftest.py

Run from the root of a checkout. The statistics tests are pure Python; the
check tests build the harness (as ledger/run.py does) and run it on tiny
corpora: an untouched pass must pass, and a pass whose report or alert log
is deliberately altered must count as failed and raise failed_frac.
"""

import json
import os
import shutil
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave nothing behind under ledger/
sys.path.insert(0, HERE)

import ledger_stats as ls  # noqa: E402
import run  # noqa: E402


def span(i, parent, name, start, end, layer="core"):
    return {"name": name, "cat": layer, "ts": start, "dur": end - start,
            "args": {"id": i, "parent": parent}}


def raw_doc(walls, ok=None, traced=None, peaks=None):
    ok = ok or [True] * len(walls)
    traced = traced or [False] * len(walls)
    peaks = peaks or [100.0 + w for w in walls]
    return {"setup_s": [3.0, 1.0, 2.0], "setup_rss_mb": [250.0, 270.0, 260.0],
            "passes": [{"wall_s": w, "ok": o, "traced": t, "peak_rss_mb": p,
                        "reason": ""}
                       for w, o, t, p in zip(walls, ok, traced, peaks)]}


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_module(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(ls.median(values), 5.5)
        self.assertEqual(ls.quartiles(values), (2.75, 8.25))
        q = statistics.quantiles(values, n=4)
        self.assertEqual(ls.quartiles(values[::-1]), (q[0], q[2]))

    def test_quartiles_of_one_sample(self):
        self.assertEqual(ls.quartiles([4.0]), (4.0, 4.0))

    def test_tail_only_with_ten_samples_beyond(self):
        self.assertIsNone(ls.tail_percentile(1))
        self.assertIsNone(ls.tail_percentile(99))   # 9 beyond p90
        self.assertEqual(ls.tail_percentile(100), 0.9)
        self.assertEqual(ls.tail_percentile(999), 0.9)  # 9 beyond p99
        self.assertEqual(ls.tail_percentile(1000), 0.99)
        self.assertEqual(ls.tail_percentile(10000), 0.999)

    def test_nearest_rank_percentile(self):
        values = list(range(100, 0, -1))
        self.assertEqual(ls.percentile(values, 0.9), 90)
        self.assertEqual(ls.percentile(values, 0.5), 50)
        self.assertEqual(ls.percentile([7], 0.99), 7)

    def test_self_times_sum_to_the_root(self):
        spans = [span(0, -1, "pass", 0, 1000, "ledger"),
                 span(1, 0, "try_load", 0, 400),
                 span(2, 0, "stage.summary", 400, 900),
                 span(3, 2, "inner", 500, 700, "store")]
        selfs = ls.self_times(spans, 0)
        self.assertAlmostEqual(selfs[("ledger", "pass")], 0.1)
        self.assertAlmostEqual(selfs[("core", "stage.summary")], 0.3)
        self.assertAlmostEqual(sum(selfs.values()), 1.0)

    def test_end_to_end_uses_untraced_passes_and_setup_median(self):
        m = ls.end_to_end(raw_doc([1.0, 2.0, 3.0, 9.0],
                                  traced=[False, False, False, True]))
        self.assertEqual(m["pass_s"]["value"], 2.0)
        self.assertEqual(m["setup_s"]["value"], 2.0)
        self.assertEqual(m["setup_rss_mb"]["value"], 260.0)
        self.assertEqual(m["peak_rss_mb"]["value"], 102.0)

    def test_peak_rss_missing_when_it_could_not_be_reset(self):
        m = ls.end_to_end(raw_doc([1.0, 2.0], peaks=[101.0, None]))
        self.assertNotIn("peak_rss_mb", m)

    def test_a_failed_pass_raises_failed_frac(self):
        raw = raw_doc([1.0, 1.0, 1.0, 1.0], ok=[True, False, True, True])
        self.assertEqual(ls.verdict(raw), (4, 1, 0.25))
        line = ls.result_line(raw, {})
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (4, 1))

    def test_per_layer_list_matches_benchmark_json(self):
        path = os.path.join(os.getcwd(), "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json in the working directory")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)


class Checks(unittest.TestCase):
    """The harness's output checks, on tiny corpora (scale 0.01)."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(os.getcwd())
        cls.work = tempfile.mkdtemp(prefix="ledger-selftest-",
                                    dir=os.path.dirname(cls.binary))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def harness(self, workload, *extra):
        return run.measure(self.binary, workload, 3, 0, 0,
                           os.path.join(self.work, workload),
                           ["--scale", "0.01"] + list(extra))

    def check_negative_control(self, workload):
        clean = self.harness(workload)
        self.assertEqual(ls.verdict(clean), (1, 0, 0.0))
        altered = self.harness(workload, "--tamper", "0")
        attempted, failed, frac = ls.verdict(altered)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertGreater(frac, 0.0)
        self.assertFalse(ls.result_line(altered, {})["correct"])
        return altered["passes"][0]["reason"]

    def test_altered_report_fails_the_pass(self):
        reason = self.check_negative_control("analyze_inram")
        self.assertIn("report digest", reason)

    def test_altered_out_of_core_report_fails_the_pass(self):
        reason = self.check_negative_control("analyze_ooc")
        self.assertIn("reference", reason)

    def test_altered_alert_line_fails_the_pass(self):
        reason = self.check_negative_control("replay_rolling")
        self.assertIn("alerts digest", reason)

    def test_wrong_pin_fails_the_pass(self):
        raw = self.harness("analyze_inram", "--pin-report", "0" * 16)
        self.assertEqual(ls.verdict(raw)[1], 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
