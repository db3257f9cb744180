#!/usr/bin/env python3
"""Unit tests of vpbench's statistics, correctness gate and metric lists.

    python3 vpbench/test_analysis.py
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402


class Stats(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(analysis.median(v), 4.0)
        self.assertEqual(analysis.quartiles(v),
                         tuple(statistics.quantiles(v, n=4)))
        self.assertEqual(analysis.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_geomean(self):
        self.assertAlmostEqual(analysis.geomean([1, 4, 16]), 4.0)
        self.assertAlmostEqual(analysis.geomean([7.5]), 7.5)
        with self.assertRaises(ValueError):
            analysis.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            analysis.geomean([])

    def test_nearest_rank_percentile(self):
        v = list(range(1, 101))  # 1..100
        self.assertEqual(analysis.percentile(v, 50), 50)
        self.assertEqual(analysis.percentile(v, 90), 90)
        self.assertEqual(analysis.percentile(v, 99.9), 100)
        self.assertEqual(analysis.percentile([3, 1, 2], 0), 1)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(analysis.tail_percentile(19))
        self.assertEqual(analysis.tail_percentile(20), 50.0)
        self.assertEqual(analysis.tail_percentile(39), 50.0)
        self.assertEqual(analysis.tail_percentile(40), 75.0)
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(199), 90.0)
        self.assertEqual(analysis.tail_percentile(200), 95.0)
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(10000), 99.9)
        for n in range(20, 3000, 7):
            p = analysis.tail_percentile(n)
            self.assertGreaterEqual(analysis.beyond(n, p), 10)
            higher = [q for q in analysis.PERCENTILE_LADDER if q > p]
            for q in higher:
                self.assertLess(analysis.beyond(n, q), 10)

    def test_latency_summary_pools_ratios_to_group_medians(self):
        fast = [1.0] * 30
        slow = [10.0] * 29 + [20.0]
        p50, tail, p, n = analysis.latency_summary([fast, slow])
        self.assertAlmostEqual(p50, analysis.geomean([1.0, 10.0]))
        self.assertEqual(n, 60)
        self.assertEqual(p, 75.0)
        self.assertAlmostEqual(tail, p50)  # one outlier is beyond p75
        few = analysis.latency_summary([[1.0, 2.0, 3.0]])
        self.assertEqual(few, (2.0, 2.0, 50.0, 3))

    def test_speed_is_the_geomean_of_fast_decile_speeds(self):
        slowed = [100.0] * 9 + [50.0] * 11  # a disturbed stretch
        other = [float(v) for v in range(1, 21)]
        self.assertAlmostEqual(analysis.speed([slowed, other]),
                               analysis.geomean([100.0, 18.0]))

    def test_setup_time_is_the_fast_decile(self):
        # A cold first set-up and a slow stretch do not set the level.
        samples = [0.050] + [0.024] * 9 + [0.012] * 10 + [0.013] * 10
        self.assertEqual(analysis.setup_time(samples), 0.012)
        self.assertEqual(analysis.setup_time([0.03]), 0.03)


def stats(**kw):
    s = {f: 0 for f, _, _ in analysis.COUNTERS.values()}
    s.update({"fetch_summary_hits": 0, "decode_hits": 0, "sa_pinned_blocks": 0,
              "sa_pinned_hits": 0})
    s.update(kw)
    return s


def record(kind, instret=1000, **kw):
    r = {"req": 0, "kind": kind, "traced": False, "start": 0.0,
         "seconds": 0.01, "error": "", "reason": "exit", "exit_code": 0,
         "instret": instret, "sim_ps": 5000, "uart_bytes": 0,
         "uart_hash": "1", "watchdog_resets": 0, "stats": stats()}
    r.update(kw)
    return r


class TaintAssertions(unittest.TestCase):
    def test_permissive_runs_must_not_dispatch_tainted(self):
        self.assertIsNone(analysis.taint_problem(
            "plain-kernels", "vpd", stats(plain_variant_hits=5)))
        self.assertIn("tainted", analysis.taint_problem(
            "plain-kernels", "vpd", stats(tainted_variant_hits=1)))

    def test_live_taint_needs_tainted_dispatch_and_lub(self):
        self.assertIsNone(analysis.taint_problem(
            "tainted-kernels", "vpd-live",
            stats(tainted_variant_hits=3, lub_calls=1)))
        self.assertIn("LUB", analysis.taint_problem(
            "tainted-kernels", "vpd-live", stats(tainted_variant_hits=3)))
        self.assertIn("no tainted", analysis.taint_problem(
            "tainted-kernels", "vpd-live", stats(lub_calls=3)))

    def test_peripheral_live_taint_needs_only_tainted_dispatch(self):
        self.assertIsNone(analysis.taint_problem(
            "periph-io", "vpd-live", stats(tainted_variant_hits=3)))
        self.assertIsNotNone(analysis.taint_problem(
            "periph-io", "vpd-live", stats()))

    def test_plain_vp_has_no_assertion(self):
        self.assertIsNone(analysis.taint_problem(
            "periph-io", "vp", stats(tainted_variant_hits=3)))

    def test_policy_files_classify_and_clear_everything(self):
        pol_dir = os.path.join(HERE, "policies")
        for name in ("sha512", "sha256", "rtos-tasks", "simple-sensor"):
            with open(os.path.join(pol_dir, name + ".pol")) as f:
                lines = [l.split() for l in f if l.strip() and
                         not l.startswith("#")]
            self.assertTrue(any(l[0] == "classify" and l[-1] == "HC"
                                for l in lines), name)
            for unit in ("fetch", "branch", "memaddr"):
                self.assertIn(["exec", unit, "HC"], lines, name)


class KernelGate(unittest.TestCase):
    def doc(self, records, workload="tainted-kernels"):
        return {"workload": workload,
                "kinds": [{"program": "sha256", "engine": "vpd",
                           "headline": False},
                          {"program": "sha256", "engine": "vpd-live",
                           "headline": True}],
                "reference_records": 2, "records": records}

    def live(self, **kw):
        return record(1, stats=stats(tainted_variant_hits=9, lub_calls=2),
                      **kw)

    def test_clean_run_passes(self):
        recs = [record(0), self.live(), record(0), self.live()]
        self.assertEqual(analysis.check_kernel_records(self.doc(recs)),
                         (4, []))

    def test_simulated_statistics_must_match_across_engines(self):
        recs = [record(0), self.live(instret=999)]
        _, failures = analysis.check_kernel_records(self.doc(recs))
        self.assertEqual(failures[0][0], 1)
        self.assertIn("instret", failures[0][1])

    def test_counters_must_repeat_across_reps(self):
        other = self.live()
        other["stats"]["lub_calls"] = 3
        _, failures = analysis.check_kernel_records(
            self.doc([record(0), self.live(), other]))
        self.assertEqual([i for i, _ in failures], [2])

    def test_crash_and_violation_fail(self):
        recs = [record(0, error="boom"),
                self.live(reason="violation", exit_code=0)]
        _, failures = analysis.check_kernel_records(self.doc(recs))
        self.assertEqual(len(failures), 2)

    def test_e2e_uses_headline_kinds_of_the_loop_only(self):
        recs = [record(0), self.live()]
        for i in range(30):
            recs.append(record(0, seconds=1.0))
            recs.append(self.live(seconds=0.002))
        e2e = analysis.kernel_e2e(self.doc(recs),
                                  analysis.loop_records(self.doc(recs), False))
        self.assertAlmostEqual(e2e["op_ms.p50"], 2.0)
        self.assertAlmostEqual(e2e["guest_mips"], 0.5)
        self.assertAlmostEqual(e2e["guest_mips.p90"], 0.5)


def submission(warm, executed, **kw):
    s = {"req": 0, "fw": "qsort", "seed": 1, "warm": warm, "traced": False,
         "start": 0.0, "first_event": 0.01, "last_event": 0.09, "done": 0.1,
         "events": 4, "jobs": 4, "ok": True, "error": "", "report_bytes": 100,
         "replay_instret": 150,
         "service": {"golden_cache_hits": 1 if warm else 0,
                     "golden_cache_misses": 0 if warm else 1,
                     "snapshot_hits": 4 if warm else 0,
                     "snapshot_misses": 0 if warm else 4,
                     "executed_instret": executed, "vp_builds": 0,
                     "vp_reuses": 4, "translation_reuses": 4}}
    s.update(kw)
    return s


class ServiceGate(unittest.TestCase):
    def doc(self, subs, errors=None):
        return {"submissions": subs, "pair_errors": errors or [""],
                "faults_per_suite": 4, "driver_error": ""}

    def test_clean_pair_passes(self):
        d = self.doc([submission(False, 100), submission(True, 60)])
        self.assertEqual(analysis.check_submissions(d), (2, []))

    def test_warm_must_hit_the_caches_and_retire_less(self):
        warm = submission(True, 60)
        warm["service"]["snapshot_misses"] = 1
        _, f = analysis.check_submissions(
            self.doc([submission(False, 100), warm]))
        self.assertIn("snapshots", f[0][1])
        _, f = analysis.check_submissions(
            self.doc([submission(False, 100), submission(True, 100)]))
        self.assertIn("fewer", f[0][1])
        cold_hit = submission(True, 60)
        cold_hit["service"]["golden_cache_hits"] = 0
        _, f = analysis.check_submissions(
            self.doc([submission(False, 100), cold_hit]))
        self.assertIn("golden", f[0][1])

    def test_cold_must_fill_the_golden_cache(self):
        cold = submission(False, 100)
        cold["service"]["golden_cache_hits"] = 1
        cold["service"]["golden_cache_misses"] = 0
        _, f = analysis.check_submissions(
            self.doc([cold, submission(True, 60)]))
        self.assertEqual([i for i, _ in f], [0])
        self.assertIn("golden", f[0][1])

    def test_speed_counts_the_suite_work_not_executed_instructions(self):
        # A warm resubmission executes fewer instructions for the same
        # suite; its speed must rise with its lower latency, not fall.
        cold = submission(False, 100, done=0.2)
        warm = submission(True, 10, done=0.1)
        e2e = analysis.fi_e2e({}, [cold, warm])
        self.assertAlmostEqual(e2e["guest_mips"],
                               analysis.geomean([150 / 0.2, 150 / 0.1]) / 1e6)
        unverified = submission(True, 10, done=0.1, replay_instret=0)
        self.assertEqual(
            analysis.fi_e2e({}, [cold, warm, unverified])["guest_mips.p90"],
            e2e["guest_mips.p90"])

    def test_speed_is_the_fast_decile_of_the_speed_firmware(self):
        cold = [submission(False, 100, done=d) for d in
                [0.2] * 9 + [0.4] * 11]
        sensor = submission(False, 100, fw="simple-sensor", done=5.0)
        e2e = analysis.fi_e2e({}, cold + [sensor])
        self.assertAlmostEqual(e2e["guest_mips.p90"], 150 / 0.2 / 1e6)
        self.assertAlmostEqual(e2e["guest_mips"], 150 / 0.4 / 1e6)
        # simple-sensor still counts towards the latencies.
        self.assertEqual(e2e["_samples"], 21)

    def test_reference_mismatch_fails_both_submissions(self):
        d = self.doc([submission(False, 100), submission(True, 60)],
                     ["cold report differs"])
        _, f = analysis.check_submissions(d)
        self.assertEqual([i for i, _ in f], [0, 1])

    def test_errors_and_missing_events_fail(self):
        d = self.doc([submission(False, 100, error="overloaded"),
                      submission(True, 60, events=3)])
        _, f = analysis.check_submissions(d)
        self.assertEqual(len(f), 2)
        d = self.doc([])
        d["driver_error"] = "connect failed"
        self.assertEqual(analysis.check_submissions(d)[0], 1)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metric_lists_match_the_analysis(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in self.bench["end_to_end"]],
            [tuple(m) for m in analysis.E2E_SPEC])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["per_layer"]],
            analysis.per_layer_spec())

    def test_workloads_match_the_driver(self):
        import run
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]),
                         run.WORKLOADS)

    def test_per_layer_names_are_unique(self):
        names = [n for n, _, _ in analysis.per_layer_spec()]
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(len(names), 128)


if __name__ == "__main__":
    unittest.main()
