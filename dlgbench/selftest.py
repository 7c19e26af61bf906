"""Self-test of the benchmark harness: python3 dlgbench/selftest.py

Checks that a wrong answer is counted as failed and kept out of the
throughput, that every workload runs at a tiny size from a seed and
draws the same inputs for the same seed, and that the traced run
reports every per-layer metric and restores what it rebound.
"""

from __future__ import annotations

import contextlib
import json
import unittest

import calibrate
import run

run.load_program()

import spans  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402
from dlg2k import cli, dlg_engine  # noqa: E402

TINY = dict(setup_repeats=1, min_ops=0, warmup_s=0.0, write_spans=False)


@contextlib.contextmanager
def wrong_exponent_every_other_call():
    """Rebind factor_triple to add 1 to the exponent on every second call."""
    original = dlg_engine.factor_triple
    calls = [0]

    def faulty(x, base):
        t = original(x, base)
        calls[0] += 1
        if calls[0] % 2 or t.p == t.k:
            return t
        return dlg_engine.DlgTriple(s=t.s, p=t.p, e=(t.e + 1) % (1 << (t.k - 2)), k=t.k)

    dlg_engine.factor_triple = cli.factor_triple = faulty
    try:
        yield
    finally:
        dlg_engine.factor_triple = cli.factor_triple = original


class CorrectnessCheck(unittest.TestCase):
    def test_wrong_exponent_counts_as_failed_and_not_as_throughput(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), wrong_exponent_every_other_call():
                res = run.run_workload(name, seed=3, seconds=0.3, trace=False, **TINY)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertGreater(res["failed_ratio"], 0)
                self.assertEqual(res["verified"], res["attempted"] - res["failed"])
                self.assertAlmostEqual(
                    res["metrics"]["ops_per_s"] * res["window_s"] * res["to_nominal"], res["verified"])
                self.assertIsNotNone(res["first_failure"])


class TinyRuns(unittest.TestCase):
    def test_each_workload_runs_and_verifies_at_a_tiny_size(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                res = run.run_workload(name, seed=5, seconds=0.2, trace=False, **TINY)
                self.assertTrue(res["correct"], res["first_failure"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(set(res["metrics"]), {n for n, _ in run.END_TO_END})
                self.assertTrue(all(v > 0 for v in res["metrics"].values()), res["metrics"])

    def test_timings_are_scaled_by_the_reference_chunks(self):
        res = run.run_workload("lns-64", seed=5, seconds=0.2, trace=False, **TINY)
        m = res["metrics"]
        self.assertGreater(res["ref_chunks"], 0)
        self.assertAlmostEqual(m["ops_per_s"], res["wall"]["ops_per_s"] / res["to_nominal"])
        self.assertAlmostEqual(m["setup_s"], res["setup_runs_s"][0] * res["setup_to_nominal"][0])
        # chunks that take twice the nominal time halve every duration
        nominal = calibrate.REF_NOMINAL_S
        self.assertAlmostEqual(calibrate.to_nominal([2 * nominal] * 3), 0.5)
        # each batch is scaled by the chunks just before and after it
        win = run.Window(calibrate=True)
        win.latencies.extend([1.0, 2.0])
        win.ref_times.append(2 * nominal)
        win.add_nominal(0, 3.0)
        win.latencies.append(3.0)
        win.ref_times.append(nominal)
        win.add_nominal(2, 3.0)
        self.assertEqual(list(win.nominal_latencies), [0.5, 1.0, 2.0])
        self.assertAlmostEqual(win.nominal_elapsed, 1.5 + 2.0)

    def test_peak_rss_is_read_after_a_fixed_count(self):
        win = run.Window(rss_after=10)
        runner = run.Runner(workloads.Lns64(5), 5)
        runner.wl.prepare({kh: workloads.root_theory.validate_root(workloads.kbit_core.Residue(*kh))
                           for kh in runner.wl.reused_bases()})
        runner.batch("plain", win, lambda elapsed, attempted: attempted >= 5)
        self.assertIsNone(win.peak_rss_mb)
        runner.batch("plain", win, lambda elapsed, attempted: attempted >= 12)
        self.assertIsNotNone(win.peak_rss_mb)

    def test_same_seed_same_inputs(self):
        def first_inputs(name, seed):
            wl = workloads.WORKLOADS[name](seed)
            wl.prepare({kh: f"root{kh}" for kh in wl.reused_bases()})
            runner = run.Runner(wl, seed)
            return [repr(wl.draw(runner.rng, "plain")) for _ in range(6)]

        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(first_inputs(name, 11), first_inputs(name, 11))
                if name != "vectors-256":  # its inputs name a seeded stream, see below
                    self.assertNotEqual(first_inputs(name, 11), first_inputs(name, 12))
        a, b = workloads.Vectors256(11), workloads.Vectors256(12)
        self.assertNotEqual(a._stream_seed("plain", 0), b._stream_seed("plain", 0))
        self.assertEqual(a._stream_seed("plain", 0), workloads.Vectors256(11)._stream_seed("plain", 0))

    def test_splitmix_mirror_matches_published_first_output(self):
        # splitmix64 seeded with 0 starts 0xe220a8397b1dcdaf (Vigna's reference)
        self.assertEqual(workloads.SplitMix64(0).next64(), 0xE220A8397B1DCDAF)
        self.assertEqual(workloads.SplitMix64(9).bits(256),
                         workloads.oracle.draw_bits(workloads.oracle.splitmix64(9), 256))

    def test_check_rejects_a_wrong_rebuild(self):
        wl = workloads.OneShotCli(0)
        inp = (8, 3, 0x10, ["factor", "--k", "8", "--base", "0x3", "--x", "0x10"])
        self.assertTrue(wl.check(inp, (0, '{"s":0,"p":4,"e":"0","k":8}\n')))
        self.assertFalse(wl.check(inp, (0, '{"s":0,"p":4,"e":"1","k":8}\n')))
        self.assertFalse(wl.check(inp, (0, '{"s":0,"p":4,"e":"+0","k":8}\n')))
        self.assertFalse(wl.check(inp, (2, '{"s":0,"p":4,"e":"0","k":8}\n')))


class TracedRun(unittest.TestCase):
    def test_reports_every_per_layer_metric_and_restores_bindings(self):
        originals = (dlg_engine.factor_triple, cli.main, cli.validate_root,
                     dlg_engine.validate_root, workloads.kbit_core.Residue.__dict__["parse"])
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                res = run.run_workload(name, seed=7, seconds=0.4, trace=True, **TINY)
                self.assertTrue(res["correct"], res["first_failure"])
                self.assertEqual(list(res["metrics"]), [n for n, _, _ in spans.PER_LAYER])
                self.assertGreater(res["metrics"]["bench.layer_share"], 0)
        # .calls is per operation: one cli.main per oneshot-cli operation
        res = run.run_workload("oneshot-cli", seed=7, seconds=0.4, trace=True, **TINY)
        self.assertEqual(res["metrics"]["cli.main.calls"], 1.0)
        self.assertEqual(originals, (dlg_engine.factor_triple, cli.main, cli.validate_root,
                                     dlg_engine.validate_root,
                                     workloads.kbit_core.Residue.__dict__["parse"]))

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        outer = tracer.open(0)
        inner = tracer.open(1)
        tracer.close(inner)
        tracer.close(outer)
        tracer.start[outer], tracer.start[inner] = 0.0, 1.0
        tracer.end[inner], tracer.end[outer] = 3.0, 4.0
        summary = tracer.summary()
        self.assertEqual(summary[spans.OP]["busy_s"], 2.0)
        self.assertEqual(summary[spans.TRACED[0]]["busy_s"], 2.0)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_the_run_prints(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([m["unit"] for m in spec["end_to_end"]], [u for _, u in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(spans.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main(verbosity=2)
