"""Self-tests of the benchmark's wrapper accounting and error counting.

    python3 perfbench/selftest.py

Run from the repository root; takes a few seconds (one SMALL world).
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import fig1, table5  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


class TracerAccounting(unittest.TestCase):
    def test_nested_self_times_reconcile_to_wall(self) -> None:
        clock = FakeClock()
        tracer = layers.Tracer(clock)

        def leaf() -> int:
            clock.spend(1.0)
            return 3

        def middle() -> None:
            clock.spend(2.0)
            wrapped_leaf()
            clock.spend(0.5)
            wrapped_leaf()

        wrapped_leaf = tracer.wrap("leaf", leaf, count=float)
        wrapped_middle = tracer.wrap("middle", middle)
        tracer.start()
        clock.spend(0.25)
        wrapped_middle()
        clock.spend(0.75)
        tracer.stop()
        stats = tracer.stats
        self.assertEqual(tracer.wall_s, 5.5)
        self.assertEqual(stats["leaf"].self_s, 2.0)
        self.assertEqual(stats["leaf"].items, 6.0)
        self.assertEqual(stats["leaf"].leaf_calls, 2)
        self.assertEqual(stats["middle"].self_s, 2.5)
        self.assertEqual(stats["middle"].total_s, 4.5)
        self.assertEqual(stats["middle"].leaf_calls, 0)
        self.assertEqual(stats[layers.ROOT].self_s, 1.0)
        self.assertEqual(layers.reconcile_error(stats, tracer.wall_s), 0.0)
        out = layers.ledger(stats, {}, tracer.wall_s)
        self.assertAlmostEqual(out["unattributed_frac"], 1.0 / 5.5)

    def test_fold_keeps_time_with_enclosing_layer(self) -> None:
        clock = FakeClock()
        tracer = layers.Tracer(clock)
        inner = tracer.wrap("inner", lambda: clock.spend(1.0),
                            fold_under=("outer",))
        outer = tracer.wrap("outer", lambda: (clock.spend(1.0), inner()))
        tracer.start()
        outer()
        inner()
        tracer.stop()
        self.assertEqual(tracer.stats["outer"].self_s, 2.0)
        self.assertEqual(tracer.stats["inner"].calls, 1)
        self.assertEqual(tracer.stats["inner"].self_s, 1.0)

    def test_raising_call_unwinds_its_frame(self) -> None:
        clock = FakeClock()
        tracer = layers.Tracer(clock)

        def boom() -> None:
            clock.spend(1.0)
            raise ValueError("boom")

        wrapped = tracer.wrap("boom", boom)
        tracer.start()
        with self.assertRaises(ValueError):
            wrapped()
        tracer.stop()
        self.assertEqual(tracer.stats["boom"].self_s, 1.0)
        self.assertEqual(tracer.stats[layers.ROOT].self_s, 0.0)


class Patching(unittest.TestCase):
    def test_every_name_is_wrapped_then_restored(self) -> None:
        sites = [site for patch in layers.LAYERS for site in patch.sites]
        before = [vars(layers._owner(m, c))[a] for m, c, a in sites]
        installed = layers.install(layers.Tracer(), layers.LAYERS)
        try:
            self.assertEqual(len(layers.unpatched(layers.LAYERS)),
                             len(sites))
        finally:
            installed.restore()
        self.assertEqual(layers.unpatched(layers.LAYERS), [])
        after = [vars(layers._owner(m, c))[a] for m, c, a in sites]
        self.assertTrue(all(a is b for a, b in zip(after, before)))


def _boom(world: object) -> None:
    raise RuntimeError("injected failure")


class TracedSample(unittest.TestCase):
    """A real traced sample on SMALL with a raising experiment stub."""

    @classmethod
    def setUpClass(cls) -> None:
        boom = types.SimpleNamespace(__name__="repro.experiments.boom",
                                     run=_boom)
        workload = workloads.PaperRun(
            experiments=((boom, "raising stub"), (fig1, "fig1"),
                         (table5, "table5")))
        with tempfile.TemporaryDirectory() as tmp:
            cls.result = child.measure(workload, 1, Path(tmp), traced=True)

    def test_raising_stub_counts_in_error_rate(self) -> None:
        failures = self.result["failures"]
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("injected failure", failures[0])
        # Three experiments plus the restore and reconcile checks.
        self.assertEqual(self.result["attempted"], 5)

    def test_wrappers_restored_after_traced_run(self) -> None:
        self.assertEqual(layers.unpatched(layers.LAYERS), [])

    def test_real_layers_reconcile(self) -> None:
        ledger = self.result["layers"]
        self.assertLess(ledger["unattributed_frac"], 0.10)
        self.assertGreater(ledger["topology.build.s"], 0.0)
        self.assertGreater(ledger["experiments.table5.self_s"], 0.0)

    def test_benchmark_json_names_what_the_code_reports(self) -> None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertLessEqual(set(run.WORKLOADS), set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        reported = set(self.result["layers"]) | {"trace_overhead_frac"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, reported)
        for metric in spec["per_layer"]:
            self.assertEqual(metric["unit"], run.layer_unit(metric["name"]))


class Contract(unittest.TestCase):
    def test_refuses_settings_that_bypass_the_wrappers(self) -> None:
        for env in ({"REPRO_WORKERS": "2"}, {"REPRO_CACHE_DIR": "/x"},
                    {"REPRO_FLAT": "0"}, {"REPRO_CACHE": "1"}):
            with self.assertRaises(run.BenchError):
                run.refuse_environment(env)
        run.refuse_environment({"REPRO_WORKERS": "1"})

    def test_default_seed_is_the_preset(self) -> None:
        for workload in workloads.WORKLOADS.values():
            self.assertEqual(workload.config(workloads.DEFAULT_SEED),
                             workload.preset)
            self.assertNotEqual(workload.config(1), workload.preset)


if __name__ == "__main__":
    unittest.main()
