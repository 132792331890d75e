"""Self-tests for the benchmark's own code: span arithmetic, the percentile
choice, metric derivation and the outside wrappers' clean-up.

    python3 -m unittest bench/selftest.py      (from the repository root)
"""

import importlib
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import metrics  # noqa: E402
import pace  # noqa: E402
from tracer import Span, Tracer, percentile, samples_beyond, self_times, union_length  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps_and_gaps(self):
        self.assertEqual(union_length([]), 0.0)
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(union_length([(5, 6), (0, 10)]), 10)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            Span(0, "train.train", 0.0, 10.0, None),
            Span(1, "nn.forward", 1.0, 3.0, 0),
            Span(2, "nn.backward", 3.0, 6.0, 0),
            Span(3, "features.featurize_batch", 4.0, 5.0, 2),
        ]
        self.assertEqual(self_times(spans), [5.0, 2.0, 2.0, 1.0])

    def test_child_outside_parent_is_clipped(self):
        spans = [Span(0, "a", 0.0, 4.0, None), Span(1, "b", 3.0, 6.0, 0)]
        self.assertEqual(self_times(spans)[0], 3.0)

    def test_tracer_tags_a_call_that_raised(self):
        tracer = Tracer({"m.f": lambda a, k, r: {"ok": True}})
        mod = SimpleNamespace(f=lambda: 1 / 0)
        tracer.install([(mod, "f")], lambda fn: "m.f")
        with self.assertRaises(ZeroDivisionError):
            mod.f()
        tracer.restore()
        self.assertEqual(tracer.spans[0].tags, {"raised": "ZeroDivisionError"})
        self.assertGreaterEqual(tracer.spans[0].end, tracer.spans[0].start)
        self.assertEqual(tracer._stack, [])

    def test_tracer_records_nesting(self):
        tracer = Tracer()
        mod = SimpleNamespace()
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        tracer.install([(mod, "inner"), (mod, "outer")], lambda fn: "m.f")
        self.assertEqual(mod.outer(1), 4)
        outer, inner = sorted(tracer.spans, key=lambda s: s.start)
        self.assertEqual((outer.parent, inner.parent), (None, outer.id))
        self.assertGreaterEqual(self_times(tracer.spans)[outer.id], 0.0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 90), 90)
        self.assertEqual(percentile(reversed(values), 99), 99)
        self.assertEqual(percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_p90_has_ten_samples_beyond(self):
        self.assertEqual(samples_beyond(100, 90), 10)
        self.assertEqual(samples_beyond(99, 90), 9)
        self.assertEqual(samples_beyond(10_000, 99.9), 10)
        # The narrow sweep's per-depth step count must support its p90.
        steps = 2 * 2 * 45  # repeats x epochs x batches of 1,440 fit rows
        self.assertGreaterEqual(samples_beyond(steps, 90), 10)


class MetricsTest(unittest.TestCase):
    def test_first_cell_excess(self):
        tags = {"depth": 1}
        trains = [Span(0, "train.train", 0.0, 2.0, None, tags),
                  Span(1, "train.train", 3.0, 4.0, None, tags),
                  Span(2, "train.train", 5.0, 6.5, None, tags),
                  Span(3, "train.train", 7.0, 9.0, None, {"depth": 3})]
        self.assertEqual(metrics.first_cell_excess(trains), 0.75)
        self.assertEqual(metrics.first_cell_excess(trains[:1]), 0.0)

    def test_top_level_skips_nested_calls(self):
        spans = [Span(0, "experiment.run_depth_sweep", 0, 9, None),
                 Span(1, "train.train", 1, 4, 0),
                 Span(2, "train.evaluate", 2, 3, 1),
                 Span(3, "train.evaluate", 5, 6, 0)]
        self.assertEqual([s.id for s in metrics.top_level(spans)], [1, 3])

    def test_every_metric_has_a_unit(self):
        self.assertEqual(set(metrics.END_TO_END) | set(metrics.PER_LAYER), set(metrics.UNITS))

    def test_benchmark_json_lists_the_metrics_printed(self):
        import json

        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        for key, names in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
            expected = [(n, metrics.UNITS[n], "higher" if n in metrics.HIGHER_IS_BETTER else "lower")
                        for n in names]
            self.assertEqual(listed, expected)
        import run

        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))

    def test_time_column_dropped(self):
        self.assertEqual(checks.without_time_column("a,b,c\n1,2,3\n"), "a,c\n1,3\n")


class PaceTest(unittest.TestCase):
    def test_factor_scales_spans_to_the_nominal_pace(self):
        slow = 2 * pace.NOMINAL_S
        self.assertEqual(pace.factor([slow, slow, 4 * slow], 1.0), 0.5)
        self.assertAlmostEqual(pace.factor([slow], 0.5), 0.5 ** 0.5)
        doc = {"spans": [[0, "train.train", 1.0, 3.0, None, None]], "pace": [slow],
               "pace_exponent": 1.0}
        (span,) = metrics.spans_of(doc)
        self.assertEqual((span.start, span.end), (0.5, 1.5))
        self.assertEqual(metrics.pace_factor({"pace": [], "pace_exponent": 1.0}), 1.0)

    def test_sampler_records_and_restores_the_handler(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        pacer = pace.Pace()
        pacer.start()
        end = time.monotonic() + 0.2
        while time.monotonic() < end:
            pass
        pacer.stop()
        self.assertGreater(len(pacer.samples), 3)
        self.assertTrue(all(t > 0 for t in pacer.samples))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)


class WrapperRestoreTest(unittest.TestCase):
    """The traced mode wraps functions inside the package; every original
    must be back in place afterwards, even when the traced call raises."""

    def setUp(self):
        self.modules = child._modules()
        self.before = {
            (name, attr): value
            for name, module in self.modules.items()
            for attr, value in vars(module).items()
        }

    def assert_restored(self, tracer):
        after = {
            (name, attr): value
            for name, module in self.modules.items()
            for attr, value in vars(module).items()
        }
        self.assertEqual(after.keys(), self.before.keys())
        for key, value in after.items():
            self.assertIs(value, self.before[key], key)
        self.assertEqual(child.wrapped_left(self.modules, tracer), [])

    def test_sites_cover_every_lookup_and_restore(self):
        sites = child.traced_sites(self.modules)
        names = {f"{m.__name__}.{a}" for m, a in sites}
        for expected in ("qdelnet.train.forward", "qdelnet.experiment.train",
                         "qdelnet.cli.evaluate", "qdelnet.train.split_train_val"):
            self.assertIn(expected, names)
        tracer = Tracer(child.ANNOTATORS)
        tracer.install(sites, child.span_name)
        self.assertEqual(len(child.wrapped_left(self.modules, tracer)), len(sites))
        qdelnet = importlib.import_module("qdelnet")
        corpus, table = self.modules["data"].gen_synthetic(40, 20, 4, 3, 0.1, seed=1)
        model = self.modules["nn"].build_model(
            qdelnet.ModelConfig(input_dim=13, hidden_widths=(8, 4), seed=1))
        self.modules["train"].train(model, corpus, qdelnet.TrainConfig(epochs=1, seed=1), table)
        names_seen = {s.name for s in tracer.spans}
        self.assertTrue({"train.train", "nn.forward", "nn.sgd_step", "train.evaluate"} <= names_seen)
        tracer.restore()
        self.assert_restored(tracer)

    def test_per_layer_survives_a_step_that_raised(self):
        """A diverging run: sgd_step raises inside train(), which catches it."""
        from qdelnet.errors import NumericError

        def sgd_step(model, grads, learning_rate):
            raise NumericError("diverged")

        sgd_step.__module__ = "qdelnet.nn"
        broken = Tracer()
        broken.replace(self.modules["train"], "sgd_step", sgd_step)
        tracer = Tracer(child.ANNOTATORS)
        sites = child.traced_sites(self.modules) + [(self.modules["train"], "sgd_step")]
        tracer.install(sites, child.span_name)
        try:
            qdelnet = importlib.import_module("qdelnet")
            corpus, table = self.modules["data"].gen_synthetic(40, 20, 4, 3, 0.1, seed=1)
            model = self.modules["nn"].build_model(
                qdelnet.ModelConfig(input_dim=13, hidden_widths=(8,), seed=1))
            _, report = self.modules["train"].train(
                model, corpus, qdelnet.TrainConfig(epochs=1, seed=1), table)
        finally:
            tracer.restore()
            broken.restore()
        self.assert_restored(tracer)
        self.assertTrue(report.diverged)
        steps = [s for s in tracer.spans if s.name == "nn.sgd_step"]
        self.assertEqual([s.tags for s in steps], [{"raised": "NumericError"}])

        doc = {"spans": [s.to_list() for s in tracer.spans], "pace": [], "pace_exponent": 1.0}
        values, _ = metrics.per_layer(SimpleNamespace(report=doc, cpu_s=1.0),
                                      SimpleNamespace(report=doc, cpu_s=1.1))
        self.assertEqual(values["train.steps"], 0)
        self.assertEqual(values["train.diverged_runs"], 1)
        self.assertGreater(values["nn.forward_us.d1.p50"], 0.0)
        self.assertGreater(values["nn.backward_us.d1.p50"], 0.0)
        self.assertEqual(values["nn.sgd_step_us.d1.p50"], 0.0)
        self.assertEqual(values["train.feature_cache_ratio"], 1.0)
        self.assertGreater(values["train.train_s.d1"], 0.0)

    def test_restore_after_exception(self):
        tracer = Tracer(child.ANNOTATORS)
        tracer.install(child.traced_sites(self.modules), child.span_name)
        with self.assertRaises(Exception):
            self.modules["nn"].build_model("not a config")
        tracer.restore()
        self.assert_restored(tracer)
        self.assertEqual(tracer._stack, [])


if __name__ == "__main__":
    unittest.main()
