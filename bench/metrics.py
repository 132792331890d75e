"""Metrics derived from child-process reports.

End-to-end metrics come from untraced commands (only the top-level train()
and evaluate() calls are timed, in CPU seconds of the command's process);
per-layer metrics come from the wall-clock spans of one traced command, plus
a few from its untraced twin. Every time is multiplied by the pace factor of
the process it was measured in (pace.py), which turns it into the time at
the nominal pace of the machine. Names, units and better directions are
listed in bench/README.md.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import pace
from tracer import Span, percentile, self_times

STEP_DEPTHS = (1, 3, 10, 50)
STEP_OPS = ("forward", "backward", "sgd_step")
LAYERS = ("data", "features", "nn", "train", "experiment")
TOP_NAMES = ("train.train", "train.evaluate")

UNITS = {
    # end to end
    "setup_s": "s",
    "cpu_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_acc_pct": "%",
    # per layer
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "data.gen_synthetic_s": "s",
    "data.load_dataset_s": "s",
    "data.load_dataset_qps": "1/s",
    "data.split_train_test_s": "s",
    "features.load_embeddings_s": "s",
    "features.featurize_batch_s": "s",
    "features.featurize_batch_calls": "count",
    "features.featurize_rows_per_s": "1/s",
    **{f"nn.{op}_us.d{d}.{p}": "us" for op in STEP_OPS for d in STEP_DEPTHS for p in ("p50", "p90")},
    "nn.bce_loss_us": "us",
    "nn.forward_eval_us": "us",
    "nn.forward_gflops": "GFLOP/s",
    "nn.sgd_step_gbps": "GB/s",
    "nn.load_model_s": "s",
    "nn.build_model_s": "s",
    "train.steps": "count",
    "train.loop_self_us": "us",
    "train.feature_cache_ratio": "ratio",
    "train.evaluate_s": "s",
    "train.evaluate_calls": "count",
    "train.initial_gradient_profile_s": "s",
    "train.split_train_val_s": "s",
    "train.diverged_runs": "count",
    **{f"train.train_s.d{d}": "s" for d in STEP_DEPTHS},
    "experiment.run_depth_sweep_s": "s",
    "experiment.grad_flow_report_s": "s",
    "experiment.write_sweep_csv_s": "s",
    "experiment.render_plots_s": "s",
    "experiment.profile_calls": "count",
    "experiment.data_prep_calls": "count",
    "experiment.first_cell_excess_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}
END_TO_END = ("setup_s", "cpu_s", "rows_per_s", "peak_rss_mb", "test_acc_pct")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)
# Every other metric is better lower.
HIGHER_IS_BETTER = {
    "rows_per_s", "test_acc_pct", "data.load_dataset_qps", "features.featurize_rows_per_s",
    "nn.forward_gflops", "nn.sgd_step_gbps", "train.steps", "train.feature_cache_ratio",
}


def tag(span: Span, key: str, default=None):
    """A tag of the span; ``default`` for untagged spans and for calls that
    raised, which carry only ``{"raised": ...}``."""
    return (span.tags or {}).get(key, default)


def completed(span: Span) -> bool:
    return tag(span, "raised") is None


def pace_factor(report: dict, exponent: float | None = None) -> float:
    """The report's pace factor for work that follows the pace by
    ``exponent``; by default the workload's exponent."""
    if not report["pace"]:
        return 1.0
    return pace.factor(report["pace"], report["pace_exponent"] if exponent is None else exponent)


def spans_of(report: dict, f: float | None = None) -> list[Span]:
    """The report's spans, their clock readings multiplied by ``f``, by
    default its pace factor."""
    f = pace_factor(report) if f is None else f
    return [Span(i, name, start * f, end * f, parent, tags)
            for i, name, start, end, parent, tags in report["spans"]]


def top_level(spans: list[Span]) -> list[Span]:
    """train()/evaluate() spans with no train()/evaluate() span above them."""
    by_id = {s.id: s for s in spans}

    def nested(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name in TOP_NAMES:
                return True
            parent = by_id[parent].parent
        return False

    return [s for s in spans if s.name in TOP_NAMES and not nested(s)]


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def command_figures(child) -> dict:
    """CPU seconds, memory and top-level calls of one untraced command."""
    return {
        "cpu_s": child.cpu_s * pace_factor(child.report),
        "peak_rss_mb": child.report["maxrss_kb"] / 1024.0,
        "top": top_level(spans_of(child.report)),
    }


def sweep_rows_per_s(trains: list[Span]) -> float:
    """Training rows per CPU second of a sweep in which each train() call
    takes the median seconds of the run's calls at its depth. Medians over
    the many calls of a run keep a few seconds of a slower machine from
    moving the figure."""
    by_depth: dict[int, list[Span]] = defaultdict(list)
    for s in trains:
        by_depth[tag(s, "depth")].append(s)
    rows = sum(_median([tag(s, "epochs") * tag(s, "fit_rows") for s in calls])
               for calls in by_depth.values())
    secs = sum(_median([s.end - s.start for s in calls]) for calls in by_depth.values())
    return rows / secs if secs > 0 else 0.0


def score_rows_per_s(top: list[Span]) -> float:
    """Questions scored per CPU second of one command's evaluate() calls."""
    evals = [s for s in top if s.name == "train.evaluate" and completed(s)]
    secs = sum(s.end - s.start for s in evals)
    return sum(tag(s, "rows") for s in evals) / secs if secs > 0 else 0.0


def setup_seconds(child) -> float | None:
    """CPU seconds of the process from its start to the first top-level
    train()/evaluate() call of a set-up probe or an untraced command, at the
    nominal pace (set-up exponent); None if it did not get there."""
    report = child.report
    if report is None:
        return None
    f = pace_factor(report, pace.SETUP_EXPONENT)
    if child.mode == "setup":
        return report["setup_end"] * f
    return min((s.start for s in top_level(spans_of(report, f))), default=None)


def best_test_accuracy(sweep_csv_text: str) -> float:
    rows = [line.split(",") for line in sweep_csv_text.strip().splitlines()[1:]]
    return max(float(r[4]) for r in rows)


def end_to_end(workload: str, probes: list, full: list) -> tuple[dict, dict]:
    ok = [c for c in full if c.report is not None]
    figures = [command_figures(c) for c in ok]
    setups = [t for t in map(setup_seconds, probes + ok) if t is not None]
    if not ok:
        acc = 0.0
    elif workload.startswith("sweep"):
        acc = best_test_accuracy((ok[0].out_dir / "sweep.csv").read_text())
    else:
        acc = next(tag(s, "acc") for s in figures[0]["top"] if s.name == "train.evaluate")
    trains = [s for f in figures for s in f["top"] if s.name == "train.train" and completed(s)]
    if trains:
        rows_per_s = sweep_rows_per_s(trains)
    else:
        rows_per_s = _median([score_rows_per_s(f["top"]) for f in figures])
    values = {
        "setup_s": _median(setups),
        "cpu_s": _median([f["cpu_s"] for f in figures]),
        "rows_per_s": rows_per_s,
        "peak_rss_mb": _median([f["peak_rss_mb"] for f in figures]),
        "test_acc_pct": float(acc),
    }
    samples = {name: len(figures) for name in values}
    samples["setup_s"] = len(setups)
    if trains:
        samples["rows_per_s"] = len(trains)
    return values, samples


def first_cell_excess(trains: list[Span]) -> float:
    """First depth-1 train() seconds minus the median of the later ones."""
    d1 = sorted((s for s in trains if tag(s, "depth") == 1), key=lambda s: s.start)
    if len(d1) < 2:
        return 0.0
    return (d1[0].end - d1[0].start) - _median([s.end - s.start for s in d1[1:]])


def per_layer(untraced, traced) -> tuple[dict, dict]:
    values: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    samples: dict[str, int] = {}
    if untraced.report is None or traced.report is None:
        return values, samples
    base_trains = [s for s in top_level(spans_of(untraced.report)) if s.name == "train.train"]
    for d in STEP_DEPTHS:
        secs = [s.end - s.start for s in base_trains if tag(s, "depth") == d]
        values[f"train.train_s.d{d}"] = _median(secs)
        samples[f"train.train_s.d{d}"] = len(secs)
    values["experiment.first_cell_excess_s"] = first_cell_excess(base_trains)

    spans = spans_of(traced.report)
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def dur(i: int) -> float:
        return spans[i].end - spans[i].start

    def total(name: str) -> float:
        return sum(dur(i) for i in by_name[name])

    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.name.startswith(layer + "."))

    def rows(name: str) -> int:
        return sum(tag(spans[i], "rows", 0) for i in by_name[name])

    values["data.gen_synthetic_s"] = total("data.gen_synthetic")
    values["data.load_dataset_s"] = total("data.load_dataset")
    if values["data.load_dataset_s"] > 0:
        values["data.load_dataset_qps"] = rows("data.load_dataset") / values["data.load_dataset_s"]
    values["data.split_train_test_s"] = total("data.split_train_test")
    values["features.load_embeddings_s"] = total("features.load_embeddings")
    values["features.featurize_batch_s"] = total("features.featurize_batch")
    values["features.featurize_batch_calls"] = len(by_name["features.featurize_batch"])
    if values["features.featurize_batch_s"] > 0:
        values["features.featurize_rows_per_s"] = (
            rows("features.featurize_batch") / values["features.featurize_batch_s"]
        )

    # The training loop: completed spans whose parent is a train() span. A
    # step that raised (a diverging run) is left out of the per-call figures.
    train_ids = set(by_name["train.train"])
    in_loop: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent in train_ids and completed(s):
            in_loop[s.name].append(i)
    for op in STEP_OPS:
        for d in STEP_DEPTHS:
            us = [dur(i) * 1e6 for i in in_loop[f"nn.{op}"] if tag(spans[i], "depth") == d]
            if us:
                values[f"nn.{op}_us.d{d}.p50"] = percentile(us, 50)
                values[f"nn.{op}_us.d{d}.p90"] = percentile(us, 90)
            samples[f"nn.{op}_us.d{d}.p50"] = samples[f"nn.{op}_us.d{d}.p90"] = len(us)
    bce = [dur(i) * 1e6 for i in in_loop["nn.bce_loss"]]
    if bce:
        values["nn.bce_loss_us"] = percentile(bce, 50)
    samples["nn.bce_loss_us"] = len(bce)
    evals = [dur(i) * 1e6 for i in by_name["nn.forward"] if tag(spans[i], "mode") == "eval"]
    if evals:
        values["nn.forward_eval_us"] = percentile(evals, 50)
    samples["nn.forward_eval_us"] = len(evals)

    # Computed rates: 2 flops per weight per row forward; an update reads the
    # parameters and their gradients and writes the parameters (8 B each).
    fwd = in_loop["nn.forward"]
    fwd_s = sum(dur(i) for i in fwd)
    if fwd_s > 0:
        flops = sum(2.0 * tag(spans[i], "rows") * tag(spans[i], "params") for i in fwd)
        values["nn.forward_gflops"] = flops / fwd_s / 1e9
    upd = in_loop["nn.sgd_step"]
    upd_s = sum(dur(i) for i in upd)
    if upd_s > 0:
        values["nn.sgd_step_gbps"] = sum(24.0 * tag(spans[i], "params") for i in upd) / upd_s / 1e9
    values["nn.load_model_s"] = total("nn.load_model")
    values["nn.build_model_s"] = total("nn.build_model")

    steps = len(upd)
    values["train.steps"] = steps
    train_self = sum(selfs[i] for i in train_ids)
    if steps:
        values["train.loop_self_us"] = train_self / steps * 1e6
    batches = len([i for i in fwd if tag(spans[i], "mode") == "train"])
    featurized = sum(
        1
        for i in in_loop["features.featurize_batch"]
        if tag(spans[i], "rows") <= tag(spans[spans[i].parent], "batch_size", 0)
    )
    if batches:
        values["train.feature_cache_ratio"] = 1.0 - featurized / batches
    values["train.evaluate_s"] = total("train.evaluate")
    values["train.evaluate_calls"] = len(by_name["train.evaluate"])
    values["train.initial_gradient_profile_s"] = total("train.initial_gradient_profile")
    values["train.split_train_val_s"] = total("train.split_train_val")
    values["train.diverged_runs"] = sum(1 for i in train_ids if tag(spans[i], "diverged", True))

    for fn in ("run_depth_sweep", "grad_flow_report", "write_sweep_csv", "render_plots"):
        values[f"experiment.{fn}_s"] = total(f"experiment.{fn}")
    values["experiment.profile_calls"] = len(by_name["train.initial_gradient_profile"])
    values["experiment.data_prep_calls"] = len(by_name["data.gen_synthetic"]) + len(
        by_name["features.load_embeddings"]
    )
    base = untraced.cpu_s * pace_factor(untraced.report)
    values["trace.overhead_frac"] = (traced.cpu_s * pace_factor(traced.report) - base) / base
    values["trace.spans"] = len(spans)
    return values, samples
