"""Depth-sweep study: train the model family at each depth, average metrics
over repeated runs, and emit a results CSV, four SVG trend charts and a
gradient-flow table.

Fixed output names under the sweep's output directory:
    sweep.csv, fig_time.svg, fig_train_acc.svg, fig_val_acc.svg,
    fig_test_acc.svg, grad_flow.csv, runs/<depth>_<repeat>.json

run_depth_sweep writes the run files and grad_flow.csv from one pass over
the data: it prepares the data once and profiles each depth's initial
gradients once. grad_flow_report writes the same grad_flow.csv without
training anything.

Depth x repeat cells are independent and may run concurrently, but wall-clock
comparisons across depths are only meaningful with one worker.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence, Union

from .data import Dataset, gen_synthetic, load_dataset, split_train_test
from .errors import ConfigError, InputError, ParseError
from .features import EmbeddingTable, featurize_batch, load_embeddings
from .linalg import Matrix
from .nn import ModelConfig, build_model, taper_widths
from .train import TrainConfig, TrainReport, evaluate, initial_gradient_profile, train

__all__ = [
    "SyntheticSource",
    "FileSource",
    "load_source",
    "SweepConfig",
    "SweepRow",
    "run_depth_sweep",
    "rows_from_run_files",
    "write_sweep_csv",
    "render_plots",
    "grad_flow_report",
]

SWEEP_CSV_HEADER = "depth,train_time_s,train_acc,val_acc,test_acc,diverged,grad_norm_l1"
GRAD_FLOW_HEADER = "depth,layer_index,mean_norm"
PLOT_FILES = ("fig_time.svg", "fig_train_acc.svg", "fig_val_acc.svg", "fig_test_acc.svg")


@dataclass(frozen=True)
class SyntheticSource:
    """Generate the corpus on the fly; load_source says how the split counts
    slice it."""

    n: int = 2000
    vocab_size: int = 200
    dim: int = 16
    max_words: int = 12
    noise: float = 0.15
    train_count: int | None = None
    test_count: int | None = None


@dataclass(frozen=True)
class FileSource:
    """Load a pre-existing corpus (JSONL) and embedding table (word2vec text);
    the test file is optional outside a sweep."""

    train_path: str
    embeddings_path: str
    test_path: str | None = None
    embedding_dim: int = 300
    max_words: int = 240


@dataclass(frozen=True)
class SweepConfig:
    depths: tuple[int, ...] = (1, 2, 3, 5, 10, 25, 50, 100)
    repeats: int = 3
    train_config: TrainConfig = field(default_factory=TrainConfig)
    width_max: int = 256
    width_min: int = 16
    dropout_rate: float = 0.05
    source: Union[SyntheticSource, FileSource] = field(default_factory=SyntheticSource)
    output_dir: str = "sweep-out"
    workers: int = 1

    def __post_init__(self):
        depths = tuple(int(d) for d in self.depths)
        object.__setattr__(self, "depths", depths)
        if not depths:
            raise ConfigError("depths must be nonempty")
        for a, b in zip(depths, depths[1:]):
            if b <= a:
                raise ConfigError(f"depths must be strictly increasing, got {depths}")
        if depths[0] < 1:
            raise ConfigError(f"depths must be positive, got {depths}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SweepRow:
    """One aggregated line of the depth/time/accuracy table."""

    depth: int
    train_time_seconds: float
    train_accuracy_pct: float
    validation_accuracy_pct: float
    test_accuracy_pct: float
    diverged_runs: int
    first_layer_grad_norm_init: float


def load_source(
    source: Union[SyntheticSource, FileSource], seed: int, need_test: bool = False
) -> tuple[Dataset, Dataset | None, EmbeddingTable, int]:
    """Turn a data source and a seed into (train set, test set, table, max_words).

    A synthetic corpus is split by label when either count is set, or always
    when need_test: a missing train count is 5/6 of the corpus (the classic
    5,000/1,000 regime) and a missing test count is the rest. Otherwise the
    whole corpus is the train set and the test set is None. A file source's
    test file is read only when need_test, which requires one; otherwise the
    test set is None and the file is not opened.
    """
    if isinstance(source, FileSource):
        if need_test and source.test_path is None:
            raise ConfigError("a sweep needs a test file (--test)")
        train_set = load_dataset(source.train_path)
        test_set = load_dataset(source.test_path) if need_test else None
        table = load_embeddings(source.embeddings_path, source.embedding_dim)
        return train_set, test_set, table, source.max_words
    corpus, table = gen_synthetic(
        source.n, source.vocab_size, source.dim, source.max_words, source.noise, seed
    )
    train_count, test_count = source.train_count, source.test_count
    if train_count is None and test_count is None and not need_test:
        return corpus, None, table, source.max_words
    if train_count is None:
        train_count = round(len(corpus) * 5 / 6)
    if test_count is None:
        test_count = len(corpus) - train_count
    train_set, test_set = split_train_test(corpus, train_count, test_count, seed)
    return train_set, test_set, table, source.max_words


def _default_runner_profiler(config: SweepConfig):
    """Prepare the sweep's data once and return the default (runner, profiler)
    over it."""
    train_set, test_set, table, max_words = load_source(
        config.source, config.train_config.seed, need_test=True
    )
    input_dim = max_words * table.dim + 1

    def runner(depth: int, widths: Sequence[int], repeat: int) -> tuple[TrainReport, float]:
        cell_seed = config.train_config.seed + repeat
        model = build_model(_model_config(config, input_dim, widths, cell_seed))
        model, report = train(model, train_set, replace(config.train_config, seed=cell_seed), table)
        return report, evaluate(model, test_set, table)

    return runner, _default_profiler(config, train_set, table, max_words)


def _default_profiler(
    config: SweepConfig, train_set: Dataset, table: EmbeddingTable, max_words: int
):
    """The default profiler over a training set; its sample is the first
    training batch."""
    sample = train_set.questions[: config.train_config.batch_size]
    sample_x = featurize_batch(sample, table, max_words)
    sample_y = Matrix([[float(q.label)] for q in sample])

    def profiler(depth: int, widths: Sequence[int]) -> list[float]:
        model_config = _model_config(config, sample_x.cols, widths, config.train_config.seed)
        return initial_gradient_profile(model_config, sample_x, sample_y, config.repeats)

    return profiler


def _model_config(
    config: SweepConfig, input_dim: int, widths: Sequence[int], seed: int
) -> ModelConfig:
    return ModelConfig(
        input_dim=input_dim,
        hidden_widths=tuple(widths),
        dropout_rate=config.dropout_rate,
        seed=seed,
    )


def _aggregate(
    depth: int, cells: list[tuple[TrainReport, float]], first_norm: float
) -> SweepRow:
    live = [(r, t) for r, t in cells if not r.diverged]
    pool = live if live else cells
    mean = lambda vals: float(sum(vals) / len(vals))
    return SweepRow(
        depth=depth,
        train_time_seconds=mean([r.wall_time_seconds for r, _ in pool]),
        train_accuracy_pct=mean([r.final_train_accuracy for r, _ in pool]),
        validation_accuracy_pct=mean([r.final_validation_accuracy for r, _ in pool]),
        test_accuracy_pct=mean([t for _, t in pool]),
        diverged_runs=len(cells) - len(live),
        first_layer_grad_norm_init=first_norm,
    )


def run_depth_sweep(
    config: SweepConfig,
    runner: Callable[[int, Sequence[int], int], tuple[TrainReport, float]] | None = None,
    profiler: Callable[[int, Sequence[int]], list[float]] | None = None,
) -> list[SweepRow]:
    """Run `repeats` train+evaluate cycles per depth (seeds seed+i), average
    metrics over runs that finished, and persist every cell's report under
    output_dir/runs/. After the cells, profile each depth's initial gradients
    once: layer 0 goes into the rows and run files, every layer into
    output_dir/grad_flow.csv. Returns rows in depth order.

    `runner` and `profiler` exist for unit-level stubbing; by default they
    train and profile real models on the configured data source, prepared
    once. A profiler returns the per-layer norms, first layer first.
    """
    if runner is None or profiler is None:
        default_runner, default_profiler = _default_runner_profiler(config)
        runner, profiler = runner or default_runner, profiler or default_profiler
    out_dir = Path(config.output_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    depth_widths = {d: taper_widths(d, config.width_max, config.width_min) for d in config.depths}
    cell_results: dict[tuple[int, int], tuple[TrainReport, float]] = {}
    jobs = [(d, i) for d in config.depths for i in range(config.repeats)]
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = {
                job: pool.submit(runner, job[0], depth_widths[job[0]], job[1]) for job in jobs
            }
            for job, fut in futures.items():
                cell_results[job] = fut.result()
    else:
        for depth, i in jobs:
            cell_results[(depth, i)] = runner(depth, depth_widths[depth], i)

    first_norms = {d: norm for d, layer, norm in _profile_depths(config, profiler) if layer == 0}
    rows = []
    for depth in config.depths:
        first_norm = first_norms[depth]
        cells = [cell_results[(depth, i)] for i in range(config.repeats)]
        for i, (report, test_acc) in enumerate(cells):
            _write_run_file(runs_dir / f"{depth}_{i}.json", depth, i, report, test_acc, first_norm)
        rows.append(_aggregate(depth, cells, first_norm))
    return rows


def _write_run_file(
    path: Path, depth: int, repeat: int, report: TrainReport, test_acc: float, first_norm: float
) -> None:
    doc = {
        "depth": depth,
        "repeat": repeat,
        "test_accuracy_pct": test_acc,
        "first_layer_grad_norm_init": first_norm,
        "train_report": report.to_json_dict(),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def rows_from_run_files(runs_dir) -> list[SweepRow]:
    """Rebuild the aggregated sweep rows from persisted run JSONs, so reports
    can be regenerated without retraining."""
    runs_dir = Path(runs_dir)
    files = sorted(runs_dir.glob("*_*.json"))
    if not files:
        raise InputError(f"no run files found under {runs_dir}")
    by_depth: dict[int, dict[int, tuple[TrainReport, float]]] = {}
    norms: dict[int, float] = {}
    for path in files:
        doc = _read_run_file(path)
        depth, repeat = doc["depth"], doc["repeat"]
        report = TrainReport.from_json_dict(doc["train_report"])
        by_depth.setdefault(depth, {})[repeat] = (report, float(doc["test_accuracy_pct"]))
        norms[depth] = float(doc["first_layer_grad_norm_init"])
    rows = []
    for depth in sorted(by_depth):
        cells = [by_depth[depth][i] for i in sorted(by_depth[depth])]
        rows.append(_aggregate(depth, cells, norms[depth]))
    return rows


_NUMBER = (int, float)
# The JSON type of every run-file field; a run file holds no other field.
_RUN_FIELDS = {
    "depth": int,
    "repeat": int,
    "test_accuracy_pct": _NUMBER,
    "first_layer_grad_norm_init": _NUMBER,
    "train_report": dict,
}
_REPORT_FIELDS = {
    "final_train_accuracy": _NUMBER,
    "final_validation_accuracy": _NUMBER,
    "wall_time_seconds": _NUMBER,
    "loss_curve": list,
    "grad_norm_history": (list, type(None)),
    "diverged": bool,
    "diverged_epoch": (int, type(None)),
}
_OPTIONAL_FIELDS = ("grad_norm_history", "diverged", "diverged_epoch")  # TrainReport defaults


def _read_run_file(path: Path) -> dict:
    """A run file's document; raises ParseError naming the file if it is not
    a JSON object or a field is missing or of the wrong type."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ParseError(f"run file {path}: not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"run file {path}: expected a JSON object, got {type(doc).__name__}")
    _check_fields(path, doc, _RUN_FIELDS, "")
    _check_fields(path, doc["train_report"], _REPORT_FIELDS, "train_report.")
    return doc


def _check_fields(path: Path, doc: dict, fields: dict, prefix: str) -> None:
    unknown = doc.keys() - fields.keys()
    if unknown:
        raise ParseError(f"run file {path}: unknown field {prefix}{min(unknown)}")
    for key, kind in fields.items():
        if key not in doc:
            if key in _OPTIONAL_FIELDS:
                continue
            raise ParseError(f"run file {path}: missing field {prefix}{key}")
        value = doc[key]
        # bool is an int to Python, but never a number or a count here.
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ParseError(f"run file {path}: field {prefix}{key} is a {type(value).__name__}")


def _fmt_general(v: float) -> str:
    return f"{v:.6g}"


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write the aggregated table: accuracies at 2 decimals, seconds at 1."""
    if not rows:
        raise InputError("write_sweep_csv: no rows to write")
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.depth},{r.train_time_seconds:.1f},{r.train_accuracy_pct:.2f},"
            f"{r.validation_accuracy_pct:.2f},{r.test_accuracy_pct:.2f},"
            f"{r.diverged_runs},{_fmt_general(r.first_layer_grad_norm_init)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# --- SVG line charts -------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_PLOT_LEFT, _PLOT_TOP = 80, 50
_PLOT_W, _PLOT_H = 520, 360


def _line_chart_svg(xs: Sequence[float], ys: Sequence[float], title: str, y_label: str) -> str:
    """Standalone SVG line chart: log10-scaled x axis, linear y axis.

    The polyline carries data-* attributes declaring the exact axis transform
    so plotted values can be recovered from pixel coordinates.
    """
    lx0, lx1 = math.log10(xs[0]), math.log10(xs[-1])
    ymin, ymax = min(ys), max(ys)
    if ymin == ymax:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    else:
        pad = 0.05 * (ymax - ymin)
        ymin, ymax = ymin - pad, ymax + pad

    def px(x: float) -> float:
        return _PLOT_LEFT + (math.log10(x) - lx0) / (lx1 - lx0) * _PLOT_W

    def py(y: float) -> float:
        return _PLOT_TOP + (ymax - y) / (ymax - ymin) * _PLOT_H

    bottom = _PLOT_TOP + _PLOT_H
    right = _PLOT_LEFT + _PLOT_W
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f"<title>{title}</title>",
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{_PLOT_LEFT}" y1="{_PLOT_TOP}" x2="{_PLOT_LEFT}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{_PLOT_LEFT}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for x in xs:
        tick_x = px(x)
        parts.append(
            f'<line x1="{tick_x:.2f}" y1="{bottom}" x2="{tick_x:.2f}" y2="{bottom + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{tick_x:.2f}" y="{bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x:g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y_val = ymin + frac * (ymax - ymin)
        tick_y = py(y_val)
        parts.append(
            f'<line x1="{_PLOT_LEFT - 5}" y1="{tick_y:.2f}" x2="{_PLOT_LEFT}" y2="{tick_y:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_PLOT_LEFT - 8}" y="{tick_y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y_val:.4g}</text>'
        )
    parts.append(
        f'<text x="{_PLOT_LEFT + _PLOT_W / 2:.0f}" y="{_SVG_H - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">hidden layers (log scale)</text>'
    )
    parts.append(
        f'<text x="22" y="{_PLOT_TOP + _PLOT_H / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 22 {_PLOT_TOP + _PLOT_H / 2:.0f})">{y_label}</text>'
    )
    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="2" points="{points}" '
        f'data-x-scale="log10" data-y-scale="linear" '
        f'data-x-min="{xs[0]!r}" data-x-max="{xs[-1]!r}" '
        f'data-y-min="{ymin!r}" data-y-max="{ymax!r}" '
        f'data-plot-left="{_PLOT_LEFT}" data-plot-top="{_PLOT_TOP}" '
        f'data-plot-width="{_PLOT_W}" data-plot-height="{_PLOT_H}"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plots(rows: Sequence[SweepRow], output_dir) -> list[Path]:
    """Write the four depth-trend charts as deterministic standalone SVGs.

    Y values are quantized to the CSV precision (1 decimal for seconds,
    2 for accuracies) so charts and table always agree exactly.
    """
    if len(rows) < 2:
        raise InputError(f"render_plots needs at least 2 rows, got {len(rows)}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    depths = [float(r.depth) for r in rows]
    round1 = lambda v: float(f"{v:.1f}")
    round2 = lambda v: float(f"{v:.2f}")
    charts = [
        ("fig_time.svg", "Training time vs depth", "training time (s)",
         [round1(r.train_time_seconds) for r in rows]),
        ("fig_train_acc.svg", "Training accuracy vs depth", "accuracy (%)",
         [round2(r.train_accuracy_pct) for r in rows]),
        ("fig_val_acc.svg", "Validation accuracy vs depth", "accuracy (%)",
         [round2(r.validation_accuracy_pct) for r in rows]),
        ("fig_test_acc.svg", "Test accuracy vs depth", "accuracy (%)",
         [round2(r.test_accuracy_pct) for r in rows]),
    ]
    paths = []
    for filename, title, y_label, ys in charts:
        path = out / filename
        path.write_text(_line_chart_svg(depths, ys, title, y_label), encoding="utf-8", newline="\n")
        paths.append(path)
    return paths


def grad_flow_report(config: SweepConfig) -> list[tuple[int, int, float]]:
    """Measure per-layer gradient norms at initialization for every depth,
    without training, and write them to output_dir/grad_flow.csv as
    run_depth_sweep does. Returns the rows.

    Only the training set is sampled: a file source's test file is not read
    and may be absent, and a synthetic corpus is split as a sweep splits it.
    """
    source, seed = config.source, config.train_config.seed
    need_test = not isinstance(source, FileSource)  # a synthetic corpus is split
    train_set, _, table, max_words = load_source(source, seed, need_test=need_test)
    return _profile_depths(config, _default_profiler(config, train_set, table, max_words))


def _profile_depths(config: SweepConfig, profiler) -> list[tuple[int, int, float]]:
    """Profile each depth once and write the norms as long-format CSV
    (depth, layer_index, mean_norm) to output_dir/grad_flow.csv."""
    records = []
    for depth in config.depths:
        widths = taper_widths(depth, config.width_max, config.width_min)
        records.extend((depth, layer, norm) for layer, norm in enumerate(profiler(depth, widths)))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [GRAD_FLOW_HEADER]
    lines.extend(f"{d},{li},{norm!r}" for d, li, norm in records)
    (out / "grad_flow.csv").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return records
