"""Depth-sweep study: train the model family at each depth, average metrics
over repeated runs, and emit a results CSV, four SVG trend charts and a
gradient-flow table.

Fixed output names under the sweep's output directory:
    sweep.csv, fig_time.svg, fig_train_acc.svg, fig_val_acc.svg,
    fig_test_acc.svg, grad_flow.csv, runs/<depth>_<repeat>.json

run_depth_sweep prepares the data once; each cell trains a model (train()
profiles its initial gradients first) and writes its run file, the cell's
whole record, as soon as it ends. After the last cell, write_outputs writes
every other output from the run files alone, as `qdelnet report` does.
grad_flow_report writes the same grad_flow.csv at 0 epochs, through the
sweep's cell.

Depth x repeat cells run one at a time, so that their wall-clock training
times can be compared across depths.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .data import Dataset, gen_synthetic, load_dataset, split_train_test
from .errors import ConfigError, InputError, NumericError, ParseError
from .features import EmbeddingTable, load_embeddings
from .nn import ModelConfig, build_model, taper_widths
from .train import TrainConfig, TrainReport, evaluate, split_train_val, train

__all__ = [
    "SyntheticSource",
    "FileSource",
    "load_source",
    "SweepConfig",
    "SweepRow",
    "run_depth_sweep",
    "write_outputs",
    "write_sweep_csv",
    "render_plots",
    "grad_flow_report",
]

SWEEP_CSV_HEADER = "depth,train_time_s,train_acc,val_acc,test_acc,diverged,grad_norm_l1"
GRAD_FLOW_HEADER = "depth,layer_index,mean_norm"
PLOT_FILES = ("fig_time.svg", "fig_train_acc.svg", "fig_val_acc.svg", "fig_test_acc.svg")
# What write_outputs writes, and the CLI's copy of the options: a sweep's top-level files.
_OUTPUT_FILES = ("sweep.csv", "grad_flow.csv", *PLOT_FILES, "resolved_config.json")
# A runner's result: (report, test accuracy); the report carries the initial norms.
CellResult = tuple[TrainReport, float]


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

    def __post_init__(self):
        if self.max_words < 1:
            raise ConfigError(f"max_words must be >= 1, got {self.max_words}")


@dataclass(frozen=True)
class SweepConfig:
    depths: tuple[int, ...] = (1, 2, 3, 5, 10, 25, 50, 100)
    repeats: int = 3
    train_config: TrainConfig = field(default_factory=TrainConfig)
    width_max: int = 256
    width_min: int = 16
    dropout_rate: float = ModelConfig.dropout_rate
    source: Union[SyntheticSource, FileSource] = field(default_factory=SyntheticSource)
    output_dir: str = "sweep-out"

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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


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
        if test_count < 1:
            raise ConfigError(f"train_count {train_count} leaves no test questions in a corpus of "
                              f"{len(corpus)} (test_count defaults to the rest, {test_count})")
    train_set, test_set = split_train_test(corpus, train_count, test_count, seed)
    return train_set, test_set, table, source.max_words


def _prepare(config: SweepConfig, need_test: bool):
    """load_source's test set and table, and the sweep's cell over its train set:
    cell(widths, repeat, epochs) trains the cell's model (seed = base seed +
    repeat) and returns (model, report). A train set too small for the
    validation split is refused."""
    train_set, test_set, table, max_words = load_source(
        config.source, config.train_config.seed, need_test=need_test
    )
    split_train_val(train_set, config.train_config.validation_fraction, config.train_config.seed)

    def cell(widths: Sequence[int], repeat: int, epochs: int):
        seed = config.train_config.seed + repeat
        arch = ModelConfig(input_dim=max_words * table.dim + 1, hidden_widths=tuple(widths),
                           dropout_rate=config.dropout_rate, seed=seed)
        return train(build_model(arch), train_set,
                     replace(config.train_config, seed=seed, epochs=epochs), table)

    return test_set, table, cell


def _cells(config: SweepConfig) -> list[tuple[int, list[int], int]]:
    """Every (depth, hidden widths, repeat) cell of the sweep, in run order;
    raises ConfigError on a width pair taper_widths refuses."""
    cells = []
    for depth in config.depths:
        widths = taper_widths(depth, config.width_max, config.width_min)
        cells.extend((depth, widths, i) for i in range(config.repeats))
    return cells


def run_depth_sweep(
    config: SweepConfig,
    runner: Callable[[int, Sequence[int], int], CellResult] | None = None,
) -> list[SweepRow]:
    """Run `repeats` train+evaluate cycles per depth (seeds seed+i), writing
    each cell's run file, which holds that cell alone, under output_dir/runs/
    as soon as the cell ends; the last sweep's run files, outputs and
    resolved_config.json are removed first. Returns the rows of write_outputs,
    which runs after the last cell.

    `runner(depth, widths, repeat)`, for stubbing, returns (report, test accuracy),
    the report holding the initial norms the run file keeps; a report without
    them raises NumericError naming the cell, and the cells before it keep their
    run files. By default it runs the sweep's cell at its epochs, then scores
    the test set; the data is prepared once, before anything is removed."""
    cells = _cells(config)
    if runner is None:
        test_set, table, cell = _prepare(config, need_test=True)

        def runner(depth: int, widths: Sequence[int], repeat: int) -> CellResult:
            model, report = cell(widths, repeat, config.train_config.epochs)
            return report, evaluate(model, test_set, table)

    runs_dir = Path(config.output_dir) / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    # Old run files would mix with this sweep's, and old outputs would outlive a failed sweep.
    for stale in [*runs_dir.glob("*_*.json"), *(runs_dir.parent / f for f in _OUTPUT_FILES)]:
        stale.unlink(missing_ok=True)
    for depth, widths, i in cells:
        _write_run_file(runs_dir, depth, i, runner(depth, widths, i))
    return write_outputs(runs_dir, config.output_dir)


def _initial_norms(report: TrainReport, depth: int, repeat: int) -> list[float]:
    """A cell's initial norms, or NumericError when its report has none (train()'s
    profile was not finite): the one check for every runner and for grad_flow_report."""
    if report.initial_grad_norms is None:
        raise NumericError(f"depth {depth}: the initial model's gradients are not finite "
                           f"(repeat {repeat})")
    return report.initial_grad_norms


def _write_run_file(runs_dir: Path, depth: int, repeat: int, cell: CellResult) -> None:
    """Write one cell's run file; a write that fails leaves no file behind, and a
    report without initial norms raises NumericError before any file is opened."""
    report, test_acc = cell
    norms = _initial_norms(report, depth, repeat)
    doc = {
        "depth": depth,
        "repeat": repeat,
        "test_accuracy_pct": test_acc,
        "first_layer_grad_norm_init": norms[0],
        "initial_grad_norms": norms,
        "train_report": {k: v for k, v in report.to_json_dict().items()
                         if k != "initial_grad_norms"},
    }
    tmp = runs_dir / f"{depth}_{repeat}.json.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, tmp.with_suffix(""))
    finally:
        tmp.unlink(missing_ok=True)


def write_outputs(runs_dir, out_dir) -> list[SweepRow]:
    """Write sweep.csv, the SVGs (for 2 or more depths) and grad_flow.csv to
    out_dir from the run files under runs_dir, one per cell; older run files,
    without per-layer norms, give no grad_flow.csv. Returns the rows in depth
    order: each metric's mean over a depth's runs that finished, or over all
    when every run diverged, and the initial norm's mean over all runs."""
    runs_dir, out = Path(runs_dir), Path(out_dir)
    files = sorted(runs_dir.glob("*_*.json"))
    if not files:
        raise InputError(f"no run files found under {runs_dir}")
    by_depth: dict[int, dict[int, tuple[TrainReport, float, float, list | None]]] = {}
    for path in files:
        doc = _read_run_file(path)
        by_depth.setdefault(doc["depth"], {})[doc["repeat"]] = (
            TrainReport.from_json_dict(doc["train_report"]), doc["test_accuracy_pct"],
            doc["first_layer_grad_norm_init"], doc.get("initial_grad_norms"))
    rows, norms = [], {}
    for depth in sorted(by_depth):
        cells = [by_depth[depth][i] for i in sorted(by_depth[depth])]
        live = [cell for cell in cells if not cell[0].diverged]
        pool = live if live else cells
        rows.append(SweepRow(
            depth=depth,
            train_time_seconds=_mean([r.wall_time_seconds for r, *_ in pool]),
            train_accuracy_pct=_mean([r.final_train_accuracy for r, *_ in pool]),
            validation_accuracy_pct=_mean([r.final_validation_accuracy for r, *_ in pool]),
            test_accuracy_pct=_mean([t for _, t, *_ in pool]),
            diverged_runs=len(cells) - len(live),
            first_layer_grad_norm_init=_mean([n for _, _, n, _ in cells]),
        ))
        norms[depth] = [profile for *_, profile in cells]
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, out / "sweep.csv")
    if len(rows) >= 2:
        render_plots(rows, out)
    if all(None not in by_repeat for by_repeat in norms.values()):
        _grad_flow(out, norms)
    else:
        print(f"note: no per-layer norms in {runs_dir}; grad_flow.csv not written")
    return rows


def _mean(vals):
    """The mean over axis 0 as a running sum (sum() compensates from Python 3.12)."""
    return (np.cumsum(vals, axis=0, dtype=float)[-1] / len(vals)).tolist()


_NUMBER = (int, float)
# The JSON type of every run-file field; a run file holds no other field.
_RUN_FIELDS = {
    "depth": int,
    "repeat": int,
    "test_accuracy_pct": _NUMBER,
    "first_layer_grad_norm_init": _NUMBER,
    "initial_grad_norms": list,
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
    "initial_grad_norms": (list, type(None)),
}
# TrainReport's defaults, and the norms that run files written before them lack.
_OPTIONAL_FIELDS = ("grad_norm_history", "diverged", "diverged_epoch", "initial_grad_norms")


def _read_run_file(path: Path) -> dict:
    """A run file's document; raises ParseError naming the file if it is not a JSON
    object, a field is missing or of the wrong type, a number is not finite, depth < 1,
    repeat < 0, the file is not named <depth>_<repeat>.json, or initial_grad_norms is
    not depth + 1 norms from first_layer_grad_norm_init."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ParseError(f"run file {path}: not JSON ({exc})") from None
    except RecursionError:
        raise ParseError(f"run file {path}: not JSON (nested too deeply)") from None
    if not isinstance(doc, dict):
        raise ParseError(f"run file {path}: expected a JSON object, got {type(doc).__name__}")
    _check_fields(path, doc, _RUN_FIELDS, "")
    _check_fields(path, doc["train_report"], _REPORT_FIELDS, "train_report.")
    for key, low in (("depth", 1), ("repeat", 0)):
        if doc[key] < low:
            raise ParseError(f"run file {path}: field {key} must be >= {low}, got {doc[key]}")
    if path.name != f"{doc['depth']}_{doc['repeat']}.json":  # or it replaces another cell's
        raise ParseError(f"run file {path}: holds depth {doc['depth']} repeat {doc['repeat']}, "
                         f"so its name must be {doc['depth']}_{doc['repeat']}.json")
    norms = doc.get("initial_grad_norms")
    if norms is not None:
        if len(norms) != doc["depth"] + 1:
            raise ParseError(f"run file {path}: field initial_grad_norms holds {len(norms)} "
                             f"norms, not depth + 1 = {doc['depth'] + 1}")
        _check_fields(path, dict(enumerate(norms)), dict.fromkeys(range(len(norms)), _NUMBER),
                      "initial_grad_norms.")
        if norms[0] != doc["first_layer_grad_norm_init"]:
            raise ParseError(f"run file {path}: field initial_grad_norms.0 differs from "
                             "first_layer_grad_norm_init")
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
        if isinstance(value, _NUMBER) and not _finite(value):
            raise ParseError(f"run file {path}: field {prefix}{key} is not finite")


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write the aggregated table: accuracies at 2 decimals, seconds at 1."""
    if not rows:
        raise InputError("write_sweep_csv: no rows to write")
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.depth},{r.train_time_seconds:.1f},{r.train_accuracy_pct:.2f},"
            f"{r.validation_accuracy_pct:.2f},{r.test_accuracy_pct:.2f},"
            f"{r.diverged_runs},{r.first_layer_grad_norm_init:.6g}"
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
    """Profile each cell's initial model as run_depth_sweep does, at 0 epochs,
    through the sweep's cell, and write the same output_dir/grad_flow.csv.

    Only the training set is read: a file source's test file is not read and
    may be absent, a synthetic corpus is split as a sweep splits it, and a
    train set too small for the validation split is refused. Returns the rows.
    """
    cells = _cells(config)
    cell = _prepare(config, not isinstance(config.source, FileSource))[2]
    norms = {depth: [] for depth in config.depths}
    for depth, widths, i in cells:  # each model is freed before the next is built
        norms[depth].append(_initial_norms(cell(widths, i, 0)[1], depth, i))
    return _grad_flow(Path(config.output_dir), norms)


def _grad_flow(out: Path, norms: dict[int, list[list[float]]]) -> list[tuple[int, int, float]]:
    """Write each depth's per-layer mean over its repeats' norms, in depth
    order, as long-format CSV (depth, layer_index, mean_norm) to
    out/grad_flow.csv. Returns the records."""
    records = [(depth, layer, norm) for depth, by_repeat in norms.items()
               for layer, norm in enumerate(_mean(by_repeat))]
    out.mkdir(parents=True, exist_ok=True)
    lines = [GRAD_FLOW_HEADER]
    lines.extend(f"{d},{li},{norm!r}" for d, li, norm in records)
    (out / "grad_flow.csv").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return records
