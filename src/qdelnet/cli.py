"""Command-line entry point: generate data, train one model, evaluate,
run the depth sweep, regenerate reports.

Exit codes: 0 success, 1 usage error, 2 runtime error (I/O, parsing,
numeric divergence). Option precedence: command-line flags beat config-file
values beat built-in defaults; every run persists its fully resolved
configuration next to its outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from .data import gen_synthetic, load_dataset, save_dataset, split_train_test
from .errors import ConfigError, ParseError
from .experiment import (
    FileSource,
    SweepConfig,
    SyntheticSource,
    grad_flow_report,
    render_plots,
    rows_from_run_files,
    run_depth_sweep,
    write_sweep_csv,
)
from .features import load_embeddings, save_embeddings
from .nn import ModelConfig, build_model, load_model, save_model, taper_widths
from .train import TrainConfig, evaluate, train

_FLAG = object()  # marker for boolean presence flags


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {s!r}")


def _parse_int_list(s: str) -> list[int]:
    try:
        values = [int(part) for part in s.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {s!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# Per-subcommand option tables: (flag, parser, default, help).
_SYNTH_OPTS = [
    ("n", int, 2000, "number of synthetic questions (even)"),
    ("vocab", int, 200, "synthetic vocabulary size"),
    ("noise", float, 0.15, "synthetic label/token corruption rate in [0, 1]"),
]
_PROTOCOL_OPTS = [
    ("epochs", int, 150, "training epochs"),
    ("batch-size", int, 32, "mini-batch size"),
    ("lr", float, 0.01, "SGD learning rate"),
    ("val-fraction", float, 0.10, "fraction of training data held out for validation"),
    ("dropout", float, 0.05, "dropout rate on hidden activations"),
    ("seed", int, 0, "root seed for every stochastic stage"),
]
_SOURCE_OPTS = [
    ("synthetic", _FLAG, False, "generate the corpus instead of loading files"),
    ("train", str, None, "training corpus JSONL path (file mode)"),
    ("test", str, None, "test corpus JSONL path (file mode)"),
    ("embeddings", str, None, "embedding table path, word2vec text format (file mode)"),
    ("dim", int, None, "embedding dimension (default: 16 synthetic, 300 file mode)"),
    ("max-words", int, None, "word slots per feature vector (default: 12 synthetic, 240 file mode)"),
    ("train-count", int, None, "questions sliced into the training set (synthetic mode)"),
    ("test-count", int, None, "questions sliced into the test set (synthetic mode)"),
]

_OPTIONS: dict[str, list[tuple]] = {
    "gen-synth": [
        *_SYNTH_OPTS,
        ("dim", int, 16, "embedding dimension"),
        ("max-words", int, 12, "maximum words per question"),
        ("seed", int, 0, "generator seed"),
        ("train-count", int, None, "also slice out a training set of this size"),
        ("test-count", int, None, "also slice out a test set of this size"),
        ("out", str, None, "output directory (required)"),
    ],
    "train": [
        *_SOURCE_OPTS,
        *_SYNTH_OPTS,
        *_PROTOCOL_OPTS,
        ("depth", int, 5, "number of hidden layers (tapered widths)"),
        ("widths", _parse_int_list, None, "explicit hidden widths, e.g. 256,64,16 (overrides --depth)"),
        ("width-max", int, 256, "taper start width"),
        ("width-min", int, 16, "taper end width"),
        ("record-grad-norms", _FLAG, False, "record per-epoch gradient norms in the report"),
        ("out", str, None, "output directory (required)"),
    ],
    "evaluate": [
        ("model", str, None, "model checkpoint path (required)"),
        ("data", str, None, "corpus JSONL path (required)"),
        ("embeddings", str, None, "embedding table path (required)"),
        ("dim", int, 300, "embedding dimension"),
    ],
    "sweep": [
        *_SOURCE_OPTS,
        *_SYNTH_OPTS,
        *_PROTOCOL_OPTS,
        ("depths", _parse_int_list, [1, 2, 3, 5, 10, 25, 50, 100], "hidden-layer counts to sweep"),
        ("repeats", int, 3, "train+evaluate cycles averaged per depth"),
        ("width-max", int, 256, "taper start width"),
        ("width-min", int, 16, "taper end width"),
        ("workers", int, 1, "concurrent depth x repeat cells (>1 invalidates timing)"),
        ("out", str, None, "output directory (required)"),
    ],
    "report": [
        ("runs", str, None, "directory of a finished sweep (contains runs/) (required)"),
        ("out", str, None, "where to write sweep.csv and the SVGs (default: --runs)"),
    ],
}


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qdelnet",
        description="Question-deletion prediction: synthetic corpora, MLP training, depth sweeps.",
        epilog="Option precedence: flags beat config-file values beat built-in defaults.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True
    helps = {
        "gen-synth": "generate a synthetic corpus and embedding table",
        "train": "train one model and save a checkpoint plus its report",
        "evaluate": "score a saved model on a corpus",
        "sweep": "run the full depth sweep and emit CSV/SVG reports",
        "report": "regenerate sweep.csv and the SVGs from persisted run files",
    }
    for name, spec in _OPTIONS.items():
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", default=None, metavar="FILE",
                       help="flat key = value config file; flags override it")
        for flag, parse, default, help_text in spec:
            if parse is _FLAG:
                p.add_argument(f"--{flag}", action="store_const", const=True, default=None,
                               help=help_text)
            else:
                p.add_argument(f"--{flag}", type=parse, default=None, metavar="V",
                               help=f"{help_text} (default: {default})")
        p.set_defaults(command=name)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ParseError("expected 'key = value'", line=lineno)
            key, value = s.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace, spec: list[tuple]) -> dict:
    file_values = _read_config_file(args.config) if args.config else {}
    known = {flag for flag, *_ in spec}
    for key in file_values:
        if key not in known:
            raise ConfigError(f"unknown config-file key {key!r}")
    resolved = {}
    for flag, parse, default, _ in spec:
        dest = flag.replace("-", "_")
        cli_value = getattr(args, dest)
        if cli_value is not None:
            resolved[dest] = cli_value
        elif flag in file_values:
            raw = file_values[flag]
            resolved[dest] = _parse_bool(raw) if parse is _FLAG else parse(raw)
        else:
            resolved[dest] = default
    return resolved


def _require(opts: dict, *keys: str) -> None:
    for key in keys:
        if opts.get(key) is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")


def _persist_config(out_dir: Path, command: str, opts: dict) -> None:
    doc = {"command": command, **{k: opts[k] for k in sorted(opts)}}
    (out_dir / "resolved_config.json").write_text(
        json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8", newline="\n"
    )


def _load_source(opts: dict):
    """Resolve the data source for train/sweep: returns (train_set, test_set,
    table, max_words); test_set is None when the mode provides none."""
    if opts["synthetic"]:
        dim = opts["dim"] if opts["dim"] is not None else 16
        max_words = opts["max_words"] if opts["max_words"] is not None else 12
        corpus, table = gen_synthetic(
            opts["n"], opts["vocab"], dim, max_words, opts["noise"], opts["seed"]
        )
        if opts["train_count"] is not None or opts["test_count"] is not None:
            _require(opts, "train_count", "test_count")
            train_set, test_set = split_train_test(
                corpus, opts["train_count"], opts["test_count"], opts["seed"]
            )
        else:
            train_set, test_set = corpus, None
        return train_set, test_set, table, max_words
    _require(opts, "train", "embeddings")
    dim = opts["dim"] if opts["dim"] is not None else 300
    max_words = opts["max_words"] if opts["max_words"] is not None else 240
    train_set = load_dataset(opts["train"])
    test_set = load_dataset(opts["test"]) if opts["test"] else None
    table = load_embeddings(opts["embeddings"], dim)
    return train_set, test_set, table, max_words


def _cmd_gen_synth(opts: dict) -> int:
    _require(opts, "out")
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    corpus, table = gen_synthetic(
        opts["n"], opts["vocab"], opts["dim"], opts["max_words"], opts["noise"], opts["seed"]
    )
    if opts["train_count"] is not None or opts["test_count"] is not None:
        _require(opts, "train_count", "test_count")
        train_set, test_set = split_train_test(
            corpus, opts["train_count"], opts["test_count"], opts["seed"]
        )
        save_dataset(train_set, out / "train.jsonl")
        save_dataset(test_set, out / "test.jsonl")
    else:
        save_dataset(corpus, out / "dataset.jsonl")
    save_embeddings(table, out / "embeddings.txt")
    _persist_config(out, "gen-synth", opts)
    print(f"wrote {len(corpus)} questions and {len(table)} embeddings to {out}")
    return 0


def _cmd_train(opts: dict) -> int:
    _require(opts, "out")
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    train_set, _, table, max_words = _load_source(opts)
    widths = opts["widths"]
    if widths is None:
        widths = taper_widths(opts["depth"], opts["width_max"], opts["width_min"])
    model_config = ModelConfig(
        input_dim=max_words * table.dim + 1,
        hidden_widths=tuple(widths),
        dropout_rate=opts["dropout"],
        seed=opts["seed"],
    )
    train_config = TrainConfig(
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        learning_rate=opts["lr"],
        validation_fraction=opts["val_fraction"],
        seed=opts["seed"],
        record_grad_norms=opts["record_grad_norms"],
    )
    model = build_model(model_config)
    model, report = train(model, train_set, train_config, table)
    save_model(model, out / "model.json")
    (out / "train_report.json").write_text(
        json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    _persist_config(out, "train", opts)
    if report.diverged:
        print(f"error: training diverged at epoch {report.diverged_epoch}; "
              f"last valid model saved to {out}", file=sys.stderr)
        return 2
    print(
        f"trained {len(widths)} hidden layers for {opts['epochs']} epochs in "
        f"{report.wall_time_seconds:.1f}s: train {report.final_train_accuracy:.2f}%, "
        f"val {report.final_validation_accuracy:.2f}%"
    )
    return 0


def _cmd_evaluate(opts: dict) -> int:
    _require(opts, "model", "data", "embeddings")
    model = load_model(opts["model"])
    dataset = load_dataset(opts["data"])
    table = load_embeddings(opts["embeddings"], opts["dim"])
    accuracy = evaluate(model, dataset, table)
    print(f"accuracy: {accuracy:.2f}% on {len(dataset)} questions")
    return 0


def _cmd_sweep(opts: dict) -> int:
    _require(opts, "out")
    out = Path(opts["out"])
    if opts["synthetic"]:
        source = SyntheticSource(
            n=opts["n"],
            vocab_size=opts["vocab"],
            dim=opts["dim"] if opts["dim"] is not None else 16,
            max_words=opts["max_words"] if opts["max_words"] is not None else 12,
            noise=opts["noise"],
            train_count=opts["train_count"],
            test_count=opts["test_count"],
        )
    else:
        _require(opts, "train", "test", "embeddings")
        source = FileSource(
            train_path=opts["train"],
            test_path=opts["test"],
            embeddings_path=opts["embeddings"],
            embedding_dim=opts["dim"] if opts["dim"] is not None else 300,
            max_words=opts["max_words"] if opts["max_words"] is not None else 240,
        )
    train_config = TrainConfig(
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        learning_rate=opts["lr"],
        validation_fraction=opts["val_fraction"],
        seed=opts["seed"],
    )
    config = SweepConfig(
        depths=tuple(opts["depths"]),
        repeats=opts["repeats"],
        train_config=train_config,
        width_max=opts["width_max"],
        width_min=opts["width_min"],
        dropout_rate=opts["dropout"],
        source=source,
        output_dir=str(out),
        workers=opts["workers"],
    )
    if config.workers > 1:
        print(
            "warning: workers > 1 runs cells concurrently; the time-vs-depth "
            "comparison is not meaningful for this sweep",
            file=sys.stderr,
        )
    rows = run_depth_sweep(config)
    write_sweep_csv(rows, out / "sweep.csv")
    if len(rows) >= 2:
        render_plots(rows, out)
    grad_flow_report(config)
    _persist_config(out, "sweep", opts)
    for row in rows:
        print(
            f"depth {row.depth:>3}: test {row.test_accuracy_pct:6.2f}%  "
            f"val {row.validation_accuracy_pct:6.2f}%  time {row.train_time_seconds:.1f}s"
            + (f"  ({row.diverged_runs} diverged)" if row.diverged_runs else "")
        )
    return 0


def _cmd_report(opts: dict) -> int:
    _require(opts, "runs")
    base = Path(opts["runs"])
    rows = rows_from_run_files(base / "runs")
    out = Path(opts["out"]) if opts["out"] else base
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, out / "sweep.csv")
    if len(rows) >= 2:
        render_plots(rows, out)
    print(f"regenerated sweep.csv and plots for {len(rows)} depths in {out}")
    return 0


_COMMANDS: dict[str, Callable[[dict], int]] = {
    "gen-synth": _cmd_gen_synth,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def parse_and_dispatch(argv: list[str]) -> int:
    """Parse argv (without the program name) and run the subcommand."""
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        opts = _resolve(args, _OPTIONS[args.command])
        return _COMMANDS[args.command](opts)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
