"""Command-line entry point: generate data, train one model, evaluate,
run the depth sweep, regenerate reports.

Exit codes: 0 success, 1 usage error, 2 runtime error (I/O, parsing,
numeric divergence), 130 interrupted (Ctrl-C). Option precedence:
command-line flags beat config-file values beat built-in defaults; every
run persists its fully resolved configuration next to its outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from .data import load_dataset, save_dataset
from .errors import ConfigError, ParseError, not_utf8
from .experiment import (
    FileSource,
    SweepConfig,
    SyntheticSource,
    load_source,
    run_depth_sweep,
    write_outputs,
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


# Per-subcommand option tables: (flag, parser, default, help). Defaults come from
# the source and config classes that hold them; a None default is not shown.
_SYNTH_OPTS = [
    ("n", int, SyntheticSource.n, "number of synthetic questions (even)"),
    ("vocab", int, SyntheticSource.vocab_size, "synthetic vocabulary size"),
    ("noise", float, SyntheticSource.noise, "synthetic label/token corruption rate in [0, 1]"),
]
_PROTOCOL_OPTS = [
    ("epochs", int, TrainConfig.epochs, "training epochs"),
    ("batch-size", int, TrainConfig.batch_size, "mini-batch size"),
    ("lr", float, TrainConfig.learning_rate, "SGD learning rate"),
    ("val-fraction", float, TrainConfig.validation_fraction, "share held out for validation"),
    ("dropout", float, ModelConfig.dropout_rate, "dropout rate on hidden activations"),
    ("seed", int, TrainConfig.seed, "root seed for every stochastic stage"),
]
_KEPT = "; its parsed copy is kept beside it in <path>.qdelnet-cache.npz"
_SOURCE_OPTS = [
    ("synthetic", _FLAG, False, "generate the corpus instead of loading files"),
    ("train", str, None, "training corpus JSONL path (file mode)" + _KEPT),
    ("test", str, None, "test corpus JSONL path (file mode)" + _KEPT),
    ("embeddings", str, None, "embedding table path, word2vec text format (file mode)" + _KEPT),
    ("dim", int, None, f"embedding dimension (default: {SyntheticSource.dim} synthetic, "
                       f"{FileSource.embedding_dim} file mode)"),
    ("max-words", int, None, f"word slots per feature vector (default: {SyntheticSource.max_words} "
                             f"synthetic, {FileSource.max_words} file mode)"),
    ("train-count", int, None, "questions sliced into the training set (synthetic mode; "
                               "default with --test-count or in a sweep: 5/6 of the corpus)"),
    ("test-count", int, None, "questions sliced into the test set (synthetic mode; "
                              "default with --train-count or in a sweep: the rest)"),
]

_OPTIONS: dict[str, list[tuple]] = {
    "gen-synth": [
        *_SYNTH_OPTS,
        ("dim", int, SyntheticSource.dim, "embedding dimension"),
        ("max-words", int, SyntheticSource.max_words, "maximum words per question"),
        ("seed", int, 0, "generator seed"),
        ("train-count", int, None, "also slice out a training set of this size (default: 5/6)"),
        ("test-count", int, None, "also slice out a test set of this size (default: the rest)"),
        ("out", str, None, "output directory (required)"),
    ],
    "train": [
        *_SOURCE_OPTS,
        *_SYNTH_OPTS,
        *_PROTOCOL_OPTS,
        ("depth", int, 5, "number of hidden layers (tapered widths)"),
        ("widths", _parse_int_list, None, "explicit hidden widths, e.g. 256,64,16 (overrides --depth)"),
        ("width-max", int, SweepConfig.width_max, "taper start width"),
        ("width-min", int, SweepConfig.width_min, "taper end width"),
        ("record-grad-norms", _FLAG, False, "record per-epoch gradient norms in the report"),
        ("out", str, None, "output directory (required)"),
    ],
    "evaluate": [
        ("model", str, None, "model checkpoint path (required)"),
        ("data", str, None, "corpus JSONL path (required)" + _KEPT),
        ("embeddings", str, None, "embedding table path (required)" + _KEPT),
        ("dim", int, FileSource.embedding_dim, "embedding dimension"),
    ],
    "sweep": [
        *_SOURCE_OPTS,
        *_SYNTH_OPTS,
        *_PROTOCOL_OPTS,
        ("depths", _parse_int_list, SweepConfig.depths, "hidden-layer counts to sweep"),
        ("repeats", int, SweepConfig.repeats, "train+evaluate cycles averaged per depth"),
        ("width-max", int, SweepConfig.width_max, "taper start width"),
        ("width-min", int, SweepConfig.width_min, "taper end width"),
        ("out", str, None, "output directory (required)"),
    ],
    "report": [
        ("runs", str, None, "directory of a sweep (contains runs/) (required)"),
        ("out", str, None, "where to write sweep.csv, SVGs and grad_flow.csv (default: --runs)"),
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
        "sweep": "run the depth sweep; write run files, sweep.csv, the SVGs and grad_flow.csv",
        "report": "regenerate sweep.csv, the SVGs and grad_flow.csv from a sweep's run files",
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
                shown = "" if default is None else f" (default: {default})"
                p.add_argument(f"--{flag}", type=parse, default=None, metavar="V",
                               help=help_text + shown)
        p.set_defaults(command=name)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                s = line.strip()
                if not s or s.startswith("#"):
                    continue
                if "=" not in s:
                    raise ParseError("expected 'key = value'", line=lineno)
                key, value = s.split("=", 1)
                values[key.strip()] = value.strip()
    except UnicodeDecodeError:
        raise not_utf8(path) from None
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
            try:
                resolved[dest] = _parse_bool(raw) if parse is _FLAG else parse(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"config-file key {flag!r}: {exc}") from None
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


# Option name -> field of the source it sets.
_SYNTH_FIELDS = {"n": "n", "vocab": "vocab_size", "dim": "dim", "max_words": "max_words",
                 "noise": "noise", "train_count": "train_count", "test_count": "test_count"}
_FILE_FIELDS = {"train": "train_path", "test": "test_path", "embeddings": "embeddings_path",
                "dim": "embedding_dim", "max_words": "max_words"}


def _source(opts: dict) -> SyntheticSource | FileSource:
    """The data source the options name, built from the options that are set;
    every other field keeps the source class's default."""
    synthetic = opts.get("synthetic", True)  # gen-synth has no file mode
    if not synthetic:
        _require(opts, "train", "embeddings")
    cls, fields = (SyntheticSource, _SYNTH_FIELDS) if synthetic else (FileSource, _FILE_FIELDS)
    return cls(**{field: opts[key] for key, field in fields.items() if opts.get(key) is not None})


def _train_config(opts: dict) -> TrainConfig:
    return TrainConfig(
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        learning_rate=opts["lr"],
        validation_fraction=opts["val_fraction"],
        seed=opts["seed"],
        record_grad_norms=opts.get("record_grad_norms", False),  # train only
    )


def _cmd_gen_synth(opts: dict) -> int:
    _require(opts, "out")
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    train_set, test_set, table, _ = load_source(_source(opts), opts["seed"])
    if test_set is None:
        save_dataset(train_set, out / "dataset.jsonl")
    else:
        save_dataset(train_set, out / "train.jsonl")
        save_dataset(test_set, out / "test.jsonl")
    save_embeddings(table, out / "embeddings.txt")
    _persist_config(out, "gen-synth", opts)
    print(f"wrote {opts['n']} questions and {len(table)} embeddings to {out}")
    return 0


def _cmd_train(opts: dict) -> int:
    _require(opts, "out")
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    train_set, _, table, max_words = load_source(_source(opts), opts["seed"])
    widths = opts["widths"]
    if widths is None:
        widths = taper_widths(opts["depth"], opts["width_max"], opts["width_min"])
    model_config = ModelConfig(
        input_dim=max_words * table.dim + 1,
        hidden_widths=tuple(widths),
        dropout_rate=opts["dropout"],
        seed=opts["seed"],
    )
    model = build_model(model_config)
    model, report = train(model, train_set, _train_config(opts), table)
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
    config = SweepConfig(
        depths=tuple(opts["depths"]),
        repeats=opts["repeats"],
        train_config=_train_config(opts),
        width_max=opts["width_max"],
        width_min=opts["width_min"],
        dropout_rate=opts["dropout"],
        source=_source(opts),
        output_dir=str(out),
    )
    rows = run_depth_sweep(config)
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
    out = Path(opts["out"]) if opts["out"] else base
    rows = write_outputs(base / "runs", out)
    print(f"regenerated the outputs of {len(rows)} depths in {out}")
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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
