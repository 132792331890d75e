"""Hashes of what the qdelnet commands write, to compare two checkouts.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=SRC python3 tools/identity_check.py OUT_DIR

Imports qdelnet from PYTHONPATH, so one copy of this script can run against
any checkout's src/. Run it once per checkout, each into its own new OUT_DIR,
and compare the output: equal lines mean the outputs are byte-identical.
Every command goes through qdelnet.cli.parse_and_dispatch:

- a synthetic sweep (the default 2,000-question source) of depths
  1,3,10,50, 2 repeats of 2 epochs each, and `report` on its run files,
  written to a directory of its own; the script exits with an error unless
  each synthetic-report/ line (sweep.csv, grad_flow.csv and the SVGs) equals
  its synthetic-sweep/ line;
- the same synthetic sweep at 0 epochs, into synthetic-profile/; the script
  exits with an error unless its grad_flow.csv line equals synthetic-sweep/'s,
  since the initial gradient profile does not depend on training;
- a file sweep of depths 1,3 at the paper's input width (240 words x 300
  dims + 1 = 72,001 inputs), 1 epoch, on a 100/20-question corpus written
  by gen-synth; hidden widths taper from 64, to keep memory small; run
  twice, into wide-sweep/ and wide-sweep-warm/;
- evaluate of a depth-10 checkpoint that `qdelnet train` wrote, on the test
  file of a 600-question gen-synth corpus whose train file it was trained on,
  run twice: evaluate.txt and evaluate-warm.txt; the script exits with an
  error unless the two lines are equal.

It prints one `sha256  name` line per output, to stdout. Wall-clock times
are left out: sweep.csv's train_time_s column, the wall_time_seconds of run
files and of train_report.json, and fig_time.svg. resolved_config.json is
left out too, as it holds OUT_DIR's paths, and so are the input caches that
load_embeddings, load_dataset and load_model write beside the tables, corpora
and checkpoints (`*.qdelnet-cache.npz`), which a checkout without those
caches does not write. The narrow `train` parses its table and writes the
table's cache; the first `evaluate` then reads that cache and parses the
test corpus and the checkpoint, writing their caches, and the second reads
three caches: the table's, the corpus's and the checkpoint's. So the
evaluate.txt line shows that a table cache hit scores the same, and the
evaluate-warm.txt line, which must equal it, shows the same for a corpus and
a checkpoint cache hit. Likewise the first wide
sweep parses its table and both corpora, and the second reads the three
caches; the script exits with an error unless each wide-sweep-warm/ line
equals its wide-sweep/ line. The qdelnet it imported goes to stderr.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import qdelnet
from qdelnet.cli import parse_and_dispatch


def run(*argv) -> str:
    """Run one qdelnet command and return its stdout; exit if it fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parse_and_dispatch([str(a) for a in argv])
    if code != 0:
        sys.exit(f"qdelnet {' '.join(map(str, argv))} exited {code}: {err.getvalue()}")
    return out.getvalue()


def without_key(text: str, key: str) -> str:
    """A JSON document with `key` dropped wherever it occurs."""

    def drop(value):
        if isinstance(value, dict):
            return {k: drop(v) for k, v in value.items() if k != key}
        if isinstance(value, list):
            return [drop(v) for v in value]
        return value

    return json.dumps(drop(json.loads(text)), sort_keys=True)


def without_column(text: str, column: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


def digest(base: Path, path: Path) -> str:
    """The hash line of one output file, time fields removed."""
    text = path.read_text(encoding="utf-8")
    name = path.relative_to(base).as_posix()
    if path.name == "sweep.csv":
        text = without_column(text, "train_time_s")
    elif path.parent.name == "runs" or path.name == "train_report.json":
        text = without_key(text, "wall_time_seconds")
    return f"{hashlib.sha256(text.encode()).hexdigest()}  {name}"


def main() -> None:
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    base = Path(sys.argv[1])
    if base.exists() and any(base.iterdir()):
        sys.exit(f"{base} is not empty")
    print(f"qdelnet from {Path(qdelnet.__file__).parent}", file=sys.stderr)

    run("sweep", "--synthetic", "--depths", "1,3,10,50", "--repeats", "2", "--epochs", "2",
        "--out", base / "synthetic-sweep")
    run("report", "--runs", base / "synthetic-sweep", "--out", base / "synthetic-report")
    run("sweep", "--synthetic", "--depths", "1,3,10,50", "--repeats", "2", "--epochs", "0",
        "--out", base / "synthetic-profile")

    data = base / "wide-data"
    run("gen-synth", "--n", "120", "--train-count", "100", "--test-count", "20", "--vocab", "300",
        "--dim", "300", "--max-words", "240", "--seed", "5", "--out", data)
    for name in ("wide-sweep", "wide-sweep-warm"):
        run("sweep", "--train", data / "train.jsonl", "--test", data / "test.jsonl",
            "--embeddings", data / "embeddings.txt", "--dim", "300", "--max-words", "240",
            "--depths", "1,3", "--repeats", "1", "--epochs", "1", "--lr", "0.05",
            "--width-max", "64", "--out", base / name)

    data = base / "narrow-data"
    run("gen-synth", "--n", "600", "--train-count", "500", "--test-count", "100",
        "--seed", "7", "--out", data)
    files = ["--embeddings", data / "embeddings.txt", "--dim", "16"]
    run("train", "--train", data / "train.jsonl", *files, "--max-words", "12",
        "--depth", "10", "--epochs", "3", "--seed", "7", "--out", base / "depth10")
    for name in ("evaluate.txt", "evaluate-warm.txt"):
        accuracy = run("evaluate", "--model", base / "depth10" / "model.json",
                       "--data", data / "test.jsonl", *files)
        (base / name).write_text(accuracy, encoding="utf-8")

    skipped = {"resolved_config.json", "fig_time.svg"}
    lines = [digest(base, path) for path in sorted(base.rglob("*"))
             if path.is_file() and path.name not in skipped
             and not path.match("*.qdelnet-cache.npz")]
    print("\n".join(lines))
    swept, reported, profiled, cold, warm = (
        [line.replace(f"  {name}/", "  ") for line in lines if f"  {name}/" in line]
        for name in ("synthetic-sweep", "synthetic-report", "synthetic-profile", "wide-sweep",
                     "wide-sweep-warm"))
    evaluated, evaluated_warm = ([line.split()[0] for line in lines if line.endswith(f"  {name}")]
                                 for name in ("evaluate.txt", "evaluate-warm.txt"))
    if not reported or not set(reported) <= set(swept):
        sys.exit("synthetic-report/ differs from synthetic-sweep/")
    flow = [line for line in swept if line.endswith("  grad_flow.csv")]
    if not flow or not set(flow) <= set(profiled):
        sys.exit("synthetic-profile/grad_flow.csv differs from synthetic-sweep/'s")
    if not cold or warm != cold:
        sys.exit("wide-sweep-warm/ differs from wide-sweep/")
    if not evaluated or evaluated_warm != evaluated:
        sys.exit("evaluate-warm.txt differs from evaluate.txt")


if __name__ == "__main__":
    main()
