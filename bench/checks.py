"""Output checks: every command's outputs must be correct, or its operations
count as failed.

Sweeps: sweep.csv and grad_flow.csv must be well formed and agree with each
other, and (sweep.csv without its time column) plus grad_flow.csv must be
byte-identical across every command of the run, untraced and traced alike.
Score: the reported accuracy must equal an in-process recomputation on the
same files that shares no code with the package (``reference_scores``).
"""

from __future__ import annotations

import json
import math
import string
from pathlib import Path

import numpy as np

SWEEP_HEADER = "depth,train_time_s,train_acc,val_acc,test_acc,diverged,grad_norm_l1"
GRAD_FLOW_HEADER = "depth,layer_index,mean_norm"
PLOT_FILES = ("fig_time.svg", "fig_train_acc.svg", "fig_val_acc.svg", "fig_test_acc.svg")


def without_time_column(sweep_csv: str) -> str:
    return "".join(
        ",".join(p for j, p in enumerate(line.split(",")) if j != 1) + "\n"
        for line in sweep_csv.splitlines()
    )


def sweep_problems(out_dir: Path, depths: tuple[int, ...], repeats: int) -> tuple[list[str], str]:
    """(problems, canonical text) for one sweep's output directory."""
    try:
        sweep = (out_dir / "sweep.csv").read_text(encoding="utf-8")
        flow = (out_dir / "grad_flow.csv").read_text(encoding="utf-8")
    except OSError as exc:
        return [f"missing output: {exc}"], ""
    problems = []
    lines = sweep.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[:1] != [SWEEP_HEADER] or [int(r[0]) for r in rows] != list(depths):
        problems.append("sweep.csv header or depths differ from the configuration")
        return problems, ""
    for r in rows:
        accs = [float(v) for v in r[2:5]]
        if not all(0.0 <= a <= 100.0 for a in accs) or not 0 <= int(r[5]) <= repeats:
            problems.append(f"sweep.csv row out of range: {','.join(r)}")
    flow_lines = flow.splitlines()
    flow_rows = [line.split(",") for line in flow_lines[1:]]
    expected = [(d, k) for d in depths for k in range(d + 1)]
    if flow_lines[:1] != [GRAD_FLOW_HEADER] or [(int(r[0]), int(r[1])) for r in flow_rows] != expected:
        problems.append("grad_flow.csv does not list layers 0..d for every depth")
        return problems, ""
    first_layer = {int(r[0]): float(r[2]) for r in flow_rows if r[1] == "0"}
    for r in flow_rows:
        if not (math.isfinite(float(r[2])) and float(r[2]) >= 0.0):
            problems.append(f"grad_flow.csv norm not finite and non-negative: {','.join(r)}")
    for r in rows:
        if f"{first_layer[int(r[0])]:.6g}" != r[6]:
            problems.append(f"depth {r[0]}: sweep.csv grad_norm_l1 {r[6]} != grad_flow.csv layer 0")
    missing = [f for f in PLOT_FILES if not (out_dir / f).is_file()]
    runs = len(list((out_dir / "runs").glob("*_*.json")))
    if missing or runs != len(depths) * repeats:
        problems.append(f"missing plots {missing} or {runs} run files")
    return problems, without_time_column(sweep) + flow


THRESHOLD_MARGIN = 1e-9  # |output logit| below this: either side is right


def reference_scores(model_path: Path, data_path: Path, embeddings_path: Path) -> tuple[int, int, int]:
    """Score a checkpoint on a JSONL file from the files alone, in plain
    numpy: lowercase, split on whitespace, strip punctuation at the ends of
    tokens; concatenate the words' embeddings (zeros for unknown words),
    zero-pad to max_words slots, append the weak annotation; ReLU hidden
    layers, a sigmoid output and the threshold 0.5 (a 0.5 is "deleted").

    Returns (correct, rows whose output logit is within THRESHOLD_MARGIN of
    0, rows). Those rows may round to either side, so the package may
    differ from ``correct`` by at most their count."""
    with open(embeddings_path, encoding="utf-8") as fh:
        _, dim = (int(v) for v in fh.readline().split())
        table: dict[str, np.ndarray] = {}
        for line in fh:
            word, *comps = line.split()
            table.setdefault(word, np.array([float(c) for c in comps]))
    layers = json.loads(Path(model_path).read_text(encoding="utf-8"))["layers"]
    weights = [(np.array(l["weights"]).reshape(l["rows"], l["cols"]), np.array(l["bias"])) for l in layers]
    max_words = (weights[0][0].shape[1] - 1) // dim
    questions = [json.loads(line) for line in Path(data_path).read_text(encoding="utf-8").splitlines() if line.strip()]

    correct = ambiguous = 0
    for start in range(0, len(questions), 4096):
        chunk = questions[start : start + 4096]
        x = np.zeros((len(chunk), max_words * dim + 1))
        for row, q in zip(x, chunk):
            words = [w for w in (raw.strip(string.punctuation) for raw in q["text"].lower().split()) if w]
            for slot, word in enumerate(words[:max_words]):
                if word in table:
                    row[slot * dim : (slot + 1) * dim] = table[word]
            row[-1] = q.get("weak_annotation", 0.0)
        for k, (w, b) in enumerate(weights):
            x = x @ w.T + b
            if k < len(weights) - 1:
                x = np.maximum(x, 0.0)
        logit = x[:, 0]
        labels = np.array([q["label"] == 1 for q in chunk])
        correct += int(np.sum((logit >= 0.0) == labels))
        ambiguous += int(np.sum(np.abs(logit) < THRESHOLD_MARGIN))
    return correct, ambiguous, len(questions)


def check_probes(probes: list) -> bool:
    """Set-up probes must reach the first top-level call and exit cleanly."""
    ok = True
    for probe in probes:
        if probe.rc != 0 or probe.report is None or probe.report["setup_end"] is None:
            print(f"check failed (setup): exit code {probe.rc}; output tail: {probe.stdout[-400:]!r}")
            ok = False
    return ok


def check_runs(workload: str, inputs, children: list) -> list[bool]:
    """One verdict per command; prints the reason for each failure."""
    verdicts = []
    reference = None
    scores = None
    for child in children:
        problems = []
        if child.rc != 0 or child.report is None:
            problems.append(f"exit code {child.rc}; output tail: {child.stdout[-400:]!r}")
        elif child.report["wrapped_left"]:
            problems.append(f"wrappers not restored: {child.report['wrapped_left']}")
        elif workload.startswith("sweep"):
            found, canonical = sweep_problems(child.out_dir, inputs.depths, inputs.repeats)
            problems += found
            if not found:
                reference = reference if reference is not None else canonical
                if canonical != reference:
                    problems.append("sweep.csv/grad_flow.csv differ from the run's first command")
        else:
            from metrics import spans_of, tag, top_level

            if scores is None:
                scores = reference_scores(*inputs.score_files)
            correct, ambiguous, rows = scores
            acc = next(tag(s, "acc") for s in top_level(spans_of(child.report)))
            if abs(acc * rows / 100.0 - correct) > ambiguous + 1e-6:
                problems.append(f"accuracy {acc!r} != recomputation {100.0 * correct / rows!r}"
                                f" ({ambiguous} rows at the threshold)")
            if f"accuracy: {acc:.2f}%" not in child.stdout:
                problems.append("printed accuracy differs from the returned one")
        for p in problems:
            print(f"check failed ({child.mode}): {p}")
        verdicts.append(not problems)
    return verdicts
