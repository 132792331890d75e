"""qdelnet benchmark: drive the package through its CLI entry point in fresh
processes and report end-to-end metrics (untraced) or per-layer metrics
(traced) as one JSON line.

    python3 bench/run.py --workload sweep-narrow|sweep-wide|score \\
        --seed N --seconds S --trace 0|1

Run it from the repository root; it reads the package from ./src. Inputs are
generated from --seed into a temporary directory under the current directory
before any clock starts, and removed afterwards. See bench/README.md for the
workloads, metrics and how the layers map onto the end-to-end numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import metrics  # noqa: E402
from env import environment  # noqa: E402
from tracer import samples_beyond  # noqa: E402

TIME_LIMIT_S = 170.0  # the whole command, set-up and checks included
MAX_FULL_RUNS = 12  # untraced commands per run, however short they are
TMP_DIR = ".bench_tmp"
RESULTS_DIR = ".bench_results"
# Children run with one BLAS thread: the timings are CPU seconds of the child,
# which then measure its work and not how busy the shared machine is.
CHILD_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json and README.md."""

    name: str
    setup_probes: int  # set-up-only children before each untraced command
    make_inputs: Callable[[int, Path], Inputs]  # (seed, temporary directory)
    pace_exponent: float  # how strongly its times follow the pace (pace.py)


@dataclass
class Inputs:
    argv: list[str]  # qdelnet argv, without --out
    ops: int  # operations per command: sweep cells, or 1 for a command
    depths: tuple[int, ...] = ()
    repeats: int = 0
    score_files: tuple[Path, Path, Path] = ()  # score: model, questions, embeddings


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


NARROW = dict(n=2000, vocab=200, dim=16, max_words=12, noise=0.15, train_count=1600,
              test_count=400, depths=(1, 3, 5, 10, 50), repeats=2, epochs=2)
WIDE = dict(n=3000, vocab=10_000, dim=300, max_words=240, noise=0.15, train_count=2400,
            test_count=600, depths=(1, 3), repeats=1, epochs=1, lr=0.05)
SCORE = dict(n=100_000, vocab=200, dim=16, max_words=12, noise=0.15, depth=10,
             fit_questions=2000, fit_epochs=15, fit_lr=0.1)


def _narrow_inputs(seed: int, tmp: Path) -> Inputs:
    c = NARROW
    cfg = tmp / "sweep.cfg"
    _write_config(cfg, {
        "synthetic": "true", "n": c["n"], "vocab": c["vocab"], "dim": c["dim"],
        "max-words": c["max_words"], "noise": c["noise"], "train-count": c["train_count"],
        "test-count": c["test_count"], "depths": ",".join(map(str, c["depths"])),
        "repeats": c["repeats"], "epochs": c["epochs"], "seed": seed,
    })
    return Inputs(["sweep", "--config", str(cfg)], len(c["depths"]) * c["repeats"],
                  c["depths"], c["repeats"])


def _wide_inputs(seed: int, tmp: Path) -> Inputs:
    from qdelnet import gen_synthetic, save_dataset, save_embeddings, split_train_test

    c = WIDE
    corpus, table = gen_synthetic(c["n"], c["vocab"], c["dim"], c["max_words"], c["noise"], seed)
    train_set, test_set = split_train_test(corpus, c["train_count"], c["test_count"], seed)
    save_dataset(train_set, tmp / "train.jsonl")
    save_dataset(test_set, tmp / "test.jsonl")
    save_embeddings(table, tmp / "embeddings.txt")
    cfg = tmp / "sweep.cfg"
    _write_config(cfg, {
        "train": tmp / "train.jsonl", "test": tmp / "test.jsonl",
        "embeddings": tmp / "embeddings.txt", "dim": c["dim"], "max-words": c["max_words"],
        "depths": ",".join(map(str, c["depths"])), "repeats": c["repeats"],
        "epochs": c["epochs"], "lr": c["lr"], "seed": seed,
    })
    return Inputs(["sweep", "--config", str(cfg)], len(c["depths"]) * c["repeats"],
                  c["depths"], c["repeats"])


def _score_inputs(seed: int, tmp: Path) -> Inputs:
    from qdelnet import (Dataset, ModelConfig, TrainConfig, build_model, gen_synthetic,
                         save_dataset, save_embeddings, save_model, taper_widths, train)

    c = SCORE
    n_fit = c["fit_questions"]
    corpus, table = gen_synthetic(n_fit + c["n"], c["vocab"], c["dim"], c["max_words"],
                                  c["noise"], seed)
    model = build_model(ModelConfig(
        input_dim=c["max_words"] * c["dim"] + 1,
        hidden_widths=tuple(taper_widths(c["depth"])),
        seed=seed,
    ))
    fit = Dataset(corpus.questions[:n_fit], name="fit")
    # At the CLI's learning rate of 0.01 a depth-10 model still predicts one
    # class after a few epochs; this one scores about 80-90%, so a wrong
    # forward pass changes its accuracy.
    model, _ = train(model, fit, TrainConfig(epochs=c["fit_epochs"], learning_rate=c["fit_lr"],
                                             seed=seed), table)
    scored = Dataset(corpus.questions[n_fit:], name="scored")
    files = {"model": tmp / "model.json", "data": tmp / "questions.jsonl",
             "embeddings": tmp / "embeddings.txt"}
    save_model(model, files["model"])
    save_dataset(scored, files["data"])
    save_embeddings(table, files["embeddings"])
    argv = ["evaluate", "--model", str(files["model"]), "--data", str(files["data"]),
            "--embeddings", str(files["embeddings"]), "--dim", str(c["dim"])]
    return Inputs(argv, 1, score_files=(files["model"], files["data"], files["embeddings"]))


# The pace exponent says how strongly a workload's CPU seconds follow the
# pace (pace.py). Over the untraced commands of 20 runs of each workload
# (105-115 commands on sweep-narrow and score, 20 on sweep-wide), at paces
# from 0.5 to 1.0 of the nominal one on 2 vCPUs of an Intel Xeon under KVM,
# the slopes of log CPU seconds against log pace were 0.78 for the narrow
# sweep, 0.95 for scoring, which parses and runs Python loops, and 0.44 for
# the memory-bound wide sweep. Among the values tried (0.3-1.0), the ones
# below gave the smallest spread between runs and between the two sets of ten.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-narrow", 1, _narrow_inputs, 0.9),
        Workload("sweep-wide", 1, _wide_inputs, 0.45),
        Workload("score", 0, _score_inputs, 1.0),
    )
}


@dataclass
class ChildRun:
    mode: str
    rc: int | None  # None: killed at the time limit
    wall_s: float
    cpu_s: float  # user + system CPU seconds of the child process
    report: dict | None
    out_dir: Path
    stdout: str


def run_child(root: Path, tmp: Path, index: int, mode: str, inputs: Inputs, deadline: float,
              pace_exponent: float) -> ChildRun:
    """Run one qdelnet command in a fresh interpreter and wait for it."""
    out_dir = tmp / f"out{index}"
    report_path = tmp / f"report{index}.json"
    argv = list(inputs.argv)
    if argv[0] == "sweep":
        argv += ["--out", str(out_dir)]
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--mode", mode,
           "--report", str(report_path), "--", *argv]
    log = tmp / f"child{index}.log"
    env = {**os.environ, **CHILD_THREADS}
    with open(log, "w", encoding="utf-8") as fh:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
        wall = time.monotonic() - t_spawn
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Children are waited for one at a time, so the difference is this one's.
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    report = json.loads(report_path.read_text()) if rc == 0 and report_path.exists() else None
    if report is not None:
        report["pace_exponent"] = pace_exponent
    return ChildRun(mode, rc, wall, cpu, report, out_dir,
                    log.read_text(encoding="utf-8", errors="replace"))


def measure(workload: Workload, root: Path, tmp: Path, inputs: Inputs, seconds: float,
            traced: bool, deadline: float) -> tuple[list[ChildRun], list[ChildRun]]:
    """Returns (set-up probes, full commands). A traced run makes one untraced
    and one traced command; an untraced run repeats (set-up probes, then the
    full command) until --seconds have passed, so that the set-up samples are
    spread over the whole run."""
    probes: list[ChildRun] = []
    full: list[ChildRun] = []
    if traced:
        full.append(run_child(root, tmp, 0, "untraced", inputs, deadline, workload.pace_exponent))
        full.append(run_child(root, tmp, 1, "traced", inputs, deadline, workload.pace_exponent))
        return probes, full
    start = time.monotonic()
    while len(full) < MAX_FULL_RUNS:
        for _ in range(workload.setup_probes):
            probes.append(run_child(root, tmp, 100 + len(probes), "setup", inputs, deadline,
                                    workload.pace_exponent))
        full.append(run_child(root, tmp, len(full), "untraced", inputs, deadline,
                              workload.pace_exponent))
        now = time.monotonic()
        longest = max(c.wall_s for c in full)
        if now - start >= seconds or now + 1.5 * longest > deadline:
            break
    return probes, full


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="qdelnet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    t_begin = time.monotonic()
    deadline = t_begin + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "qdelnet" / "__init__.py").is_file():
        print("error: run from the repository root; src/qdelnet not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    (root / TMP_DIR).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / TMP_DIR))
    try:
        inputs = workload.make_inputs(args.seed, tmp)
        probes, full = measure(workload, root, tmp, inputs, args.seconds, traced, deadline)
        verdicts = checks.check_runs(workload.name, inputs, full)
        failed = sum(inputs.ops for ok in verdicts if not ok)
        attempted = inputs.ops * len(full)
        probes_ok = checks.check_probes(probes)
        if traced:
            values, samples = metrics.per_layer(full[0], full[1])
        else:
            values, samples = metrics.end_to_end(workload.name, probes, full)
        env = environment(root)
        env["blas_in_child"] = next((c.report["blas"] for c in full if c.report), None)
        result = {
            "correct": failed == 0 and probes_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": metrics.UNITS[name]} for name, v in values.items()},
        }
        commands = [{"mode": c.mode, "rc": c.rc, "wall_s": round(c.wall_s, 4),
                     "cpu_s": round(c.cpu_s, 4),
                     "pace": round(metrics.pace_factor(c.report), 4) if c.report else None,
                     "setup_s": None if traced else metrics.setup_seconds(c)}
                    for c in probes + full]
        _save(root, args, env, result, samples, commands, full)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print("commands " + json.dumps(commands))
    for name, v in values.items():
        n = samples.get(name, 1)
        thin = name.endswith(".p90") and samples_beyond(n, 90) < 10
        note = " (fewer than 10 samples beyond p90)" if thin else ""
        print(f"  {name:<36} {v:>14.6g} {metrics.UNITS[name]:<7} n={n}{note}")
    print(json.dumps(result))
    return 0


def _save(root: Path, args, env: dict, result: dict, samples: dict, commands: list[dict],
          full: list[ChildRun]) -> None:
    """Keep the result, its environment, every child's figures and the raw
    spans of every full command (untraced: its top-level calls)."""
    out = root / RESULTS_DIR
    out.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": env, "samples": samples, "commands": commands,
           "result": result}
    doc["spans"] = [c.report["spans"] if c.report else None for c in full]
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
