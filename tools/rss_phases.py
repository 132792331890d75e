"""Resident memory and CPU time of one benchmark command, phase by phase.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/rss_phases.py --seed N \\
        [--workload sweep-wide|sweep-narrow|score]

Runs one cell of a benchmark sweep as the sweep does, or the scoring command,
and prints VmRSS (resident now) and VmHWM (peak so far) in MB from
/proc/self/status and the process's CPU seconds after each phase. One BLAS
thread, as above, matches the benchmark. Linux only.

- sweep-wide (the default): the depth-1 cell of the 72,001-wide file source
  (vocab 10,000, dim 300, max_words 240, 2,400 train / 600 test questions,
  1 epoch at learning rate 0.05). Phases: imports, load_source, build_model,
  profile (right after train()'s initial_gradient_profile call, which
  profiles the initial gradients on the first training batch before the
  first step), train() (which trains the built model in place and includes
  its fit and validation evaluates) and the test-set evaluate.
- sweep-narrow: the depth-50 cell of the 193-wide synthetic source (n 2,000,
  vocab 200, dim 16, max_words 12, 1,600 train / 400 test questions, 2
  epochs at learning rate 0.01), generated in load_source as the sweep does.
  Same phases as sweep-wide.
- score: `qdelnet evaluate` of a depth-10 checkpoint on 100,000 questions
  (vocab 200, dim 16, max_words 12). The checkpoint is untrained: memory and
  time do not depend on the weights. Phases: imports, load_model,
  load_dataset, load_embeddings and evaluate, in the command's order.

The file inputs of sweep-wide and score are written from --seed into a
temporary directory by a child process, so generating them costs this
process nothing.
"""

import argparse
import importlib
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def status_mb(field: str) -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024  # the kernel reports kB
    raise KeyError(field)


def report(phase: str) -> None:
    print(f"{phase:<16} VmRSS {status_mb('VmRSS'):8.1f} MB  VmHWM {status_mb('VmHWM'):8.1f} MB"
          f"  CPU {time.process_time():7.2f} s")


def write_inputs(workload: str, seed: int, out: Path) -> None:
    from qdelnet import (ModelConfig, build_model, gen_synthetic, save_dataset, save_embeddings,
                         save_model, split_train_test, taper_widths)

    if workload == "score":
        corpus, table = gen_synthetic(100_000, 200, 16, 12, 0.15, seed)
        save_dataset(corpus, out / "questions.jsonl")
        save_model(build_model(ModelConfig(input_dim=12 * 16 + 1,
                                           hidden_widths=tuple(taper_widths(10)), seed=seed)),
                   out / "model.json")
    else:
        corpus, table = gen_synthetic(3000, 10_000, 300, 240, 0.15, seed)
        train_set, test_set = split_train_test(corpus, 2400, 600, seed)
        save_dataset(train_set, out / "train.jsonl")
        save_dataset(test_set, out / "test.jsonl")
    save_embeddings(table, out / "embeddings.txt")


def run_cell(source, seed: int, depth: int, train_config) -> None:
    from qdelnet import ModelConfig, build_model, evaluate, load_source, taper_widths, train

    report("imports")
    train_set, test_set, table, max_words = load_source(source, seed, need_test=True)
    report("load_source")
    config = ModelConfig(input_dim=max_words * table.dim + 1,
                         hidden_widths=tuple(taper_widths(depth)), dropout_rate=0.05, seed=seed)
    model = build_model(config)
    report("build_model")
    # train() looks the profile up in its module, as the benchmark's tracer finds it.
    train_module = importlib.import_module("qdelnet.train")
    profile = train_module.initial_gradient_profile

    def reporting(*args, **kwargs):
        try:
            return profile(*args, **kwargs)
        finally:
            report("profile")

    train_module.initial_gradient_profile = reporting
    try:
        model, _ = train(model, train_set, train_config, table)
    finally:
        train_module.initial_gradient_profile = profile
    report("train()")
    evaluate(model, test_set, table)
    report("evaluate")


def run_score(tmp: str) -> None:
    from qdelnet import evaluate, load_dataset, load_embeddings, load_model

    report("imports")
    model = load_model(f"{tmp}/model.json")
    report("load_model")
    dataset = load_dataset(f"{tmp}/questions.jsonl")
    report("load_dataset")
    table = load_embeddings(f"{tmp}/embeddings.txt", 16)
    report("load_embeddings")
    evaluate(model, dataset, table)
    report("evaluate")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=("sweep-wide", "sweep-narrow", "score"),
                        default="sweep-wide")
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)  # the child's job
    args = parser.parse_args()
    if args.write is not None:
        write_inputs(args.workload, args.seed, args.write)
        return
    from qdelnet import FileSource, SyntheticSource, TrainConfig

    if args.workload == "sweep-narrow":
        source = SyntheticSource(n=2000, vocab_size=200, dim=16, max_words=12, noise=0.15,
                                 train_count=1600, test_count=400)
        run_cell(source, args.seed, 50, TrainConfig(epochs=2, seed=args.seed))
        return
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, __file__, "--seed", str(args.seed),
                        "--workload", args.workload, "--write", tmp], check=True)
        if args.workload == "score":
            run_score(tmp)
            return
        source = FileSource(f"{tmp}/train.jsonl", f"{tmp}/embeddings.txt", f"{tmp}/test.jsonl")
        run_cell(source, args.seed, 1, TrainConfig(epochs=1, learning_rate=0.05, seed=args.seed))


if __name__ == "__main__":
    main()
