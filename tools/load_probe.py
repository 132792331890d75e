"""CPU time and peak memory of one data.load_dataset call that misses the
corpus cache and one that hits it, on three corpus shapes.

    OPENBLAS_NUM_THREADS=1 python3 tools/load_probe.py --seed N [--rounds R] SRC...

Each SRC is a directory holding the qdelnet package (a checkout's src/). The
probe writes three 100,000-question corpora from --seed, then, for R rounds,
for each corpus and each SRC, taking the SRCs in turn and reversing their
order every other round:

- miss: deletes the corpus's cache (`<file>.qdelnet-cache.npz`) and loads
  the corpus once in a fresh process, which parses it and writes the cache;
- hit: loads it once more in another fresh process, which reads the cache.

A checkout without the corpus cache parses the file both times. Each
process prints the CPU seconds of its load and its VmHWM (peak resident MB,
from /proc/self/status; Linux only); a last table gives the medians over the
rounds. Corpora:

- score: gen_synthetic as the score benchmark makes it (vocab 200, max_words
  12): lowercase words that repeat on nearly every line.
- natural: question-shaped text, 4 + Poisson(16) tokens a line, words drawn
  by rank from an unbounded Zipf law (exponent 1.2), with capitalized and
  upper-case words, punctuation at word ends and alone ('-', '?', '{'),
  code-like tokens (`name.attr()`, `name_12`) and numbers.
- unique: 12 words a line, no raw token used twice: every token is new.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

N = 100_000
SHAPES = ("score", "natural", "unique")


def word(rank: int) -> str:
    letters = []
    while rank:
        rank, digit = divmod(rank, 26)
        letters.append("aeioubcdfghjklmnprstvwxyz"[digit % 25] if digit else "q")
    return "".join(letters)


def natural_texts(seed: int) -> list[str]:
    import numpy as np

    rng = np.random.default_rng(seed)
    lengths = 4 + rng.poisson(16, N)
    ranks = rng.zipf(1.2, int(lengths.sum())).tolist()
    kinds = rng.random(len(ranks)).tolist()
    extra = rng.integers(0, 1_000_000, len(ranks)).tolist()
    words: dict[int, str] = {}
    out, i = [], 0
    for length in lengths.tolist():
        toks = []
        for _ in range(length):
            w = words.get(ranks[i]) or words.setdefault(ranks[i], word(ranks[i]))
            k, x = kinds[i], extra[i]
            i += 1
            if k < 0.08:
                w = w.capitalize()
            elif k < 0.09:
                w = w.upper()
            elif k < 0.15:
                w += ",.?:;!)"[x % 7]
            elif k < 0.17:
                w = "(\"'"[x % 3] + w
            elif k < 0.20:
                w = "-?:{}=()*/"[x % 10]
            elif k < 0.21:
                w = f"{w}.{word(x % 5000 + 1)}()"
            elif k < 0.22:
                w = f"{w}_{x % 100}"
            elif k < 0.24:
                w = str(x)
            toks.append(w)
        out.append(" ".join(toks))
    return out


def write_corpora(seed: int, out: Path) -> None:
    from qdelnet import gen_synthetic, save_dataset

    corpus, _ = gen_synthetic(N, 200, 16, 12, 0.15, seed)
    save_dataset(corpus, out / "score.jsonl")
    texts = {"natural": natural_texts(seed),
             "unique": [" ".join(f"u{12 * i + j}" for j in range(12)) for i in range(N)]}
    for shape, lines in texts.items():
        with open(out / f"{shape}.jsonl", "w", encoding="utf-8") as fh:
            for i, text in enumerate(lines):
                fh.write(json.dumps({"id": f"q{i}", "text": text, "weak_annotation": 0.5,
                                     "label": i % 2}) + "\n")


def load(path: str) -> None:
    from qdelnet import load_dataset

    start = time.process_time()
    load_dataset(path)
    seconds = time.process_time() - start
    hwm = next(int(line.split()[1]) for line in open("/proc/self/status")
               if line.startswith("VmHWM:"))
    print(f"{seconds:.3f} {hwm / 1024:.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--write", help=argparse.SUPPRESS)  # the children's jobs
    parser.add_argument("--load", help=argparse.SUPPRESS)
    parser.add_argument("src", nargs="+")
    args = parser.parse_args()
    if args.write is not None:
        write_corpora(args.seed, Path(args.write))
        return
    if args.load is not None:
        load(args.load)
        return
    srcs = [str(Path(src).resolve()) for src in args.src]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    runs: dict[tuple[str, int], list[list[float]]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, __file__, "--seed", str(args.seed), "--write", tmp,
                        srcs[0]], env={**env, "PYTHONPATH": srcs[0]}, check=True)
        print("corpus   round  src  miss CPU s  VmHWM MB  hit CPU s  VmHWM MB")
        for r in range(args.rounds):
            order = list(enumerate(srcs))
            for shape in SHAPES:
                corpus = Path(tmp) / f"{shape}.jsonl"
                for k, src in order if r % 2 == 0 else order[::-1]:
                    corpus.with_name(corpus.name + ".qdelnet-cache.npz").unlink(missing_ok=True)
                    figures = []
                    for _ in ("miss", "hit"):
                        done = subprocess.run(
                            [sys.executable, __file__, "--seed", str(args.seed), "--load",
                             str(corpus), src],
                            env={**env, "PYTHONPATH": src}, check=True, capture_output=True,
                            text=True)
                        figures += map(float, done.stdout.split())
                    runs.setdefault((shape, k), []).append(figures)
                    print(f"{shape:<8} {r:>5}  {k:>3}  {figures[0]:>10.3f}  {figures[1]:>8.1f}"
                          f"  {figures[2]:>9.3f}  {figures[3]:>8.1f}")
    print("medians")
    for (shape, k), rows in runs.items():
        medians = [statistics.median(column) for column in zip(*rows)]
        print(f"{shape:<8} {'':>5}  {k:>3}  {medians[0]:>10.3f}  {medians[1]:>8.1f}"
              f"  {medians[2]:>9.3f}  {medians[3]:>8.1f}")


if __name__ == "__main__":
    main()
