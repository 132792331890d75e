"""CPU time and peak memory of data.load_dataset on three corpus shapes.

    OPENBLAS_NUM_THREADS=1 python3 tools/load_probe.py --seed N [--rounds R] [--loads L] SRC...

Each SRC is a directory holding the qdelnet package (a checkout's src/). The
probe writes three 100,000-question corpora from --seed, then, for R rounds,
loads each corpus in a fresh process per SRC, taking the SRCs in turn and
reversing their order every other round. A process loads its corpus L times
and prints the CPU seconds of each load and its VmHWM (peak resident MB,
from /proc/self/status; Linux only). Corpora:

- score: gen_synthetic as the score benchmark makes it (vocab 200, max_words
  12): lowercase words that repeat on nearly every line.
- natural: question-shaped text, 4 + Poisson(16) tokens a line, words drawn
  by rank from an unbounded Zipf law (exponent 1.2), with capitalized and
  upper-case words, punctuation at word ends and alone ('-', '?', '{'),
  code-like tokens (`name.attr()`, `name_12`) and numbers.
- unique: 12 words a line, no raw token used twice: every token is new.

For each corpus it also prints the share of raw tokens (lowercased,
whitespace-split) met earlier in the file, and the share of lines made only
of such tokens: what a per-load raw token -> token cache could serve.
"""

import argparse
import json
import os
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


def hit_shares(path: Path) -> tuple[float, float]:
    seen: set[str] = set()
    hits = total = full_lines = lines = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            raws = json.loads(line)["text"].lower().split()
            new = sum(raw not in seen for raw in raws)
            seen.update(raws)
            hits += len(raws) - new
            total += len(raws)
            full_lines += not new
            lines += 1
    return hits / total, full_lines / lines


def load(path: str, loads: int) -> None:
    from qdelnet import load_dataset

    times = []
    for _ in range(loads):
        start = time.process_time()
        dataset = load_dataset(path)
        times.append(time.process_time() - start)
        del dataset
    hwm = next(int(line.split()[1]) for line in open("/proc/self/status")
               if line.startswith("VmHWM:"))
    print(" ".join(f"{t:.3f}" for t in times), f"{hwm / 1024:.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--loads", type=int, default=3)
    parser.add_argument("--write", help=argparse.SUPPRESS)  # the children's jobs
    parser.add_argument("--load", help=argparse.SUPPRESS)
    parser.add_argument("src", nargs="+")
    args = parser.parse_args()
    if args.write is not None:
        write_corpora(args.seed, Path(args.write))
        return
    if args.load is not None:
        load(args.load, args.loads)
        return
    srcs = [str(Path(src).resolve()) for src in args.src]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, __file__, "--seed", str(args.seed), "--write", tmp,
                        srcs[0]], env={**env, "PYTHONPATH": srcs[0]}, check=True)
        for shape in SHAPES:
            tokens, lines = hit_shares(Path(tmp) / f"{shape}.jsonl")
            print(f"{shape:<8} raw tokens met before {tokens:6.1%}, lines all met {lines:6.1%}")
        print("corpus   round  src  CPU s per load  VmHWM MB")
        for r in range(args.rounds):
            order = list(enumerate(srcs))
            for shape in SHAPES:
                for k, src in order if r % 2 == 0 else order[::-1]:
                    done = subprocess.run(
                        [sys.executable, __file__, "--seed", str(args.seed), "--loads",
                         str(args.loads), "--load", f"{tmp}/{shape}.jsonl", src],
                        env={**env, "PYTHONPATH": src}, check=True, capture_output=True, text=True)
                    print(f"{shape:<8} {r:>5}  {k:>3}  {done.stdout.strip()}")


if __name__ == "__main__":
    main()
