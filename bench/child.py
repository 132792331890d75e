"""Run one qdelnet subcommand in this fresh process, timed from outside the
package, and write a JSON report when it ends.

    python3 bench/child.py --mode untraced|traced|setup --report FILE -- <qdelnet argv>

Modes:
  untraced  time only the top-level train() and evaluate() calls, at the
            names experiment and cli look them up, in CPU seconds of this
            process (time.process_time, counted from interpreter start);
  traced    wrap every traced package function at every lookup site and
            record all spans, in wall-clock seconds (time.monotonic);
  setup     stop at the first top-level train()/evaluate() call and record
            the process's CPU seconds so far: measures set-up only.

In every mode a Pace sampler (pace.py) records how fast the machine runs
while the command does. The benchmark starts this process with one BLAS
thread, so its CPU time is the work done, whatever else the machine is
running.

The subcommand runs through ``qdelnet.cli.parse_and_dispatch``, the entry
point behind the ``qdelnet`` command. Run from the repository root.
"""

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from pace import Pace  # noqa: E402
from tracer import Tracer  # noqa: E402

# Functions traced in the traced mode, by the module that defines them.
TRACED = {
    "data": ("gen_synthetic", "load_dataset", "split_train_test"),
    "features": ("load_embeddings", "featurize_batch"),
    "nn": ("build_model", "forward", "bce_loss", "backward", "sgd_step", "load_model"),
    "train": ("train", "evaluate", "split_train_val", "initial_gradient_profile"),
    "experiment": ("run_depth_sweep", "write_sweep_csv", "render_plots", "grad_flow_report"),
}
# Modules whose attributes are searched for lookup sites.
SITE_MODULES = ("cli", "experiment", "train", "nn", "features", "data")
# The top-level calls timed in every mode: the cells' train() and test-set
# evaluate() in a sweep, and the evaluate command's evaluate().
TOP_LEVEL_SITES = (("experiment", "train"), ("experiment", "evaluate"), ("cli", "evaluate"))


class SetupDone(BaseException):
    """Raised at the first top-level call in setup mode; not an Exception, so
    the CLI's error handling lets it through."""


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _param_count(config) -> int:
    dims = (config.input_dim, *config.hidden_widths, 1)
    return sum(a * b + b for a, b in zip(dims, dims[1:]))


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _fit_rows(n: int, fraction: float) -> int:
    return n - int(round(fraction * n))


ANNOTATORS = {
    "data.gen_synthetic": lambda a, k, r: {"rows": len(r[0])},
    "data.load_dataset": lambda a, k, r: {"rows": len(r)},
    "data.split_train_test": lambda a, k, r: {"rows": len(r[0]) + len(r[1])},
    "features.load_embeddings": lambda a, k, r: {"words": len(r)},
    "features.featurize_batch": lambda a, k, r: {"rows": r.shape[0]},
    "nn.forward": lambda a, k, r: {
        "depth": a[0].hidden_count,
        "mode": _arg(a, k, 2, "mode", "eval"),
        "rows": a[1].shape[0],
        "params": _param_count(a[0].config),
    },
    "nn.backward": lambda a, k, r: {"depth": a[0].hidden_count},
    "nn.sgd_step": lambda a, k, r: {"depth": a[0].hidden_count, "params": _param_count(a[0].config)},
    "train.train": lambda a, k, r: {
        "depth": a[0].hidden_count,
        "epochs": a[2].epochs,
        "fit_rows": _fit_rows(len(a[1]), a[2].validation_fraction),
        "batch_size": a[2].batch_size,
        "diverged": r[1].diverged,
    },
    "train.evaluate": lambda a, k, r: {"rows": len(a[1]), "depth": a[0].hidden_count, "acc": r},
}


def _modules():
    return {name: importlib.import_module(f"qdelnet.{name}") for name in SITE_MODULES}


def traced_sites(modules) -> list:
    """Every (module, attribute) binding of a traced function."""
    targets = {id(getattr(modules[mod], fn)) for mod, names in TRACED.items() for fn in names}
    return [
        (module, attr)
        for module in modules.values()
        for attr, value in sorted(vars(module).items())
        if id(value) in targets
    ]


def wrapped_left(modules, tracer: Tracer) -> list[str]:
    """Module attributes still bound to one of the tracer's wrappers."""
    wrappers = {id(w) for w in tracer._wrappers.values()} | {id(_stop_at_first_call)}
    return [
        f"{module.__name__}.{attr}"
        for module in modules.values()
        for attr, value in vars(module).items()
        if id(value) in wrappers
    ]


def _stop_at_first_call(*args, **kwargs):
    raise SetupDone(time.process_time())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("untraced", "traced", "setup"), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("qdelnet_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    qargv = args.qdelnet_argv[1:] if args.qdelnet_argv[:1] == ["--"] else args.qdelnet_argv

    pacer = Pace()
    pacer.start()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import qdelnet.cli
    from env import blas_info

    modules = _modules()
    clock = time.monotonic if args.mode == "traced" else time.process_time
    tracer = Tracer(ANNOTATORS, clock)
    top_sites = [(modules[m], a) for m, a in TOP_LEVEL_SITES]
    if args.mode == "traced":
        tracer.install(traced_sites(modules), span_name)
    elif args.mode == "untraced":
        tracer.install(top_sites, span_name)
    else:
        for module, attr in top_sites:
            tracer.replace(module, attr, _stop_at_first_call)

    setup_end = None
    try:
        rc = qdelnet.cli.parse_and_dispatch(qargv)
    except SetupDone as done:
        setup_end, rc = done.args[0], 0
    finally:
        tracer.restore()
        pacer.stop()

    report = {
        "mode": args.mode,
        "rc": rc,
        "setup_end": setup_end,
        "pace": pacer.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas": blas_info(),
        "wrapped_left": wrapped_left(modules, tracer),
        "spans": [s.to_list() for s in tracer.spans],
    }
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
