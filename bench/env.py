"""The environment a benchmark result was measured in: interpreter, numpy,
the BLAS library and the thread count it actually uses, CPU count and git sha.

The BLAS thread count is read from the loaded OpenBLAS through ctypes
(threadpoolctl is not a dependency); when no known symbol is found it is
recorded as None rather than assumed.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_info() -> dict:
    """BLAS name, version and threads in effect for the numpy in this process."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None, "config": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*blas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _call(lib, _THREAD_SYMBOLS, ctypes.c_int)
        if threads is not None:
            info["threads"] = int(threads)
            config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
            info["config"] = config.decode() if config else None
            break
    return info


def git_sha(root: Path) -> str | None:
    """HEAD commit read from the .git directory, without running git; None
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = None
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV_VARS if k in os.environ},
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "git_sha": git_sha(root),
    }
