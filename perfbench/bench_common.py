"""Shared helpers: the source path, statistics, environment record, output.

Every module of the benchmark imports the program only after
:func:`use_checkout_source` has put the checkout's ``src`` directory first
on ``sys.path``, so the code under test is always the code next to the
benchmark, never an installed copy.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, span dumps and result files; listed in the
#: repository's ``.gitignore`` and removed piecewise by each run.
OUT_DIR = BENCH_DIR / "out"


class SourceMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def use_checkout_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` and drop ``REPRO_*``
    settings inherited from the caller, so every run measures the
    program's defaults."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program source under {SRC}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


#: BLAS threads of the server process.  The client holds one of the
#: two cores, so the server gets the other; left at its default, OpenBLAS
#: would run two threads that contend with the client on every scan.
SERVER_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def core_split() -> tuple[int | None, int | None]:
    """``(client core, server core)``: the first two cores this process may
    run on, or ``(None, None)`` with fewer than two.  Pinned apart, the
    client never competes with the server for a core, and each request's
    wake-up crosses cores the same way in every run."""
    cores = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else []
    return (cores[0], cores[1]) if len(cores) >= 2 else (None, None)


def server_env() -> dict:
    """Environment of the server process: ours, the checkout's source on
    the path, and :data:`SERVER_BLAS_ENV`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.update(SERVER_BLAS_ENV)
    return env


# --------------------------------------------------------------------- #
# Statistics                                                             #
# --------------------------------------------------------------------- #

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else math.nan


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else math.nan


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if pos == lo:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


# --------------------------------------------------------------------- #
# Environment record                                                     #
# --------------------------------------------------------------------- #

def blas_info() -> dict:
    """BLAS vendor/config and effective thread count of the loaded
    OpenBLAS, read through its C API; ``None`` fields when not found."""
    import ctypes

    info = {"vendor": None, "config": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(handle, f"{prefix}get_config{suffix}", None)
                threads = getattr(handle,
                                  f"{prefix}get_num_threads{suffix}", None)
                if config is None or threads is None:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                info.update(vendor="OpenBLAS", library=os.path.basename(lib),
                            config=config().decode(errors="replace"),
                            threads=int(threads()))
                return info
    return info


def git_describe() -> str:
    """``git describe`` of the checkout, or ``"unknown"`` outside git."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() \
        else "unknown"


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: a yardstick of how fast the
    (shared) machine ran when the record was taken."""
    import time

    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i & 7
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "speed_probe_s": speed_probe(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_describe": git_describe(),
    }


# --------------------------------------------------------------------- #
# Output                                                                 #
# --------------------------------------------------------------------- #

def write_record(name: str, payload: dict) -> Path:
    """Write the full result record (spans, phases, environment)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=_jsonable)
    return path


def _jsonable(value):
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value)}")
