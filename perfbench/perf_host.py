"""Host record and host-speed probe, taken around every benchmark run.

The probe is a fixed pure-Python loop and a fixed numpy kernel, each timed
as the median of five repeats.  It is not an end-to-end metric: it tells a
slower host apart from a slower program when a figure drifts.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path


def _python_loop() -> int:
    total = 0
    for index in range(300_000):
        total += index * index % 7
    return total


def _numpy_kernel(np, matrix, values) -> float:
    product = matrix
    for _ in range(8):
        product = product @ matrix / 256.0
    return float(product.sum() + np.sort(values)[values.size // 2])


def probe() -> dict:
    """Median milliseconds of the Python loop and of the numpy kernel."""
    import numpy as np

    generator = np.random.default_rng(0)
    matrix = generator.random((256, 256))
    values = generator.random(400_000)
    python_ms, numpy_ms = [], []
    for _ in range(5):
        started = time.perf_counter()
        _python_loop()
        python_ms.append((time.perf_counter() - started) * 1000.0)
        started = time.perf_counter()
        _numpy_kernel(np, matrix, values)
        numpy_ms.append((time.perf_counter() - started) * 1000.0)
    return {"python_ms": statistics.median(python_ms),
            "numpy_ms": statistics.median(numpy_ms)}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def record(root: Path, child_env: dict) -> dict:
    """What the host was: CPU, cores, load, BLAS threads, numba, git rev."""
    import numpy as np

    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {key: child_env.get(key) for key in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "numba": importlib.util.find_spec("numba") is not None,
        "git_rev": _git_rev(root),
    }
