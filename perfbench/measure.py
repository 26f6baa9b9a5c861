"""Small measurement helpers: latency percentiles, run-to-run spread, peak
memory and the environment record written next to the results."""
from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
from pathlib import Path

# A percentile is reported only with at least ten samples beyond it.
MIN_P99_SAMPLES = 1000


def latency_summary(samples_ns) -> dict:
    """Median and, given enough samples, 99th percentile in ms."""
    n = len(samples_ns)
    if n == 0:
        return {"n": 0, "p50_ms": None, "p99_ms": None}
    ms = sorted(s / 1e6 for s in samples_ns)
    p99 = (statistics.quantiles(ms, n=100, method="inclusive")[98]
           if n >= MIN_P99_SAMPLES else None)
    return {"n": n, "p50_ms": statistics.median(ms), "p99_ms": p99}


def quartile_spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> dict:
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas["name"], blas["version"]
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
    }
