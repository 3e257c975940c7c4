"""Environment record and a dense matmul rate for reading the timings."""

import ctypes
import os
import platform
import statistics
import time

import numpy as np
import scipy


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    """Sizes of the unified L2 and L3 caches of cpu0, as the kernel lists them."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"l{level}"] = size
    return out


def _blas():
    """BLAS library name and the thread count it reports, when it can tell."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return name, threads


def environment():
    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "solimbt_threads": os.environ.get("SOLIMBT_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_caches(),
    }


def gemm_gflops(n=600, repeats=15):
    """Median rate of an ``n x n`` float64 matrix product, in Gflop/s.

    ``n = 600`` is the pencil size of the n=300 chain workloads.
    """
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n ** 3 / statistics.median(times) / 1e9
