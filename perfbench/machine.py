"""Environment record and the memory-bandwidth probe."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import pathlib
import platform
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, int]:
    """Unified cache sizes in bytes by level name (L2, L3) of CPU 0."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = pathlib.Path(index, "level").read_text().strip()
            kind = pathlib.Path(index, "type").read_text().strip()
            size = pathlib.Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified" and size.endswith("K"):
            out[f"L{level}"] = int(size[:-1]) * 1024
    return out


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision(root: pathlib.Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def source_digest(root: pathlib.Path) -> str:
    """sha256 over the package sources, so runs of one tree can be matched."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: pathlib.Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_bytes": cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "seed": seed,
    }


def copy_bandwidth(min_bytes: int, repeats: int = 5) -> dict:
    """Measured numpy copy rate, counting bytes read plus bytes written.

    This is a copy rate achieved from Python on this machine, not a hardware
    roofline.  Each array holds at least `min_bytes`.
    """
    n = -(-min_bytes // 8)
    src = np.ones(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    del src, dst
    return {"array_bytes": n * 8, "copy_gbps": 2 * n * 8 / float(np.median(times)) / 1e9}
