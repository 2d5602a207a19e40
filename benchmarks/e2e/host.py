"""Host description and memory-bandwidth calibration (normalisers, never gated)."""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

__all__ = ["BLAS_ENV", "blas_threads", "describe", "last_level_cache_bytes", "triad_gbs"]

#: pinned to 1 before numpy is imported: the box has 2 cores, serve_mix
#: uses them for its 2 worker threads and every other workload is
#: single-threaded, so BLAS threads would only add run-to-run noise
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_CACHE_ROOT = Path("/sys/devices/system/cpu")
_SIZE_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def blas_threads() -> int:
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0)


def last_level_cache_bytes() -> int:
    """Summed size of the distinct highest-level caches of this process's CPUs.

    Returns 0 when sysfs does not describe the caches.
    """
    seen: dict[str, tuple[int, int]] = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        best = None
        for index in (_CACHE_ROOT / f"cpu{cpu}" / "cache").glob("index*"):
            try:
                level = int((index / "level").read_text())
                kind = (index / "type").read_text().strip()
                size = (index / "size").read_text().strip()
                shared = (index / "shared_cpu_list").read_text().strip()
            except (OSError, ValueError):
                continue
            if kind == "Instruction" or size[-1:] not in _SIZE_UNITS:
                continue
            nbytes = int(size[:-1]) * _SIZE_UNITS[size[-1]]
            if best is None or level > best[0]:
                best = (level, nbytes, shared)
        if best is not None:
            seen[f"L{best[0]}:{best[2]}"] = (best[0], best[1])
    if not seen:
        return 0
    top = max(level for level, _ in seen.values())
    return sum(nbytes for level, nbytes in seen.values() if level == top)


def _mem_available_bytes() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    return 0


def triad_gbs(smoke: bool = False) -> dict:
    """STREAM-triad ``a = b + s*c`` bandwidth with numpy, best of three sweeps.

    Each array is four times the summed last-level cache so the sweep
    cannot be served from cache; when the three arrays would take more
    than a quarter of the available memory the size is cut and
    ``llc_rule_met`` says so.  numpy has no fused triad, so the kernel
    is two passes (``a = s*c`` then ``a += b``) and is priced at the 40
    bytes per element those passes move (write-allocate traffic is not
    counted, as in STREAM).  ``smoke`` uses 16 MiB arrays: quick, and
    not a bandwidth anyone should quote.
    """
    import numpy as np

    llc = last_level_cache_bytes()
    want = 4 * llc if llc else 256 << 20
    avail = _mem_available_bytes()
    cap = avail // 12 if avail else want
    nbytes = 16 << 20 if smoke else max(8 << 20, min(want, cap))
    n = nbytes // 8
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    moved = 40 * n  # 16 (read c, write a) + 24 (read a, read b, write a)
    return {
        "triad_gbs": moved / best / 1.0e9,
        "array_bytes": int(n * 8),
        "llc_bytes": int(llc),
        "llc_rule_met": bool(llc and n * 8 >= 4 * llc),
        "bytes_per_element_counted": 40,
    }


def describe() -> dict:
    """Header fields that identify the machine and toolchain of a run."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
