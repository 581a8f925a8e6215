"""Machine block: what the benchmark ran on, measured in the same process.

Reports the CPU model, core count and affinity, the Python, numpy, scipy
and OpenBLAS versions, the BLAS thread count actually in effect, the
float32 sgemm peak at 2048 x 2048, and streaming-copy bandwidth on arrays
at least four times the combined L2 + L3 size so the copy runs from DRAM.
Bytes moved by the copy are computed (read + write), not counted.

It also holds the slice kernel the tracker's throughput is scaled by: the
numpy and scipy steps of one ``connected_region`` call, run on a fixed
slice with the benchmark's own code.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import ndimage

SGEMM_N = 2048
STREAM_MIN_BYTES = 440 * 2**20


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int) -> int:
    """Total bytes of all distinct caches of one level, from sysfs."""
    seen = {}
    for index in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*"):
        try:
            if int((index / "level").read_text()) != level:
                continue
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 2**10, "M": 2**20, "G": 2**30}
        seen[shared] = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return sum(seen.values())


def _openblas():
    """(version string, threads in effect) of the OpenBLAS numpy's matmul uses."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return "unknown", None
    paths = sorted(
        {line.split()[-1] for line in maps if "openblas" in line.lower()},
        key=lambda path: "numpy" not in path,
    )
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), int(get_threads())
    return "unknown", None


def sgemm_peak_gflops(n: int = SGEMM_N, reps: int = 5) -> float:
    """Best-of-reps float32 GEMM rate at n x n, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    out = np.empty((n, n), dtype=np.float32)
    np.matmul(a, b, out=out)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def stream_copy(nbytes: int, reps: int = 3) -> float:
    """Best-of-reps copy bandwidth in GB/s, counting read + write bytes."""
    src = np.ones(nbytes // 8, dtype=np.float64)
    dst = np.zeros_like(src)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * src.nbytes / best / 1e9


# Seconds per slice the slice kernel took on the reference machine (the
# 2-vCPU Xeon in README.md), by slice size: 512 and 64 the median of the
# per-call kernel times pooled over a 5-run set, 32 (the tests only) one reading
SLICE_KERNEL_REF_S = {32: 1.33e-4, 64: 1.53e-4, 512: 2.59e-3}
SLICE_KERNEL_SLICES = 16


class SliceKernel:
    """The tracker's per-slice numpy/scipy work on a fixed hw x hw slice.

    Window, label with 8-connectivity, count the overlap with a seed patch,
    keep the overlapping labels: the steps of ``tracker.connected_region``,
    written here so that a change to the package does not change them. The
    slice is a 350 HU disk over a 42 +/- 16 HU background, a phantom slice's
    in-window share (about 8%) and component count.
    """

    def __init__(self, hw: int, window: tuple[float, float]):
        rng = np.random.default_rng(0)
        yy, xx = np.mgrid[:hw, :hw]
        disk = (yy - hw / 2) ** 2 + (xx - hw / 2) ** 2 <= (0.156 * hw) ** 2
        self.slice = np.where(disk, 350, np.rint(rng.normal(42.0, 16.0, (hw, hw)))).astype(np.int16)
        self.seed = disk & (np.abs(yy - hw / 2) < 2) & (np.abs(xx - hw / 2) < 2)
        self.window = window
        self.ref_s = SLICE_KERNEL_REF_S[hw]

    def _region(self) -> np.ndarray:
        t_lo, t_hi = self.window
        in_window = (self.slice >= t_lo) & (self.slice <= t_hi)
        labels, n_labels = ndimage.label(in_window, structure=np.ones((3, 3), dtype=bool))
        overlap = np.bincount(labels[self.seed], minlength=n_labels + 1)
        keep = np.flatnonzero(overlap >= 1)
        return np.isin(labels, keep[keep != 0])

    def seconds_per_slice(self) -> float:
        """Wall time of the kernel on SLICE_KERNEL_SLICES slices, per slice."""
        t0 = time.perf_counter()
        for _ in range(SLICE_KERNEL_SLICES):
            self._region().sum()
        return (time.perf_counter() - t0) / SLICE_KERNEL_SLICES

    def slowdown(self) -> tuple[float, float]:
        """(seconds per slice now, that over the reference machine's)."""
        s = self.seconds_per_slice()
        return s, s / self.ref_s


def machine_block() -> dict:
    l2, l3 = _cache_bytes(2), _cache_bytes(3)
    stream_bytes = max(STREAM_MIN_BYTES, 4 * (l2 + l3))
    blas_version, blas_threads = _openblas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sgemm_n": SGEMM_N,
        "sgemm_peak_gflops": sgemm_peak_gflops(),
        "l2_plus_l3_bytes": l2 + l3,
        "stream_array_bytes": stream_bytes,
        "stream_copy_gbps_computed": stream_copy(stream_bytes),
    }
