"""Shared configuration and helpers of the benchmark workloads."""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Scene build and frame geometry shared by every workload.
SCENE_KWARGS = {"resolution": 64, "image_size": 80, "num_samples": 64}

#: render-frames: three scenes spanning the occupancy range (ficus 2 %,
#: lego 5.5 %, ship 6 %), every comparison pipeline, and a small rig so a
#: whole pass (18 frames) is short and every key repeats within a run.
RENDER_SCENES = ("ficus", "lego", "ship")
RENDER_PIPELINES = ("dense", "vqrf", "spnerf")
RENDER_RIG = 2

#: serve-render: two scenes (one closed-loop client each), the reference and
#: the paper pipeline, and a rig large enough that no pose repeats in a run.
SERVE_SCENES = ("ficus", "lego")
SERVE_PIPELINES = ("dense", "spnerf")
SERVE_RIG = 256

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 2

#: Rig cameras whose spnerf frames define ``psnr_db``.  Fixed, so the metric
#: does not depend on the seed and is identical across runs.
PSNR_CAMERAS = (0, 1)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def openblas_threads() -> int:
    """Thread count of numpy's bundled OpenBLAS, read through ``ctypes``.

    Returns -1 when the bundled library or its getter is not found.
    """
    import numpy

    libs = glob.glob(
        os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    )
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return -1


def host_record() -> Dict[str, object]:
    import numpy

    return {
        "usable_cpus": usable_cpus(),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default estimator)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_metrics(latencies_s: Sequence[float], window_s: float) -> Dict[str, float]:
    """The three timing end-to-end metrics from per-frame latencies."""
    ms = [value * 1e3 for value in latencies_s]
    return {
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
        "throughput_fps": len(ms) / window_s if window_s > 0 else 0.0,
    }


@dataclass
class Checks:
    """Correctness checks run outside the timed window.

    ``attempted``/``failed`` count checked frames; ``problems`` holds one
    line per failed frame or failed workload self-check.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def frame(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def require(self, ok: bool, what: str) -> None:
        """A workload self-check: it fails the run but is not a frame."""
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
