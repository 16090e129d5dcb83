"""Host facts recorded next to each result: calibration and peak RSS.

Calibration is context for reading a result, not a compared metric:
on a host whose cores share memory bandwidth, two processes sorting at
once each take about twice as long as one alone, which bounds what
the two-rank workloads can gain from parallelism.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys

import numpy as np

#: elements the sort probe sorts (uint32, seeded)
PROBE_ELEMENTS = 1 << 21

_PROBE = (
    "import time, numpy as np\n"
    f"a = np.random.default_rng(0).integers(0, 1 << 32, {PROBE_ELEMENTS}, dtype=np.uint32)\n"
    "t = time.perf_counter(); np.sort(a, kind='stable'); print(time.perf_counter() - t)\n"
)


def _sort_probes(n: int, timeout: float = 60.0) -> list:
    """Seconds the sort probe took in each of ``n`` concurrent processes."""
    procs = [
        subprocess.Popen([sys.executable, "-c", _PROBE], stdout=subprocess.PIPE, text=True)
        for _ in range(n)
    ]
    times = []
    try:
        for p in procs:
            out, _ = p.communicate(timeout=timeout)
            if p.returncode != 0:
                raise RuntimeError(f"sort probe exited with {p.returncode}")
            times.append(float(out.strip()))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    return times


def calibration() -> dict:
    """Core count, one sort probe alone vs two at once, and versions."""
    alone = _sort_probes(1)[0]
    pair = _sort_probes(2)
    return {
        "cores": os.cpu_count(),
        "sort_probe_elements": PROBE_ELEMENTS,
        "sort_one_process_s": round(alone, 4),
        "sort_two_processes_s": round(max(pair), 4),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child.

    Ranks are child processes joined by the executors, so the
    children's ``ru_maxrss`` is the largest rank's peak (Linux reports
    KiB).  Call it before starting any other child, such as the probes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
