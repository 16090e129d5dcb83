#!/usr/bin/env python3
"""Benchmark of record: end-to-end and per-layer timing of three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sio-shuffle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/selftest.py

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then runs untraced jobs in a closed loop for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` sets up once, runs half
the time untraced and half traced, writes the program's JSONL trace
with the benchmark's own ``bench.*`` driver spans added to it
(``perfbench/out/<workload>-seed<n>.trace.jsonl``, readable with
``python -m repro.obs.view``) and reports the per-layer metrics
computed from that file.

The first job of a run is checked against the app's oracle; every
later job's per-rank outputs must match its digest.  A wrong output or
an exception counts as a failed job and makes the exit code non-zero.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the command
fails before measuring anything.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # noqa: PLC0415 - needs the program on sys.path

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
