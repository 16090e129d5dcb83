"""The benchmark's measuring loops; ``run.py`` is the entry point."""

from __future__ import annotations

import argparse
import faulthandler
import json
import multiprocessing
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
from arith import digest_outputs, summarize
from host import calibration, peak_rss_mb
from metrics import UNITS, layer_metrics
from repro.core.executor import resolve_chunks
from repro.obs import Observability, read_jsonl
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-ups per --trace 0 run; setup_s is their median
SETUPS = 5
#: repetitions of each driver-side probe in a --trace 1 run
PROBE_REPS = 3
#: a run that has not finished by then dumps its stacks and exits
WATCHDOG_SECONDS = 175


class Checker:
    """Oracle on the first job, digest equality on every later one."""

    def __init__(self, workload, dataset) -> None:
        self.workload = workload
        self.dataset = dataset
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def check(self, result) -> None:
        self.attempted += 1
        if self.reference is None:
            try:
                self.workload.validate(result, self.dataset)
            except AssertionError as exc:
                self.fail(f"oracle mismatch: {str(exc)[:300]}")
                return
            self.reference = digest_outputs(result.outputs)
        elif digest_outputs(result.outputs) != self.reference:
            self.fail(f"job {self.attempted}: per-rank outputs differ from the first job")


def _run_one(session, traced: bool, checker: Checker):
    """One job: (seconds, wall-clock start, wall-clock end, outcome or None)."""
    w0, t0 = time.time(), time.perf_counter()
    try:
        outcome = session.run(traced)
    except Exception as exc:  # noqa: BLE001 - any job failure is counted, then reported
        checker.attempted += 1
        checker.fail(f"job raised {type(exc).__name__}: {exc}")
        return None
    dt, w1 = time.perf_counter() - t0, time.time()
    checker.check(outcome.result)
    return dt, w0, w1, outcome


def _loop(session, seconds: float, traced: bool, checker: Checker, on_job=None) -> list:
    """Closed loop for ``seconds``: the next job starts when one returns.
    A job that raises ends the loop."""
    durations = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        done = _run_one(session, traced, checker)
        if done is None:
            break
        durations.append(done[0])
        if on_job is not None:
            on_job(*done)
    return durations


def _keys_out(result) -> int:
    return sum(len(kv) for kv in result.outputs if kv is not None)


def measure_end_to_end(wl, seed: int, seconds: float):
    """--trace 0: repeated set-up, then the untraced closed loop."""
    scratch = str(OUT / f"{wl.name}-seed{seed}.program.jsonl")
    setups, durations = [], []
    checker = None
    for k in range(SETUPS):
        t0 = time.perf_counter()
        dataset = wl.build(seed)
        session = wl.open(wl.make_job(dataset), dataset, seed, scratch)
        try:
            cold = session.run(False)
            setups.append(time.perf_counter() - t0)
            checker = checker or Checker(wl, dataset)
            checker.check(cold.result)
            if k + 1 == SETUPS:
                durations = _loop(session, seconds, False, checker)
        finally:
            session.close()
    if not durations:
        return {}, checker, {}
    s = summarize(durations)
    # items_per_s counts job time only: the digest checks between jobs
    # are the benchmark's cost, not the program's.
    metrics = {
        "job_p50_s": s["p50"],
        "job_p90_s": s["p90"],
        "items_per_s": wl.items * len(durations) / sum(durations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "jobs": s["n"],
        "p90_tail_samples": s["p90_tail"],
        "setup_runs_s": [round(v, 4) for v in setups],
    }
    return metrics, checker, detail


def measure_layers(wl, seed: int, seconds: float):
    """--trace 1: untraced then traced loops, probes, the trace file."""
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{wl.name}-seed{seed}.trace.jsonl"
    scratch = str(OUT / f"{wl.name}-seed{seed}.program.jsonl")
    obs = Observability()
    tracer = obs.tracer
    last_stats = {}

    with tracer.span("bench.setup"):
        with tracer.span("bench.dataset_build"):
            dataset = wl.build(seed)
        with tracer.span("bench.job_build"):
            job = wl.make_job(dataset)
        with tracer.span("bench.open"):
            session = wl.open(job, dataset, seed, scratch)
        try:
            with tracer.span("bench.cold_job"):
                cold = session.run(False)
        except BaseException:
            session.close()
            raise
    checker = Checker(wl, dataset)
    checker.check(cold.result)

    def plain_job(dt, w0, w1, outcome):
        tracer.add_span("bench.job", w0, w1, traced=False, wall_s=dt)

    def traced_job(dt, w0, w1, outcome):
        job_id = outcome.job_id or f"t{checker.attempted:04d}"
        obs.set_job(job_id)
        obs.absorb(outcome.obs_payload)
        obs.set_job(None)
        stats = outcome.result.stats.to_dict()
        last_stats.update(stats)
        tracer.add_span(
            "bench.job", w0, w1, job=job_id, traced=True, wall_s=dt, stats=stats,
            keys_out=_keys_out(outcome.result), service=outcome.service,
        )

    try:
        plain = _loop(session, seconds / 2, False, checker, plain_job)
        with tracer.span("bench.trace_warmup"):
            warm = _run_one(session, True, checker)
        traced = _loop(session, seconds / 2, True, checker, traced_job) if warm else []
        reader = wl.reader(seed)
        for _ in range(PROBE_REPS):
            with tracer.span("bench.resolve_chunks"):
                resolve_chunks(dataset, None)
            with tracer.span("bench.materialize"):
                for i in range(reader.n_chunks):
                    reader.materialize(i)
        if hasattr(session, "service_counters"):
            obs.metrics.absorb({"counters": session.service_counters()})
    finally:
        with tracer.span("bench.close"):
            session.close()

    if not (plain and traced):
        return {}, checker, {}
    obs.finish(backend=wl.backend, clock="wall", workload=wl.name, seed=seed)
    # The view CLI's header and stage table read these (last traced job).
    obs.meta.update(job=wl.name, n_workers=2, elapsed=statistics.median(traced), stats=last_stats)
    obs.write_jsonl(str(trace_path))
    metrics = layer_metrics(read_jsonl(str(trace_path)))
    detail = {
        "jobs_untraced": len(plain),
        "jobs_traced": len(traced),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, checker, detail


def _stop_children() -> None:
    """Leave no process behind: ranks are joined by the executors; this
    reaps anything left and stops the shared-memory resource tracker the
    local backend starts, which would otherwise outlive this process."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _print_result(workload: str, metrics: dict, checker: Checker, extra: dict) -> bool:
    """The human-readable lines, then the result line; True if correct."""
    attempted = max(checker.attempted, 1)
    correct = checker.failed == 0 and bool(metrics)
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {UNITS[name]}")
    # error_rate is 0 on a correct run, so it is reported here and as
    # the result line's failed/attempted, not as a compared metric.
    print(f"  {'error_rate':<32} {checker.failed / attempted:>14.6g} ratio"
          f" ({checker.failed} of {attempted} jobs)")
    print("detail " + json.dumps({"workload": workload, "errors": checker.errors, **extra}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()},
    }))
    return correct


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WATCHDOG_SECONDS + 30)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="End-to-end and per-layer benchmark of record."
    )
    choices = f"one of {list(WORKLOADS)} or 'all'"
    parser.add_argument("--workload", required=True, help=choices)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected {choices}")
    wl = WORKLOADS[args.workload]
    selftest.run_all()
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    print(f"# perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {wl.why}")
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, checker, detail = measure(wl, args.seed, args.seconds)
    finally:
        _stop_children()
    detail.update(seed=args.seed, host=calibration())
    faulthandler.cancel_dump_traceback_later()
    return 0 if _print_result(wl.name, metrics, checker, detail) else 1


