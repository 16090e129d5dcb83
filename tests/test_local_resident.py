"""Resident ranks on the local backend.

A ``LocalExecutor`` spawns its ranks, queues and chunk-service thread
on the first run and reuses them for every later run.  These tests pin
the lifecycle (same PIDs across runs, a failed run tears down and the
next starts clean, ``close()`` and garbage collection join the ranks),
bit parity with the serial backend across different jobs on the same
ranks, and the latency the residency buys.
"""

import gc
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.apps import (
    kmc_dataset,
    kmc_job,
    sio_dataset,
    sio_job,
    wo_dataset,
    wo_job,
)
from repro.core.executor import make_executor
from repro.core.faults import FaultPlan
from repro.core.job import MapReduceJob
from repro.core.kvset import KeyValueSet
from repro.core.mapper import Mapper
from repro.exec.local import WorkerFailure
from repro.workloads.readers import streamed

N = 2

SIO_DS = sio_dataset(16_000, chunk_elements=4_000, key_space=1 << 12, seed=3)
SIO_JOB = sio_job(key_space=1 << 12)


def _assert_identical(ref, got, where):
    assert len(ref.outputs) == len(got.outputs), where
    for a, b in zip(ref.outputs, got.outputs):
        assert (a is None) == (b is None), where
        if a is None:
            continue  # a rank no key was partitioned to
        assert a.keys.tobytes() == b.keys.tobytes(), where
        assert a.values.tobytes() == b.values.tobytes(), where


def _live_ranks(pids):
    """This executor's rank processes that are still children of ours."""
    return [
        p for p in mp.active_children()
        if p.name.startswith("gpmr-local-r") and p.pid in pids
    ]


def _assert_reaped(pids):
    """Each PID is gone, not a zombie: its rank was joined."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class _ChunkZeroBoomMapper(Mapper):
    """Fails only on chunk 0, i.e. on exactly one rank of the job."""

    def map_chunk(self, chunk):
        if chunk.index == 0:
            raise RuntimeError("boom on chunk zero")
        return KeyValueSet(
            keys=np.asarray([chunk.index], dtype=np.uint32),
            values=np.ones(1),
        )

    def map_cost(self, chunk):  # pragma: no cover - never priced
        return []


def test_rank_pids_unchanged_across_runs():
    with make_executor("local", N) as ex:
        assert ex.rank_pids == []
        ex.run(SIO_JOB, SIO_DS)
        first = ex.rank_pids
        assert len(first) == N and all(first)
        for _ in range(3):
            ex.run(SIO_JOB, SIO_DS)
            assert ex.rank_pids == first
        ex.reset()  # a pool lease boundary keeps the ranks warm
        ex.run(SIO_JOB, SIO_DS)
        assert ex.rank_pids == first


def test_different_jobs_on_the_same_ranks_match_serial():
    wo_spec = dict(n_chars=1 << 16, chunk_chars=10_000, n_words=500, seed=11)
    kmc_ds = kmc_dataset(6_000, n_centers=8, dims=3, chunk_points=1_000, seed=5)
    cases = [
        ("SIO", SIO_JOB, SIO_DS),
        ("WO/streamed", wo_job(N, n_words=500), streamed(wo_dataset, **wo_spec)),
        ("KMC", kmc_job(kmc_ds), kmc_ds),
    ]
    with make_executor("local", N) as ex:
        pids = None
        for name, job, ds in cases:
            job = job.with_config(enable_stealing=False)
            ref = make_executor("serial", N).run(job, ds)
            got = ex.run(job, ds)
            _assert_identical(ref, got, name)
            pids = pids or ex.rank_pids
            assert ex.rank_pids == pids, name


def test_run_after_worker_failure_starts_clean():
    ds = sio_dataset(12_000, chunk_elements=2_000, key_space=1 << 10, seed=3)
    boom = MapReduceJob(
        name="one-boom", mapper=_ChunkZeroBoomMapper()
    ).with_config(enable_stealing=False)
    ref = make_executor("serial", N).run(SIO_JOB, SIO_DS)
    with make_executor("local", N, timeout_seconds=60.0) as ex:
        ex.run(SIO_JOB, SIO_DS)
        before = ex.rank_pids
        with pytest.raises(WorkerFailure, match="boom on chunk zero"):
            ex.run(boom, ds)
        # The failed run tore its ranks down and joined them.
        assert ex.rank_pids == []
        _assert_reaped(before)
        got = ex.run(SIO_JOB, SIO_DS)
        _assert_identical(ref, got, "after failure")
        assert set(ex.rank_pids).isdisjoint(before)


def test_close_is_idempotent_and_joins_ranks():
    ex = make_executor("local", N)
    ex.run(SIO_JOB, SIO_DS)
    pids = ex.rank_pids
    assert len(_live_ranks(pids)) == N
    ex.close()
    _assert_reaped(pids)
    ex.close()
    assert _live_ranks(pids) == []


def test_dropping_an_unclosed_executor_joins_ranks():
    ex = make_executor("local", N)
    ex.run(SIO_JOB, SIO_DS)
    pids = ex.rank_pids
    assert len(_live_ranks(pids)) == N
    del ex
    gc.collect()
    _assert_reaped(pids)
    assert _live_ranks(pids) == []


def test_back_to_back_small_runs_are_fast():
    """Ten 4-chunk SIO runs on one warm executor stay well under the
    cost of spawning ranks and polling the chunk service per run
    (a 0.1 s service poll alone would take 1.0 s here)."""
    ref = make_executor("serial", N).run(SIO_JOB, SIO_DS)
    with make_executor("local", N) as ex:
        ex.run(SIO_JOB, SIO_DS)  # warm: the ranks start here
        t0 = time.perf_counter()
        for _ in range(10):
            got = ex.run(SIO_JOB, SIO_DS)
        total = time.perf_counter() - t0
        _assert_identical(ref, got, "back-to-back")
    assert total < 0.5, f"10 warm runs took {total:.3f}s"


def test_fault_plan_recovers_on_every_run_of_one_executor():
    """The scripted kill lands on every run of a reused executor; each
    run respawns the rank, reclaims its grants and stays bit-identical.
    Leftovers of one run (a dead rank's pipelined requests, trailing
    grants) must not leak into the next."""
    ds = sio_dataset(42_000, chunk_elements=6_000, key_space=1 << 12, seed=9)
    job = sio_job(key_space=1 << 12).with_config(enable_stealing=False)
    ref = make_executor("serial", 3).run(job, ds)
    plan = FaultPlan(kill_rank_at_chunk={1: 2})
    with make_executor("local", 3, fault_plan=plan, timeout_seconds=60.0) as ex:
        for i in range(5):
            got = ex.run(job, ds)
            assert got.stats.chunks_reclaimed > 0, i
            _assert_identical(ref, got, f"faulted run {i}")
