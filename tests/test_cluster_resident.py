"""Resident ranks on the cluster backend.

A ``ClusterExecutor`` opens its coordinator, spawns its ranks and
registers them on the first run, and reuses the registered ranks for
every later run.  These tests pin the lifecycle (same PIDs across runs
and ``reset()``, a failed run tears the fabric down and the next starts
clean, ``close()`` and garbage collection join the ranks, closing one
executor is not slowed by another executor's live ranks) and bit
parity with the serial backend across different jobs — and across
kill-and-respawn runs — on the same ranks.
"""

import gc
import multiprocessing as mp
import os
import signal
import sys
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
from repro.apps.matmul import _phase2_chunks, mm_dataset, mm_phase1_job, mm_phase2_job
from repro.core.executor import make_executor
from repro.core.faults import FaultPlan
from repro.core.job import MapReduceJob
from repro.core.kvset import KeyValueSet
from repro.core.mapper import Mapper
from repro.exec.local import WorkerFailure
from repro.workloads.readers import streamed

N = 2

SIO_DS = sio_dataset(16_000, chunk_elements=4_000, key_space=1 << 12, seed=3)
SIO_JOB = sio_job(key_space=1 << 12).with_config(enable_stealing=False)


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
        if p.name.startswith("gpmr-cluster-r") and p.pid in pids
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
    ref = make_executor("serial", N).run(SIO_JOB, SIO_DS)
    with make_executor("cluster", N, timeout_seconds=60.0) as ex:
        assert ex.rank_pids == [] and ex.coordinator_address is None
        ex.run(SIO_JOB, SIO_DS)
        first = ex.rank_pids
        address = ex.coordinator_address
        assert len(first) == N and all(first)
        for _ in range(3):
            got = ex.run(SIO_JOB, SIO_DS)
            assert ex.rank_pids == first
            _assert_identical(ref, got, "warm run")
        ex.reset()  # a pool lease boundary keeps the ranks warm
        ex.run(SIO_JOB, SIO_DS)
        assert ex.rank_pids == first
        # Set between runs too, not only while one is going on.
        assert ex.coordinator_address == address
    assert ex.coordinator_address is None


def test_different_jobs_on_the_same_ranks_match_serial():
    wo_spec = dict(n_chars=1 << 16, chunk_chars=10_000, n_words=500, seed=11)
    kmc_ds = kmc_dataset(6_000, n_centers=8, dims=3, chunk_points=1_000, seed=5)
    cases = [
        ("SIO", SIO_JOB, SIO_DS),
        ("WO/streamed", wo_job(N, n_words=500), streamed(wo_dataset, **wo_spec)),
        ("KMC", kmc_job(kmc_ds), kmc_ds),
    ]
    mm_ds = mm_dataset(256, tile=64, kspan=2, seed=13)
    mm1 = mm_phase1_job(mm_ds).with_config(enable_stealing=False)
    mm2 = mm_phase2_job(mm_ds).with_config(enable_stealing=False)
    serial = make_executor("serial", N)
    with make_executor("cluster", N, timeout_seconds=60.0) as ex:
        pids = None
        for name, job, ds in cases:
            job = job.with_config(enable_stealing=False)
            got = ex.run(job, ds)
            _assert_identical(serial.run(job, ds), got, name)
            pids = pids or ex.rank_pids
            assert ex.rank_pids == pids, name
        # MM's two phases back to back; phase 2's chunks come from
        # each backend's own phase-1 output.
        ref1, got1 = serial.run(mm1, mm_ds), ex.run(mm1, mm_ds)
        _assert_identical(ref1, got1, "MM phase 1")
        ref2 = serial.run(mm2, chunks=_phase2_chunks(mm_ds, ref1))
        got2 = ex.run(mm2, chunks=_phase2_chunks(mm_ds, got1))
        _assert_identical(ref2, got2, "MM phase 2")
        assert ex.rank_pids == pids


def test_run_after_worker_failure_starts_clean():
    ds = sio_dataset(12_000, chunk_elements=2_000, key_space=1 << 10, seed=3)
    boom = MapReduceJob(
        name="one-boom", mapper=_ChunkZeroBoomMapper()
    ).with_config(enable_stealing=False)
    ref = make_executor("serial", N).run(SIO_JOB, SIO_DS)
    with make_executor("cluster", N, timeout_seconds=60.0) as ex:
        ex.run(SIO_JOB, SIO_DS)
        before = ex.rank_pids
        with pytest.raises(WorkerFailure, match="boom on chunk zero"):
            ex.run(boom, ds)
        # The failed run tore the fabric down and joined its ranks.
        assert ex.rank_pids == [] and ex.coordinator_address is None
        _assert_reaped(before)
        got = ex.run(SIO_JOB, SIO_DS)
        _assert_identical(ref, got, "after failure")
        assert set(ex.rank_pids).isdisjoint(before)


def test_rank_dead_between_runs_respawns_the_set():
    ref = make_executor("serial", N).run(SIO_JOB, SIO_DS)
    with make_executor("cluster", N, timeout_seconds=60.0) as ex:
        ex.run(SIO_JOB, SIO_DS)
        before = ex.rank_pids
        os.kill(before[1], signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while _live_ranks([before[1]]):
            assert time.monotonic() < deadline, "killed rank never exited"
            time.sleep(0.01)
        got = ex.run(SIO_JOB, SIO_DS)
        _assert_identical(ref, got, "after a dead rank")
        assert set(ex.rank_pids).isdisjoint(before)
        _assert_reaped(before)


def test_back_to_back_runs_on_more_ranks_than_cores_stay_identical():
    """Many short jobs on four resident ranks (more than the cores CI
    runs on), with a short thread switch interval the forked ranks
    inherit: every run's early-arriving batches, held ACKs and per-job
    resets race the posting thread, and every output must still match.
    """
    ds = sio_dataset(32_000, chunk_elements=2_000, key_space=1 << 12, seed=7)
    ref = make_executor("serial", 4).run(SIO_JOB, ds)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with make_executor("cluster", 4, timeout_seconds=60.0) as ex:
            for i in range(15):
                _assert_identical(ref, ex.run(SIO_JOB, ds), f"run {i}")
    finally:
        sys.setswitchinterval(interval)


def test_close_is_idempotent_and_joins_ranks():
    ex = make_executor("cluster", N, timeout_seconds=60.0)
    ex.run(SIO_JOB, SIO_DS)
    pids = ex.rank_pids
    assert len(_live_ranks(pids)) == N
    ex.close()
    _assert_reaped(pids)
    ex.close()
    assert _live_ranks(pids) == [] and ex.rank_pids == []


def test_dropping_an_unclosed_executor_joins_ranks():
    ex = make_executor("cluster", N, timeout_seconds=60.0)
    ex.run(SIO_JOB, SIO_DS)
    pids = ex.rank_pids
    assert len(_live_ranks(pids)) == N
    del ex
    gc.collect()
    _assert_reaped(pids)
    assert _live_ranks(pids) == []


def test_closing_one_executor_while_another_is_alive_is_fast():
    """B's ranks are forked after A's coordinator exists, so they hold
    duplicates of A's rank connections; A's close must still reach its
    own ranks at once instead of waiting out a join grace."""
    a = make_executor("cluster", N, timeout_seconds=60.0)
    b = make_executor("cluster", N, timeout_seconds=60.0)
    try:
        a.run(SIO_JOB, SIO_DS)
        b.run(SIO_JOB, SIO_DS)
        pids = a.rank_pids
        t0 = time.perf_counter()
        a.close()
        took = time.perf_counter() - t0
        _assert_reaped(pids)
        assert took < 0.1, f"closing A took {took:.3f}s"
        # B is untouched and still warm.
        b_pids = b.rank_pids
        b.run(SIO_JOB, SIO_DS)
        assert b.rank_pids == b_pids
    finally:
        a.close()
        b.close()


@pytest.mark.slow
def test_fault_plan_recovers_on_every_run_of_one_executor():
    """The scripted kill lands on every run of a reused executor: each
    run respawns the rank, which rejoins mid-run, and the replacement
    stays resident — taking part in the next run's start barrier before
    that run kills it again.  Every run stays bit-identical."""
    ds = sio_dataset(42_000, chunk_elements=6_000, key_space=1 << 12, seed=9)
    job = sio_job(key_space=1 << 12).with_config(enable_stealing=False)
    ref = make_executor("serial", 3).run(job, ds)
    plan = FaultPlan(kill_rank_at_chunk={1: 2})
    with make_executor(
        "cluster", 3, fault_plan=plan, timeout_seconds=60.0
    ) as ex:
        pids = []
        for i in range(5):
            got = ex.run(job, ds)
            assert got.stats.chunks_reclaimed > 0, i
            _assert_identical(ref, got, f"faulted run {i}")
            pids.append(ex.rank_pids)
        # Ranks 0 and 2 never died; rank 1 got a new process per run.
        assert len({(p[0], p[2]) for p in pids}) == 1
        assert len({p[1] for p in pids}) == len(pids)
