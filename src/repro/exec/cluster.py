"""Real distributed execution over the TCP cluster fabric.

``ClusterExecutor`` runs the same :mod:`repro.exec.dataflow` worker
code as the ``local`` backend, but every byte between ranks rides the
:mod:`repro.fabric` wire instead of ``multiprocessing`` queues: ranks
register with a driver-side :class:`~repro.fabric.Coordinator`, receive
the job as a framed message, *pull* their chunks one at a time from the
coordinator-hosted :class:`~repro.core.scheduler.ChunkService`
(``CHUNK_REQ``/``CHUNK_GRANT`` control frames — an idle rank steals
from the longest queue at runtime, and every run records the resulting
:class:`~repro.core.scheduler.ScheduleTrace` as ``JobResult.schedule``),
shuffle peer-to-peer over TCP sockets, and report results (or remote
tracebacks) back over their control connection.

The fabric is **resident**, like the local backend's ranks: the first
:meth:`ClusterExecutor.run` opens the coordinator, spawns the ranks and
registers them, and every later run only ships ASSIGN, passes the
start barrier and collects results over the same control connections
— the ranks loop over jobs until the coordinator hangs up.
``close()`` (or the executor being collected unclosed) closes the
coordinator, which every rank sees as EOF and exits on, and joins the
spawned ranks; a run that fails tears the fabric down so the next run
starts fresh.

By default the executor spawns one rank process per worker on this
host, all over ``127.0.0.1`` — the test and single-node configuration.
The wire protocol is host-agnostic, so the same driver serves a real
multi-host run: construct with ``spawn_ranks=False`` (and typically
``host="0.0.0.0"``), read the port from
:attr:`ClusterExecutor.coordinator_address` once the first run is
waiting for registrations, and start each rank with
``python -m repro.fabric.launch --coordinator host:port --rank N`` —
no code changes.  Launched ranks go through the same lifecycle as
spawned ones: they serve every run until ``close()``.  (With a
wildcard bind, ``--coordinator`` takes the driver's *real* interface
address; ``0.0.0.0`` is bindable, not dialable.)

Failure handling matches the local backend's contract: a rank that
raises ships its traceback upstream and the driver re-raises
:class:`WorkerFailure`; a rank that dies hard is caught either by the
coordinator (its control socket hits EOF) or by the driver's process
liveness probe, never waited out.  Under a
:class:`~repro.core.faults.FaultPlan` a rank killed mid-map is
respawned and rejoins mid-run; the replacement then stays resident.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .local import (
    WorkerFailure,
    _default_start_method,
    _ResidentExecutor,
    dead_worker_failure,
)
from ..core.chunk import Chunk
from ..core.executor import register_backend
from ..core.faults import FaultPlan
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.runtime import JobResult, resolve_chunks
from ..core.scheduler import DEFAULT_PREFETCH_WINDOW, ChunkService, ScheduleTrace
from ..core.stats import JobStats, WorkerStats
from ..obs import Observability
from ..fabric import (
    DEFAULT_MAX_FRAME_BYTES,
    Coordinator,
    PeerDisconnected,
    RankFailure,
    run_rank,
)
from ..workloads.base import Dataset

__all__ = ["ClusterExecutor"]


def _rank_main(
    rank: int,
    host: str,
    port: int,
    timeout_seconds: float,
    max_frame_bytes: int,
    listen_port: int = 0,
    rejoin: bool = False,
    auth_key: Optional[bytes] = None,
) -> None:
    """Process target for one locally spawned rank."""
    try:
        run_rank(
            rank,
            (host, port),
            listen_host="127.0.0.1",
            timeout_seconds=timeout_seconds,
            max_frame_bytes=max_frame_bytes,
            listen_port=listen_port,
            rejoin=rejoin,
            auth_key=auth_key,
        )
    except Exception:
        # The endpoint could not ship its traceback over the control
        # link; put it on stderr and die visibly so the driver's
        # liveness probe attributes the failure instead of waiting for
        # a timeout.
        traceback.print_exc()
        sys.exit(1)


class _Ranks:
    """A :class:`ClusterExecutor`'s resident fabric: the coordinator
    with its registered rank connections, and the rank processes it
    spawned (none when the ranks are launched externally).

    It holds no reference to the executor, so an executor dropped
    without ``close()`` is still collected and its finalizer can call
    :meth:`shutdown` on this object.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        ctx,
        timeout_seconds: float,
        max_frame_bytes: int,
        auth_key: Optional[bytes],
    ) -> None:
        self.owner_pid = os.getpid()
        self.coordinator: Optional[Coordinator] = coordinator
        #: multiprocessing context ranks are spawned from; None when
        #: they are launched externally (``repro.fabric.launch``)
        self.ctx = ctx
        n_workers = coordinator.n_workers
        # A wildcard bind is not dialable; local ranks always reach a
        # wildcard-bound coordinator over loopback.
        dial_host = (
            "127.0.0.1"
            if coordinator.host in ("0.0.0.0", "::", "")
            else coordinator.host
        )
        self._rank_args = (
            dial_host, coordinator.port, timeout_seconds, max_frame_bytes
        )
        self.auth_key = auth_key
        #: the current run's fault plan and per-rank respawn budget
        self.fault: Optional[FaultPlan] = None
        self.respawns_left: Dict[int, int] = {}
        #: processes started per rank; the incarnation in the name
        self._started = [0] * n_workers
        self.procs: List[mp.process.BaseProcess] = []
        if ctx is None:
            return
        try:
            for rank in range(n_workers):
                self.procs.append(self._start(rank))
        except BaseException:
            self.shutdown()
            raise

    def _start(self, rank: int, listen_port: int = 0) -> mp.process.BaseProcess:
        # Any incarnation after the first is a mid-run replacement.
        incarnation = self._started[rank]
        host, port, timeout_seconds, max_frame_bytes = self._rank_args
        proc = self.ctx.Process(
            target=_rank_main,
            args=(
                rank, host, port, timeout_seconds, max_frame_bytes,
                listen_port, incarnation > 0, self.auth_key,
            ),
            name=f"gpmr-cluster-r{rank}.{incarnation}",
            daemon=True,
        )
        self._started[rank] += 1
        proc.start()
        return proc

    def healthy(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def begin(
        self, fault: Optional[FaultPlan], obs: Optional[Observability]
    ) -> Coordinator:
        """Arm the fabric for one run; returns its coordinator."""
        self.fault = fault
        self.respawns_left = {
            rank: (0 if fault is None else fault.max_respawns)
            for rank in range(self.coordinator.n_workers)
        }
        self.coordinator.begin_run(
            obs=obs,
            liveness_probe=self.probe if self.ctx is not None else None,
        )
        return self.coordinator

    def probe(self) -> None:
        """Raise for a spawned rank that died with no respawn due.

        Under a fault plan a dead rank is not (yet) a failure: the
        coordinator notices the broken control socket and decides —
        reclaim + respawn, or raise RankFailure once the
        budget/recoverability runs out.
        """
        candidates = [
            p for rank, p in enumerate(self.procs)
            if not (self.fault is not None and self.respawns_left[rank] > 0)
        ]
        failure = dead_worker_failure(candidates)
        if failure is not None:
            raise failure

    def respawn(self, rank: int, listen_port: int) -> bool:
        """Coordinator callback: restart a dead rank's process as a
        rejoining replacement on the same shuffle port.  False once the
        budget is spent.  The replacement stays resident."""
        if self.fault is None or self.respawns_left.get(rank, 0) <= 0:
            return False
        self.respawns_left[rank] -= 1
        self.procs[rank] = self._start(rank, listen_port)
        return True

    def terminate(self) -> None:
        """Kill the spawned ranks at once (a failed run's ranks may be
        blocked mid-job, where closing the fabric cannot reach them)."""
        for p in self.procs:
            if p.is_alive():
                p.terminate()

    def shutdown(self) -> None:
        """Close the coordinator, then join the spawned ranks.

        Closing sends every rank EOF on its control connection; a rank
        idling between jobs exits on it with code 0, which is also how
        externally launched ranks learn the driver is done.  A spawned
        rank that has not exited within the grace is terminated.
        Idempotent.
        """
        if os.getpid() != self.owner_pid or self.coordinator is None:
            return  # a forked child's copy, or already shut down
        coordinator, self.coordinator = self.coordinator, None
        coordinator.close()
        deadline = time.monotonic() + 5.0
        for p in self.procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        self.terminate()
        for p in self.procs:
            p.join(timeout=5.0)


class ClusterExecutor(_ResidentExecutor):
    """Execute jobs on ``n_workers`` resident ranks joined by the TCP
    fabric (lifecycle in the module docstring); :meth:`reset` keeps the
    ranks, so a pooled executor stays warm across leases."""

    name = "cluster"

    def __init__(
        self,
        n_workers: int,
        initial_distribution: str = "round_robin",
        start_method: Optional[str] = None,
        timeout_seconds: float = 300.0,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        spawn_ranks: bool = True,
        compress_exchange: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        trace_path: Optional[str] = None,
        auth_key: Optional[bytes] = None,
        prefetch_window: int = DEFAULT_PREFETCH_WINDOW,
        accel: Optional[str] = None,
        fused: Optional[bool] = None,
    ) -> None:
        super().__init__(
            n_workers, obs=obs, trace_path=trace_path, accel=accel, fused=fused
        )
        #: grant pipelining depth shipped to ranks via ASSIGN: each
        #: rank keeps up to ``1 + prefetch_window`` CHUNK_REQ frames in
        #: flight so the next grant's wire time hides under the current
        #: chunk's map (0 restores strict request/reply)
        self.prefetch_window = max(0, int(prefetch_window))
        #: shared HMAC key; when set the coordinator challenges every
        #: connection and spawned local ranks answer with the same key
        #: (externally launched ranks pass it via
        #: ``repro.fabric.launch --auth-key-env/--auth-key-file``)
        self.auth_key = auth_key
        self.initial_distribution = initial_distribution
        self.start_method = start_method or _default_start_method()
        self.timeout_seconds = float(timeout_seconds)
        self.host = host
        self.port = int(port)
        self.max_frame_bytes = int(max_frame_bytes)
        self.spawn_ranks = spawn_ranks
        #: scripted fault injection + recovery policy (see
        #: :class:`~repro.core.faults.FaultPlan`); requires
        #: ``spawn_ranks=True`` for respawn — externally launched ranks
        #: can still *rejoin* via ``repro.fabric.launch --rejoin``, but
        #: nobody restarts them automatically
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.validate_for(n_workers)
        #: zlib-deflate shuffle chunks on the wire (worth it only when
        #: a real NIC, not loopback, is the bottleneck)
        self.compress_exchange = bool(compress_exchange)

    @property
    def coordinator_address(self) -> Optional[tuple]:
        """(host, port) of the resident coordinator — the address
        external ranks dial when ``spawn_ranks=False``.  Set from the
        first run until :meth:`close` or a failed run's teardown."""
        ranks = self._ranks
        coordinator = None if ranks is None else ranks.coordinator
        return None if coordinator is None else coordinator.address

    def _open_ranks(self) -> _Ranks:
        coordinator = Coordinator(
            self.n_workers,
            host=self.host,
            port=self.port,
            timeout_seconds=self.timeout_seconds,
            max_frame_bytes=self.max_frame_bytes,
            compress_exchange=self.compress_exchange,
            auth_key=self.auth_key,
            prefetch_window=self.prefetch_window,
        )
        try:
            return _Ranks(
                coordinator,
                mp.get_context(self.start_method) if self.spawn_ranks else None,
                self.timeout_seconds,
                self.max_frame_bytes,
                self.auth_key,
            )
        except BaseException:
            coordinator.close()
            raise

    def run(
        self,
        job: MapReduceJob,
        dataset: Optional[Dataset] = None,
        chunks: Optional[Sequence[Chunk]] = None,
        schedule: Optional[ScheduleTrace] = None,
    ) -> JobResult:
        self._check_open()
        # Stamp accel/fused into the job config before the coordinator
        # pickles the job into its ASSIGN payload — remote endpoints'
        # MapRunners read it straight off the config, no wire changes.
        job = self._configure_job(job)
        all_chunks = resolve_chunks(dataset, chunks)
        fault = self.fault_plan
        if fault is not None and schedule is not None:
            raise ValueError(
                "fault_plan and schedule replay are mutually exclusive: a "
                "recorded trace already fixes every grant, so there is "
                "nothing to reclaim or speculate"
            )
        if (
            fault is not None
            and fault.speculate_after is not None
            and (
                job.accumulator is not None
                or job.combiner is not None
                or (job.config.fused and job.fused is not None)
            )
        ):
            raise ValueError(
                "speculate_after requires per-chunk map emissions; job "
                f"{job.name!r} uses an accumulator/combiner/fused kernel "
                "whose finish-time output cannot be deduplicated per chunk"
            )
        run_obs = self._begin_obs()
        # The driver hosts the pull authority; ranks reach it through
        # the coordinator's CHUNK_REQ/CHUNK_GRANT control frames.
        service = self._make_chunk_service(
            all_chunks,
            job,
            schedule=schedule,
            speculate_after=None if fault is None else fault.speculate_after,
            obs=run_obs,
        )

        t_start = time.perf_counter()
        # One run at a time on the one set of ranks.
        with self._run_lock:
            try:
                collected, obs_payloads = self._run_on_ranks(
                    job, service, run_obs
                )
            except BaseException:
                # Ranks of a failed run may be blocked mid-job, where
                # the coordinator's hang-up cannot reach them.
                if self._ranks is not None:
                    self._ranks.terminate()
                self._teardown()
                raise

        outputs: List[Optional[KeyValueSet]] = [None] * self.n_workers
        worker_stats: List[WorkerStats] = []
        for rank, output, stats in collected:
            outputs[rank] = output
            worker_stats.append(
                stats if stats is not None else WorkerStats(rank=rank)
            )
        if run_obs is not None:
            for payload in obs_payloads.values():
                run_obs.absorb(payload)

        # Ranks report the chunks/steals they pulled over the wire; the
        # service logged what it granted.  The ledgers must agree.
        service.validate_ledgers(worker_stats)
        service.record_outcomes()

        elapsed = time.perf_counter() - t_start
        job_stats = JobStats(
            job_name=job.name,
            n_gpus=self.n_workers,
            elapsed=elapsed,
            workers=worker_stats,
            chunks_reclaimed=service.chunks_reclaimed,
            speculative_wins=service.speculative_wins,
            retries_by_worker=list(service.retries_by_worker),
            clock="wall",
        )
        self._finish_obs(run_obs, job_stats)
        return JobResult(
            stats=job_stats,
            outputs=outputs,
            schedule=schedule if schedule is not None else service.trace,
            obs=run_obs,
        )

    def _run_on_ranks(
        self,
        job: MapReduceJob,
        service: ChunkService,
        run_obs: Optional[Observability],
    ) -> Tuple[List[Tuple[int, Any, Any]], Dict[int, Any]]:
        """Run one job on the resident ranks: register them on the
        first run, then ASSIGN, start barrier and result collection.
        Returns the rank results and their obs payloads."""
        fault = self.fault_plan
        ranks = self._acquire_ranks()
        coordinator = ranks.begin(fault, run_obs)
        respawner = (
            ranks.respawn
            if fault is not None and ranks.ctx is not None
            else None
        )
        try:
            coordinator.wait_for_ranks()  # returns at once once registered
            coordinator.broadcast_assignments(job, fault_plan=fault)
            coordinator.barrier("start")
            collected = coordinator.collect_results(
                chunk_service=service, respawner=respawner
            )
        except RankFailure as exc:
            raise WorkerFailure(exc.rank, exc.detail) from exc
        except PeerDisconnected as exc:
            # Recv-side deaths become RankFailure inside the
            # coordinator; this catches the rare send-side races so
            # the documented contract (WorkerFailure or
            # TimeoutError) holds for every rank-death path.
            raise WorkerFailure(-1, f"a rank disconnected: {exc}") from exc
        # Every chunk must have been granted: a rank that reported a
        # result without draining the service would silently drop work.
        if service.remaining:
            raise WorkerFailure(
                -1,
                f"all ranks reported results but {service.remaining} "
                "chunk(s) were never granted",
            )
        return collected, coordinator.obs_payloads


register_backend(ClusterExecutor.name, ClusterExecutor)
