"""Real parallel execution on resident ``multiprocessing`` ranks.

One OS process per rank runs the full GPMR worker dataflow
(:mod:`repro.exec.dataflow`).  The ranks are **resident**: the first
:meth:`LocalExecutor.run` spawns them together with their queues and
the driver's chunk-service thread, and every later run reuses all of
it.  A run ships the job — pickled once — plus that run's rank
settings (tracing flag, :class:`~repro.core.faults.FaultPlan` kill
ordinal, stall) to each rank over a per-rank control queue; the rank
runs the job and goes back to waiting for the next one.  ``close()``
(or the executor being collected unclosed) terminates and joins the
ranks; a run that fails tears them down so the next run starts clean.

Chunk distribution is **pull-based**: each rank requests chunks at
runtime from the run's driver-side
:class:`~repro.core.scheduler.ChunkService` — the service thread
answers ``(kind, rank, run)`` requests arriving on a shared queue with
per-rank grant messages carrying ``(chunk, victim)``.  An idle rank
therefore steals work from the longest queue *while the run executes*
(the paper's dynamic load balancing, for real), every grant lands in a
recorded :class:`~repro.core.scheduler.ScheduleTrace` returned as
``JobResult.schedule``, and a supplied ``schedule=`` makes the service
replay a recorded trace grant-for-grant instead.  Requests and grants
carry the run's sequence number, so a message left over from an
earlier run (a killed rank's pipelined request, a late "posted"
marker) is dropped instead of leaking into the next job.

The "network fabric" is a ``multiprocessing.Queue`` per rank used as a
*control* channel: after its map phase a rank posts exactly one batch
message — ``(source_rank, message)`` — to every destination's queue
(including none to its own), then blocks until it has collected one
batch from each source.  With the default ``exchange="shm"`` transport
the message carries only the binary batch manifest plus the name of a
shared-memory segment holding the raw key/value bytes
(:mod:`repro.exec.exchange`); receivers map the arrays in place, so the
shuffle no longer pickles or pipes the payload.  ``exchange="pickle"``
keeps the original pickled-list messages as a measurable baseline.
Receivers order batches by source rank, which makes the shuffle
canonical and the run deterministic for a given schedule.

Every wait on this path is woken by an event: ranks block on their
control and grant queues, the service thread on the request queue
(a stop sentinel ends it), and the driver on the result queue *and*
the rank processes' exit sentinels at once, so a dead rank is seen
the moment it dies.

Failure handling: a worker that raises ships its traceback to the
driver over the result queue and still posts (empty) batches to every
peer it had not already posted to, so peers cannot deadlock and no peer
ever receives two batches from the same source; the driver re-raises as
:class:`WorkerFailure`.  A worker that dies hard (e.g. killed), or
exits *cleanly* mid-run without reporting a result, is caught by the
driver's liveness watch instead of being waited out.  After a failed
run the driver terminates the ranks, drains the shuffle queues and
unlinks undelivered shared-memory segments.

Timing is real wall-clock: each worker buckets its map / exchange
(bin) / sort / reduce time into the same Figure-2 stages the sim
reports, so sim-modeled and measured breakdowns are directly
comparable.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import signal
import threading
import time
import traceback
import weakref
from multiprocessing.connection import wait as wait_connections
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .dataflow import MapRunner, merge_incoming, reduce_worker
from .exchange import (
    EXCHANGE_TRANSPORTS,
    decode_batch,
    encode_batch,
    ensure_shared_tracker,
    release_message,
    release_segment,
)
from ..core.chunk import Chunk
from ..core.executor import Executor, register_backend
from ..core.faults import FaultPlan
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.runtime import JobResult, resolve_chunks
from ..core.scheduler import (
    DEFAULT_PREFETCH_WINDOW,
    RETRY,
    ChunkService,
    ScheduleTrace,
)
from ..core.stats import JobStats, WorkerStats
from ..obs import BYTES_BUCKETS, NULL_TRACER, Observability
from ..workloads.base import Dataset

__all__ = ["LocalExecutor", "WorkerFailure", "dead_worker_failure"]

#: grant-message status codes of the local pull protocol
_GRANT_DONE, _GRANT_CHUNK, _GRANT_RETRY = 0, 1, 2


class WorkerFailure(RuntimeError):
    """A worker process failed; carries the rank and remote traceback."""

    def __init__(self, rank: int, detail: str) -> None:
        super().__init__(f"worker rank {rank} failed:\n{detail}")
        self.rank = rank
        self.detail = detail


def _default_start_method() -> str:
    # fork is dramatically cheaper and keeps the job object shared
    # copy-on-write; fall back to spawn where fork is unavailable.
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def dead_worker_failure(procs) -> Optional["WorkerFailure"]:
    """The liveness predicate shared by the local and cluster drivers:
    a :class:`WorkerFailure` naming every worker process that died with
    a nonzero exit code, or None while all are healthy."""
    dead = [p for p in procs if not p.is_alive() and p.exitcode not in (0, None)]
    if not dead:
        return None
    codes = {p.name: p.exitcode for p in dead}
    return WorkerFailure(-1, f"worker process(es) died without reporting: {codes}")


class _PullChunkSource:
    """Worker-side half of the local pull protocol.

    ``next()`` posts ``("req", rank, run)`` on the shared request queue
    and blocks for the service thread's grant on the rank's own grant
    queue — a ``(run, status, chunk, victim)`` tuple: a chunk grant, a
    "retry later" (speculation may free up work; sleep briefly and
    re-ask), or "done".  A grant stamped with another run's number is
    a leftover answer to a dead incarnation's request and is skipped.  ``stall_seconds`` sleeps before every request: the
    fault-injection hook that makes this rank a straggler so tests can
    watch its chunks get stolen (and, with speculation armed, its
    in-flight chunks re-executed).  ``kill_at_chunk`` is the
    :class:`~repro.core.faults.FaultPlan` kill hook: the process
    SIGKILLs itself upon *receiving* its n-th grant — genuinely
    mid-map, with that grant (plus any earlier un-posted ones)
    outstanding at the service.
    """

    def __init__(
        self,
        rank: int,
        request_queue,
        grant_queue,
        stall_seconds: float = 0.0,
        kill_at_chunk: Optional[int] = None,
        prefetch: int = 0,
        run: int = 0,
    ) -> None:
        self.rank = rank
        #: the run's sequence number, stamped on requests and grants
        self.run = run
        self.request_queue = request_queue
        self.grant_queue = grant_queue
        self.stall_seconds = float(stall_seconds)
        self.kill_at_chunk = kill_at_chunk
        #: extra requests kept in flight beyond the one being answered:
        #: the service grants chunk i+1 while this rank maps chunk i,
        #: so the grant round-trip overlaps map compute (the sim's
        #: double buffer, for real).  0 restores strict alternation.
        self.prefetch = max(0, int(prefetch))
        #: requests posted but not yet answered
        self._pending = 0
        #: True after a DONE answer: stop posting new requests, but
        #: keep draining pending answers — a pipelined answer behind a
        #: DONE may still be a chunk (reclaim/speculation), which
        #: resumes the loop.  Only "draining with nothing pending"
        #: ends the pull.
        self._draining = False
        self._grants_received = 0
        #: set in-child by :func:`_worker_main` when tracing is on; the
        #: source itself is pickled to the child, an
        #: :class:`~repro.obs.Observability` (it holds locks) is not.
        self.obs: Optional[Observability] = None

    def next(self) -> Optional[Tuple[Chunk, int]]:
        obs = self.obs
        while True:
            if self.stall_seconds:
                time.sleep(self.stall_seconds)
            while not self._draining and self._pending < 1 + self.prefetch:
                self.request_queue.put(("req", self.rank, self.run))
                self._pending += 1
            if self._draining and self._pending == 0:
                return None
            # With prefetch the answer was (usually) already served
            # while the previous chunk mapped, so the measured grant
            # wait is only the residual blocking time — the overlap the
            # streaming bench's p99 column quantifies.
            w0 = time.time()
            run, status, chunk, victim = self.grant_queue.get()
            if run != self.run:
                continue
            self._pending -= 1
            if obs is not None:
                w1 = time.time()
                obs.tracer.add_span("grant_wait", w0, w1, rank=self.rank)
                obs.metrics.histogram("grant_latency_s").observe(w1 - w0)
            if status == _GRANT_RETRY:
                self._draining = False
                time.sleep(0.02)
                continue
            if status == _GRANT_DONE:
                self._draining = True
                continue
            self._draining = False
            self._grants_received += 1
            if (
                self.kill_at_chunk is not None
                and self._grants_received >= self.kill_at_chunk
            ):
                # Die exactly as "kill -9" would: no cleanup, no
                # courtesy batches, the grant never mapped.  (A
                # pipelined request this death leaves unanswered is
                # safe: the service answers it either onto the old
                # grant queue — which the driver replaces under the
                # service lock, so the grant dies with it — or, after
                # reclaim, onto the replacement's queue, where a chunk
                # is simply mapped by the new incarnation and a
                # trailing DONE goes unread — a later run skips it by
                # its run stamp.)
                os.kill(os.getpid(), signal.SIGKILL)
            return chunk, victim

    def mark_posted(self) -> None:
        """Tell the service this rank is about to post its batches —
        past this point the unit-of-loss contract makes its death
        unrecoverable (nothing left to reclaim)."""
        self.request_queue.put(("posted", self.rank, self.run))


class _ListChunkSource:
    """A precomputed chunk list behind the pull interface.

    Used by tests that drive :func:`_worker_main` directly, without a
    live service; every chunk counts as the rank's own (victim ==
    rank).
    """

    def __init__(self, chunks: Sequence[Chunk], rank: int) -> None:
        self._chunks = list(chunks)
        self.rank = rank
        self._i = 0

    def next(self) -> Optional[Tuple[Chunk, int]]:
        if self._i >= len(self._chunks):
            return None
        chunk = self._chunks[self._i]
        self._i += 1
        return chunk, self.rank

    def mark_posted(self) -> None:
        pass


class _Run:
    """The run a rank set is serving: its number, service and errors."""

    __slots__ = ("number", "service", "errors")

    def __init__(self, number: int, service: ChunkService) -> None:
        self.number = number
        self.service = service
        #: service failures, re-raised by the driver's collect loop
        self.errors: List[BaseException] = []


def _serve_chunks(ranks: "_Ranks") -> None:
    """Driver-side service thread: answer pull requests for the ranks'
    current run until :meth:`_Ranks.shutdown` wakes it to stop.

    It blocks, with no timeout, until a request or the stop message
    arrives; the stop travels on a driver-only pipe, so no lock a dead
    rank may hold can delay it.  Grant messages are
    ``(run, status, chunk, victim)`` — ``(run, _GRANT_DONE, None, -1)``
    tells the requesting rank it is done, ``_GRANT_RETRY`` tells it to
    re-ask shortly (speculation may free up work).  A request stamped
    with any run but the one in flight is a leftover and is dropped.  A
    service failure is stashed in the run's ``errors`` (the driver's
    collect loop re-raises it) and the requester is released with
    "done" so it cannot block forever.

    The service lock is held across request *and* put: the driver's
    recovery path (swap in a fresh grant queue, then ``reclaim``) takes
    the same lock, so a grant can never land on a queue the driver has
    already drained-by-replacement — no chunk is both re-queued and
    stranded on a dead rank's old queue.
    """
    requests = ranks.request_queue
    while True:
        ready = wait_connections([requests._reader, ranks.stop_reader])
        if ranks.stop_reader in ready:
            return
        kind, rank, number = requests.get()
        run = ranks.run
        if run is None or run.number != number:
            continue
        service = run.service
        try:
            with service.guard():
                if kind == "posted":
                    service.mark_posted(rank)
                    continue
                assignment = service.request(rank)
                if assignment is RETRY:
                    grant = (number, _GRANT_RETRY, None, -1)
                elif assignment is None:
                    grant = (number, _GRANT_DONE, None, -1)
                else:
                    grant = (number, _GRANT_CHUNK, assignment.chunk,
                             assignment.victim)
                ranks.grant_queues[rank].put(grant)
        except BaseException as exc:
            run.errors.append(exc)
            try:
                ranks.grant_queues[rank].put((number, _GRANT_DONE, None, -1))
            except BaseException:
                return


def _worker_main(
    rank: int,
    n_workers: int,
    job: MapReduceJob,
    chunk_source,
    shuffle_queues: List[mp.Queue],
    result_queue: mp.Queue,
    exchange: str = "shm",
    obs_enabled: bool = False,
) -> None:
    """One job on one rank: pull+map, exchange, sort, reduce.

    ``chunk_source`` is the rank's pull handle (``next() -> (chunk,
    victim) | None``); the worker counts a steal whenever a grant's
    victim is another rank, which the driver cross-checks against the
    service's ledger after the run.

    With ``obs_enabled`` the rank builds its own
    :class:`~repro.obs.Observability`, records its spans and metric
    samples into it, and ships the picklable ``export()`` payload back
    as the fifth element of the result tuple — the driver absorbs it
    into the run-level bundle.
    """
    obs = Observability() if obs_enabled else None
    tracer = obs.tracer if obs is not None else NULL_TRACER
    chunk_source.obs = obs
    stats = WorkerStats(rank=rank)
    posted: Set[int] = set()
    segments = []
    try:
        t0 = time.perf_counter()
        runner = MapRunner(job, n_workers)
        while True:
            nxt = chunk_source.next()
            if nxt is None:
                break
            chunk, victim = nxt
            if victim != rank:
                stats.chunks_stolen += 1
            w0 = time.time()
            runner.feed(chunk)
            tracer.add_span(
                "chunk_map", w0, time.time(), rank=rank, chunk=chunk.index
            )
        w0 = time.time()
        mapped = runner.finish()
        tracer.add_span("map_finish", w0, time.time(), rank=rank)
        stats.chunks_mapped = mapped.chunks_mapped
        stats.pairs_emitted_logical = mapped.pairs_emitted_logical
        stats.bytes_sent_network = mapped.bytes_remote(rank)
        stats.bytes_kept_local = mapped.bytes_self(rank)
        t1 = time.perf_counter()
        stats.add("map", t1 - t0)

        # Self-destined parts stay in-process; remote batches ride the
        # exchange transport.  Posted destinations are tracked one by
        # one so a failure mid-posting backfills only the peers that
        # never got this rank's batch.  The "posted" marker goes to the
        # service first: once any batch may have shipped, this rank's
        # map output is in the world and its death is no longer
        # recoverable by reclaim (the batches would double-count).
        chunk_source.mark_posted()
        for dest in range(n_workers):
            if dest == rank:
                continue
            counters = {"bytes": 0} if obs is not None else None
            s0 = time.time()
            message = encode_batch(
                mapped.batch_for(dest), transport=exchange, counters=counters
            )
            try:
                shuffle_queues[dest].put(
                    (rank, message, mapped.chunk_ids_for(dest))
                )
            except BaseException:
                release_message(message)  # never delivered; unlink now
                raise
            posted.add(dest)
            if obs is not None:
                s1 = time.time()
                tracer.add_span("shuffle_send", s0, s1, rank=rank, dest=dest)
                obs.metrics.histogram("shuffle_batch_s").observe(s1 - s0)
                obs.metrics.histogram(
                    "shuffle_batch_bytes", bounds=BYTES_BUCKETS
                ).observe(counters["bytes"])

        r0 = time.time()
        batches: List[Tuple[int, List[KeyValueSet], List[int]]] = [
            (rank, mapped.batch_for(rank), mapped.chunk_ids_for(rank))
        ]
        for _ in range(n_workers - 1):
            src, message, tags = shuffle_queues[rank].get()
            parts, segment = decode_batch(message)
            if segment is not None:
                segments.append(segment)
            batches.append((src, parts, tags))
        incoming = merge_incoming(batches)
        del batches
        tracer.add_span("shuffle_recv", r0, time.time(), rank=rank)
        t2 = time.perf_counter()
        stats.add("bin", t2 - t1)

        output = reduce_worker(job, incoming, stats=stats, obs=obs)
        # The reduce concatenated every incoming part into fresh
        # arrays; the zero-copy views are dead and the segments can go.
        del incoming
        while segments:
            release_segment(segments.pop())
        result_queue.put(
            (rank, None, output, stats, obs.export() if obs else None)
        )
    except BaseException:
        _backfill(rank, n_workers, shuffle_queues, exchange, posted)
        while segments:
            release_segment(segments.pop())
        result_queue.put(
            (rank, traceback.format_exc(), None, stats,
             obs.export() if obs else None)
        )


def _backfill(rank, n_workers, shuffle_queues, exchange, posted) -> None:
    """Post an empty batch to every peer not in ``posted``.

    A failing rank unblocks only the peers still waiting on its batch
    — re-posting to an already-served peer would make it count two
    batches from one source and merge nondeterministically.
    """
    for dest in range(n_workers):
        if dest != rank and dest not in posted:
            try:
                shuffle_queues[dest].put(
                    (rank, encode_batch([], transport=exchange), [])
                )
            except BaseException:
                pass  # queue gone too; the driver's watch covers it


def _rank_main(
    rank: int,
    n_workers: int,
    control_queue: mp.Queue,
    request_queue,
    grant_queue: mp.Queue,
    shuffle_queues: List[mp.Queue],
    result_queue: mp.Queue,
    exchange: str,
) -> None:
    """Entry point of a resident rank: run each job the driver ships.

    A control message is ``(run, job_pickle, obs_enabled, stall_seconds,
    kill_at_chunk, prefetch)``; the rank runs that job through
    :func:`_worker_main` and waits for the next.  ``None`` retires the
    rank (see :meth:`_Ranks.refork`); otherwise the driver ends ranks
    by terminating them.
    """
    while True:
        message = control_queue.get()
        if message is None:
            return
        run, job_pickle, obs_enabled, stall, kill_at, prefetch = message
        try:
            job = pickle.loads(job_pickle)
        except Exception:
            _backfill(rank, n_workers, shuffle_queues, exchange, ())
            result_queue.put(
                (rank, traceback.format_exc(), None, WorkerStats(rank=rank), None)
            )
            continue
        source = _PullChunkSource(
            rank, request_queue, grant_queue, stall, kill_at, prefetch, run
        )
        _worker_main(
            rank, n_workers, job, source, shuffle_queues, result_queue,
            exchange, obs_enabled,
        )


class _Ranks:
    """A :class:`LocalExecutor`'s resident state: the rank processes,
    their queues and the chunk-service thread.

    It holds no reference to the executor, so an executor dropped
    without ``close()`` is still collected and its finalizer can call
    :meth:`shutdown` on this object.
    """

    def __init__(self, ctx, n_workers: int, exchange: str) -> None:
        self.ctx = ctx
        self.n_workers = n_workers
        self.exchange = exchange
        self.owner_pid = os.getpid()
        # mp.Queue writes through a feeder thread, so puts never block
        # on pipe capacity — no exchange deadlock however large a batch
        # (and under "shm" the message is tiny regardless).
        self.shuffle_queues = [ctx.Queue() for _ in range(n_workers)]
        self.grant_queues = [ctx.Queue() for _ in range(n_workers)]
        self.control_queues = [ctx.Queue() for _ in range(n_workers)]
        self.result_queue = ctx.Queue()
        # Requests are written synchronously by the rank's own thread (no
        # feeder thread), so a rank the fault plan SIGKILLs right after
        # a request can never die holding the queue's shared write lock.
        self.request_queue = ctx.SimpleQueue()
        self.stop_reader, self._stop_writer = ctx.Pipe(duplex=False)
        #: the run being served (None between runs)
        self.run: Optional[_Run] = None
        self.runs_started = 0
        #: processes started per rank, for the incarnation in the name
        self._started = [0] * n_workers
        self.server = threading.Thread(
            target=_serve_chunks, args=(self,), name="gpmr-chunk-service",
            daemon=True,
        )
        self.server.start()
        self.procs: List[mp.process.BaseProcess] = []
        try:
            for rank in range(n_workers):
                self.procs.append(self._start(rank))
        except BaseException:
            self.shutdown()
            raise

    def _start(self, rank: int) -> mp.process.BaseProcess:
        proc = self.ctx.Process(
            target=_rank_main,
            args=(
                rank,
                self.n_workers,
                self.control_queues[rank],
                self.request_queue,
                self.grant_queues[rank],
                self.shuffle_queues,
                self.result_queue,
                self.exchange,
            ),
            name=f"gpmr-local-r{rank}.{self._started[rank]}",
            daemon=True,
        )
        self._started[rank] += 1
        proc.start()
        return proc

    def refork(self, rank: int) -> None:
        """Give ``rank`` a fresh process before a run that kills it.

        A resident process may still have a queue feeder thread inside
        a shared write lock from an earlier job (its pipe write done,
        the lock release not yet scheduled); a scripted SIGKILL landing
        then would leave that lock held forever.  A fresh process has
        written nothing yet, like a per-run rank.  The old one exits
        through the ``None`` control message, so it dies holding no
        lock either.
        """
        old = self.procs[rank]
        self.control_queues[rank].put(None)
        old.join(timeout=5.0)
        if old.is_alive():  # pragma: no cover - a wedged rank
            old.terminate()
            old.join(timeout=5.0)
        self.procs[rank] = self._start(rank)

    def healthy(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def begin(self, service: ChunkService) -> _Run:
        """Make ``service`` the one the service thread answers for."""
        self.runs_started += 1
        self.run = _Run(self.runs_started, service)
        return self.run

    def respawn(self, rank: int) -> int:
        """Replace dead ``rank`` with a fresh process on a fresh grant
        queue; returns the incarnation number.  Under the service lock,
        so grants queued to the dead incarnation die with its queue."""
        with self.run.service.guard():
            self.grant_queues[rank] = self.ctx.Queue()
            self.run.service.reclaim(rank)
        self.procs[rank] = self._start(rank)
        return self._started[rank] - 1

    def shutdown(self) -> None:
        """Terminate and join the ranks, stop the service thread, unlink
        undelivered shared memory and close every queue.  Idempotent."""
        if os.getpid() != self.owner_pid or self.server is None:
            return  # a forked child's copy, or already shut down
        server, self.server = self.server, None
        self.run = None
        self._stop_writer.send(None)
        for p in self.procs:
            if p.is_alive():
                p.terminate()
        for p in self.procs:
            p.join(timeout=5.0)
        if server is not threading.current_thread():
            server.join(timeout=5.0)
        _drain_undelivered(self.shuffle_queues)
        queues = (
            self.shuffle_queues + self.grant_queues + self.control_queues
            + [self.result_queue]
        )
        for q in queues:
            q.cancel_join_thread()
            q.close()
        for conn in (self.request_queue, self.stop_reader, self._stop_writer):
            conn.close()


def _drain_undelivered(shuffle_queues: List[mp.Queue]) -> None:
    """Unlink segments behind messages no worker ever consumed.

    On the happy path the queues are empty; after a failure they
    may still hold batches whose shared-memory segments would
    otherwise outlive the run.  A worker killed or terminated
    mid-``put`` can leave a *partial* message in a queue's pipe;
    ``get_nowait`` then blocks in ``_recv_bytes`` (the poll sees
    bytes, the receive waits for the rest forever), so the drain
    runs in a daemon thread with a bounded join — leaking a
    segment beats hanging the teardown.
    """
    def _drain() -> None:
        for q in shuffle_queues:
            while True:
                try:
                    item = q.get_nowait()
                except (queue_mod.Empty, OSError, EOFError, ValueError):
                    break
                try:
                    release_message(item[1])
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    t = threading.Thread(
        target=_drain, name="gpmr-drain-undelivered", daemon=True
    )
    t.start()
    t.join(timeout=5.0)


class _ResidentExecutor(Executor):
    """The rank lifecycle shared by the backends with resident ranks.

    :meth:`_open_ranks` builds a rank set on the first run; every later
    run reuses it while :meth:`healthy` holds.  ``close()``, or the
    executor being collected unclosed, calls the set's ``shutdown``
    through a ``weakref.finalize`` — so the set must hold no reference
    to the executor.  :meth:`_teardown` after a failed run makes the
    next run open a fresh set.  Runs are serialised by ``_run_lock``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: the resident rank set (None until the first run, and after a
        #: failed run tore it down)
        self._ranks = None
        self._finalizer: Optional[weakref.finalize] = None
        self._run_lock = threading.Lock()

    @property
    def rank_pids(self) -> List[Optional[int]]:
        """PIDs of the resident rank processes in rank order ([] before
        the first run and after a teardown)."""
        return [] if self._ranks is None else [p.pid for p in self._ranks.procs]

    def _open_ranks(self):
        raise NotImplementedError

    def _acquire_ranks(self):
        """The resident ranks, opened now if there are none or one died
        between runs."""
        ranks = self._ranks
        if ranks is not None and ranks.healthy():
            return ranks
        self._teardown()
        ranks = self._open_ranks()
        self._ranks = ranks
        self._finalizer = weakref.finalize(self, ranks.shutdown)
        return ranks

    def _teardown(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
        self._ranks = None
        self._finalizer = None

    def _release(self) -> None:
        self._teardown()


class LocalExecutor(_ResidentExecutor):
    """Execute jobs for real on ``n_workers`` resident OS processes.

    The ranks start on the first :meth:`run` and serve every later run
    until :meth:`close` (or garbage collection of an unclosed
    executor) terminates and joins them; :meth:`reset` keeps them, so
    a pooled executor stays warm across leases.  A run that fails —
    :class:`WorkerFailure`, ``TimeoutError`` or a service error —
    tears the ranks down and the next run starts fresh ones.

    ``stall_seconds`` (optional, ``{rank: seconds}``) injects a sleep
    before each of that rank's chunk requests — a deliberate straggler
    for load-balancing tests and benchmarks.

    ``fault_plan`` (a :class:`~repro.core.faults.FaultPlan`) arms the
    recovery machinery: ranks it kills mid-map are detected by the
    driver's liveness watch, their un-posted grants are reclaimed into
    the pool, and a replacement process is respawned under the same
    rank id — the run completes with output bit-identical to a
    failure-free run.  The plan applies to every run: each run's first
    incarnation of a rank carries its kill ordinal.
    ``speculate_after`` additionally re-executes straggling in-flight
    grants on idle ranks; receivers drop the duplicate map output by
    chunk-id provenance tags.  Without a plan, any worker death is a
    :class:`WorkerFailure` exactly as before.
    """

    name = "local"

    def __init__(
        self,
        n_workers: int,
        initial_distribution: str = "round_robin",
        start_method: Optional[str] = None,
        timeout_seconds: float = 300.0,
        exchange: str = "shm",
        stall_seconds: Optional[Mapping[int, float]] = None,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        trace_path: Optional[str] = None,
        prefetch_window: int = DEFAULT_PREFETCH_WINDOW,
        accel: Optional[str] = None,
        fused: Optional[bool] = None,
    ) -> None:
        super().__init__(
            n_workers, obs=obs, trace_path=trace_path, accel=accel, fused=fused
        )
        self.initial_distribution = initial_distribution
        self.start_method = start_method or _default_start_method()
        self.timeout_seconds = float(timeout_seconds)
        #: chunk requests each rank keeps in flight beyond the one it
        #: is mapping (grant prefetch); 0 disables the overlap
        self.prefetch_window = max(0, int(prefetch_window))
        if exchange not in EXCHANGE_TRANSPORTS:
            raise ValueError(
                f"unknown exchange transport {exchange!r}; "
                f"expected one of {EXCHANGE_TRANSPORTS}"
            )
        self.exchange = exchange
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.validate_for(n_workers)
            stall_seconds = fault_plan.merged_stalls(stall_seconds)
        self.stall_seconds: Dict[int, float] = dict(stall_seconds or {})

    def _open_ranks(self) -> _Ranks:
        if self.exchange == "shm":
            # One tracker for the whole rank tree — see exchange docs.
            ensure_shared_tracker()
        return _Ranks(
            mp.get_context(self.start_method), self.n_workers, self.exchange
        )

    def run(
        self,
        job: MapReduceJob,
        dataset: Optional[Dataset] = None,
        chunks: Optional[Sequence[Chunk]] = None,
        schedule: Optional[ScheduleTrace] = None,
    ) -> JobResult:
        self._check_open()
        # Stamp accel/fused into the job config before the job is
        # pickled to the ranks — their MapRunners read it straight off
        # the config.
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
            and (job.accumulator is not None or job.combiner is not None)
        ):
            raise ValueError(
                "speculate_after requires per-chunk map emissions; job "
                f"{job.name!r} uses an accumulator/combiner whose "
                "finish-time output cannot be deduplicated per chunk"
            )
        run_obs = self._begin_obs()
        # Replay validation happens here, in the driver, before any
        # rank sees the job — a bad trace fails fast with full context.
        service = self._make_chunk_service(
            all_chunks,
            job,
            schedule=schedule,
            speculate_after=None if fault is None else fault.speculate_after,
            obs=run_obs,
        )
        job_pickle = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        t_start = time.perf_counter()
        # One run at a time on the one set of ranks.
        with self._run_lock:
            outputs, worker_stats = self._run_on_ranks(
                job_pickle, service, run_obs
            )
        if service.remaining:
            raise RuntimeError(
                f"chunk service finished with {service.remaining} chunk(s) "
                "never granted"
            )

        # Workers report what they fetched; the service logged what it
        # granted.  The two ledgers must agree rank for rank.
        service.validate_ledgers([s for s in worker_stats if s is not None])
        service.record_outcomes()

        elapsed = time.perf_counter() - t_start
        stats = JobStats(
            job_name=job.name,
            n_gpus=self.n_workers,
            elapsed=elapsed,
            workers=[s if s is not None else WorkerStats(rank=r)
                     for r, s in enumerate(worker_stats)],
            chunks_reclaimed=service.chunks_reclaimed,
            speculative_wins=service.speculative_wins,
            retries_by_worker=list(service.retries_by_worker),
            clock="wall",
        )
        self._finish_obs(run_obs, stats)
        return JobResult(
            stats=stats,
            outputs=outputs,
            schedule=schedule if schedule is not None else service.trace,
            obs=run_obs,
        )

    def _run_on_ranks(
        self,
        job_pickle: bytes,
        service: ChunkService,
        run_obs: Optional[Observability],
    ) -> Tuple[List[Optional[KeyValueSet]], List[Optional[WorkerStats]]]:
        """Ship one job to the resident ranks and collect every rank's
        output and stats; any failure tears the ranks down."""
        fault = self.fault_plan
        ranks = self._acquire_ranks()
        run = ranks.begin(service)

        def ship(rank: int, kill_at: Optional[int]) -> None:
            ranks.control_queues[rank].put((
                run.number, job_pickle, run_obs is not None,
                self.stall_seconds.get(rank, 0.0), kill_at,
                self.prefetch_window,
            ))

        respawns_left = {
            rank: (fault.max_respawns if fault is not None else 0)
            for rank in range(self.n_workers)
        }
        outputs: List[Optional[KeyValueSet]] = [None] * self.n_workers
        worker_stats: List[Optional[WorkerStats]] = [None] * self.n_workers
        failures: List[Tuple[int, str]] = []
        deadline = time.monotonic() + self.timeout_seconds
        pending = set(range(self.n_workers))
        results = ranks.result_queue
        try:
            for rank in range(self.n_workers):
                kill_at = None if fault is None else fault.kill_for(rank)
                if kill_at is not None:
                    ranks.refork(rank)
                ship(rank, kill_at)
            while pending:
                if run.errors:
                    raise run.errors[0]
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"local backend timed out after {self.timeout_seconds}s "
                        f"with {len(pending)} worker(s) outstanding"
                    )
                # Wake on a result or on any pending rank's exit.
                ready = wait_connections(
                    [results._reader] + [ranks.procs[r].sentinel for r in pending],
                    timeout=remaining,
                )
                if not results.empty():
                    rank, error, output, stats, obs_payload = results.get()
                    pending.discard(rank)
                    if run_obs is not None:
                        run_obs.absorb(obs_payload)
                    if error is not None:
                        failures.append((rank, error))
                    else:
                        outputs[rank] = output
                        worker_stats[rank] = stats
                    continue
                # A ready sentinel means the rank is exiting; reap it so
                # its exit code is final for every check below.
                for r in pending:
                    if ranks.procs[r].sentinel in ready:
                        ranks.procs[r].join(timeout=5.0)
                if fault is not None:
                    self._recover_dead_workers(
                        ranks, pending, respawns_left, ship
                    )
                failure = dead_worker_failure(ranks.procs)
                if failure is not None:
                    raise failure
                # A rank that exited *cleanly* (code 0) mid-run will
                # never post its result; its queue writes were flushed
                # before it exited, so an empty result queue is final.
                silent = sorted(
                    r for r in pending if ranks.procs[r].exitcode == 0
                )
                if silent:
                    raise WorkerFailure(
                        silent[0],
                        f"worker rank(s) {silent} exited cleanly "
                        "without posting a result",
                    )
            if failures:
                rank, detail = failures[0]
                raise WorkerFailure(rank, detail)
            # A service failure on the *last* grants can release every
            # worker with "done" before the in-loop check sees it;
            # re-check now so a run that silently dropped chunks can
            # never return.
            if run.errors:
                raise run.errors[0]
        except BaseException:
            self._teardown()
            raise
        finally:
            ranks.run = None
        return outputs, worker_stats

    def _recover_dead_workers(
        self,
        ranks: _Ranks,
        pending: Set[int],
        respawns_left: Dict[int, int],
        ship,
    ) -> None:
        """Reclaim and respawn every dead rank that is still recoverable.

        A rank qualifies when it died hard (nonzero exit), has respawn
        budget left, and never marked its map output posted (the unit
        of loss is the whole un-posted map phase — once batches may
        have shipped, reclaiming would double-count them).  Ranks that
        do not qualify are deliberately left for
        :func:`dead_worker_failure`, preserving the no-plan failure
        behavior.  The replacement gets a fresh grant queue (see
        :meth:`_Ranks.respawn`) and the run without a kill ordinal: it
        must survive to finish the reclaimed work.
        """
        service = ranks.run.service
        for rank in sorted(pending):
            p = ranks.procs[rank]
            if p.is_alive() or p.exitcode in (0, None):
                continue
            if respawns_left.get(rank, 0) <= 0:
                continue
            if not service.can_recover(rank):
                continue
            if self.obs is not None:
                self.obs.tracer.event("rank_dead", rank=rank,
                                      exitcode=p.exitcode)
            respawns_left[rank] -= 1
            incarnation = ranks.respawn(rank)
            ship(rank, None)
            if self.obs is not None:
                self.obs.tracer.event("respawn", rank=rank,
                                      incarnation=incarnation)
                self.obs.metrics.counter("respawns").inc()


register_backend(LocalExecutor.name, LocalExecutor)
