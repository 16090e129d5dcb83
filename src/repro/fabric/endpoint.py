"""Rank-side endpoint of the cluster fabric.

A :class:`RankEndpoint` is everything one worker rank needs to take
part in a fabric run: a control connection to the coordinator and its
own shuffle listener for the data plane.  The full worker flow
(:meth:`run_job`) mirrors :mod:`repro.exec.local`'s ``_worker_main``
exactly — pull+map, all-to-all exchange, sort, reduce — with the
pickle-over-pipe queues replaced by framed TCP:

* **chunks are pulled, not pushed**: after the start barrier the rank
  requests work one chunk at a time over its control connection
  (``CHUNK_REQ`` -> ``CHUNK_GRANT``/``CHUNKS_DONE``), feeding each
  grant to an incremental :class:`~repro.exec.dataflow.MapRunner`.  A
  grant whose victim is another rank is a *steal* the coordinator's
  chunk service decided at runtime — dynamic load balancing over the
  real wire, externally launched ranks included.

* **exchange** is the same one-batch-per-(src, dst) protocol: after its
  map phase a rank opens one connection to every peer's shuffle
  listener, streams exactly one batch — a raw-codec ``BATCH`` header
  frame plus chunked ``BATCH_DATA`` frames, see
  :mod:`repro.fabric.stream` — and accepts exactly ``n-1`` inbound
  batches.  Self-destined parts never touch the wire, and batches
  larger than ``max_frame_bytes`` stream through it instead of dying.
  Outbound sends run on one thread per destination (the TCP analogue
  of ``mp.Queue``'s feeder thread) so a rank is always able to drain
  inbound batches while its own sends are still in flight — no
  send/recv interleaving deadlock at any batch size.
* **timing** buckets real wall-clock into the same Figure-2 stages
  (map / bin / sort / reduce) the sim charges modeled time to.

The endpoint is transport-complete for multi-host runs: the rank
itself states where its shuffle listener is reachable (``listen_host``
/ ``advertise_host``) rather than anyone inferring it, and everything
else is plain TCP — the same code joins a fabric from another host via
``python -m repro.fabric.launch``.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .stream import recv_batch, send_batch
from .wire import (
    MSG_ASSIGN,
    MSG_BARRIER,
    MSG_BATCH_ACK,
    MSG_CHUNK_GRANT,
    MSG_CHUNK_REQ,
    MSG_CHUNKS_DONE,
    MSG_ERROR,
    MSG_HELLO,
    MSG_MAPS_DONE,
    MSG_NAMES,
    MSG_RESULT,
    MSG_RESUME,
    MSG_WELCOME,
    DEFAULT_MAX_FRAME_BYTES,
    AuthenticationError,
    FabricError,
    PeerDisconnected,
    ProtocolError,
    ProtocolVersionError,
    answer_challenge,
    recv_frame,
    recv_raw_frame,
    send_frame,
    send_raw_frame,
)
from ..obs import BYTES_BUCKETS, NULL_OBS, Observability

__all__ = ["RankEndpoint", "run_rank"]

#: Accept-loop wake interval: how often the inbox thread re-checks
#: whether the endpoint was closed while no batch is arriving.
_POLL_SECONDS = 0.2


class RankEndpoint:
    """One rank's connections into the fabric (control + shuffle)."""

    def __init__(
        self,
        rank: int,
        coordinator: Tuple[str, int],
        listen_host: str = "127.0.0.1",
        advertise_host: Optional[str] = None,
        timeout_seconds: float = 120.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        listen_port: int = 0,
        rejoin: bool = False,
        auth_key: Optional[bytes] = None,
    ) -> None:
        self.rank = int(rank)
        self.coordinator_address = tuple(coordinator)
        self.timeout_seconds = float(timeout_seconds)
        self.max_frame_bytes = int(max_frame_bytes)
        #: shared secret for the coordinator's HMAC handshake; must
        #: match the coordinator's key (or be None when it has none)
        self.auth_key = auth_key
        #: True while this endpoint is a replacement incarnation joining
        #: a run already past its start barrier (its HELLO says so, the
        #: ASSIGN confirms it per job, and :meth:`run_job` skips the
        #: barrier)
        self.rejoin = bool(rejoin)
        # Data plane first: the listener must exist before HELLO
        # advertises it, so no peer can ever dial a closed port.  A
        # replacement binds its predecessor's exact port
        # (``listen_port``) so every surviving peer's directory stays
        # valid — retrying EADDRINUSE, because a survivor's outbound
        # retry can transiently occupy the freed port (loopback
        # self-connect / ephemeral source-port collision) until its
        # next backoff releases it.
        bind_deadline = time.monotonic() + self.timeout_seconds
        while True:
            try:
                self._shuffle_listener = socket.create_server(
                    (listen_host, int(listen_port)), backlog=16
                )
                break
            except OSError:
                if int(listen_port) == 0 or time.monotonic() > bind_deadline:
                    raise
                time.sleep(0.1)
        self._shuffle_listener.settimeout(_POLL_SECONDS)
        port = self._shuffle_listener.getsockname()[1]
        self.shuffle_address = (advertise_host or listen_host, port)
        self._control: Optional[socket.socket] = None
        self.n_workers: Optional[int] = None
        self.peers: Dict[int, Tuple[str, int]] = {}
        #: membership epoch last observed on a coordinator frame
        self.epoch = 0
        #: scripted fault injection, learned from ASSIGN
        self._kill_at_chunk: Optional[int] = None
        self._stall_seconds = 0.0
        self._frames_lock = threading.Lock()
        #: zlib-deflate outbound shuffle chunks (the driver's choice,
        #: learned from ASSIGN; receivers accept either form always)
        self.compress_exchange = False
        #: rank-side observability bundle, armed by the ``obs`` flag on
        #: ASSIGN; the export payload rides home on the RESULT frame
        self.obs = NULL_OBS
        #: grant pipelining depth, learned from ASSIGN: up to
        #: ``1 + prefetch_window`` CHUNK_REQ frames ride ahead of their
        #: answers so the next grant is usually already buffered while
        #: the current chunk maps (0 = fully synchronous request/reply)
        self.prefetch_window = 0
        # Early-exchange inbox: a background thread accepts inbound
        # shuffle batches while this rank is still mapping, so the
        # exchange barrier only waits for genuinely late data.  The
        # condition guards the inbox state, the posted flag and the
        # held connections; the inbox thread notifies it when a batch
        # lands and when it exits or fails.
        self._inbox_cond = threading.Condition()
        self._inbox_stop = threading.Event()
        self._reset_job_state()

    def _reset_job_state(self) -> None:
        """Forget the previous job's exchange, grant and fault state.

        A resident rank serves many jobs on one endpoint; every ASSIGN
        starts from here.
        """
        self._grants_received = 0
        #: wire frames this rank's outbound shuffle used (BATCH +
        #: BATCH_DATA, summed over destinations) — the coalescing
        #: effectiveness measure surfaced as WorkerStats.shuffle_frames_sent
        self.frames_sent = 0
        #: CHUNK_REQ frames sent but not yet answered
        self._pending_reqs = 0
        #: a non-retry CHUNKS_DONE arrived; stop topping up and drain
        self._draining = False
        self._inbox_batches: List[Tuple[int, List[Any], Optional[List[int]]]] = []
        self._inbox_have: set = set()
        self._inbox_error: Optional[BaseException] = None
        self._inbox_thread: Optional[threading.Thread] = None
        #: set once MAPS_DONE is on the wire — inbound batches may not
        #: be ACKed before this (see :meth:`start_inbox`)
        self._posted = False
        #: fully received batches whose BATCH_ACK waits for the post
        self._held: List[socket.socket] = []

    # -- control plane -----------------------------------------------------
    def connect(self) -> None:
        """Dial the coordinator, register, and learn the cluster size."""
        self._control = socket.create_connection(
            self.coordinator_address, timeout=self.timeout_seconds
        )
        if self.auth_key is not None:
            # The coordinator challenges first thing on accept; answer
            # before any other frame goes out.
            answer_challenge(
                self._control, self.auth_key,
                max_frame_bytes=self.max_frame_bytes,
            )
        send_frame(
            self._control,
            MSG_HELLO,
            {"rank": self.rank, "shuffle_address": self.shuffle_address,
             "rejoin": self.rejoin},
            max_frame_bytes=self.max_frame_bytes,
        )
        try:
            _, welcome = recv_frame(
                self._control, max_frame_bytes=self.max_frame_bytes,
                expect=MSG_WELCOME,
            )
        except ProtocolError as exc:
            if "AUTH_CHALLENGE" in str(exc):
                # A keyed coordinator challenged us and we had nothing
                # to answer with — name the fix, not the symptom.
                raise AuthenticationError(
                    "coordinator requires an auth key but this rank has "
                    "none configured (pass auth_key= / --auth-key-env)"
                ) from exc
            raise
        self.n_workers = int(welcome["n_workers"])
        self.max_frame_bytes = int(
            welcome.get("max_frame_bytes", self.max_frame_bytes)
        )
        self.epoch = int(welcome.get("epoch", 0))

    def receive_assignment(self) -> Any:
        """Block for the next ASSIGN; returns the job and stores the
        peer map and this job's settings.

        The wait has no deadline: a resident rank idles here between
        jobs for as long as the driver keeps it, and the coordinator
        closing the connection raises :class:`PeerDisconnected`.
        Chunks are not in the frame — the rank pulls them one at a
        time via :meth:`request_chunk` after the start barrier.
        """
        self._control.settimeout(None)
        try:
            _, assign = recv_frame(
                self._control, max_frame_bytes=self.max_frame_bytes,
                expect=MSG_ASSIGN,
            )
        finally:
            self._control.settimeout(self.timeout_seconds)
        self._reset_job_state()
        # A replacement's first job joins mid-run, past the start
        # barrier; its later jobs, like every other rank's, pass it.
        self.rejoin = bool(assign.get("rejoin", False))
        self.n_workers = int(assign["n_workers"])
        self.peers = {int(r): tuple(a) for r, a in assign["peers"].items()}
        self.compress_exchange = bool(assign.get("compress_exchange", False))
        self.epoch = int(assign.get("epoch", self.epoch))
        self.obs = Observability() if assign.get("obs") else NULL_OBS
        self.prefetch_window = max(0, int(assign.get("prefetch", 0)))
        fault = assign.get("fault") or {}
        self._kill_at_chunk = fault.get("kill_at_chunk")
        self._stall_seconds = float(fault.get("stall_seconds", 0.0))
        # The job travels as a nested blob, pickled once for all ranks.
        return pickle.loads(assign["job_pickle"])

    def request_chunk(self) -> Optional[Tuple[Any, int]]:
        """Pull the rank's next chunk from the coordinator's service.

        Returns ``(chunk, victim_rank)``, or ``None`` once the
        coordinator answers CHUNKS_DONE and every in-flight request has
        drained.  Requests are *pipelined*: up to
        ``1 + prefetch_window`` CHUNK_REQ frames ride ahead of their
        answers, so the grant for chunk ``i+1`` is usually already in
        the socket buffer while chunk ``i`` is mapping and the
        ``grant_wait`` span measures only the exposed wait.  The
        coordinator answers strictly one frame per request, so the
        drain never leaves an answer unread (an unread grant would
        strand a chunk the service considers delivered).

        A grant whose victim is not this rank was stolen from that
        rank's queue at runtime.  A ``retry``-flagged CHUNKS_DONE
        (speculation may still free up work) re-opens the window after
        a short sleep.  Scripted fault injection from ASSIGN lives
        here: ``stall_seconds`` sleeps before every round, and the rank
        SIGKILLs itself upon receiving its ``kill_at_chunk``-th grant —
        genuinely mid-map, with requests possibly still in flight
        exactly like a real crash (recovery reclaims any grant the
        coordinator answered into the dead connection, because the
        rank never posted).
        """
        obs = self.obs
        while True:
            if self._stall_seconds:
                time.sleep(self._stall_seconds)
            while (
                not self._draining
                and self._pending_reqs < 1 + self.prefetch_window
            ):
                send_frame(
                    self._control, MSG_CHUNK_REQ, {"rank": self.rank},
                    max_frame_bytes=self.max_frame_bytes,
                )
                self._pending_reqs += 1
            if self._draining and self._pending_reqs == 0:
                return None
            w0 = time.time()
            msg_type, payload = recv_frame(
                self._control, max_frame_bytes=self.max_frame_bytes
            )
            self._pending_reqs -= 1
            if obs.enabled:
                w1 = time.time()
                obs.tracer.add_span("grant_wait", w0, w1, rank=self.rank)
                obs.metrics.histogram("grant_latency_s").observe(w1 - w0)
            if isinstance(payload, dict) and "epoch" in payload:
                self.epoch = int(payload["epoch"])
            if msg_type == MSG_CHUNKS_DONE:
                if payload.get("retry"):
                    self._draining = False
                    time.sleep(0.02)
                    continue
                self._draining = True
                continue
            if msg_type != MSG_CHUNK_GRANT:
                raise FabricError(
                    f"expected CHUNK_GRANT or CHUNKS_DONE, got "
                    f"{MSG_NAMES.get(msg_type, msg_type)}"
                )
            self._draining = False
            self._grants_received += 1
            if (
                self._kill_at_chunk is not None
                and self._grants_received >= self._kill_at_chunk
            ):
                # Die exactly as "kill -9" would: no cleanup, no
                # courtesy batches, the grant never mapped.
                os.kill(os.getpid(), signal.SIGKILL)
            return payload["chunk"], int(payload["victim"])

    def barrier(self, name: str = "start") -> None:
        """Report arrival at ``name`` and block until RESUME."""
        w0 = time.time()
        send_frame(self._control, MSG_BARRIER, {"name": name},
                   max_frame_bytes=self.max_frame_bytes)
        _, resume = recv_frame(
            self._control, max_frame_bytes=self.max_frame_bytes, expect=MSG_RESUME
        )
        self.obs.tracer.add_span(
            "barrier_wait", w0, time.time(), rank=self.rank, barrier=name
        )
        if resume.get("name") != name:
            raise FabricError(
                f"resumed from barrier {resume.get('name')!r}, expected {name!r}"
            )

    def send_result(self, output: Any, stats: Any) -> None:
        send_frame(
            self._control,
            MSG_RESULT,
            {"rank": self.rank, "output": output, "stats": stats,
             "obs": self.obs.export()},
            max_frame_bytes=self.max_frame_bytes,
        )

    def send_error(self, tb: str, stats: Any = None) -> None:
        send_frame(
            self._control,
            MSG_ERROR,
            {"rank": self.rank, "traceback": tb, "stats": stats},
            max_frame_bytes=self.max_frame_bytes,
        )

    # -- data plane: the all-to-all exchange -------------------------------
    def _send_batch(
        self,
        dest: int,
        parts: Sequence[Any],
        chunk_ids: Optional[Sequence[int]] = None,
        *,
        confirm: bool = True,
    ) -> None:
        """Deliver one batch to ``dest``, confirmed, retrying until then.

        A send is only *delivered* when the receiver's BATCH_ACK comes
        back — bytes accepted into a dead peer's kernel buffers are
        not.  Any failure (refused connect while a replacement rank is
        still rebinding its predecessor's port, a reset when the peer
        died mid-receive, an unacknowledged batch) reconnects and
        resends the whole batch until the deadline.  Receivers
        deduplicate by source rank, so a batch that was delivered but
        whose ACK was lost is simply dropped on the resend.
        """
        deadline = time.monotonic() + self.timeout_seconds
        obs = self.obs
        attempt = 0
        while True:
            attempt += 1
            if attempt > 1:
                # The previous attempt died unconfirmed; the whole
                # batch goes again (receivers dedup by source rank).
                obs.tracer.event("batch_resend", rank=self.rank, dest=dest,
                                 attempt=attempt)
                obs.metrics.counter("batch_resends").inc()
            counters: Dict[str, int] = {}
            s0 = time.time()
            try:
                with socket.create_connection(
                    self.peers[dest], timeout=self.timeout_seconds
                ) as sock:
                    if sock.getsockname() == sock.getpeername():
                        # Loopback self-connect: retrying into a dead
                        # peer's freed port can TCP-simultaneous-open
                        # onto itself, which both fakes a connection
                        # and blocks the replacement rank from
                        # rebinding that port.  Abort and back off.
                        raise OSError("self-connected to own ephemeral port")
                    sock.settimeout(self.timeout_seconds)
                    send_batch(
                        sock,
                        self.rank,
                        parts,
                        max_frame_bytes=self.max_frame_bytes,
                        compress=self.compress_exchange,
                        counters=counters,
                        chunk_ids=chunk_ids,
                    )
                    if confirm:
                        recv_raw_frame(
                            sock,
                            max_frame_bytes=self.max_frame_bytes,
                            expect=MSG_BATCH_ACK,
                        )
                break
            except (OSError, FabricError):
                if not confirm or time.monotonic() + 0.25 > deadline:
                    raise
                time.sleep(0.25)
        if obs.enabled:
            s1 = time.time()
            obs.tracer.add_span("shuffle_send", s0, s1, rank=self.rank,
                                dest=dest)
            obs.metrics.histogram("shuffle_batch_s").observe(s1 - s0)
            obs.metrics.histogram(
                "shuffle_batch_bytes", bounds=BYTES_BUCKETS
            ).observe(counters.get("bytes", 0))
        with self._frames_lock:
            self.frames_sent += counters.get("frames", 0)

    def start_inbox(self) -> None:
        """Begin accepting inbound shuffle batches in the background.

        :meth:`run_job` starts the inbox *before* its map loop: a peer
        that finishes mapping early streams its batch into this rank
        while it is still mapping, so the exchange barrier afterwards
        only waits for genuinely late data — the early-reduce overlap.
        Idempotent; :meth:`exchange` starts it lazily for direct
        callers.

        ACK discipline: a batch that arrives before this rank has
        posted MAPS_DONE is received and buffered, but its BATCH_ACK is
        *withheld* until the rank posts (:meth:`post` sends it).  An
        ACK confirms delivery, and a rank that dies mid-map must look
        undelivered-to — recovery respawns it and reclaims exactly its
        un-posted map phase, so its senders must resend to the
        replacement incarnation.  An early ACK would let a batch vanish
        with the dead process.
        """
        if self._inbox_thread is not None:
            return
        assert self.n_workers is not None, "inbox before connect()"
        expected = self.n_workers - 1
        self._inbox_thread = threading.Thread(
            target=self._inbox_loop, args=(expected,),
            name=f"gpmr-inbox-{self.rank}", daemon=True,
        )
        self._inbox_thread.start()

    def _ack(self, conn: socket.socket) -> None:
        """Confirm one received batch and hang up."""
        try:
            send_raw_frame(
                conn, MSG_BATCH_ACK, b"", max_frame_bytes=self.max_frame_bytes
            )
        except (OSError, FabricError):
            pass  # sender abandoned this attempt; it resends, dedup drops it
        try:
            conn.close()
        except OSError:
            pass

    def post(self) -> None:
        """Mark this rank's map output posted and ACK the held batches.

        The posting thread sends the withheld ACKs itself, so a sender
        whose batch arrived early is released the moment this rank
        posts, not when the inbox thread next wakes.  Idempotent.
        """
        with self._inbox_cond:
            self._posted = True
            held, self._held = self._held, []
        for conn in held:
            self._ack(conn)

    def _inbox_loop(self, expected: int) -> None:
        """Accept, dedup, and buffer inbound batches until all arrive.

        Every fully received batch is confirmed with BATCH_ACK — at
        once when this rank has posted, else by :meth:`post` (see
        :meth:`start_inbox`); a second batch from a source that already
        delivered (its ACK got lost, or a speculative-recovery resend)
        is acknowledged and dropped by the dedup on source rank.  The
        thread exits once every source has arrived.
        """
        try:
            while not self._inbox_stop.is_set():
                with self._inbox_cond:
                    if len(self._inbox_have) >= expected:
                        break
                try:
                    conn, _addr = self._shuffle_listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed; shutdown path
                try:
                    conn.settimeout(self.timeout_seconds)
                    src, parts, tags = recv_batch(
                        conn, max_frame_bytes=self.max_frame_bytes
                    )
                except ProtocolVersionError:
                    conn.close()
                    raise  # a version-skewed peer is a real failure
                except (ProtocolError, PeerDisconnected, socket.timeout,
                        OSError):
                    conn.close()  # stray or abandoned connection; drop it
                    continue
                with self._inbox_cond:
                    if int(src) not in self._inbox_have:
                        self._inbox_have.add(int(src))
                        self._inbox_batches.append((int(src), parts, tags))
                        self._inbox_cond.notify_all()
                    posted = self._posted
                    if not posted:
                        self._held.append(conn)
                if posted:
                    self._ack(conn)
        except BaseException as exc:
            with self._inbox_cond:
                self._inbox_error = exc
        finally:
            with self._inbox_cond:
                self._inbox_cond.notify_all()

    def exchange(
        self,
        parts_for: Sequence[Sequence[Any]],
        chunk_ids_for: Optional[Sequence[Sequence[int]]] = None,
    ) -> List[Tuple[int, List[Any], Optional[List[int]]]]:
        """Run the one-batch-per-(src, dst) all-to-all shuffle.

        ``parts_for[dest]`` is this rank's emission list for ``dest``;
        ``chunk_ids_for`` (optional) the matching provenance tags.
        Returns ``(source_rank, parts, chunk_ids)`` batches for *every*
        source including self, in arrival order (callers canonicalise
        with :func:`repro.exec.dataflow.merge_incoming`).  Inbound
        batches are collected by the background inbox (possibly running
        since before this rank's map phase ended — see
        :meth:`start_inbox`); this method starts the senders, waits the
        inbox out, and joins.
        """
        assert self.n_workers is not None, "exchange before connect()"
        n = self.n_workers
        errors: List[BaseException] = []

        def _sender(dest: int) -> None:
            try:
                self._send_batch(
                    dest,
                    parts_for[dest],
                    None if chunk_ids_for is None else chunk_ids_for[dest],
                )
            except BaseException as exc:  # surfaced after the joins
                errors.append(exc)

        senders = [
            threading.Thread(
                target=_sender, args=(dest,), name=f"gpmr-shuffle-to-{dest}",
                daemon=True,
            )
            for dest in range(n)
            if dest != self.rank
        ]
        for t in senders:
            t.start()

        # By the time exchange runs the map/post boundary has passed
        # (run_job posts MAPS_DONE first; direct callers have no map
        # phase at all), so withheld ACKs may flush.
        self.post()
        self.start_inbox()

        self_tags = (
            None if chunk_ids_for is None else list(chunk_ids_for[self.rank])
        )
        deadline = time.monotonic() + self.timeout_seconds
        with self._inbox_cond:
            while True:
                if self._inbox_error is not None:
                    raise FabricError(
                        f"rank {self.rank} inbox failed: {self._inbox_error}"
                    ) from self._inbox_error
                if len(self._inbox_have) >= n - 1:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FabricError(
                        f"rank {self.rank} shuffle timed out after "
                        f"{self.timeout_seconds}s; received batches only from "
                        f"{sorted(self._inbox_have | {self.rank})}"
                    )
                self._inbox_cond.wait(remaining)
        self._inbox_thread.join(timeout=self.timeout_seconds)

        for t in senders:
            t.join(timeout=self.timeout_seconds)
        if errors:
            raise FabricError(
                f"rank {self.rank} failed sending shuffle batches: {errors[0]}"
            ) from errors[0]
        with self._inbox_cond:
            batches = [(self.rank, list(parts_for[self.rank]), self_tags)]
            batches.extend(self._inbox_batches)
            # Not kept past the job: a resident rank would otherwise
            # hold the last shuffle's payload until its next ASSIGN.
            self._inbox_batches = []
        return batches

    # -- full worker flow --------------------------------------------------
    def run_job(self) -> bool:
        """Wait for the next ASSIGN, then execute the complete GPMR
        worker dataflow for it.

        Returns True once the RESULT is sent and the rank may serve
        another job; False when the coordinator closed the control
        connection instead of assigning one (the rank shuts down) or
        the job failed and its traceback went upstream as an ERROR.
        Wall-clock lands in the sim's Figure-2 buckets: ``map`` covers
        the map phase, ``bin`` the exposed exchange time, ``sort`` and
        ``reduce`` are recorded inside ``reduce_worker``.
        """
        # Imported here so repro.fabric stays importable without the
        # exec package (the wire layer is dependency-free).
        from ..core.stats import WorkerStats
        from ..exec.dataflow import MapRunner, merge_incoming, reduce_worker

        stats = WorkerStats(rank=self.rank)
        posted = False
        try:
            try:
                job = self.receive_assignment()
            except PeerDisconnected:
                return False  # the driver closed the fabric: shut down
            if not self.rejoin:
                # A replacement rank joins mid-run: the start barrier
                # already released while its predecessor was alive.
                self.barrier("start")

            tracer = self.obs.tracer
            t0 = time.perf_counter()
            runner = MapRunner(job, self.n_workers)
            # Accept peers' batches concurrently with our own map phase
            # (early-exchange overlap; ACKs withheld until we post).
            self.start_inbox()
            while True:
                grant = self.request_chunk()
                if grant is None:
                    break
                chunk, victim = grant
                if victim != self.rank:
                    stats.chunks_stolen += 1
                w0 = time.time()
                runner.feed(chunk)
                tracer.add_span("chunk_map", w0, time.time(),
                                rank=self.rank, chunk=chunk.index)
            w0 = time.time()
            mapped = runner.finish()
            tracer.add_span("map_finish", w0, time.time(), rank=self.rank)
            stats.chunks_mapped = mapped.chunks_mapped
            stats.pairs_emitted_logical = mapped.pairs_emitted_logical
            stats.bytes_sent_network = mapped.bytes_remote(self.rank)
            stats.bytes_kept_local = mapped.bytes_self(self.rank)
            t1 = time.perf_counter()
            stats.add("map", t1 - t0)

            # Announce the map/post boundary before any batch leaves:
            # once the coordinator records this rank as posted, its
            # chunks are no longer reclaimable, which is exactly when
            # its output starts reaching peers.
            send_frame(
                self._control, MSG_MAPS_DONE, {"rank": self.rank},
                max_frame_bytes=self.max_frame_bytes,
            )
            posted = True  # exchange() sends every outbound batch itself
            self.post()  # release the senders whose ACKs were withheld
            r0 = time.time()
            batches = self.exchange(mapped.parts, mapped.part_chunk_ids)
            incoming = merge_incoming(batches)
            tracer.add_span("shuffle_recv", r0, time.time(), rank=self.rank)
            t2 = time.perf_counter()
            stats.add("bin", t2 - t1)
            stats.shuffle_frames_sent = self.frames_sent

            output = reduce_worker(
                job, incoming, stats=stats,
                obs=self.obs if self.obs.enabled else None,
            )
            self.send_result(output, stats)
            return True
        except BaseException:
            if not posted and self.peers:
                # Unblock peers waiting on this rank's batch (the same
                # empty-batch courtesy the local backend's failing
                # workers extend), so survivors finish promptly instead
                # of running out their shuffle deadlines.
                for dest in range(self.n_workers or 0):
                    if dest == self.rank:
                        continue
                    try:
                        self._send_batch(dest, [], confirm=False)
                    except (OSError, FabricError):
                        pass  # peer already gone; its own deadline covers it
            # A failure that reaches the coordinator as an ERROR frame is
            # a *reported* failure (the rank then exits cleanly, like the
            # local backend's workers).  Only if shipping the traceback
            # itself fails does the exception propagate — the process
            # then dies visibly and the driver's liveness watch fires.
            self.send_error(traceback.format_exc(), stats)
            return False

    def close(self) -> None:
        self._inbox_stop.set()
        with self._inbox_cond:
            held, self._held = self._held, []
        for conn in held:
            conn.close()  # never ACKed: this rank did not post
        if self._control is not None:
            try:
                self._control.close()
            except OSError:
                pass
            self._control = None
        try:
            self._shuffle_listener.close()
        except OSError:
            pass

    def __enter__(self) -> "RankEndpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_rank(
    rank: int,
    coordinator: Tuple[str, int],
    listen_host: str = "127.0.0.1",
    advertise_host: Optional[str] = None,
    timeout_seconds: float = 120.0,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    listen_port: int = 0,
    rejoin: bool = False,
    auth_key: Optional[bytes] = None,
) -> None:
    """Join the fabric as ``rank`` and serve jobs until the driver
    closes it.

    The rank registers once and then runs every job the coordinator
    assigns, one after another, over the same control connection and
    shuffle listener.  It returns when the coordinator closes the
    connection between jobs, or after a job it reported as failed.
    The in-process entry point behind ``python -m repro.fabric.launch``
    and the process target :class:`repro.exec.cluster.ClusterExecutor`
    spawns for local ranks.  A replacement for a dead rank passes
    ``rejoin=True`` and the predecessor's exact shuffle ``listen_port``
    (so the peer directory every live rank already holds stays valid).
    """
    with RankEndpoint(
        rank,
        coordinator,
        listen_host=listen_host,
        advertise_host=advertise_host,
        timeout_seconds=timeout_seconds,
        max_frame_bytes=max_frame_bytes,
        listen_port=listen_port,
        rejoin=rejoin,
        auth_key=auth_key,
    ) as endpoint:
        endpoint.connect()
        while endpoint.run_job():
            pass
