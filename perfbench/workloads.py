"""The three workloads of record and the sessions that run their jobs.

Every workload runs n=2 ranks as a closed loop with one caller: the
next job is submitted when the previous one returns.  The benchmark
builds each input from the command-line seed; the program receives
only the dataset object (``sio-shuffle``, ``wo-stream``) or the
dataset spec (``small-jobs``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.apps import sio_dataset, sio_job, sio_validate, wo_dataset, wo_job, wo_validate
from repro.core.executor import make_executor
from repro.obs import Observability, read_jsonl
from repro.service.client import ServiceClient
from repro.service.daemon import JobService
from repro.workloads.readers import streamed

N_RANKS = 2


@dataclass
class JobOutcome:
    """One finished job as the benchmark sees it."""

    result: Any  #: the program's JobResult (outputs, stats)
    #: what the program recorded inside the job when it was traced:
    #: ``{"trace": records, "metrics": snapshot}``, else None
    obs_payload: Optional[Dict[str, Any]] = None
    #: the program's own job id (service runs), else None
    job_id: Optional[str] = None
    #: service-side extras: ingest_s, server_s, cache_hit
    service: Optional[Dict[str, Any]] = None


class ExecutorSession:
    """One warm executor per tracing mode, fed the dataset object."""

    def __init__(self, backend: str, job, dataset) -> None:
        self.backend = backend
        self.job = job
        self.dataset = dataset
        self._plain = make_executor(backend, N_RANKS)
        self._traced = None

    def run(self, traced: bool) -> JobOutcome:
        if not traced:
            return JobOutcome(self._plain.run(self.job, self.dataset))
        if self._traced is None:
            self._traced = make_executor(self.backend, N_RANKS, obs=Observability())
        result = self._traced.run(self.job, self.dataset)
        return JobOutcome(result, obs_payload=result.obs.export())

    def close(self) -> None:
        self._plain.close()
        if self._traced is not None:
            self._traced.close()


class ServiceSession:
    """An in-process job service plus one client submitting by spec.

    Traced jobs ask the service for executors built with a
    ``trace_path``; the pool keeps them warm apart from the untraced
    ones, and each traced run overwrites that file before its result
    is sent, so the file is complete when ``submit`` returns.
    """

    def __init__(self, backend: str, app: str, spec: Dict[str, Any], trace_path: str) -> None:
        self.backend = backend
        self.app = app
        self.spec = spec
        self.trace_path = trace_path
        self.service = JobService().start()
        try:
            self.client = ServiceClient(*self.service.address)
        except BaseException:
            self.service.close()
            raise

    def run(self, traced: bool) -> JobOutcome:
        kwargs = {"trace_path": self.trace_path} if traced else None
        run = self.client.submit(
            self.app, self.spec, backend=self.backend, n_gpus=N_RANKS, executor_kwargs=kwargs
        )
        extras = {
            "ingest_s": run.ingest_s,
            "server_s": run.service_elapsed,
            "cache_hit": bool(run.cache_hit),
        }
        payload = None
        if traced:
            trace = read_jsonl(self.trace_path)
            payload = {"trace": trace["records"], "metrics": trace["metrics"]}
        return JobOutcome(run.result, payload, job_id=run.job_id, service=extras)

    def service_counters(self) -> Dict[str, int]:
        return dict(self.service.obs.metrics.snapshot()["counters"])

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.service.close()
            if os.path.exists(self.trace_path):
                os.remove(self.trace_path)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str
    #: the app's registry name (submissions by spec name it)
    app: str
    #: the app's ``*_dataset`` factory and its arguments, seed excluded
    factory: Callable[..., Any]
    spec: Dict[str, Any]
    #: input elements one job processes (the items_per_s numerator)
    items: int
    #: (JobResult, dataset) -> None, raising AssertionError on a wrong answer
    validate: Callable[[Any, Any], None]
    #: dataset -> MapReduceJob for a warm executor fed the dataset
    #: object; None submits by spec to an in-process job service
    job: Optional[Callable[[Any], Any]] = None
    #: pass ``streamed(factory, ...)``: chunks materialise on the ranks
    stream: bool = False

    def full_spec(self, seed: int) -> Dict[str, Any]:
        return {**self.spec, "seed": seed}

    def build(self, seed: int):
        """The dataset the program runs on (and the oracle checks against)."""
        if self.stream:
            return streamed(self.factory, **self.full_spec(seed))
        return self.factory(**self.full_spec(seed))

    def reader(self, seed: int):
        """A driver-side reader over the same chunks, for timing synthesis."""
        return streamed(self.factory, **self.full_spec(seed)).chunk_reader

    def make_job(self, dataset):
        """The MapReduceJob for an executor session (None: by spec)."""
        return None if self.job is None else self.job(dataset)

    def open(self, job, dataset, seed: int, scratch_path: str):
        """The session that runs this workload's jobs: builds the
        executor, or starts the service and connects its client."""
        if job is None:
            return ServiceSession(self.backend, self.app, self.full_spec(seed), scratch_path)
        return ExecutorSession(self.backend, job, dataset)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="sio-shuffle",
            why=(
                "every element emits a pair, so ~16 MB per job crosses the TCP "
                "fabric and sort is half of rank time: exchange, fabric, sort, "
                "reduce and driver-side chunk synthesis show"
            ),
            backend="cluster",
            app="SIO",
            factory=sio_dataset,
            spec=dict(n_elements=4 << 20, chunk_elements=512 << 10, key_space=1 << 20),
            items=4 << 20,
            validate=sio_validate,
            job=lambda ds: sio_job(ds.key_space),
        ),
        Workload(
            name="wo-stream",
            why=(
                "streamed chunks materialise on ranks and feed the accumulator; "
                "the shuffle is KB-sized, so map and readers do ~80% of the work "
                "and exchange or sort changes should not move it"
            ),
            backend="local",
            app="WO",
            factory=wo_dataset,
            spec=dict(n_chars=8 << 20, chunk_chars=1 << 20),
            items=8 << 20,
            validate=wo_validate,
            job=lambda ds: wo_job(N_RANKS, n_words=len(ds.dictionary)),
            stream=True,
        ),
        Workload(
            name="small-jobs",
            why=(
                "a 32k-int SIO job submitted by spec to a warm service: ~14 ms of "
                "work in a ~125 ms job, so rank lifecycle, grant latency and the "
                "service's fixed costs dominate"
            ),
            backend="local",
            app="SIO",
            factory=sio_dataset,
            spec=dict(n_elements=32 << 10, chunk_elements=4 << 10, key_space=1 << 14),
            items=32 << 10,
            validate=sio_validate,
        ),
    ]
}
