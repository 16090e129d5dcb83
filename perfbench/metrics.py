"""Metric definitions and the per-layer metrics computed from a trace file.

End-to-end metrics come from untraced jobs; per-layer metrics come from
the traced run's JSONL file alone (``repro.obs.view`` opens the same
file), so a regressed number leads straight to the spans behind it.
Per-rank values are the maximum over ranks, because the slowest rank
sets the job's time, and per-job values are the median over the traced
jobs.

Each per-layer metric names the end-to-end metric it should move and
on which workload; a later change that claims a gain cites these.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List

from arith import percentile, union_length

#: (name, unit, better) of every end-to-end metric, as BENCHMARK.json lists them
END_TO_END = (
    ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_E2E_JOB = "job_p50_s/job_p90_s/items_per_s"

#: (name, unit, better, prediction) of every per-layer metric
PER_LAYER = (
    ("exec.unattributed_s", "s", "lower",
     f"{_E2E_JOB} on small-jobs (most of the job); a smaller share on sio-shuffle and wo-stream"),
    ("exec.unattributed_share", "ratio", "lower",
     "same as exec.unattributed_s; base job_p50 of the traced jobs"),
    ("exec.make_executor_s", "s", "lower", "setup_s on every workload"),
    ("exec.close_s", "s", "lower", "setup_s on every workload"),
    ("workloads.dataset_build_s", "s", "lower", "setup_s on every workload"),
    ("workloads.resolve_chunks_s", "s", "lower",
     "job_p50_s on sio-shuffle (chunk synthesis inside run)"),
    ("workloads.materialize_s", "s", "lower",
     "job_p50_s on sio-shuffle and on wo-stream (inside chunk_map)"),
    ("scheduler.grant_wait_s", "s", "lower", "job_p50_s on small-jobs and wo-stream (prefetch)"),
    ("scheduler.grant_latency_p50_s", "s", "lower", "job_p50_s on small-jobs and wo-stream"),
    ("scheduler.chunks_granted", "count", "lower", "count per job; fixed by the input (8)"),
    ("scheduler.steals", "count", "lower", "count per job; job_p50_s on small-jobs and wo-stream"),
    ("scheduler.retries", "count", "lower", "count per job; 0 without faults"),
    ("map.chunk_map_s", "s", "lower", f"{_E2E_JOB} on wo-stream; smaller share on sio-shuffle"),
    ("map.pairs_emitted", "count", "lower", "count per job; fixed by the input"),
    ("map.chunks_mapped", "count", "lower", "count per job; fixed by the input (8)"),
    ("exchange.shuffle_send_s", "s", "lower",
     "job_p50_s and peak_rss_mb on sio-shuffle; no move on wo-stream"),
    ("exchange.shuffle_recv_wait_s", "s", "lower",
     "job_p50_s on sio-shuffle; no move on wo-stream"),
    ("exchange.batch_p50_s", "s", "lower", "job_p50_s on sio-shuffle; no move on wo-stream"),
    ("exchange.bytes_network", "bytes", "lower",
     "bytes per job; peak_rss_mb and job_p50_s on sio-shuffle"),
    ("exchange.bytes_local", "bytes", "lower", "bytes per job kept on their own rank"),
    ("exchange.frames", "count", "lower", "wire frames per job (cluster backend; 0 on local)"),
    ("fabric.barrier_wait_s", "s", "lower", "job_p50_s on sio-shuffle (0 on local)"),
    ("sort.sort_s", "s", "lower", "job_p50_s on sio-shuffle; no move on wo-stream"),
    ("reduce.reduce_s", "s", "lower", "job_p50_s on sio-shuffle; no move on wo-stream"),
    ("reduce.keys_out", "count", "higher", "count per job; fixed by the input"),
    ("service.ingest_s", "s", "lower", "job_p50_s on small-jobs only (0 elsewhere)"),
    ("service.server_p50_s", "s", "lower", "job_p50_s on small-jobs only (0 elsewhere)"),
    ("service.client_overhead_s", "s", "lower", "job_p50_s on small-jobs only (0 elsewhere)"),
    ("service.cache_hit_ratio", "ratio", "higher",
     "job_p50_s on small-jobs only; base service.cache_lookups"),
    ("service.cache_lookups", "count", "higher", "base of service.cache_hit_ratio"),
    ("service.pool_warm_ratio", "ratio", "higher",
     "job_p50_s on small-jobs only; base service.pool_leases"),
    ("service.pool_leases", "count", "higher", "base of service.pool_warm_ratio"),
    ("obs.trace_overhead_share", "ratio", "lower",
     "traced job_p50_s / untraced job_p50_s - 1; no bound"),
    ("obs.traced_jobs", "count", "higher", "base of every per-job median above"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _job_row(bench_job: Dict[str, Any], recs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-job values of one traced job from its program records."""
    t0 = bench_job["ts"]
    window = (t0, t0 + bench_job["dur"])
    spans = [r for r in recs if r["ev"] == "span" and r.get("rank") is not None]
    busy = defaultdict(lambda: defaultdict(float))  # name -> rank -> seconds
    sends = defaultdict(list)  # rank -> send intervals
    for s in spans:
        busy[s["name"]][s["rank"]] += s["dur"]
        if s["name"] == "shuffle_send":
            sends[s["rank"]].append((s["ts"], s["ts"] + s["dur"]))
    # On the cluster backend the receive span also covers the sends;
    # the wait is the part no send of the same rank covers.
    recv_wait = defaultdict(float)
    for s in spans:
        if s["name"] == "shuffle_recv":
            iv = (s["ts"], s["ts"] + s["dur"])
            recv_wait[s["rank"]] += s["dur"] - union_length(sends[s["rank"]], clip=iv)

    def worst(name: str) -> float:
        return max(busy[name].values(), default=0.0)

    attributed = union_length(((s["ts"], s["ts"] + s["dur"]) for s in spans), clip=window)
    stats = bench_job["args"]["stats"]
    workers = stats["workers"]
    return {
        "exec.unattributed_s": bench_job["dur"] - attributed,
        "exec.unattributed_share": (bench_job["dur"] - attributed) / bench_job["dur"],
        "scheduler.grant_wait_s": worst("grant_wait"),
        "scheduler.chunks_granted": sum(
            1 for r in recs if r["ev"] == "event" and r["name"] == "grant"
        ),
        "scheduler.steals": sum(1 for r in recs if r["ev"] == "event" and r["name"] == "steal"),
        "scheduler.retries": sum(stats["retries_by_worker"]),
        "map.chunk_map_s": worst("chunk_map"),
        "map.pairs_emitted": sum(w["pairs_emitted_logical"] for w in workers),
        "map.chunks_mapped": sum(w["chunks_mapped"] for w in workers),
        "exchange.shuffle_send_s": worst("shuffle_send"),
        "exchange.shuffle_recv_wait_s": max(recv_wait.values(), default=0.0),
        "exchange.bytes_network": sum(w["bytes_sent_network"] for w in workers),
        "exchange.bytes_local": sum(w["bytes_kept_local"] for w in workers),
        "exchange.frames": sum(w["shuffle_frames_sent"] for w in workers),
        "fabric.barrier_wait_s": worst("barrier_wait"),
        "sort.sort_s": worst("sort"),
        "reduce.reduce_s": worst("reduce"),
        "reduce.keys_out": bench_job["args"]["keys_out"],
    }


def layer_metrics(trace: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric from one loaded trace (``read_jsonl`` form)."""
    records = trace["records"]
    bench = defaultdict(list)
    program = defaultdict(list)  # job id -> that job's program records
    for r in records:
        if r["name"].startswith("bench."):
            bench[r["name"]].append(r)
        else:
            program[r.get("job")].append(r)
    jobs = bench["bench.job"]
    traced = [j for j in jobs if j["args"]["traced"]]
    plain = [j for j in jobs if not j["args"]["traced"]]
    if not traced or not plain:
        raise ValueError("trace holds no traced or no untraced bench.job spans")

    rows = [_job_row(j, program[j["job"]]) for j in traced]
    out = {name: _median([row[name] for row in rows]) for name in rows[0]}

    def durations(name: str) -> List[float]:
        return [r["dur"] for r in records if r["ev"] == "span" and r["name"] == name
                and r.get("rank") is not None]

    def span_median(name: str) -> float:
        return _median([r["dur"] for r in bench[name]])

    grant_waits, sends = durations("grant_wait"), durations("shuffle_send")
    out["scheduler.grant_latency_p50_s"] = percentile(grant_waits, 0.5) if grant_waits else 0.0
    out["exchange.batch_p50_s"] = percentile(sends, 0.5) if sends else 0.0
    out["exec.make_executor_s"] = span_median("bench.open")
    out["exec.close_s"] = span_median("bench.close")
    out["workloads.dataset_build_s"] = span_median("bench.dataset_build")
    out["workloads.resolve_chunks_s"] = span_median("bench.resolve_chunks")
    out["workloads.materialize_s"] = span_median("bench.materialize")

    traced_p50 = _median([j["args"]["wall_s"] for j in traced])
    plain_p50 = _median([j["args"]["wall_s"] for j in plain])
    out["obs.trace_overhead_share"] = traced_p50 / plain_p50 - 1
    out["obs.traced_jobs"] = len(traced)

    service = [j["args"]["service"] for j in traced if j["args"].get("service")]
    counters = (trace.get("metrics") or {}).get("counters", {})
    if service:
        server_p50 = _median([s["server_s"] for s in service])
        hits = counters.get("dataset_cache_hits", 0)
        misses = counters.get("dataset_cache_misses", 0)
        warm, cold = counters.get("pool_warm_hits", 0), counters.get("pool_cold_builds", 0)
        out.update({
            "service.ingest_s": _median([s["ingest_s"] for s in service]),
            "service.server_p50_s": server_p50,
            "service.client_overhead_s": traced_p50 - server_p50,
            "service.cache_lookups": hits + misses,
            "service.cache_hit_ratio": hits / (hits + misses),
            "service.pool_leases": warm + cold,
            "service.pool_warm_ratio": warm / (warm + cold),
        })
    else:
        out.update({name: 0.0 for name, *_ in PER_LAYER if name.startswith("service.")})
    return {name: out[name] for name, *_ in PER_LAYER}
