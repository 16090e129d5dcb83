#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic and its declared metrics.

Every benchmark run calls :func:`run_all` first (it takes milliseconds);
``python3 perfbench/selftest.py`` runs it alone.  Checks raise
:class:`SelfTestFailure`, never ``assert``, so they hold under ``-O``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SelfTestFailure(AssertionError):
    pass


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestFailure(what)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_percentile() -> None:
    from arith import percentile, summarize, tail_count

    _check(_close(percentile([4, 1, 3, 2], 0.5), 2.5), "p50 of 1..4 is 2.5")
    values = list(range(1, 11))
    _check(_close(percentile(values, 0.9), 9.1), "p90 of 1..10 interpolates to 9.1")
    _check(percentile(values, 0.0) == 1 and percentile(values, 1.0) == 10, "p0/p100 are min/max")
    _check(percentile([7.0], 0.9) == 7.0, "one sample is every percentile")
    hundred = list(range(1, 101))
    _check(tail_count(hundred, 0.9) == 10, "p90 of 100 samples has 10 beyond it")
    _check(tail_count(values, 0.9) == 1, "p90 of 10 samples has 1 beyond it")
    s = summarize([3.0, 1.0, 2.0])
    _check(s["n"] == 3 and s["p50"] == statistics.median([3.0, 1.0, 2.0]), "summary count/median")
    try:
        percentile([], 0.5)
    except ValueError:
        pass
    else:
        raise SelfTestFailure("percentile of no samples must raise")


def test_union() -> None:
    from arith import union_length

    _check(_close(union_length([(0, 2), (1, 3), (5, 6)]), 4.0), "overlaps count once")
    _check(_close(union_length([(0, 10), (2, 3)]), 10.0), "nested spans count once")
    _check(_close(union_length([(5, 6), (0, 2), (1, 3)], clip=(1.5, 5.5)), 2.0), "clipped union")
    _check(union_length([]) == 0.0 and union_length([(3, 3)]) == 0.0, "empty union is 0")
    _check(_close(union_length([(0, 1), (1, 2)]), 2.0), "touching spans")
    _check(_close(union_length([(2, 3), (2.5, 4), (12, 13)], clip=(0, 10)), 2.0), "cover of a span")


def test_digest() -> None:
    import numpy as np
    from arith import digest_outputs
    from repro.core.kvset import KeyValueSet

    def outputs():
        return [
            KeyValueSet(np.arange(6, dtype=np.uint32), np.arange(6, dtype=np.int64) * 3),
            None,
        ]

    ref = digest_outputs(outputs())
    _check(digest_outputs(outputs()) == ref, "equal outputs, equal digests")
    flipped = outputs()
    flipped[0].values[4] += 1
    _check(digest_outputs(flipped) != ref, "one flipped value changes the digest")
    _check(digest_outputs(outputs()[::-1]) != ref, "rank order is part of the digest")
    empty = [KeyValueSet.empty(value_dtype=np.int64), None]
    _check(digest_outputs(empty) != digest_outputs([None, None]), "empty output is not None")


def test_layer_metrics() -> None:
    from metrics import PER_LAYER, layer_metrics

    def span(name, ts, dur, rank=None, job=None, **args):
        rec = {"ev": "span", "name": name, "ts": ts, "dur": dur, "rank": rank, "chunk": None}
        if job is not None:
            rec["job"] = job
        if args:
            rec["args"] = args
        return rec

    stats = {"workers": [
        {"pairs_emitted_logical": 5, "chunks_mapped": 1, "bytes_sent_network": 40,
         "bytes_kept_local": 8, "shuffle_frames_sent": 2},
        {"pairs_emitted_logical": 7, "chunks_mapped": 1, "bytes_sent_network": 24,
         "bytes_kept_local": 4, "shuffle_frames_sent": 1},
    ], "retries_by_worker": [0, 0]}
    records = [
        span("bench.job", 10.0, 1.0, traced=False, wall_s=1.0),
        span("bench.job", 20.0, 1.0, job="t1", traced=True, wall_s=1.25, stats=stats, keys_out=9),
        span("chunk_map", 20.1, 0.2, rank=0, job="t1"),
        span("chunk_map", 20.2, 0.3, rank=1, job="t1"),
        span("shuffle_send", 20.6, 0.1, rank=0, job="t1"),
        # covers the send: only 0.1 s of it is waiting
        span("shuffle_recv", 20.6, 0.2, rank=0, job="t1"),
        span("sort", 20.9, 0.05, rank=1, job="t1"),
        {"ev": "event", "name": "grant", "ts": 20.1, "rank": 0, "chunk": 0, "job": "t1"},
        {"ev": "event", "name": "grant", "ts": 20.2, "rank": 1, "chunk": 1, "job": "t1"},
        # outside the job's window: does not count as attributed
        span("reduce", 21.5, 0.2, rank=1, job="t1"),
    ]
    for name in ("bench.open", "bench.close", "bench.dataset_build",
                 "bench.resolve_chunks", "bench.materialize"):
        records.append(span(name, 1.0, 0.5))
    got = layer_metrics({"records": records, "metrics": {}})
    _check(list(got) == [name for name, *_ in PER_LAYER], "every per-layer metric, in order")
    # rank spans cover [20.1, 20.5] and [20.6, 20.8] and [20.9, 20.95] of [20, 21]
    _check(_close(got["exec.unattributed_s"], 1.0 - 0.65), "unattributed = wall - span union")
    _check(_close(got["exec.unattributed_share"], 0.35), "unattributed share")
    _check(_close(got["exchange.shuffle_recv_wait_s"], 0.1), "recv wait excludes own sends")
    _check(_close(got["map.chunk_map_s"], 0.3), "per-rank values take the slowest rank")
    _check(got["scheduler.chunks_granted"] == 2 and got["map.pairs_emitted"] == 12, "counts")
    _check(got["exchange.bytes_network"] == 64 and got["reduce.keys_out"] == 9, "bytes/keys")
    _check(_close(got["obs.trace_overhead_share"], 0.25), "traced p50 / untraced p50 - 1")
    _check(got["service.cache_hit_ratio"] == 0.0, "no service, zero service metrics")


def test_declared_metrics() -> None:
    """BENCHMARK.json lists exactly what the code reports, with its units."""
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    _check(declared == list(END_TO_END), "BENCHMARK.json end_to_end matches metrics.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    _check(declared == [m[:3] for m in PER_LAYER],
           "BENCHMARK.json per_layer matches metrics.PER_LAYER")
    declared = [(w["name"], w["why"]) for w in spec["workloads"]]
    _check(declared == [(w.name, w.why) for w in WORKLOADS.values()],
           "BENCHMARK.json workloads (name, why) match workloads.WORKLOADS")


TESTS = (test_percentile, test_union, test_digest, test_layer_metrics, test_declared_metrics)


def run_all() -> None:
    for test in TESTS:
        test()


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    run_all()
    print(f"selftest: {len(TESTS)} checks passed")
