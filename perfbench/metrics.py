"""Metric names, units and the arithmetic shared by the three workloads."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench import common
from perfbench.tracing import Summary

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Scale:
    """Sizes, query counts and set-up repeats of the workloads (tests
    shrink them)."""

    sim_size: int = 100_000
    #: Rounds of ``sim``'s query phase, and of the fault probe it replays.
    sim_rounds: int = 80
    probe_rounds: int = 30
    shard_size: int = 20_000
    shard_rounds: int = 40
    shard_workers: int = 2
    shard_setups: int = 3
    serve_setups: int = 3


@dataclass
class Phase:
    """A closed-loop query phase: its entries and wall-clock window.

    Entries carry at least ``kind``, ``latency`` (seconds) and ``error``
    (None for a query that returned).
    """

    entries: list
    t0: float
    t1: float

    @property
    def completed(self) -> list:
        return [entry for entry in self.entries if entry.error is None]

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def rounds(self) -> int:
        return len(self.entries) // (common.LIGHT_PER_ROUND + 1)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    problems: List[str]
    metrics: Metrics
    info: Dict[str, object]


#: End-to-end metrics with their units (every workload reports each).
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "qps": "queries/s",
    "cpu_ms_per_query": "ms",
    "msgs_per_query": "messages",
    "lat_p50_ms.light": "ms",
    "lat_p90_ms.light": "ms",
    "lat_p50_ms.heavy": "ms",
}

#: Every per-layer metric with its unit. A layer a workload does not run
#: reads 0 on that workload (e.g. the codec on ``sim``).
LAYER_UNITS = {
    "sim.deployment.populate_s": "s",
    "sim.deployment.bootstrap_s": "s",
    "sim.deployment.issue_ms_per_query": "ms",
    "python.gc.pause_ms_per_query": "ms",
    "python.gc.full_collections": "count",
    "sim.engine.events_per_query": "count",
    "sim.engine.self_ms_per_query": "ms",
    "sim.network.sends_per_query": "count",
    "sim.network.self_ms_per_query": "ms",
    "core.node.messages_handled_per_query": "count",
    "core.node.self_ms_per_query": "ms",
    "core.node.hedges_per_query": "count",
    "core.node.duplicates_per_query": "count",
    "core.store.populate_s": "s",
    "sim.shard.bootstrap_s": "s",
    "sim.shard.worker_build_s": "s",
    "sim.shard.windows_per_query": "count",
    "sim.shard.round_trips_per_query": "count",
    "sim.shard.crossings_per_window": "count",
    "sim.shard.master_self_ms_per_query": "ms",
    "sim.shard.send_ms_per_query": "ms",
    "sim.shard.master_wait_ms_per_query": "ms",
    "sim.shard.master_cpu_ms_per_query": "ms",
    "sim.shard.worker_cpu_ms_per_query": "ms",
    "sim.shard.worker_rss_mb": "MB",
    "server.front_door_ms_per_query": "ms",
    "runtime.aio.query_ms_p50": "ms",
    "runtime.aio.datagrams_per_query": "count",
    "runtime.aio.bytes_per_query": "bytes",
    "runtime.aio.receive_self_ms_per_query": "ms",
    "runtime.aio.send_self_ms_per_query": "ms",
    "runtime.aio.loop_lag_ms_p90": "ms",
    "runtime.reliable.self_ms_per_query": "ms",
    "core.codec.encode_ms_per_query": "ms",
    "core.codec.decode_ms_per_query": "ms",
    "core.codec.frames_per_query": "count",
    "trace.traced_ms_per_query": "ms",
    "trace.other_ms_per_query": "ms",
    "trace.overhead_ms_per_query": "ms",
}


def per_query(total: float, count: int) -> float:
    return total / count if count else 0.0


def ms(seconds: float, count: int) -> float:
    """Seconds spread over *count* queries, in milliseconds per query."""
    return per_query(seconds * 1000.0, count)


def zero_layers() -> Metrics:
    """Every per-layer metric at 0, to be overwritten by those that apply."""
    return {name: (0.0, unit) for name, unit in LAYER_UNITS.items()}


def end_to_end(
    phase: Phase, setups: List[float], peak_mb: float, cpu_s: float,
    messages: float,
) -> Tuple[Metrics, Dict[str, object]]:
    """The end-to-end metrics of an untraced run, and the sample counts."""
    n = len(phase.completed)
    light = [e.latency * 1000.0 for e in phase.completed if e.kind == "light"]
    heavy = [e.latency * 1000.0 for e in phase.completed if e.kind == "heavy"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "qps": (per_query(n, phase.wall), "queries/s"),
        "cpu_ms_per_query": (ms(cpu_s, n), "ms"),
        "msgs_per_query": (per_query(messages, n), "messages"),
        "lat_p50_ms.light": (common.percentile(light, 0.5), "ms"),
        "lat_p90_ms.light": (common.percentile(light, 0.9), "ms"),
        "lat_p50_ms.heavy": (common.percentile(heavy, 0.5), "ms"),
    }
    info = {
        "rounds": phase.rounds,
        "setup_samples": setups,
        "samples": {
            "light": len(light),
            "heavy": len(heavy),
            "light_above_p90": common.above_rank(len(light), 0.9),
            "setup": len(setups),
        },
    }
    return metrics, info


def record_metrics(phase: Phase) -> Metrics:
    """Hedges and duplicate receptions per query, from the QueryRecords."""
    done = phase.completed
    return {
        "core.node.hedges_per_query": (
            per_query(sum(e.hedges for e in done), len(done)), "count"),
        "core.node.duplicates_per_query": (
            per_query(sum(e.duplicates for e in done), len(done)), "count"),
    }


def breakdown_metrics(
    spans: Summary, phase: Phase, tail: Phase,
    tail_collector_s: Optional[float],
) -> Metrics:
    """Collector, traced-time, remainder and tracing-overhead metrics.

    The traced time per query is the traced phase's wall time over its
    completed queries; ``other`` is what the layers' self times leave of
    it, so the two always add up. The overhead compares the traced phase
    with the untraced tail; when the tail's collector pauses are known
    (*tail_collector_s*), both sides leave collector pauses out, because
    the build's collector debt falls on the first phase only.
    """
    n = len(phase.completed)
    traced = ms(phase.wall, n)
    if tail_collector_s is None:
        overhead = traced - ms(tail.wall, len(tail.completed))
    else:
        overhead = ms(phase.wall - spans.collector_s(), n) - ms(
            tail.wall - tail_collector_s, len(tail.completed)
        )
    return {
        "python.gc.pause_ms_per_query": (ms(spans.collector_s(), n), "ms"),
        "python.gc.full_collections": (float(spans.collections(2)), "count"),
        "trace.traced_ms_per_query": (traced, "ms"),
        "trace.other_ms_per_query": (
            traced - ms(sum(spans.layers().values()), n), "ms"),
        "trace.overhead_ms_per_query": (overhead, "ms"),
    }


def layer_breakdown(spans: Summary, phase: Phase) -> Dict[str, float]:
    """Self ms per query of every traced layer, plus ``other``."""
    n = len(phase.completed)
    parts = {
        layer: ms(seconds, n)
        for layer, seconds in sorted(spans.layers().items())
        if seconds > 0.0
    }
    parts["other"] = ms(phase.wall, n) - sum(parts.values())
    return parts
