"""The ``sim`` and ``shard`` workloads: closed-loop queries on a converged
overlay, built in one process or partitioned over forked shard workers."""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import common
from perfbench.metrics import (
    Outcome,
    Phase,
    Scale,
    breakdown_metrics,
    end_to_end,
    layer_breakdown,
    ms,
    per_query,
    record_metrics,
    zero_layers,
)
from perfbench.oracle import Population, box_of, check_result
from perfbench.tracing import Summary, Tracer, message_query_id

_now = time.perf_counter

#: Table 1 of the paper: f = 0.125 and sigma = 50 for the light stream.
LIGHT_SELECTIVITY = 0.125
LIGHT_SIGMA = 50
#: Heavy queries are exhaustive worst-case boxes, which straddle the
#: coarsest split of every dimension. On ``shard`` (N = 20,000) the box is
#: 3 cells wide per dimension, about 146 matches. On ``sim`` (N = 100,000)
#: the seeded stream uses the 2-wide box, about 100 matches, still routed
#: on every dimension and level: the 3-wide box (f = 0.01, about 740
#: matches) loses matches after a hedged forward on some seeds only (see
#: README, "Faults"), and a failure that depends on the seed would make
#: the share of failed queries differ between runs. The fault probe below
#: runs the 3-wide box on fixed inputs instead.
SIM_HEAVY_SELECTIVITY = 0.001
SHARD_HEAVY_SELECTIVITY = 0.01
#: The fault probe: every ``sim`` run also builds the Table-1 deployment
#: of seed 2 and issues the first 30 rounds of seed 2's stream with the
#: 3-wide heavy box (f = 0.01). Query 263 (counting from 0) is hedged and
#: comes back with 220 of its 713 matches. The probe's inputs do not
#: depend on ``--seed`` and the simulation is deterministic, so every run
#: counts the same failed query until ``core.node`` is fixed; its build
#: is one of ``sim``'s set-up samples, and none of its queries is timed.
PROBE_SEED = 2
PROBE_HEAVY_SELECTIVITY = 0.01
@dataclass
class Entry:
    """One issued query and what came back."""

    kind: str
    query: object
    sigma: Optional[int]
    addresses: List[int]
    latency: float
    error: Optional[str]
    hedges: int
    duplicates: int


def _stream(schema, seed: int, heavy_selectivity: float):
    from repro.workloads.queries import aligned_selectivity_query, worst_case_query

    return common.rounds(
        seed,
        lambda rng: aligned_selectivity_query(schema, LIGHT_SELECTIVITY, rng),
        lambda rng: worst_case_query(schema, heavy_selectivity, rng),
    )


def query_phase(deployment, collector, stream, rounds: int) -> Phase:
    """Issue *rounds* whole rounds of *stream*, one query at a time.

    Each query waits for the previous one (closed loop); the origin is
    left to the deployment's own seeded draw.
    """
    entries: List[Entry] = []
    t0 = _now()
    for _ in range(rounds):
        for kind, query in next(stream):
            sigma = LIGHT_SIGMA if kind == "light" else None
            started = _now()
            try:
                found = deployment.execute_query(query, sigma=sigma)
                error = None
            except Exception as exc:  # noqa: BLE001 - counted as a failed query
                found, error = [], f"{type(exc).__name__}: {exc}"
            latency = _now() - started
            record = collector.consume_opened()
            entries.append(Entry(
                kind, query, sigma, [d.address for d in found], latency,
                error,
                record.hedges if record is not None else 0,
                record.duplicates if record is not None else 0,
            ))
    return Phase(entries, t0, _now())


def check_phases(
    phases: List[Phase], population: Population
) -> Tuple[int, List[str]]:
    """Oracle-check every result; returns (failed queries, problems)."""
    failed, problems = 0, []
    for phase in phases:
        for number, entry in enumerate(phase.entries):
            issues = (
                [entry.error] if entry.error is not None
                else check_result(
                    entry.addresses,
                    population.matching(box_of(entry.query, population.names)),
                    entry.sigma,
                )
            )
            if issues:
                failed += 1
                problems.append(
                    f"{entry.kind} query {number}: {'; '.join(issues)}"
                )
    return failed, problems


def _population_of(descriptors, schema) -> Population:
    names = [definition.name for definition in schema.definitions]
    addresses, values = [], []
    for descriptor in descriptors:
        addresses.append(descriptor.address)
        values.append(descriptor.values)
    return Population(names, addresses, values)


def _in_child(work: Callable[[], Dict]) -> Dict:
    """Run *work* in a forked child and return the JSON object it returns.

    The child leaves without tearing its heap down, so a build there
    costs one build and leaves this process's memory and collector state
    as they were.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(read_end)
            reply = json.dumps(work()).encode()
            while reply:
                reply = reply[os.write(write_end, reply):]
            code = 0
        except BaseException:  # noqa: BLE001 - report, then leave via _exit
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_end)
    chunks = []
    try:
        while True:
            chunk = os.read(read_end, 65536)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    if not chunks:
        raise RuntimeError("the forked child process failed")
    return json.loads(b"".join(chunks))


def _fault_probe(config, rounds: int) -> Dict:
    """Build the probe deployment, time the build, run and check the probe.

    Runs in a forked child (see ``PROBE_SEED``); returns the build's
    seconds and the probe's attempted and failed queries.
    """
    from repro.experiments.harness import build_deployment

    schema = config.schema()
    started = _now()
    deployment, collector = build_deployment(config)
    setup = _now() - started
    stream = _stream(schema, config.seed, PROBE_HEAVY_SELECTIVITY)
    phase = query_phase(deployment, collector, stream, rounds)
    population = _population_of(
        (host.descriptor for host in deployment.hosts.values()), schema
    )
    failed, problems = check_phases([phase], population)
    return {
        "setup_s": setup, "attempted": len(phase.entries), "failed": failed,
        "problems": problems,
    }


def _save_spans(tracer: Tracer, workload: str, seed: int) -> str:
    os.makedirs(common.OUT, exist_ok=True)
    path = os.path.join(common.OUT, f"spans-{workload}-{seed}.npz")
    tracer.save(path)
    return os.path.relpath(path, common.ROOT)


def _traced_info(tracer, workload, seed, phase, tail, breakdown):
    return {
        "rounds": phase.rounds,
        "spans": _save_spans(tracer, workload, seed),
        "samples": {
            "traced": len(phase.completed), "untraced": len(tail.completed),
        },
        "breakdown_ms_per_query": breakdown,
    }


# -- sim ---------------------------------------------------------------------------


def run_sim(seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    """Single-process ``Deployment`` at the Table-1 PeerSim setting.

    The run issues a fixed ``scale.sim_rounds`` rounds; *seconds* does
    not bound it (see README, "Query streams and seeds").
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.harness import build_deployment

    config = ExperimentConfig(network_size=scale.sim_size, seed=seed)
    schema = config.schema()
    probe_config = ExperimentConfig(network_size=scale.sim_size, seed=PROBE_SEED)
    # Forked before any wrapper is installed, so the probe runs untraced.
    probe = _in_child(lambda: _fault_probe(probe_config, scale.probe_rounds))
    tracer = _trace_sim(Tracer()) if trace else None

    started = _now()
    deployment, collector = build_deployment(config)
    setups = [probe["setup_s"], _now() - started]

    stream = _stream(schema, seed, SIM_HEAVY_SELECTIVITY)
    common.pin()
    cpu0, msgs0 = time.process_time(), deployment.network.messages_sent
    phase = query_phase(deployment, collector, stream, scale.sim_rounds)
    cpu = time.process_time() - cpu0
    msgs = deployment.network.messages_sent - msgs0
    peak_mb = common.status_mb(os.getpid(), "VmHWM")
    phases = [phase]
    if tracer is not None:
        tracer.uninstall(keep_collector=True)
        tail = query_phase(deployment, collector, stream, scale.sim_rounds // 2)
        tracer.uninstall()
        phases.append(tail)

    population = _population_of(
        (host.descriptor for host in deployment.hosts.values()), schema
    )
    failed, problems = check_phases(phases, population)
    if tracer is None:
        metrics, info = end_to_end(phase, setups, peak_mb, cpu, msgs)
    else:
        metrics, breakdown = _sim_layers(tracer, phase, tail, msgs)
        info = _traced_info(tracer, "sim", seed, phase, tail, breakdown)
    for problem in probe["problems"]:
        print(f"perfbench: known fault (fault probe, seed {PROBE_SEED}): "
              f"{problem}", file=sys.stderr)
    info["fault_probe"] = {
        "seed": PROBE_SEED, "attempted": probe["attempted"],
        "failed": probe["failed"],
    }
    # The probe's failures are counted, but they do not fail the run: they
    # show a known fault on inputs that are the same in every run.
    attempted = sum(len(p.entries) for p in phases) + probe["attempted"]
    return Outcome(
        attempted, failed + probe["failed"], problems, metrics, info
    )


def _trace_sim(tracer: Tracer) -> Tracer:
    from repro.core.node import ResourceNode
    from repro.sim.deployment import Deployment
    from repro.sim.engine import Simulator
    from repro.sim.network import SimNetwork

    tracer.wrap(Deployment, "populate", "sim.deployment.build:populate")
    tracer.wrap(Deployment, "bootstrap", "sim.deployment.build:bootstrap")
    tracer.wrap(Deployment, "execute_query", "sim.deployment:execute_query")
    tracer.wrap(Simulator, "step", "sim.engine:step")
    tracer.wrap(SimNetwork, "send", "sim.network:send", message_query_id(3))
    tracer.wrap(
        ResourceNode, "handle_message", "core.node:handle_message",
        message_query_id(2),
    )
    tracer.wrap(ResourceNode, "issue_query", "core.node:issue_query")
    tracer.watch_collector()
    return tracer


def _sim_layers(tracer: Tracer, phase: Phase, tail: Phase, msgs: int):
    columns = tracer.arrays()
    build = Summary(columns, float("-inf"), phase.t0)
    spans = Summary(columns, phase.t0, phase.t1)
    n = len(phase.completed)
    metrics = zero_layers()
    metrics.update({
        "sim.deployment.populate_s": (
            float(build.durations["sim.deployment.build:populate"].sum()), "s"),
        "sim.deployment.bootstrap_s": (
            float(build.durations["sim.deployment.build:bootstrap"].sum()), "s"),
        "sim.deployment.issue_ms_per_query": (
            ms(spans.layer_self_s("sim.deployment"), n), "ms"),
        "sim.engine.events_per_query": (
            per_query(spans.layer_count("sim.engine"), n), "count"),
        "sim.engine.self_ms_per_query": (
            ms(spans.layer_self_s("sim.engine"), n), "ms"),
        "sim.network.sends_per_query": (per_query(msgs, n), "count"),
        "sim.network.self_ms_per_query": (
            ms(spans.layer_self_s("sim.network"), n), "ms"),
        "core.node.messages_handled_per_query": (
            per_query(spans.layer_count("core.node", "handle_message"), n),
            "count"),
        "core.node.self_ms_per_query": (
            ms(spans.layer_self_s("core.node"), n), "ms"),
    })
    metrics.update(record_metrics(phase))
    tail_collector_s = Summary(columns, tail.t0, tail.t1).collector_s()
    metrics.update(breakdown_metrics(spans, phase, tail, tail_collector_s))
    return metrics, layer_breakdown(spans, phase)


# -- shard -------------------------------------------------------------------------


def run_shard(seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    """``ShardedDeployment`` in process mode with forked shard workers.

    The run issues a fixed ``scale.shard_rounds`` rounds; *seconds* does
    not bound it (see README, "Query streams and seeds").
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.scale import build_sharded_deployment

    config = ExperimentConfig(network_size=scale.shard_size, seed=seed)
    schema = config.schema()
    tracer = _trace_shard_build(Tracer()) if trace else None
    setups = []
    deployment = None
    try:
        for _ in range(1 if trace else scale.shard_setups):
            if deployment is not None:
                deployment.close()
            started = _now()
            deployment = build_sharded_deployment(
                config, num_shards=scale.shard_workers, mode="process"
            )[0]
            setups.append(_now() - started)
        workers = common.children()
        if len(workers) != scale.shard_workers:
            raise RuntimeError(
                f"expected {scale.shard_workers} shard workers, "
                f"found {len(workers)}"
            )
        if tracer is not None:
            _trace_shard_queries(tracer)
        stream = _stream(schema, seed, SHARD_HEAVY_SELECTIVITY)
        # Master and workers share one CPU: spread over both CPUs, the
        # workers' wake-ups made latencies swing 2x between runs (README,
        # "Reference figures"), so a gain from overlapping the workers
        # cannot show in this workload's latencies.
        common.pin(workers)
        phase, cpu, msgs, events = _shard_phase(
            deployment, stream, scale.shard_rounds, workers
        )
        peak_mb = common.status_mb(os.getpid(), "VmHWM") + sum(
            common.status_mb(pid, "VmHWM") for pid in workers
        )
        worker_mb = max(common.status_mb(pid, "VmHWM") for pid in workers)
        phases = [phase]
        if tracer is not None:
            tracer.uninstall(keep_collector=True)
            tail, tail_cpu, _, _ = _shard_phase(
                deployment, stream, scale.shard_rounds // 2, workers
            )
            tracer.uninstall()
            phases.append(tail)
        build_stats = list(deployment.build_stats)
        population = _population_of(deployment.descriptors, schema)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if deployment is not None:
            deployment.close()

    failed, problems = check_phases(phases, population)
    if tracer is None:
        metrics, info = end_to_end(phase, setups, peak_mb, sum(cpu), msgs)
    else:
        metrics, breakdown = _shard_layers(
            tracer, phase, tail, msgs, events, tail_cpu, worker_mb,
            build_stats, scale.shard_workers,
        )
        info = _traced_info(tracer, "shard", seed, phase, tail, breakdown)
    attempted = sum(len(p.entries) for p in phases)
    return Outcome(attempted, failed, problems, metrics, info)


def _shard_phase(deployment, stream, rounds, workers):
    """One query phase with its CPU (master, workers) and counter deltas."""

    def counters():
        totals = deployment.shard_counters()
        return (
            sum(c["messages_sent"] for c in totals),
            sum(c["processed_events"] for c in totals),
        )

    msgs0, events0 = counters()
    master0 = time.process_time()
    workers0 = sum(common.cpu_seconds(pid) for pid in workers)
    phase = query_phase(deployment, deployment.metrics, stream, rounds)
    cpu = (
        time.process_time() - master0,
        sum(common.cpu_seconds(pid) for pid in workers) - workers0,
    )
    msgs1, events1 = counters()
    return phase, cpu, msgs1 - msgs0, events1 - events0


def _trace_shard_build(tracer: Tracer) -> Tracer:
    from repro.sim.shard import ShardedDeployment

    tracer.wrap(ShardedDeployment, "populate", "core.store:populate")
    tracer.wrap(ShardedDeployment, "bootstrap", "sim.shard.build:bootstrap")
    return tracer


def _trace_shard_queries(tracer: Tracer) -> None:
    """Master-side wrappers, installed after the workers are forked."""
    from repro.sim.shard import ShardedDeployment, _ProcessProxy

    tracer.wrap(ShardedDeployment, "execute_query", "sim.shard:execute_query")
    # Every worker call is one _send and one _receive, and the worker
    # method's name is the second argument of both: spans are named per
    # method, so round trips and windows are counted where they happen.
    tracer.wrap_keyed(_ProcessProxy, "_send", "sim.shard.send", key=1)
    tracer.wrap_keyed(
        _ProcessProxy, "_receive", "sim.shard.wait", key=1,
        count=lambda args, result: (
            len(result) if args[1] in ("run_window", "drain_outbox") else 0
        ),
    )
    tracer.watch_collector()


def _shard_layers(
    tracer, phase, tail, msgs, events, tail_cpu, worker_mb, build_stats,
    workers,
):
    columns = tracer.arrays()
    build = Summary(columns, float("-inf"), phase.t0)
    spans = Summary(columns, phase.t0, phase.t1)
    n = len(phase.completed)
    windows = spans.layer_count("sim.shard.send", "run_window") / workers
    tail_n = len(tail.completed)
    metrics = zero_layers()
    metrics.update({
        "core.store.populate_s": (
            float(build.durations["core.store:populate"].sum()), "s"),
        "sim.shard.bootstrap_s": (
            float(build.durations["sim.shard.build:bootstrap"].sum()), "s"),
        "sim.shard.worker_build_s": (
            max(stats["build_seconds"] for stats in build_stats), "s"),
        "sim.engine.events_per_query": (per_query(events, n), "count"),
        "sim.network.sends_per_query": (per_query(msgs, n), "count"),
        "sim.shard.windows_per_query": (per_query(windows, n), "count"),
        "sim.shard.round_trips_per_query": (
            per_query(spans.layer_count("sim.shard.send"), n), "count"),
        "sim.shard.crossings_per_window": (
            per_query(spans.layer_qa("sim.shard.wait"), windows), "count"),
        "sim.shard.master_self_ms_per_query": (
            ms(spans.layer_self_s("sim.shard"), n), "ms"),
        "sim.shard.send_ms_per_query": (
            ms(spans.layer_self_s("sim.shard.send"), n), "ms"),
        "sim.shard.master_wait_ms_per_query": (
            ms(spans.layer_self_s("sim.shard.wait"), n), "ms"),
        # CPU is read over the untraced tail, so the master-side wrappers'
        # own cost does not count as master CPU.
        "sim.shard.master_cpu_ms_per_query": (ms(tail_cpu[0], tail_n), "ms"),
        "sim.shard.worker_cpu_ms_per_query": (ms(tail_cpu[1], tail_n), "ms"),
        "sim.shard.worker_rss_mb": (worker_mb, "MB"),
    })
    metrics.update(record_metrics(phase))
    tail_collector_s = Summary(columns, tail.t0, tail.t1).collector_s()
    metrics.update(breakdown_metrics(spans, phase, tail, tail_collector_s))
    return metrics, layer_breakdown(spans, phase)
