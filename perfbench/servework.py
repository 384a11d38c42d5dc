"""The ``serve`` workload: ``repro serve`` in its own process, driven over
two keep-alive HTTP connections by a closed-loop client in this process."""

from __future__ import annotations

import asyncio
import http.client
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import common
from perfbench.oracle import Population, box_of_payload, check_result, check_values
from perfbench.metrics import (
    Outcome,
    Phase,
    Scale,
    breakdown_metrics,
    end_to_end,
    layer_breakdown,
    ms,
    per_query,
    zero_layers,
)
from perfbench.tracing import Summary
from repro.server import request_on_connection

_now = time.perf_counter

SIZE = 64
DIMENSIONS = 3
CONNECTIONS = 2
#: A light query asks for a 10-wide range (1/8 of [0, 80]) on one
#: attribute, about 8 of the 64 nodes, and stops after SIGMA of them.
LIGHT_WIDTH = 10.0
LIGHT_SIGMA = 4
#: Client-side budget per request; a slower answer is a failed query.
REQUEST_TIMEOUT = 10.0
#: Budget for the server to come up, and to drain after SIGTERM.
START_TIMEOUT = 60.0
DRAIN_TIMEOUT = 30.0
LAUNCHER = os.path.join(common.ROOT, "perfbench", "serve_launcher.py")


@dataclass
class Entry:
    """One HTTP query and its response."""

    kind: str
    payload: Dict
    latency: float
    error: Optional[str]
    matches: List[Dict]
    count: int


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, seed: int, trace_out: Optional[str] = None) -> None:
        serve_args = [
            "serve", "--port", "0", "--seed", str(seed),
            "--size", str(SIZE), "--dimensions", str(DIMENSIONS),
        ]
        command = (
            [sys.executable, "-m", "repro", *serve_args]
            if trace_out is None
            else [sys.executable, LAUNCHER, trace_out, *serve_args]
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [common.SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        os.makedirs(common.OUT, exist_ok=True)
        self.stderr_path = os.path.join(common.OUT, f"serve-{os.getpid()}.err")
        self._stderr = open(self.stderr_path, "wb")
        started = _now()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr,
            env=env, cwd=common.ROOT,
        )
        try:
            self.port = self._read_port(started + START_TIMEOUT)
            self._wait_healthy(started + START_TIMEOUT)
        except BaseException:
            self.close()
            raise
        self.setup_s = _now() - started

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - _now()
            ready, _, _ = select.select(
                [self.process.stdout], [], [], max(0.0, remaining)
            )
            if not ready:
                raise RuntimeError("server did not announce its port in time")
            chunk = os.read(self.process.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("server exited before announcing its port")
            line += chunk
        marker = b"http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(line.split(marker, 1)[1].split()[0])

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if _now() > deadline or self.process.poll() is not None:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.005)

    def get(self, path: str) -> Tuple[int, bytes]:
        """One blocking GET on a fresh connection (outside the query phase)."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def datagrams_sent(self) -> float:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        for line in body.decode().splitlines():
            if line.startswith("aio_datagrams_sent "):
                return float(line.split()[1])
        raise RuntimeError("aio_datagrams_sent missing from /metrics")

    def drain(self) -> List[str]:
        """SIGTERM, wait for the drain; returns problems (empty = clean)."""
        try:
            self.process.send_signal(signal.SIGTERM)
            try:
                tail, _ = self.process.communicate(timeout=DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                return ["server did not drain within the timeout"]
            problems = []
            if self.process.returncode != 0:
                problems.append(
                    f"server exited {self.process.returncode} after SIGTERM"
                )
            if b"drained" not in tail:
                problems.append("server did not report a completed drain")
            with open(self.stderr_path, "rb") as handle:
                errors = handle.read()
            if b"Traceback" in errors:
                problems.append(
                    "server printed a traceback during the drain: "
                    + errors.decode(errors="replace")[-400:]
                )
            return problems
        finally:
            self.close()

    def close(self) -> None:
        """Kill the process if it still runs, and wait for it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._stderr.close()
        if os.path.exists(self.stderr_path):
            os.unlink(self.stderr_path)


# -- the HTTP client ---------------------------------------------------------------


async def _connect(port: int):
    return await asyncio.open_connection("127.0.0.1", port)


async def _close(connection) -> None:
    writer = connection[1]
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _drive(port: int, stream, seconds: float, min_rounds: int) -> Phase:
    """Closed loop over CONNECTIONS connections, in whole rounds."""
    connections = [await _connect(port) for _ in range(CONNECTIONS)]
    entries: List[Entry] = []
    queue: List[Tuple[str, Dict]] = []
    done = [0]
    t0 = _now()

    def next_job():
        if not queue:
            if done[0] >= min_rounds and _now() - t0 >= seconds:
                return None
            queue.extend(next(stream))
            done[0] += 1
        return queue.pop(0)

    async def client(slot: int) -> None:
        while True:
            job = next_job()
            if job is None:
                return
            kind, payload = job
            started = _now()
            try:
                status, body = await asyncio.wait_for(
                    request_on_connection(
                        *connections[slot], "POST", "/query", payload
                    ),
                    REQUEST_TIMEOUT,
                )
                latency = _now() - started
                if status != 200:
                    error = f"HTTP {status}: {body}"
                elif not isinstance(body, dict):
                    error = f"not a JSON object: {body!r:.200}"
                else:
                    error = None
                if error is not None:
                    body = {}
            except (asyncio.TimeoutError, OSError, ValueError, IndexError,
                    asyncio.IncompleteReadError) as exc:
                # IndexError: an empty status line, the connection closed.
                latency = _now() - started
                body, error = {}, f"{type(exc).__name__}: {exc}"
                await _close(connections[slot])
                connections[slot] = await _connect(port)
            entries.append(Entry(
                kind, payload, latency, error,
                body.get("matches", []), body.get("count", -1),
            ))

    try:
        await asyncio.gather(*(client(slot) for slot in range(CONNECTIONS)))
        t1 = _now()
    finally:
        for connection in connections:
            await _close(connection)
    return Phase(entries, t0, t1)


def _stream(names: List[str], seed: int):
    def light(rng):
        low = round(rng.uniform(0.0, 80.0 - LIGHT_WIDTH), 3)
        return {
            "constraints": {rng.choice(names): [low, low + LIGHT_WIDTH]},
            "sigma": LIGHT_SIGMA,
            "origin": rng.randrange(SIZE),
        }

    def heavy(rng):
        return {
            "constraints": {name: [0.0, 80.0] for name in names},
            "sigma": None,
            "origin": rng.randrange(SIZE),
        }

    return common.rounds(seed, light, heavy)


def _population(seed: int) -> Population:
    """The served population, drawn from the stream ``AioOverlay`` uses."""
    from repro.experiments.config import ExperimentConfig
    from repro.util.rng import derive_rng
    from repro.workloads.distributions import uniform_sampler

    schema = ExperimentConfig(
        network_size=SIZE, seed=seed, dimensions=DIMENSIONS
    ).schema()
    names = [definition.name for definition in schema.definitions]
    sampler = uniform_sampler(schema)
    rng = derive_rng(seed, "runtime-population")
    rows = [sampler(rng) for _ in range(SIZE)]
    return Population(
        names, range(SIZE), [[row[name] for name in names] for row in rows]
    )


def check_phases(
    phases: List[Phase], population: Population
) -> Tuple[int, List[str]]:
    """Oracle-check every response; returns (failed queries, problems)."""
    failed, problems = 0, []
    everyone = set(int(a) for a in population.addresses)
    entries = [entry for phase in phases for entry in phase.entries]
    for number, entry in enumerate(entries):
        if entry.error is not None:
            issues = [entry.error]
        else:
            addresses = [match["address"] for match in entry.matches]
            expected = population.matching(
                box_of_payload(entry.payload, population.names)
            )
            issues = check_result(addresses, expected, entry.payload["sigma"])
            issues += check_values(population, entry.matches)
            if entry.count != len(addresses):
                issues.append(f"count {entry.count} != {len(addresses)} matches")
            if entry.kind == "heavy" and expected != everyone:
                issues.append("oracle: a whole-space query must match everyone")
        if issues:
            failed += 1
            problems.append(f"{entry.kind} query {number}: {'; '.join(issues)}")
    return failed, problems


def _measured_phase(server: Server, stream, seconds, min_rounds):
    """Run one phase; returns it with the server's CPU and datagram deltas.

    Client and server share one CPU: with the client on the other CPU,
    two sets of ten runs had light-latency medians 18% (90th percentile
    47%) apart (README, "Reference figures").
    """
    pid = server.process.pid
    common.pin([pid])
    sent0, cpu0 = server.datagrams_sent(), common.cpu_seconds(pid)
    phase = asyncio.run(_drive(server.port, stream, seconds, min_rounds))
    cpu = common.cpu_seconds(pid) - cpu0
    sent = server.datagrams_sent() - sent0
    return phase, cpu, sent


def run_serve(seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    """A 64-node asyncio UDP overlay behind the HTTP front door."""
    population = _population(seed)
    names = population.names
    stream = _stream(names, seed)
    problems: List[str] = []

    if not trace:
        setups = []
        for _ in range(scale.serve_setups - 1):
            server = Server(seed)
            setups.append(server.setup_s)
            problems += server.drain()
        server = Server(seed)
        setups.append(server.setup_s)
        try:
            phase, cpu, sent = _measured_phase(
                server, stream, seconds, common.MIN_ROUNDS
            )
            peak_mb = common.status_mb(server.process.pid, "VmHWM")
            problems += server.drain()
        finally:
            server.close()
        phases = [phase]
        metrics, info = end_to_end(phase, setups, peak_mb, cpu, sent)
    else:
        # The untraced tail runs first, on a plain server; then the same
        # stream continues on a server started through the launcher.
        server = Server(seed)
        try:
            tail, _, _ = _measured_phase(
                server, stream, seconds / 2, common.TAIL_MIN_ROUNDS
            )
            problems += server.drain()
        finally:
            server.close()
        trace_out = os.path.join(common.OUT, f"spans-serve-{seed}.npz")
        if os.path.exists(trace_out):
            os.unlink(trace_out)
        server = Server(seed, trace_out=trace_out)
        try:
            phase, _, _ = _measured_phase(
                server, stream, seconds, common.MIN_ROUNDS
            )
            problems += server.drain()
        finally:
            server.close()
        phases = [tail, phase]
        with np.load(trace_out) as saved:
            columns = dict(saved)
        metrics, breakdown = _serve_layers(columns, phase, tail)
        info = {
            "rounds": phase.rounds,
            "spans": os.path.relpath(trace_out, common.ROOT),
            "samples": {
                "traced": len(phase.completed),
                "untraced": len(tail.completed),
                "loop_lag": int(_in_window(columns["lag_t"], phase).sum()),
            },
            "breakdown_ms_per_query": breakdown,
        }

    failed, more = check_phases(phases, population)
    attempted = sum(len(p.entries) for p in phases)
    return Outcome(attempted, failed, problems + more, metrics, info)


def _in_window(times: np.ndarray, phase: Phase) -> np.ndarray:
    return (times >= phase.t0) & (times <= phase.t1)


def _serve_layers(columns, phase: Phase, tail: Phase):
    spans = Summary(columns, phase.t0, phase.t1)
    n = len(phase.completed)
    client_s = sum(entry.latency for entry in phase.completed)
    execute = spans.durations.get("server:execute", np.zeros(0))
    aio = spans.durations.get("runtime.aio:execute_query", np.zeros(0))
    lag_ms = columns["lag_s"][_in_window(columns["lag_t"], phase)] * 1000.0
    metrics = zero_layers()
    metrics.update({
        "server.front_door_ms_per_query": (ms(client_s - execute.sum(), n), "ms"),
        "runtime.aio.query_ms_p50": (
            common.percentile(list(aio * 1000.0), 0.5), "ms"),
        "runtime.aio.datagrams_per_query": (
            per_query(spans.layer_count("runtime.aio.send"), n), "count"),
        "runtime.aio.bytes_per_query": (
            per_query(spans.layer_qa("runtime.aio.send"), n), "bytes"),
        "runtime.aio.receive_self_ms_per_query": (
            ms(spans.layer_self_s("runtime.aio.receive"), n), "ms"),
        "runtime.aio.send_self_ms_per_query": (
            ms(spans.layer_self_s("runtime.aio.send"), n), "ms"),
        "runtime.aio.loop_lag_ms_p90": (
            common.percentile(list(lag_ms), 0.9), "ms"),
        "runtime.reliable.self_ms_per_query": (
            ms(spans.layer_self_s("runtime.reliable"), n), "ms"),
        "core.codec.encode_ms_per_query": (
            ms(spans.layer_self_s("core.codec.encode"), n), "ms"),
        "core.codec.decode_ms_per_query": (
            ms(spans.layer_self_s("core.codec.decode"), n), "ms"),
        "core.codec.frames_per_query": (
            per_query(spans.layer_count("core.codec.encode"), n), "count"),
        "core.node.messages_handled_per_query": (
            per_query(spans.layer_count("core.node", "handle_message"), n),
            "count"),
        "core.node.self_ms_per_query": (
            ms(spans.layer_self_s("core.node"), n), "ms"),
    })
    # The untraced server's collector is not watched: no pause to remove.
    metrics.update(breakdown_metrics(spans, phase, tail, None))
    return metrics, layer_breakdown(spans, phase)
