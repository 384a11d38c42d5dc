"""Tests of the benchmark's own checks, tracing and output contract.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import metrics, run, servework, simwork  # noqa: E402
from perfbench.metrics import Phase, Scale  # noqa: E402
from perfbench.oracle import (  # noqa: E402
    Population,
    box_of,
    box_of_payload,
    check_result,
    check_values,
)
from perfbench.tracing import Summary, Tracer  # noqa: E402

@pytest.fixture(autouse=True)
def _restore_cpu_affinity():
    """Runs pin this process to a CPU; give later tests every CPU back."""
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


TINY = Scale(sim_size=5000, sim_rounds=13, probe_rounds=2, shard_size=400,
             shard_rounds=13, shard_setups=1, serve_setups=1)

#: Five nodes on a 2-D [0, 10] grid; node 3 sits exactly on a box corner.
NAMES = ["cpu", "mem"]
POPULATION = Population(
    NAMES,
    [10, 11, 12, 13, 14],
    [[1.0, 1.0], [4.0, 6.0], [9.0, 2.0], [5.0, 5.0], [8.0, 9.5]],
)
BOX = (np.array([3.0, 5.0]), np.array([5.0, 10.0]))


def test_oracle_scans_with_inclusive_bounds():
    assert POPULATION.matching(BOX) == {11, 13}
    everything = (np.full(2, -np.inf), np.full(2, np.inf))
    assert POPULATION.matching(everything) == {10, 11, 12, 13, 14}


def test_exhaustive_result_must_equal_the_oracle_set():
    assert check_result([13, 11], {11, 13}, None) == []
    missing = check_result([11], {11, 13}, None)
    assert missing and "missing" in missing[0]


def test_extra_non_matching_node_is_flagged():
    for sigma in (None, 1):
        problems = check_result([11, 13, 12], {11, 13}, sigma)
        assert any("non-matching" in p for p in problems)


def test_repeated_address_is_flagged():
    for sigma in (None, 5):
        problems = check_result([11, 13, 11], {11, 13}, sigma)
        assert any("repeated" in p for p in problems)


def test_bounded_result_needs_min_sigma_matches():
    assert check_result([13], {11, 13}, 1) == []
    assert check_result([13, 11], {11, 13}, 5) == []
    assert check_result([13], {11, 13}, 2)
    assert check_result([], set(), 3) == []


def test_box_of_reads_query_bounds_and_open_ends():
    from repro.core.attributes import AttributeSchema, numeric
    from repro.core.query import Query

    schema = AttributeSchema.regular(
        [numeric("cpu", 0.0, 10.0), numeric("mem", 0.0, 10.0)], max_level=2
    )
    low, high = box_of(Query.where(schema, mem=(5.0, None)), NAMES)
    assert list(low) == [-np.inf, 5.0] and list(high) == [np.inf, np.inf]
    payload = {"constraints": {"cpu": [3.0, 5.0], "mem": [5.0, 10.0]}}
    assert POPULATION.matching(box_of_payload(payload, NAMES)) == {11, 13}


def test_reported_values_must_match_the_population():
    good = [{"address": 11, "values": {"cpu": 4.0, "mem": 6.0}}]
    assert check_values(POPULATION, good) == []
    wrong = [{"address": 11, "values": {"cpu": 4.5, "mem": 6.0}}]
    assert check_values(POPULATION, wrong)
    unknown = [{"address": 99, "values": {"cpu": 4.0, "mem": 6.0}}]
    assert check_values(POPULATION, unknown)


def _serve_entry(kind, payload, addresses):
    matches = [
        {"address": a, "values": dict(zip(NAMES, POPULATION.values_of(a)))}
        for a in addresses
    ]
    return servework.Entry(kind, payload, 0.001, None, matches, len(matches))


def test_serve_checks_flag_each_bad_response():
    narrow = {"constraints": {"cpu": [3.0, 5.0], "mem": [5.0, 10.0]},
              "sigma": 1}
    whole = {"constraints": {n: [0.0, 10.0] for n in NAMES}, "sigma": None}
    everyone = [10, 11, 12, 13, 14]
    good = [_serve_entry("light", narrow, [11]),
            _serve_entry("heavy", whole, everyone)]
    assert servework.check_phases([Phase(good, 0.0, 1.0)], POPULATION) == (0, [])
    bad = [
        _serve_entry("heavy", whole, everyone[:-1]),
        _serve_entry("light", narrow, [11, 12]),
        _serve_entry("heavy", whole, everyone + [10]),
        servework.Entry("light", narrow, 0.001, "HTTP 503", [], -1),
    ]
    failed, problems = servework.check_phases(
        [Phase(bad, 0.0, 1.0)], POPULATION
    )
    assert failed == 4 and len(problems) == 4


class _Layered:
    """Two nested calls plus a sibling, for the self-time test."""

    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        sum(range(2000))


def test_self_times_and_remainder_add_up():
    tracer = Tracer()
    tracer.wrap(_Layered, "outer", "a:outer")
    tracer.wrap(_Layered, "inner", "b:inner")
    try:
        for _ in range(5):
            _Layered().outer()
    finally:
        tracer.uninstall()
    assert _Layered.__dict__["outer"].__name__ == "outer"
    columns = tracer.arrays()
    spans = Summary(columns, float("-inf"), float("inf"))
    roots = columns["end"][columns["parent"] == -1] - columns["start"][
        columns["parent"] == -1
    ]
    assert spans.count == {"a:outer": 5, "b:inner": 10}
    assert sum(spans.layers().values()) == pytest.approx(roots.sum())
    assert spans.layer_self_s("b") == pytest.approx(
        spans.durations["b:inner"].sum()
    )


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        metrics.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        metrics.LAYER_UNITS
    )


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_sim_run_passes(capsys, trace):
    argv = ["--workload", "sim", "--seed", "5", "--seconds", "0.1",
            "--trace", trace]
    assert run.main(argv, scale=TINY) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    expected = metrics.LAYER_UNITS if trace == "1" else metrics.END_TO_END_UNITS
    assert set(result["metrics"]) == set(expected)


def _corrupt(kind):
    from repro.sim.deployment import Deployment

    original = Deployment.execute_query

    def execute_query(self, query, sigma=None, origin=None, timeout=600.0):
        found = original(self, query, sigma=sigma, origin=origin,
                         timeout=timeout)
        if sigma is not None:
            return found
        if kind == "missing":
            return found[1:]
        if kind == "repeated":
            return found + found[:1]
        outsider = next(
            host.descriptor for host in self.hosts.values()
            if not query.matches(host.descriptor.values)
        )
        return found + [outsider]

    return Deployment, original, execute_query


@pytest.mark.parametrize("kind", ["missing", "extra", "repeated"])
def test_bad_result_fails_the_run(capsys, kind):
    owner, original, corrupted = _corrupt(kind)
    owner.execute_query = corrupted
    try:
        code = run.main(
            ["--workload", "sim", "--seed", "5", "--seconds", "0.1"],
            scale=TINY,
        )
    finally:
        owner.execute_query = original
    assert code == 1
    result = _last_json(capsys)
    assert not result["correct"] and result["failed"] >= 1


def test_fault_probe_failures_are_counted_but_do_not_fail_the_run(
    capsys, monkeypatch
):
    owner, original, corrupted = _corrupt("missing")
    real_probe = simwork._fault_probe

    def probe(config, rounds):
        # Runs in the forked probe child only: the main stream stays intact.
        owner.execute_query = corrupted
        return real_probe(config, rounds)

    monkeypatch.setattr(simwork, "_fault_probe", probe)
    code = run.main(
        ["--workload", "sim", "--seed", "5", "--seconds", "0.1"], scale=TINY
    )
    assert code == 0
    result = _last_json(capsys)
    rounds = TINY.sim_rounds + TINY.probe_rounds
    assert result["correct"]
    assert result["attempted"] == rounds * 9
    # One heavy (exhaustive) query per probe round lost a match.
    assert result["failed"] == TINY.probe_rounds


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
