"""The repository benchmark: one command per workload run.

Usage::

    python3 perfbench/run.py --workload {sim,shard,serve} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a checkout and builds nothing: the program is the
pure-Python package under ``src/``. With ``--trace 0`` the last line of
standard output is a JSON object with every end-to-end metric; with
``--trace 1`` it holds every per-layer metric of a traced run. The line
before it records the machine, the source revision, the sample counts
and, for traced runs, the per-layer breakdown. Any failed check makes
the run exit 1, except the known fault that ``sim``'s fault probe
replays on fixed inputs: it is counted in ``failed`` and printed. A
missing program or a broken invocation exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: A run that has not finished by then is stopped, cleaned up and failed.
DEADLINE_S = 170


class Stopped(BaseException):
    """Raised by the watchdog alarm, or by SIGTERM, to stop a run cleanly.

    Not an ``Exception``, so the per-query error handling cannot absorb it.
    """


def _on_alarm(signum, frame):
    raise Stopped(f"run exceeded {DEADLINE_S} s")


def _on_term(signum, frame):
    raise Stopped("terminated")


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sim", "shard", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None, scale=None) -> int:
    """Run one workload; returns the process exit code."""
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from perfbench import common, metrics, servework, simwork

    workloads = {
        "sim": simwork.run_sim,
        "shard": simwork.run_shard,
        "serve": servework.run_serve,
    }
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    previous_term = signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(DEADLINE_S)
    outcome = None
    try:
        outcome = workloads[args.workload](
            args.seed, args.seconds, bool(args.trace),
            scale or metrics.Scale(),
        )
    except Stopped as stop:
        print(f"perfbench: stopped: {stop}", file=sys.stderr)
    except Exception:  # noqa: BLE001 - any crash is a failed run
        traceback.print_exc()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        signal.signal(signal.SIGTERM, previous_term)
        leftover = common.reap_children()
    if leftover:
        print(f"perfbench: child processes left running: {leftover}",
              file=sys.stderr)
    if outcome is None:
        return 1

    units = metrics.LAYER_UNITS if args.trace else metrics.END_TO_END_UNITS
    problems = list(outcome.problems)
    if set(outcome.metrics) != set(units):
        problems.append(
            "metric set differs from the declared one: "
            f"{sorted(set(outcome.metrics) ^ set(units))}"
        )
    if leftover:
        problems.append(f"child processes left running: {leftover}")
    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    info = dict(common.run_info())
    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, attempted=outcome.attempted, failed=outcome.failed,
        problems=len(problems), **outcome.info,
    )
    if "breakdown_ms_per_query" in info:
        for layer, value in info["breakdown_ms_per_query"].items():
            print(f"{layer:>24} {value:10.4f} ms/query")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
