"""Shared benchmark plumbing: the query stream, percentiles, process
counters read from /proc, child-process hygiene and run metadata."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import signal
import subprocess
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Light queries per round; each round adds one heavy query and is
#: shuffled, so the stream interleaves the two kinds at a fixed ratio.
LIGHT_PER_ROUND = 8
#: ``serve`` stops at the first round boundary after ``--seconds`` have
#: passed, but never before this many rounds: 13 x 8 = 104 light
#: queries leave at least ten samples above their 90th percentile.
MIN_ROUNDS = 13
#: Minimum rounds of the untraced tail that a traced ``serve`` run
#: measures next to its traced phase, to estimate the tracing overhead.
TAIL_MIN_ROUNDS = math.ceil(MIN_ROUNDS / 2)

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def rounds(seed: int, make_light, make_heavy) -> Iterator[List[Tuple[str, object]]]:
    """Endless seeded rounds of ``LIGHT_PER_ROUND`` light + 1 heavy query.

    *make_light* / *make_heavy* take a ``random.Random`` and return one
    query description; the order inside each round is shuffled by the
    same stream, so the same seed gives the same stream.
    """
    rng = random.Random(f"perfbench-queries:{seed}")
    while True:
        batch = [("light", make_light(rng)) for _ in range(LIGHT_PER_ROUND)]
        batch.append(("heavy", make_heavy(rng)))
        rng.shuffle(batch)
        yield batch


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the ceil(fraction * n)-th smallest sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def above_rank(count: int, fraction: float) -> int:
    """How many of *count* samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count)) if count else 0


#: The CPU every process of a query phase runs on: the highest one this
#: process may use when it starts, since the lowest tends to take the
#: machine's interrupts. Read once, because pinning narrows the affinity.
PROGRAM_CPU = max(os.sched_getaffinity(0))


def pin(pids: Sequence[int] = ()) -> None:
    """Pin this process and the program's processes *pids* to one CPU.

    Query phases run on one fixed CPU: on a small virtual machine,
    waking a process on another virtual CPU takes a time that varies
    from run to run, and the benchmark would measure that instead of the
    program (README, "Reference figures").
    """
    for pid in (0, *pids):
        os.sched_setaffinity(pid, {PROGRAM_CPU})


# -- /proc counters (own processes only) ---------------------------------------


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process *pid* (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # Fields after the command name start at field 3 (state); utime and
    # stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def status_mb(pid: int, key: str) -> float:
    """A ``VmHWM`` / ``VmRSS`` style line of ``/proc/<pid>/status``, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def children(pid: Optional[int] = None) -> List[int]:
    """Pids whose parent is *pid* (default: this process), zombies included."""
    parent = os.getpid() if pid is None else pid
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            found.append(int(entry))
    return found


def reap_children(grace: float = 5.0) -> List[int]:
    """Stop and wait for every child still attached to this process.

    Returns the pids that were left over (empty on a clean run). Each is
    sent SIGTERM, then SIGKILL after *grace* seconds, and is waited for,
    so nothing outlives the run.
    """
    leftover = children()
    for pid in leftover:
        _signal(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace
    pending = set(leftover)
    while pending:
        for pid in list(pending):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.discard(pid)
        if not pending:
            break
        if time.monotonic() > deadline:
            for pid in pending:
                _signal(pid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.05)
    return leftover


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


# -- run metadata ------------------------------------------------------------------


def run_info() -> Dict[str, object]:
    """Machine and source identity recorded with every run."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
    }


def _git_revision() -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def _source_digest() -> str:
    """SHA-256 over ``src/`` (paths and contents), for checkouts without git."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()
