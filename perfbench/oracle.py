"""Brute-force result oracle, written apart from the program.

The oracle scans every node's raw attribute values against a query's
value box with its own inclusive comparisons. It does not call
``Query.matches``, ``CellIndex`` or any other matcher of the program;
from a query it reads only the box bounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

Box = Tuple[np.ndarray, np.ndarray]


class Population:
    """Node addresses and their raw attribute values (one row per node)."""

    def __init__(
        self, names: Sequence[str], addresses: Iterable[int], values
    ) -> None:
        self.names = list(names)
        self.addresses = np.asarray(list(addresses), dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64).reshape(
            len(self.addresses), len(self.names)
        )
        if len(np.unique(self.addresses)) != len(self.addresses):
            raise ValueError("population repeats an address")
        self._row = {int(a): i for i, a in enumerate(self.addresses)}

    def values_of(self, address: int) -> Optional[np.ndarray]:
        """The value row of *address*, or None for an unknown address."""
        row = self._row.get(int(address))
        return None if row is None else self.values[row]

    def matching(self, box: Box) -> Set[int]:
        """Addresses whose every value lies inside *box*, bounds included."""
        low, high = box
        inside = np.ones(len(self.addresses), dtype=bool)
        for dim in range(len(self.names)):
            column = self.values[:, dim]
            inside &= column >= low[dim]
            inside &= column <= high[dim]
        return {int(a) for a in self.addresses[inside]}


def box_of(query, names: Sequence[str]) -> Box:
    """The inclusive value box of a program ``Query`` (open ends = +-inf).

    Only plain numeric ranges are accepted: the benchmark's queries have
    no categorical or dynamic constraints, so meeting one is an error.
    """
    if getattr(query, "dynamic_constraints", ()):
        raise ValueError("dynamic constraints are outside the oracle")
    low = np.full(len(names), -np.inf)
    high = np.full(len(names), np.inf)
    for name, constraint in query.constraints:
        if hasattr(constraint, "ordinals"):
            raise ValueError("categorical constraints are outside the oracle")
        dim = names.index(name)
        if constraint.low is not None:
            low[dim] = constraint.low
        if constraint.high is not None:
            high[dim] = constraint.high
    return low, high


def box_of_payload(payload: Dict, names: Sequence[str]) -> Box:
    """The inclusive value box of an HTTP ``/query`` payload."""
    low = np.full(len(names), -np.inf)
    high = np.full(len(names), np.inf)
    for name, (lo, hi) in payload.get("constraints", {}).items():
        dim = names.index(name)
        if lo is not None:
            low[dim] = lo
        if hi is not None:
            high[dim] = hi
    return low, high


def check_result(
    addresses: Sequence[int],
    expected: Set[int],
    sigma: Optional[int],
) -> List[str]:
    """Problems with one query result; an empty list means it is correct.

    * no address may appear twice;
    * an exhaustive query (``sigma`` None) returns exactly *expected*;
    * a sigma-bounded query returns a subset of *expected* holding at
      least ``min(sigma, len(expected))`` addresses.
    """
    problems = []
    seen: Set[int] = set()
    repeated: Set[int] = set()
    for address in addresses:
        if address in seen:
            repeated.add(address)
        seen.add(address)
    if repeated:
        problems.append(f"repeated addresses {sorted(repeated)[:5]}")
    extra = seen - expected
    if extra:
        problems.append(
            f"{len(extra)} non-matching addresses, e.g. {sorted(extra)[:5]}"
        )
    if sigma is None:
        missing = expected - seen
        if missing:
            problems.append(
                f"{len(missing)} matching addresses missing, "
                f"e.g. {sorted(missing)[:5]}"
            )
    elif len(seen & expected) < min(sigma, len(expected)):
        problems.append(
            f"{len(seen & expected)} matches, fewer than "
            f"min(sigma={sigma}, {len(expected)})"
        )
    return problems


def check_values(
    population: Population, matches: Sequence[Dict]
) -> List[str]:
    """Problems with the attribute values an HTTP response reports."""
    problems = []
    for match in matches:
        row = population.values_of(match["address"])
        if row is None:
            problems.append(f"unknown address {match['address']}")
            continue
        reported = [match["values"][name] for name in population.names]
        if not np.array_equal(np.asarray(reported, dtype=np.float64), row):
            problems.append(f"values of {match['address']} differ")
    return problems
