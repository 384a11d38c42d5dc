"""Span recording for the traced runs.

Wrappers installed from here time the calls into each layer's public
functions; nothing inside ``src/`` is traced. Every span has a name
(``"<layer>:<call>"``), a start, an end, the span that was open when it
started (its parent) and, where the call's arguments carry one, the
query id. Spans live in flat arrays, which allocate no objects the
cyclic collector tracks, so recording does not move the collector's
schedule; they are written out when the run ends.

A layer's self time is its spans' time minus the time their child spans
cover. Coroutine spans (``detached``) overlap other work on the event
loop, so they are kept out of the parent/child accounting.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Parent marker of a coroutine span (not part of the self-time tree).
DETACHED = -2

_now = time.perf_counter


class Tracer:
    """In-memory span recorder plus the class patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        #: Two integers of context per span: the query id ``(origin,
        #: counter)``, a byte or item count, or the collector generation.
        self.qa = array("q")
        self.qb = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_open: List[int] = []

    # -- recording -------------------------------------------------------------

    def intern(self, name: str) -> int:
        """The integer id of span name *name*."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int, qa: int = -1, qb: int = -1) -> int:
        """Open a span; returns its index for :meth:`exit`."""
        index = len(self.name)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.qa.append(qa)
        self.qb.append(qb)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(_now())
        return index

    def exit(self, index: int) -> None:
        """Close span *index* (the innermost open one)."""
        self.end[index] = _now()
        self._stack.pop()

    def detached(self, nid: int, start: float) -> None:
        """Record a finished coroutine span that began at *start*."""
        self.parent.append(DETACHED)
        self.name.append(nid)
        self.qa.append(-1)
        self.qb.append(-1)
        self.start.append(start)
        self.end.append(_now())

    # -- installing wrappers ---------------------------------------------------

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        context: Optional[Callable[[tuple], Tuple[int, int]]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span *name*.

        *context* maps the call's positional arguments to the span's two
        context integers (e.g. the query id of a message argument).
        """
        original = owner.__dict__[attr]
        nid = self.intern(name)
        enter, exit_ = self.enter, self.exit
        if context is None:
            def wrapper(*args, **kwargs):
                index = enter(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_(index)
        else:
            def wrapper(*args, **kwargs):
                index = enter(nid, *context(args))
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_(index)
        self.patch(owner, attr, wrapper)

    def wrap_keyed(
        self,
        owner: type,
        attr: str,
        layer: str,
        key: int,
        count: Optional[Callable[[tuple, Any], int]] = None,
    ) -> None:
        """Time ``owner.attr`` as span ``layer:<args[key]>``.

        With *count*, the span's first context integer is
        ``count(args, result)`` (e.g. the items a call returned).
        """
        original = owner.__dict__[attr]
        ids: Dict[Any, int] = {}
        intern, enter, exit_, qa = self.intern, self.enter, self.exit, self.qa

        def wrapper(*args, **kwargs):
            label = args[key]
            nid = ids.get(label)
            if nid is None:
                nid = ids[label] = intern(f"{layer}:{label}")
            index = enter(nid)
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    qa[index] = count(args, result)
                return result
            finally:
                exit_(index)

        self.patch(owner, attr, wrapper)

    def wrap_async(self, owner: type, attr: str, name: str) -> None:
        """Time every await of coroutine method ``owner.attr`` (detached)."""
        original = owner.__dict__[attr]
        nid = self.intern(name)
        detached = self.detached

        async def wrapper(*args, **kwargs):
            started = _now()
            try:
                return await original(*args, **kwargs)
            finally:
                detached(nid, started)

        self.patch(owner, attr, wrapper)

    def watch_collector(self) -> None:
        """Record every cyclic-collector pass as a ``python.gc`` span."""
        nid = self.intern("python.gc:collect")

        def on_gc(phase: str, info: Dict[str, int]) -> None:
            if phase == "start":
                self._gc_open.append(self.enter(nid, info["generation"]))
            elif self._gc_open:
                self.exit(self._gc_open.pop())

        gc.callbacks.append(on_gc)
        self._patches.append((gc.callbacks, "", on_gc))

    def patch(self, owner: type, attr: str, wrapper: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self, keep_collector: bool = False) -> None:
        """Restore every patched function (and the collector hooks)."""
        kept = []
        for owner, attr, original in reversed(self._patches):
            if owner is gc.callbacks:
                if keep_collector:
                    kept.append((owner, attr, original))
                else:
                    gc.callbacks.remove(original)
            else:
                setattr(owner, attr, original)
        self._patches = kept

    # -- output ----------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns (plus the name table)."""
        return {
            "names": np.asarray(self.names, dtype=str),
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "qa": np.asarray(self.qa, dtype=np.int64),
            "qb": np.asarray(self.qb, dtype=np.int64),
        }

    def save(self, path: str, **extra: np.ndarray) -> None:
        """Write the spans (and any *extra* columns) to an ``.npz`` file."""
        np.savez_compressed(path, **self.arrays(), **extra)


def message_query_id(position: int) -> Callable[[tuple], Tuple[int, int]]:
    """Context extractor: the query id of the message at *position*."""

    def context(args: tuple) -> Tuple[int, int]:
        query_id = getattr(args[position], "query_id", None)
        if isinstance(query_id, tuple) and len(query_id) == 2:
            return query_id[0], query_id[1]
        return -1, -1

    return context


class Summary:
    """Per-name totals of the spans that lie inside a time window."""

    def __init__(self, columns: Dict[str, np.ndarray], t0: float, t1: float):
        names = [str(n) for n in columns["names"]]
        name = columns["name"]
        start, end, parent = columns["start"], columns["end"], columns["parent"]
        inside = (start >= t0) & (end <= t1) & (end > 0.0)
        duration = np.where(inside, end - start, 0.0)
        nested = inside & (parent >= 0)
        child = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(name)
        )
        own = np.where(inside & (parent != DETACHED), duration - child, 0.0)
        self.count: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.qa_sum: Dict[str, int] = {}
        self.durations: Dict[str, np.ndarray] = {}
        self._qa: Dict[str, np.ndarray] = {}
        for nid, label in enumerate(names):
            mask = inside & (name == nid)
            if not mask.any():
                continue
            self.count[label] = int(mask.sum())
            self.self_s[label] = float(own[mask].sum())
            self.qa_sum[label] = int(columns["qa"][mask].sum())
            self.durations[label] = duration[mask]
            self._qa[label] = columns["qa"][mask]

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of every span named ``layer:*``."""
        return sum(
            seconds for label, seconds in self.self_s.items()
            if label.split(":", 1)[0] == layer
        )

    def layer_count(self, layer: str, call: Optional[str] = None) -> int:
        """Number of spans of ``layer`` (optionally of one call only)."""
        return sum(
            count for label, count in self.count.items()
            if label.split(":", 1)[0] == layer
            and (call is None or label.split(":", 1)[1] == call)
        )

    def layer_qa(self, layer: str, call: Optional[str] = None) -> int:
        """Sum of the context integer over the spans of ``layer``."""
        return sum(
            total for label, total in self.qa_sum.items()
            if label.split(":", 1)[0] == layer
            and (call is None or label.split(":", 1)[1] == call)
        )

    def layers(self) -> Dict[str, float]:
        """Self seconds per layer, for spans in the self-time tree."""
        totals: Dict[str, float] = {}
        for label, seconds in self.self_s.items():
            layer = label.split(":", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def collections(self, generation: int) -> int:
        """Collector passes of *generation* inside the window."""
        qa = self._qa.get("python.gc:collect")
        return 0 if qa is None else int((qa == generation).sum())

    def collector_s(self) -> float:
        """Seconds of collector pauses inside the window."""
        return self.self_s.get("python.gc:collect", 0.0)
