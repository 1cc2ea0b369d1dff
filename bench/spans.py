"""In-process tracing of faskit's layers from outside the package.

:class:`Tracer` wraps each module's public functions (and ``cli._emit``,
which has no public counterpart) in place, records one span per call and
restores the originals on :meth:`Tracer.uninstall`. Nothing under ``src/``
is edited. Spans live in memory until :meth:`Tracer.dump`.

Self times come from :func:`attribute`: at every instant the wall time is
split evenly among the open spans that have no open child, so spans on
worker threads share the wall clock instead of each claiming all of it, and
the self times of one op sum to at most its wall time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("data", "dgp", "linalg", "specs", "estimators", "fas", "cli")

# Spans that also record process CPU time (all threads) at their ends.
CPU_SPANS = {"fas.estimate_specs"}

# Functions whose results carry the relevance screen's counts.
OBSERVED = {"fas.select_relevant", "fas.population_fas"}


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    thread: int
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.screens: dict[str, dict] = {"sample": {}, "population": {}}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # a worker thread's first span belongs to whatever the main thread
        # is blocked in (the sweep that submitted it)
        owner = stack or self._main_stack
        span = Span(
            id=next(self._ids),
            parent=owner[-1].id if owner else None,
            op=self.op,
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        if name in CPU_SPANS:
            span.cpu_start = time.process_time()
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span.name in CPU_SPANS:
            span.cpu_end = time.process_time()
        self._stack().pop()

    def _observe(self, name: str, args: tuple, result) -> None:
        # keyed by estimate object, so an estimate screened in several modes
        # counts once
        if name == "fas.select_relevant":
            for est in args[0]:
                sid = est.spec.spec_id
                self.screens["sample"][est] = (
                    "selected" if sid in result.selected else result.rejected.get(sid, "low-F")
                )
        elif result.mode.value == "general":
            for est in result.estimates:
                self.screens["population"][est] = est.failure or "selected"

    def wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if name in OBSERVED:
                tracer._observe(name, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every public function of the layer modules, wherever a
        faskit module holds a reference to it."""
        import importlib

        modules = [importlib.import_module(f"faskit.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("faskit"))
        targets = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and not (layer == "cli" and attr == "_emit"):
                    continue
                targets[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, targets[id(obj)][1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "op": s.op,
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "thread": s.thread,
                            "start": s.start,
                            "end": s.end,
                        }
                    )
                    + "\n"
                )


def attribute(spans: list[Span]) -> tuple[dict, dict, dict]:
    """Self time, inclusive time and call count per span name for one op.

    Inclusive time of a name counts only its outermost spans, so a function
    that calls itself is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    events = sorted(
        [(s.start, 1, s.id) for s in spans] + [(s.end, 0, s.id) for s in spans]
    )
    open_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    share: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, opening, sid in events:
        if leaves and t > last:
            piece = (t - last) / len(leaves)
            for leaf in leaves:
                share[leaf] += piece
        last = t
        parent = by_id[sid].parent
        parent = parent if parent in by_id else None
        if opening:
            leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and by_id[parent].end > t:
                    leaves.add(parent)

    depth = {}
    for s in sorted(spans, key=lambda s: s.start):
        depth[s.id] = depth.get(s.parent, -1) + 1 if s.parent in by_id else 0
    inclusive_span = dict(share)
    for s in sorted(spans, key=lambda s: -depth[s.id]):
        if s.parent in by_id:
            inclusive_span[s.parent] = inclusive_span.get(s.parent, 0.0) + inclusive_span.get(s.id, 0.0)

    self_time: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for s in spans:
        self_time[s.name] += share.get(s.id, 0.0)
        count[s.name] += 1
        ancestor = by_id.get(s.parent)
        while ancestor is not None and ancestor.name != s.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            inclusive[s.name] += inclusive_span.get(s.id, 0.0)
    return dict(self_time), dict(inclusive), dict(count)
