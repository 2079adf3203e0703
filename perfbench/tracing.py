"""Spans around the calls into each ``repro`` layer, recorded from outside.

The benchmark does not change the package. Instead, :func:`installed`
swaps each layer's public function, at the binding its caller actually
looks up, for a wrapper that records a :class:`Span`. Modules import
names directly (``from repro.cache.memo import cached_anneal_many``), so
wrapping the defining module would miss the calls that matter; the
bindings below are the ones the hot paths resolve at call time.

Spans are kept in memory per tracer and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed interval at a layer boundary.

    Attributes:
        id: Unique within the tracer.
        name: Layer boundary, e.g. ``"qaoa.train"``.
        start: Clock reading at entry.
        end: Clock reading at exit.
        parent: The enclosing span's id (``None`` for an operation root).
        op: The solve or request the span belongs to.
        attrs: Counts recorded at the same boundary.
    """

    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread; parents follow a per-thread stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: str = ""):
        """Time the enclosed block as a child of this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            id=next(self._ids),
            name=name,
            start=self.clock(),
            end=float("nan"),
            parent=parent.id if parent is not None else None,
            op=op or (parent.op if parent is not None else ""),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float, op: str,
            parent: "int | None" = None) -> Span:
        """Record a span measured elsewhere (e.g. from service events)."""
        record = Span(next(self._ids), name, start, end, parent, op)
        self.spans.append(record)
        return record

    def wrap(self, name: str, function, count=None):
        """``function`` inside a span; ``count(result)`` adds attrs."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if count is not None:
                    record.attrs.update(count(result))
                return result

        return traced

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _count_jobs(prepared) -> dict:
    return {
        "jobs": len(prepared.jobs),
        "dedup_jobs": sum(1 for j in prepared.jobs if j.params_from is not None),
    }


# (module, class or None, attribute, span name, counter)
SHIMS = (
    ("repro.backend.base", None, "train_job", "qaoa.train", None),
    ("repro.backend.base", None, "finish_qaoa_instance", "sim.finish", None),
    ("repro.core.solver", "FrozenQubitsSolver", "prepare_jobs",
     "core.prepare", _count_jobs),
    ("repro.core.solver", "FrozenQubitsSolver", "finalize",
     "core.finalize", None),
    ("repro.backend", None, "run_jobs", "backend.run", None),
    ("repro.core.solver", None, "cached_transpile", "transpile", None),
    ("repro.cache.memo", None, "anneal_many", "ising.anneal", None),
    ("repro.recursive.solve", None, "plan_tree", "recursive.plan_tree", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every shimmed binding through ``tracer`` inside the block."""
    saved = []
    try:
        for module_name, owner, attribute, name, count in SHIMS:
            target = importlib.import_module(module_name)
            if owner is not None:
                target = getattr(target, owner)
            original = getattr(target, attribute)
            setattr(target, attribute, tracer.wrap(name, original, count))
            saved.append((target, attribute, original))
        yield tracer
    finally:
        for target, attribute, original in reversed(saved):
            setattr(target, attribute, original)


def self_seconds(spans: list[Span], scales: dict) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's,
    each span scaled by its operation's host-speed factor in ``scales``."""
    children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.seconds
    totals = defaultdict(float)
    for span in spans:
        totals[span.name] += (span.seconds - children[span.id]) * scales[span.op]
    return totals


def inclusive_seconds(spans: list[Span], scales: dict) -> dict[str, float]:
    totals = defaultdict(float)
    for span in spans:
        totals[span.name] += span.seconds * scales[span.op]
    return totals


def call_counts(spans: list[Span]) -> dict[str, int]:
    counts = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
    return counts


def attr_totals(spans: list[Span], name: str) -> dict[str, int]:
    totals = defaultdict(int)
    for span in spans:
        if span.name == name:
            for key, value in span.attrs.items():
                totals[key] += value
    return totals


def coverage(spans: list[Span], root: str) -> float:
    """Share of the ``root`` spans' wall time their direct children cover."""
    roots = {span.id: span for span in spans if span.name == root}
    covered = sum(
        span.seconds for span in spans if span.parent in roots
    )
    total = sum(span.seconds for span in roots.values())
    return covered / total if total > 0 else 0.0
