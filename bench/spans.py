"""In-memory span recorder and the patch table that traces nuqmc's layers.

Spans are recorded from the benchmark's own code: `patched` replaces the
public names where nuqmc looks them up (module globals and the measure's
bound methods) with wrappers that open a span around the original call.
Nothing under `src/` changes; `patched` puts the originals back on exit.

A span's self time is its duration minus the part of its interval that its
child spans cover; `self_times` does that arithmetic.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    error: str | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Synchronous span stack: one caller, one call at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent=parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = self.clock()
        if error is not None:
            span.error = type(error).__name__
        popped = self._stack.pop()
        assert popped is span, "spans must close in LIFO order"

    def wrap(self, fn, name: str, on_result=None):
        """Callable that runs `fn` inside a span named `name`; after a
        successful call, `on_result(span, args, kwargs, result)` may store
        counts in `span.attrs` (outside the span's interval)."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, exc)
                raise
            self.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if min(c.end, s.end) > max(c.start, s.start)
        ]
        out[s.id] = (s.end - s.start) - _covered(clipped)
    return out


# ---------------------------------------------------------------------------
# what gets traced
# ---------------------------------------------------------------------------


def _record_decompose(span, args, kwargs, result):
    span.attrs["cells"] = int(result.counts.size)


def _record_build_scheme(span, args, kwargs, result):
    scheme, _ = result
    span.attrs.update(
        key=(scheme.n_side, scheme.d), edges=int(scheme.n_edges), degree=int(scheme.degree)
    )


def _record_round_array(span, args, kwargs, result):
    span.attrs["prefix_error"] = float(result[1]["measured_prefix_error"])


def _record_beck_fiala(span, args, kwargs, result):
    span.attrs.update(per_edge_error=float(result.achieved_error), fallback=bool(result.fallback))


def _record_scan_grid(span, args, kwargs, result):
    span.attrs["cells"] = int(result[2])


def _record_mass_grid(span, args, kwargs, result):
    span.attrs["cells"] = int(result.size)


# (module, attribute, span name, result hook); each entry replaces the name
# where the caller looks it up, so the wrapper sits on the live call path.
PATCHES = (
    ("nuqmc.pipeline", "select_subset", "selection.select_subset", None),
    ("nuqmc.pipeline", "exact_star_discrepancy", "discrepancy.exact_star_discrepancy", None),
    ("nuqmc.pipeline", "discrete_discrepancy", "discrepancy.discrete_discrepancy", None),
    ("nuqmc.selection", "decompose", "selection.decompose", _record_decompose),
    ("nuqmc.selection", "round_array", "dyadic.round_array", _record_round_array),
    ("nuqmc.dyadic", "build_scheme", "dyadic.build_scheme", _record_build_scheme),
    ("nuqmc.dyadic", "Hypergraph", "balancing.Hypergraph", None),
    ("nuqmc.dyadic", "beck_fiala_round", "balancing.beck_fiala_round", _record_beck_fiala),
    ("nuqmc.balancing", "edge_error", "balancing.edge_error", None),
    ("nuqmc.discrepancy", "_scan_grid", "discrepancy.scan_grid", _record_scan_grid),
)

MEASURE_METHODS = (
    ("sample", "measures.sample", None),
    ("mass_on_grid", "measures.mass_on_grid", _record_mass_grid),
)


@contextmanager
def patched(tracer: Tracer, measures=()):
    """Install the tracing wrappers for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, span_name, hook in PATCHES:
            mod = importlib.import_module(mod_name)
            # a later refactor may drop a name; its metrics then read 0
            if hasattr(mod, attr):
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, tracer.wrap(original, span_name, hook))
        for mu in measures:
            for attr, span_name, hook in MEASURE_METHODS:
                saved.append((mu, attr, None))
                setattr(mu, attr, tracer.wrap(getattr(mu, attr), span_name, hook))
        yield
    finally:
        for obj, attr, original in reversed(saved):
            if original is None:
                delattr(obj, attr)   # drop the instance attribute, unshadowing the method
            else:
                setattr(obj, attr, original)
