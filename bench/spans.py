"""In-memory span recording around the calls into modlse's layers.

The benchmark never edits the library.  It replaces the module attributes
that callers look up (``modlse.pipeline.dp_solve`` and so on) with wrappers
that record a span per call, and puts the originals back afterwards.  A span
holds its name, start, end, the index of its parent span and the index of
the root span of its request, plus a few counters read from the call's
arguments or result.  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Layer:
    """Totals over every span of one name."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=dict)


def _plain(orig, args, kwargs):
    return orig(*args, **kwargs), {}


def _dp_solve(orig, args, kwargs):
    """Ask for the work counters the caller did not request, then drop them."""
    wanted = kwargs.pop("return_stats", False)
    eps, stats = orig(*args, return_stats=True, **kwargs)
    entry = np.min_scalar_type(stats.state_count - 1).itemsize
    attrs = {
        "candidates": stats.candidates_evaluated,
        # Computed from array sizes, not measured: one float64 per candidate
        # plus the backtracking argmin tables.
        "bytes_computed": 8 * stats.candidates_evaluated
        + entry * (stats.n_stages - 1) * stats.value_table_entries,
    }
    return ((eps, stats) if wanted else eps), attrs


def _nomp(orig, args, kwargs):
    k = kwargs["k"] if "k" in kwargs else args[1]
    return orig(*args, **kwargs), {"atoms": int(k)}


def _accept_if_improves(orig, args, kwargs):
    eps_hat = kwargs["eps_hat"] if "eps_hat" in kwargs else args[1]
    out = orig(*args, **kwargs)
    return out, {"accepted": int(out is not eps_hat)}


def _recover_residual(orig, args, kwargs):
    out = orig(*args, **kwargs)
    return out, {"dp_rejections": out.dp_rejections,
                 "omp_rejections": out.omp_rejections}


HOOKS = {
    "dp.dp_solve": _dp_solve,
    "lse.nomp": _nomp,
    "omp.accept_if_improves": _accept_if_improves,
    "pipeline.recover_residual": _recover_residual,
}


class Tracer:
    """Records spans while its patches are installed."""

    def __init__(self, targets, root: str):
        """``targets`` lists ``(module, attribute, span name)`` triples;
        ``root`` names the span that starts a request."""
        self.targets = list(targets)
        self.root = root
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        for module, attr, _ in self.targets:
            if not callable(getattr(module, attr, None)):
                raise AttributeError(f"{module.__name__}.{attr} is not a callable")

    @property
    def expected(self) -> set[str]:
        return {name for _, _, name in self.targets} | {self.root}

    def install(self) -> None:
        for module, attr, name in self.targets:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name))

    def remove(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (used for request roots)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, orig, name):
        hook = HOOKS.get(name, _plain)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            request = self.spans[parent].request if parent >= 0 else index
            span = Span(name, 0.0, 0.0, parent, request)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result, span.attrs = hook(orig, args, kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            return result

        return traced

    def layers(self) -> dict[str, Layer]:
        """Calls, total time, self time and summed counters per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        out: dict[str, Layer] = {}
        for span, child_s in zip(self.spans, covered):
            layer = out.setdefault(span.name, Layer())
            layer.calls += 1
            layer.s += span.duration
            layer.self_s += span.duration - child_s
            for key, value in span.attrs.items():
                layer.attrs[key] = layer.attrs.get(key, 0) + value
        return out

    def missing(self) -> list[str]:
        """Expected span names that never fired."""
        fired = {span.name for span in self.spans}
        return sorted(self.expected - fired)

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "request": s.request, **s.attrs}
                for s in self.spans]
