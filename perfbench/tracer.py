"""Span tracer that times the program's layers from outside the program.

`Tracer.install()` replaces each traced function by a wrapper in every
namespace that holds it: the defining module, every `steklov_pert` module
that imported the name (`solver.boundary_traces` as well as
`kernels.boundary_traces`) and the package itself.  Methods are wrapped on
their class.  Leaving the `with` block puts the originals back.

Each call records a span: name, parent span, start, duration and self time
(the duration minus the time covered by its child spans).  Spans stay in
memory until `take()` hands them over.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from steklov_pert import expansion, geometry, integrals, kernels, series, solver


def _kernel_bytes(theta, radius, radius_prime, num_modes, scales):
    """Computed bytes the trace kernel writes: two N x (2K+1) float64 arrays."""
    return 2 * theta.size * (2 * num_modes + 1) * 8


def _sweep_points(rho, eps_grid, *args, **kwargs):
    return len(eps_grid)


# (layer, module or class, attribute, work measure of one call or None)
TRACED = (
    ("series", series.FourierSeries, "evaluate", None),
    ("geometry", geometry, "check_star_shaped", None),
    ("kernels", kernels, "boundary_traces", _kernel_bytes),
    ("solver", solver, "sweep", _sweep_points),
    ("solver", solver, "assemble", None),
    ("solver", solver, "solve", None),
    ("solver", solver, "fit_derivatives", None),
    ("integrals", integrals, "single_constants", None),
    ("integrals", integrals, "coupled_constants", None),
    ("integrals", integrals, "quadrature_single_table", None),
    ("integrals", integrals, "quadrature_coupled_table", None),
    ("expansion", expansion, "expand", None),
    ("expansion", expansion, "matrix_second_order", None),
    ("expansion", expansion, "first_order_coefficients", None),
)


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float
    duration: float = 0.0
    self_time: float = 0.0
    work: float = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []  # stack of (span index, time covered by children)
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _begin(self, name, work=0.0):
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(Span(name, parent, time.perf_counter(), work=work))
        self._open.append([len(self.spans) - 1, 0.0])

    def _end(self):
        end = time.perf_counter()
        index, covered = self._open.pop()
        span = self.spans[index]
        span.duration = end - span.start
        span.self_time = span.duration - covered
        if self._open:
            self._open[-1][1] += span.duration

    @contextmanager
    def span(self, name):
        """A span the benchmark opens itself, around a job or a CLI call."""
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def _wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._begin(name, measure(*args, **kwargs) if measure else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end()

        return traced

    def take(self):
        """Hand over the finished spans and start a new list."""
        if self._open:
            raise RuntimeError("take() called inside an open span")
        spans, self.spans = self.spans, []
        return spans

    # -- installing the wrappers ----------------------------------------------

    def install(self):
        """Wrap every traced function in every namespace that holds it."""
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "steklov_pert"]
        for layer, owner, attr, measure in TRACED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{layer}.{attr}", original, measure)
            holders = [owner] if isinstance(owner, type) else [
                ns for ns in namespaces if getattr(ns, attr, None) is original
            ]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


def summarize(spans):
    """Per span name: calls, inclusive time, self time and summed work.

    Inclusive time counts only the outermost span of a name, so a function
    that calls itself is not counted twice.
    """
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "work": 0.0})
    for span in spans:
        entry = out[span.name]
        entry["calls"] += 1
        entry["self"] += span.self_time
        entry["work"] += span.work
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            entry["total"] += span.duration
    return out
