"""In-memory spans and counters, and the wrappers that feed them.

Spans record ``layer.function``, start, end and the enclosing span; the
benchmark opens one per task and one around each call it makes into the
package.  Wrappers installed on carrier classes add spans for carrier
validation and prefix sums and count evaluation points of ``cdf``,
``partial_derivative`` and ``discretize``.  Class attributes are looked up
at call time, so calls made inside the package are seen too, without any
change to the package.  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from functools import cached_property
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = perf_counter()

    def count(self, key, n=1):
        self.counts[key] += n

    def adopt(self, spans, counts):
        """Attach spans recorded by a child process under the open span."""
        parent = self._stack[-1] if self._stack else -1
        base = len(self.spans)
        for name, up, start, end in spans:
            self.spans.append([name, base + up if up >= 0 else parent, start, end])
        self.counts.update(counts)

    def summary(self):
        """Inclusive time per span name, self time per layer (both in s)."""
        child = [0.0] * len(self.spans)
        for name, up, start, end in self.spans:
            if up >= 0:
                child[up] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, up, start, end) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name.split(".", 1)[0]] += end - start - child[i]
        return inclusive, self_time

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "spans": [
                        {"name": n, "parent": p, "start": s, "end": e}
                        for n, p, s, e in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )


class NullTracer:
    """Tracing off: spans cost one context-manager call, counts nothing."""

    def span(self, name):
        return nullcontext()

    def count(self, key, n=1):
        pass


def _points(*arrays):
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


@contextmanager
def installed(tracer):
    """Wrap the package's carrier classes so that they report to ``tracer``."""
    import copula_markov as cm
    from copula_markov import metrics

    restore = []

    def patch(owner, attr, value):
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def timed(func, name, key=None):
        def wrapper(*args, **kwargs):
            if key:
                tracer.count(key)
            with tracer.span(name):
                return func(*args, **kwargs)

        return wrapper

    grid = cm.GridCopula
    patch(grid, "__post_init__", timed(grid.__post_init__, "core.validate", "core.grid_constructions"))
    op = cm.DiscreteMarkovOperator
    patch(op, "__post_init__", timed(op.__post_init__, "core.validate"))

    # a missing or retyped _prefix or _d1_grids raises here rather than
    # reading 0 in the per-layer metrics
    timed_prefix = cached_property(timed(grid.__dict__["_prefix"].func, "core.prefix"))
    timed_prefix.__set_name__(grid, "_prefix")
    patch(grid, "_prefix", timed_prefix)

    def counted_cdf(func):
        def cdf(self, u, v):
            tracer.count("core.cdf_points", _points(u, v))
            return func(self, u, v)

        return cdf

    def counted_discretize(func):
        def discretize(self, n):
            tracer.count("core.discretize_calls")
            return func(self, n)

        return discretize

    carriers = [
        c
        for c in vars(cm).values()
        if isinstance(c, type) and issubclass(c, cm.Copula)
    ]
    for cls in carriers:
        for attr, wrap in (("cdf", counted_cdf), ("discretize", counted_discretize)):
            func = cls.__dict__.get(attr)
            if func is not None and not getattr(func, "__isabstractmethod__", False):
                patch(cls, attr, wrap(func))

    base_pd = cm.Copula.partial_derivative

    def partial_derivative(self, component, u, v, side="right"):
        if not isinstance(self, grid):
            tracer.count("families.pd_calls")
            tracer.count("families.pd_points", _points(u, v))
        return base_pd(self, component, u, v, side=side)

    patch(cm.Copula, "partial_derivative", partial_derivative)

    # the grid D1 kernel is looked up on the module at call time by iterate
    patch(metrics, "_d1_grids", timed(metrics.__dict__["_d1_grids"], "metrics.d1_grid"))

    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
