"""Stochastic-monotonicity predicates and order-theoretic checks.

A copula is stochastically increasing (SI) in the first component when
u -> d1 C(u, v) is decreasing for every v, equivalently when every
u-section is concave; stochastically decreasing (SD) reverses the
ordering.  On checkerboards both statements reduce to exact cumulative
row-sum comparisons; closed-form copulas are certified on a fixed audit
grid with a documented tolerance, and the verdict records which of the
two methods produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics
from .algebra import DEFAULT_RESOLUTION, _product_and_operand, transpose
from .core import (
    Copula,
    DomainError,
    GridCopula,
    IndependenceCopula,
    StepFunction,
    UpperFrechetCopula,
    _check_count,
    _check_tol,
    _Record,
)
from .operators import operator_of

__all__ = [
    "MonotonicityVerdict",
    "QuadrantVerdict",
    "DominanceVerdict",
    "CompleteDependenceVerdict",
    "EmpiricalSIReport",
    "check_si",
    "check_dominance",
    "check_quadrant_dependence",
    "check_complete_dependence",
    "operator_preserves_monotone",
    "empirical_si_check",
]


@dataclass(frozen=True)
class MonotonicityVerdict(_Record):
    """SI/SD verdict for one component.

    ``max_violation`` is the worst breach of the SI ordering (u1 < u2 with
    the conditional cdf larger at u2), 0.0 when there is none; ``witness``
    is the first point of the scan attaining it, and ``None`` when there is
    no breach.  Plateaus are allowed, so both flags hold exactly when the
    conditional law does not depend on the conditioning variable at all.
    """

    si: bool
    sd: bool
    component: int
    max_violation: float
    witness: Optional[tuple]
    method: str


def check_si(c: Copula, component=1, tol=1e-9, u_points=257, v_points=65):
    """SI/SD verdict for ``component`` (grids exact, closed forms certified).

    Grid path: the cumulative row sums S_k(l) of the matrix must be
    non-increasing in k for every l, compared exactly within ``tol``.
    Closed-form path: concavity/convexity of the sections via second
    differences on a ``u_points`` x ``v_points`` audit grid.  Both scan
    their steps row by row in one pass; a NaN among them raises
    :class:`~copula_markov.core.InvariantError`.
    """
    if component not in (1, 2):
        raise DomainError("component must be 1 or 2")
    _check_tol(tol)
    u_points = _check_count(u_points, "u_points", least=3)
    v_points = _check_count(v_points, "v_points")
    if isinstance(c, GridCopula):
        # the running sums along the rows of the matrix (of its transpose
        # for component 2) are the conditional laws d1 C(k/n, l/n); step
        # (k, l) = S_{k+1}(l) - S_k(l) is witnessed at cell midpoints k and
        # k + 1, edge l + 1
        a = c.matrix if component == 1 else c.matrix.T
        n = a.shape[0]
        steps = _running_sum_steps(a)
        mid = (np.arange(n) + 0.5) / n
        u1, u2, v, method = mid[:-1], mid[1:], (np.arange(n) + 1.0) / n, "exact-cumsum"
    else:
        u = np.linspace(0.0, 1.0, u_points)
        v = np.linspace(0.0, 1.0, v_points)
        vals = c.cdf(u[:, None], v) if component == 1 else c.cdf(v, u[:, None])
        # second differences of the sections
        steps = [vals[:-2] + vals[2:] - 2.0 * vals[1:-1]]
        u1, u2, method = u[:-2], u[2:], "grid-certified"
    # a step > 0 breaks SI, < 0 breaks SD
    hi, at_hi, lo, _ = metrics._first_extremes(steps)
    k, l = divmod(at_hi, v.size)
    return MonotonicityVerdict(
        si=hi <= tol,
        sd=-lo <= tol,
        component=component,
        max_violation=max(hi, 0.0),
        witness=(float(u1[k]), float(u2[k]), float(v[l])) if hi > 0.0 else None,
        method=method,
    )


def _running_sum_steps(a):
    """The row differences S_{k+1} - S_k of the running sums along the
    rows of ``a``, in row-major order, as slabs of at most
    ``metrics._CORNER_SLAB`` entries.

    A slab of a transposed view is copied contiguous first.  The last
    running-sum row of each slab is carried into the next, and cumsum adds
    in sequence, so every value has the bits of the full-table difference.
    """
    n = a.shape[0]
    rows = min(n, max(1, metrics._CORNER_SLAB // n))
    cum = np.empty((rows + 1, n))  # row 0: the last running sums above the slab
    steps = np.empty((rows, n))
    for start in range(0, n, rows):
        m = min(rows, n - start)
        sums = cum[1 : m + 1]
        block = a[start : start + m]
        if not block.flags.c_contiguous:
            sums[:] = block
            block = sums
        np.cumsum(block, axis=1, out=sums)
        lines = cum[: m + 1] if start else sums
        if len(lines) > 1:
            yield np.subtract(lines[1:], lines[:-1], out=steps[: len(lines) - 1])
        cum[0] = sums[-1]


# ---------------------------------------------------------------------------
# dominance and quadrant dependence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominanceVerdict(_Record):
    holds: bool
    gap: float
    witness: tuple
    reversed: bool

    def __bool__(self):
        return self.holds


def check_dominance(d: Copula, c: Copula, tol=1e-9, reverse=False) -> DominanceVerdict:
    """Whether D * C <= C + tol.

    A grid product is compared with C discretized at the product's
    resolution, exactly on the corner lattice; a closed-form product with C
    over the audit mesh of :func:`copula_markov.metrics.sup_gap`.
    ``reverse=True`` selects the opposite inequality C <= D * C + tol,
    the relevant direction for stochastically decreasing C.
    """
    _check_tol(tol)
    (hi, hi_uv, _), (lo, lo_uv, _) = metrics._extremes(*_product_and_operand(d, c))
    gap, witness = (0.0 - lo, lo_uv) if reverse else (hi, hi_uv)
    return DominanceVerdict(bool(gap <= tol), float(gap), witness, bool(reverse))


@dataclass(frozen=True)
class QuadrantVerdict:
    pqd: bool
    nqd: bool
    max_below_independence: float
    max_above_independence: float

    @property
    def label(self) -> str:
        if self.pqd and self.nqd:
            return "both"
        if self.pqd:
            return "PQD"
        if self.nqd:
            return "NQD"
        return "neither"

    def to_json(self):
        return {
            "verdict": self.label,
            "max_below_independence": self.max_below_independence,
            "max_above_independence": self.max_above_independence,
        }


def check_quadrant_dependence(c: Copula, tol=1e-9) -> QuadrantVerdict:
    """PQD iff C >= uv - tol on the audit mesh, NQD iff C <= uv + tol;
    both at once pins C to independence within tol."""
    _check_tol(tol)
    (above, _, _), (lo, _, _) = metrics._extremes(c, IndependenceCopula())
    below = 0.0 - lo  # not -lo, which is -0.0 for every C >= uv
    return QuadrantVerdict(
        pqd=bool(below <= tol),
        nqd=bool(above <= tol),
        max_below_independence=float(max(below, 0.0)),
        max_above_independence=float(max(above, 0.0)),
    )


@dataclass(frozen=True)
class CompleteDependenceVerdict(_Record):
    completely_dependent: bool
    gap: float

    def __bool__(self):
        return self.completely_dependent


def check_complete_dependence(c: Copula, tol=1e-9, resolution=DEFAULT_RESOLUTION):
    """Left-invertibility under the product: transpose(C) * C = upper bound.

    A grid product (a closed form is discretized at ``resolution``) is
    compared with the upper bound discretized at the product's resolution
    (the identity matrix), exactly on the corner lattice, where
    checkerboards represent their copulas exactly (between corners every
    checkerboard sits below the upper bound by the O(1/n) cell floor,
    which carries no information about C).  A closed-form product runs
    over the audit mesh of :func:`copula_markov.metrics.sup_gap`.
    """
    _check_tol(tol)
    upper = UpperFrechetCopula()
    product, upper = _product_and_operand(transpose(c), c, upper, resolution=resolution)
    gap = metrics.d_inf(product, upper)
    return CompleteDependenceVerdict(bool(gap <= tol), float(gap))


# ---------------------------------------------------------------------------
# operator monotonicity and the sampling check
# ---------------------------------------------------------------------------


def operator_preserves_monotone(c: Copula, f: StepFunction, tol=1e-9) -> bool:
    """Apply the operator of C to a decreasing step function and test that
    the image is decreasing within ``tol``."""
    if not f.is_decreasing(tol=1e-12):
        raise DomainError("f must be decreasing")
    return operator_of(c, f.n).apply(f).is_decreasing(tol)


@dataclass(frozen=True)
class EmpiricalSIReport(_Record):
    """Binned conditional means of f(V) given U, with a CLT noise band."""

    bin_centers: tuple
    bin_counts: tuple
    bin_means: tuple
    increases: tuple  # (left bin, mean increase, z * standard error)
    significant_increases: int
    insufficient_samples: bool
    z: float


def _as_decreasing_function(f):
    if callable(f):
        probe = np.linspace(0.0, 1.0, 1001)
        vals = np.asarray(f(probe), dtype=float)
        if np.any(np.diff(vals) > 1e-12):
            raise DomainError("f must be decreasing on [0, 1]")
        return f
    table = np.asarray(f, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise DomainError("f must be callable or an (m, 2) table of (t, f(t))")
    t, y = table[:, 0], table[:, 1]
    if np.any(np.diff(t) <= 0):
        raise DomainError("table abscissae must increase strictly")
    if np.any(np.diff(y) > 1e-12):
        raise DomainError("f must be decreasing")
    return lambda x: np.interp(x, t, y)


def empirical_si_check(
    c: Copula, f, samples=100_000, bins=10, seed=0, z=3.0
) -> EmpiricalSIReport:
    """Monte-Carlo check that E(f(V) | U in bin) is decreasing across bins.

    Adjacent-bin increases are reported with a z * standard-error band (z > 0);
    for an SI copula and decreasing f no increase should clear the band.
    Bins with fewer than 50 samples flag the report as insufficient.
    """
    samples = _check_count(samples, "samples")
    bins = _check_count(bins, "bins", least=2)
    _check_tol(z, positive=True, name="z")
    func = _as_decreasing_function(f)
    pairs = c.sample(samples, seed)
    u, v = pairs[:, 0], pairs[:, 1]
    idx = np.clip((u * bins).astype(int), 0, bins - 1)
    fv = np.asarray(func(v), dtype=float)
    counts = np.bincount(idx, minlength=bins)
    sums = np.bincount(idx, weights=fv, minlength=bins)
    sq_sums = np.bincount(idx, weights=fv * fv, minlength=bins)
    safe = np.maximum(counts, 1)
    means = sums / safe
    variances = np.maximum(sq_sums / safe - means**2, 0.0)
    increases = []
    significant = 0
    for i in range(bins - 1):
        delta = means[i + 1] - means[i]
        if delta <= 0:
            continue
        band = z * float(
            np.sqrt(variances[i] / safe[i] + variances[i + 1] / safe[i + 1])
        )
        increases.append((i, float(delta), band))
        if delta > band:
            significant += 1
    centers = (np.arange(bins) + 0.5) / bins
    return EmpiricalSIReport(
        bin_centers=tuple(float(x) for x in centers),
        bin_counts=tuple(int(x) for x in counts),
        bin_means=tuple(float(x) for x in means),
        increases=tuple(increases),
        significant_increases=significant,
        insufficient_samples=bool(np.any(counts < 50)),
        z=float(z),
    )
