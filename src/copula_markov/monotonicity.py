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
from .algebra import _product_and_operand, markov_product, transpose
from .core import (
    Copula,
    DomainError,
    GridCopula,
    StepFunction,
    UpperFrechetCopula,
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
class MonotonicityVerdict:
    """SI/SD verdict for one component.

    ``max_violation`` and ``witness`` describe the worst breach of the SI
    ordering (u1 < u2 with the conditional cdf larger at u2); plateaus are
    allowed, so both flags hold exactly when the conditional law does not
    depend on the conditioning variable at all.
    """

    si: bool
    sd: bool
    component: int
    max_violation: float
    witness: Optional[tuple]
    method: str

    def to_json(self):
        return {
            "si": self.si,
            "sd": self.sd,
            "component": self.component,
            "max_violation": self.max_violation,
            "witness": None if self.witness is None else list(self.witness),
            "method": self.method,
        }


def check_si(c: Copula, component=1, tol=1e-9, u_points=257, v_points=65):
    """SI/SD verdict for ``component`` (grids exact, closed forms certified).

    Grid path: the cumulative row sums S_k(l) of the matrix must be
    non-increasing in k for every l, compared exactly within ``tol``.
    Closed-form path: concavity/convexity of the sections via second
    differences on a ``u_points`` x ``v_points`` audit grid.
    """
    if component not in (1, 2):
        raise DomainError("component must be 1 or 2")
    if tol < 0:
        raise DomainError("tol must be >= 0")
    work = c if component == 1 else transpose(c)
    if isinstance(work, GridCopula):
        verdict = _check_si_grid(work, tol)
    else:
        verdict = _check_si_sections(work, tol, u_points, v_points)
    return MonotonicityVerdict(
        si=verdict[0],
        sd=verdict[1],
        component=component,
        max_violation=verdict[2],
        witness=verdict[3],
        method=verdict[4],
    )


def _check_si_grid(g: GridCopula, tol):
    n = g.n
    if n == 1:
        return True, True, 0.0, None, "exact-cumsum"
    cum = np.cumsum(g.matrix, axis=1)
    steps = np.diff(cum, axis=0)  # > 0 anywhere breaks SI, < 0 breaks SD
    si_worst = float(steps.max())
    sd_worst = float(-steps.min())
    k, l = np.unravel_index(np.argmax(steps), steps.shape)
    witness = ((k + 0.5) / n, (k + 1.5) / n, (l + 1.0) / n)
    return si_worst <= tol, sd_worst <= tol, max(si_worst, 0.0), witness, "exact-cumsum"


def _check_si_sections(c: Copula, tol, u_points, v_points):
    u = np.linspace(0.0, 1.0, u_points)
    v = np.linspace(0.0, 1.0, v_points)
    vals = np.asarray(c.cdf(u[:, None], v[None, :]))
    second = vals[:-2, :] + vals[2:, :] - 2.0 * vals[1:-1, :]
    si_worst = float(second.max())   # concavity violated by positive bumps
    sd_worst = float(-second.min())
    i, j = np.unravel_index(np.argmax(second), second.shape)
    witness = (float(u[i]), float(u[i + 2]), float(v[j]))
    return si_worst <= tol, sd_worst <= tol, max(si_worst, 0.0), witness, "grid-certified"


# ---------------------------------------------------------------------------
# dominance and quadrant dependence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominanceVerdict:
    holds: bool
    gap: float
    witness: tuple
    reversed: bool

    def __bool__(self):
        return self.holds

    def to_json(self):
        return {
            "holds": self.holds,
            "gap": self.gap,
            "witness": list(self.witness),
            "reversed": self.reversed,
        }


def check_dominance(d: Copula, c: Copula, tol=1e-9, reverse=False) -> DominanceVerdict:
    """Whether D * C <= C + tol.

    A grid product is compared with C discretized at the product's
    resolution, exactly on the corner lattice; a closed-form product with C
    over the audit mesh of :func:`copula_markov.metrics.sup_gap`.
    ``reverse=True`` selects the opposite inequality C <= D * C + tol,
    the relevant direction for stochastically decreasing C.
    """
    product, c = _product_and_operand(d, c)
    lhs, rhs = (c, product) if reverse else (product, c)
    gap, witness = metrics.sup_gap(lhs, rhs, signed=True)
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
    from .core import IndependenceCopula

    pi = IndependenceCopula()
    above, _ = metrics.sup_gap(c, pi, signed=True)
    below, _ = metrics.sup_gap(pi, c, signed=True)
    return QuadrantVerdict(
        pqd=bool(below <= tol),
        nqd=bool(above <= tol),
        max_below_independence=float(max(below, 0.0)),
        max_above_independence=float(max(above, 0.0)),
    )


@dataclass(frozen=True)
class CompleteDependenceVerdict:
    completely_dependent: bool
    gap: float

    def __bool__(self):
        return self.completely_dependent

    def to_json(self):
        return {"completely_dependent": self.completely_dependent, "gap": self.gap}


def check_complete_dependence(c: Copula, tol=1e-9) -> CompleteDependenceVerdict:
    """Left-invertibility under the product: transpose(C) * C = upper bound.

    A grid product is compared with the upper bound discretized at the
    product's resolution (the identity matrix), exactly on the corner
    lattice, where checkerboards represent their copulas exactly (between
    corners every checkerboard sits below the upper bound by the O(1/n)
    cell floor, which carries no information about C).  A closed-form
    product runs over the audit mesh of :func:`copula_markov.metrics.sup_gap`.
    """
    product = markov_product(transpose(c), c)
    upper = UpperFrechetCopula()
    if isinstance(product, GridCopula):
        upper = upper.discretize(product.n)
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
    image = operator_of(c, f.n).apply(f)
    return bool(np.all(np.diff(image.values) <= tol))


@dataclass(frozen=True)
class EmpiricalSIReport:
    """Binned conditional means of f(V) given U, with a CLT noise band."""

    bin_centers: tuple
    bin_counts: tuple
    bin_means: tuple
    increases: tuple  # (left bin, mean increase, z * standard error)
    significant_increases: int
    insufficient_samples: bool
    z: float

    def to_json(self):
        return {
            "bin_centers": list(self.bin_centers),
            "bin_counts": list(self.bin_counts),
            "bin_means": list(self.bin_means),
            "increases": [list(x) for x in self.increases],
            "significant_increases": self.significant_increases,
            "insufficient_samples": self.insufficient_samples,
            "z": self.z,
        }


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

    Adjacent-bin increases are reported with a z * standard-error band;
    for an SI copula and decreasing f no increase should clear the band.
    Bins with fewer than 50 samples flag the report as insufficient.
    """
    if samples < 1 or bins < 2:
        raise DomainError("need samples >= 1 and bins >= 2")
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
