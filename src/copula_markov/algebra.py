"""The Markov product and its induced algebra on copulas.

The product of two copulas is the copula

    (C1 * C2)(u, v) = integral_0^1  d2 C1(u, t) d1 C2(t, v) dt,

which for checkerboards reduces to the ordinary product of their doubly
stochastic matrices; the grid path is therefore exact and the midpoint
quadrature of the defining integral is kept purely as a validation oracle.
Closed-form operands are discretized first (inheriting the resolution of a
grid partner, else the configured default); the upper Frechet bound and
the independence copula act as the unit and the annihilator and are
short-circuited exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import lcm

import numpy as np

from .core import (
    Copula,
    CopulaError,
    DomainError,
    GridCopula,
    IndependenceCopula,
    IntervalFamily,
    LowerFrechetCopula,
    TransposedCopula,
    UpperFrechetCopula,
)
from .families import OrdinalSumCopula
from . import metrics

__all__ = [
    "DEFAULT_RESOLUTION",
    "RESOLUTION_CAP_ENV",
    "ResolutionCapError",
    "NotStochasticallyIncreasingError",
    "DecompositionError",
    "markov_product",
    "quadrature_markov_product",
    "transpose",
    "si_sd_involution",
    "power",
    "is_idempotent",
    "IdempotenceVerdict",
    "iterate_to_limit",
    "IterateReport",
    "extract_pi_ordinal_structure",
    "PiDecomposition",
]

#: default checkerboard resolution for closed-form operands
DEFAULT_RESOLUTION = 128

#: environment variable overriding the refinement cap
RESOLUTION_CAP_ENV = "COPULA_GRID_CAP"

_DEFAULT_CAP = 4096


class ResolutionCapError(CopulaError):
    """A mixed-resolution product would exceed the refinement cap."""


class NotStochasticallyIncreasingError(CopulaError):
    """The operation requires a stochastically increasing input."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(
            "input is not stochastically increasing in the first component "
            f"(worst violation {verdict.max_violation:.3g} at {verdict.witness})"
        )


class DecompositionError(CopulaError):
    """Block verification of an extracted interval family failed."""

    def __init__(self, intervals, block_gaps, limit):
        self.intervals = intervals
        self.block_gaps = block_gaps
        super().__init__(
            f"ordinal-sum verification failed: worst block gap {max(block_gaps):.3g} "
            f"exceeds {limit:.3g} (input not idempotent enough or not "
            "stochastically monotone)"
        )


def resolution_cap(cap=None) -> int:
    if cap is not None:
        return int(cap)
    env = os.environ.get(RESOLUTION_CAP_ENV)
    return int(env) if env else _DEFAULT_CAP


def _common_grid(*copulas, resolution=DEFAULT_RESOLUTION, cap=None):
    """Bring the operands onto one grid, cap-checked: the lcm of the grids'
    resolutions, or ``resolution`` when all are closed forms."""
    sizes = [c.n for c in copulas if isinstance(c, GridCopula)]
    n = lcm(*sizes) if sizes else int(resolution)
    limit = resolution_cap(cap)
    if n > limit:
        raise ResolutionCapError(
            f"common resolution {n} exceeds the cap {limit} "
            f"(override with {RESOLUTION_CAP_ENV} or the cap argument)"
        )
    grids = {id(c): c for c in copulas}  # an operand passed twice discretizes once
    grids = {key: c.discretize(n) for key, c in grids.items()}
    return tuple(grids[id(c)] for c in copulas)


def markov_product(c1: Copula, c2: Copula, resolution=DEFAULT_RESOLUTION, cap=None):
    """C1 * C2.

    The upper Frechet bound is the unit and independence annihilates; both
    identities are applied exactly.  Everything else goes through the grid
    path: equal resolutions multiply their matrices, unequal ones refine to
    the least common multiple first, and closed-form operands discretize
    at the partner grid's resolution (or ``resolution`` when both are
    closed forms).
    """
    product = _exact_product(c1, c2)
    if product is not None:
        return product
    g1, g2 = _common_grid(c1, c2, resolution=resolution, cap=cap)
    return GridCopula._trusted(g1.matrix @ g2.matrix)


def _exact_product(c1: Copula, c2: Copula):
    """C1 * C2 when the upper Frechet bound (the unit) or independence (the
    annihilator) is a factor, else None."""
    if isinstance(c1, UpperFrechetCopula):
        return c2
    if isinstance(c2, UpperFrechetCopula):
        return c1
    if isinstance(c1, IndependenceCopula) or isinstance(c2, IndependenceCopula):
        return IndependenceCopula()
    return None


def _product_and_operand(d: Copula, c: Copula, resolution=DEFAULT_RESOLUTION):
    """D * C, and C to compare it with: C itself against an exact product,
    C discretized at the resolution of a grid product."""
    product = _exact_product(d, c)
    if product is None:
        d, c = _common_grid(d, c, resolution=resolution)
        product = GridCopula._trusted(d.matrix @ c.matrix)
    elif isinstance(product, GridCopula):
        c = c.discretize(product.n)
    return product, c


def quadrature_markov_product(c1: Copula, c2: Copula, panels: int):
    """Midpoint-rule approximation of the defining integral of C1 * C2.

    Returns a vectorized point evaluator.  This is the validation oracle
    for the matrix path; with both operands on a common grid of resolution
    n and ``panels`` a multiple of n, the piecewise-constant integrand is
    integrated exactly.

    Each operand's derivative is tabulated on its own argument against the
    panel midpoints.  A lattice, u a column (m, 1) and v a row (k,) or
    (1, k), is then one (m, panels) by (panels, k) matrix product; other
    points broadcast the two tables and sum over the panels.
    """
    if panels < 8:
        raise DomainError("panel count must be >= 8")
    t = (np.arange(panels) + 0.5) / panels

    def value(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.ndim == 2 and u.shape[1] == 1 and v.shape in ((v.size,), (1, v.size)):
            left = np.asarray(c1.partial_derivative(2, u, t))
            right = np.asarray(c2.partial_derivative(1, t[:, None], v.reshape(-1)))
            return left @ right / panels
        left = np.asarray(c1.partial_derivative(2, u[..., None], t))
        right = np.asarray(c2.partial_derivative(1, t, v[..., None]))
        out = (left * right).sum(axis=-1) / panels
        return out if out.shape else float(out)

    return value


def transpose(c: Copula) -> Copula:
    """(u, v) -> C(v, u); the matrix transpose on grids, and the ordinal
    sum of the transposed components over the same intervals."""
    if isinstance(c, GridCopula):
        return GridCopula._trusted(c.matrix.T.copy())
    if isinstance(c, OrdinalSumCopula):
        return OrdinalSumCopula(c.intervals, tuple(map(transpose, c.components)))
    if isinstance(c, TransposedCopula):
        return c.base
    if isinstance(c, (IndependenceCopula, UpperFrechetCopula, LowerFrechetCopula)):
        return c
    return TransposedCopula(c)


def si_sd_involution(c: Copula, resolution=DEFAULT_RESOLUTION, cap=None):
    """The lower Frechet bound times C, i.e. (u, v) -> v - C(1 - u, v).

    On grids this reverses the row order of the matrix exactly, swapping
    stochastically increasing and decreasing copulas; applying it twice is
    the identity (bit-level on grids).
    """
    return markov_product(LowerFrechetCopula(), c, resolution=resolution, cap=cap)


def power(c: Copula, n: int, resolution=DEFAULT_RESOLUTION, cap=None):
    """n-fold Markov product (repeated squaring on grids)."""
    if n < 1:
        raise DomainError("power requires n >= 1")
    if isinstance(c, (UpperFrechetCopula, IndependenceCopula)):
        return c
    (grid,) = _common_grid(c, resolution=resolution, cap=cap)
    return GridCopula._trusted(np.linalg.matrix_power(grid.matrix, n))


@dataclass(frozen=True)
class IdempotenceVerdict:
    idempotent: bool
    gap: float
    witness: tuple

    def __bool__(self):
        return self.idempotent

    def to_json(self):
        return {
            "idempotent": self.idempotent,
            "gap": self.gap,
            "witness": list(self.witness),
        }


def is_idempotent(c: Copula, tol=1e-9, resolution=DEFAULT_RESOLUTION) -> IdempotenceVerdict:
    """True iff the sup distance between C * C and C is at most ``tol``.

    Ordinal sums resolve componentwise: the self-product of an ordinal sum
    is the ordinal sum of the component self-products over the same
    intervals, so the copula is idempotent exactly when every component
    is.  This keeps the check exact for interval families that do not
    align with any finite grid.  A transpose takes its base's verdict with
    the witness swapped, since (C^T * C^T) - C^T = ((C * C) - C)^T.
    Everything else goes through the product; a grid square is compared
    with C discretized at its resolution, exactly on the corner lattice.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if isinstance(c, OrdinalSumCopula):
        gap, witness = 0.0, (0.0, 0.0)
        for (a, b), comp in zip(c.intervals, c.components):
            sub = is_idempotent(comp, tol=tol, resolution=resolution)
            scaled = (b - a) * sub.gap
            if scaled > gap:
                gap = scaled
                witness = (a + (b - a) * sub.witness[0], a + (b - a) * sub.witness[1])
        return IdempotenceVerdict(bool(gap <= tol), float(gap), witness)
    if isinstance(c, TransposedCopula):
        sub = is_idempotent(c.base, tol=tol, resolution=resolution)
        return IdempotenceVerdict(sub.idempotent, sub.gap, sub.witness[::-1])
    square, c = _product_and_operand(c, c, resolution=resolution)
    gap, witness = metrics.sup_gap(square, c)
    return IdempotenceVerdict(bool(gap <= tol), float(gap), witness)


# ---------------------------------------------------------------------------
# iterates and their idempotent limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterateReport:
    """Outcome of iterating C, C*C, C*C*C, ... to its idempotent limit."""

    n_steps: int
    limit: GridCopula
    intervals: IntervalFamily
    sup_gap: float
    monotone_decrease_violation: float
    converged: bool
    steps: tuple  # (step, d_inf_gap, d1_gap) per iteration

    def to_json(self):
        return {
            "n_steps": self.n_steps,
            "limit": self.limit.to_spec(),
            "intervals": self.intervals.to_list(),
            "sup_gap": self.sup_gap,
            "monotone_decrease_violation": self.monotone_decrease_violation,
            "converged": self.converged,
        }


def iterate_to_limit(
    c: Copula,
    tol=1e-8,
    max_iter=200,
    resolution=DEFAULT_RESOLUTION,
    interval_tol=1e-6,
) -> IterateReport:
    """Iterate the Markov product of C with itself until consecutive
    iterates agree within ``tol`` in sup distance, for at most ``max_iter``
    steps.

    Requires C stochastically increasing in the first component (the
    iterates then decrease pointwise, which is also verified and reported
    as ``monotone_decrease_violation``).  The limit's diagonal structure is
    extracted into an interval family.

    The next product needs only the current iterate, so it runs on one
    worker thread while this thread measures the current step's gaps
    (numpy's matmul releases the GIL).  Only the matmul runs there; the
    results are those of the serial loop, and a product computed past the
    last step is discarded (an error it raises is not).
    """
    from concurrent.futures import ThreadPoolExecutor

    from .monotonicity import check_si

    if not tol > 0:
        raise DomainError("tol must be positive")
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    (base,) = _common_grid(c, resolution=resolution)
    verdict = check_si(base, component=1, tol=1e-9)
    if not verdict.si:
        raise NotStochasticallyIncreasingError(verdict)

    current = base
    steps = []
    worst_increase = 0.0
    converged = False
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(np.matmul, base.matrix, base.matrix)
        for step in range(1, max_iter + 1):
            nxt = GridCopula._trusted(pending.result())
            if step < max_iter:
                pending = worker.submit(np.matmul, base.matrix, nxt.matrix)
            # the sup gap and the largest increase, from one corner difference
            hi, _, lo, _ = metrics._corner_extremes(nxt, current)
            sup_gap = max(abs(hi), abs(lo))
            worst_increase = max(worst_increase, max(hi, 0.0))
            steps.append((step, sup_gap, metrics._d1_grids(nxt, current)))
            current = nxt
            if sup_gap < tol:
                converged = True
                break
        pending.result()  # a product past the last step is discarded, its error is not

    if converged:
        intervals = extract_pi_ordinal_structure(current, tol=interval_tol).intervals
    else:
        intervals = IntervalFamily(())  # no limit reached, nothing to decompose
    return IterateReport(
        n_steps=len(steps),
        limit=current,
        intervals=intervals,
        sup_gap=float(sup_gap),
        monotone_decrease_violation=float(worst_increase),
        converged=converged,
        steps=tuple(steps),
    )


# ---------------------------------------------------------------------------
# ordinal-sum structure of idempotents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiDecomposition:
    """Interval family of an idempotent copula plus per-block verification."""

    intervals: IntervalFamily
    block_gaps: tuple
    max_block_gap: float

    def to_json(self):
        return {
            "intervals": self.intervals.to_list(),
            "block_gaps": list(self.block_gaps),
            "max_block_gap": self.max_block_gap,
        }


def _diagonal_gap(c: Copula, v):
    v = np.asarray(v, dtype=float)
    return v - np.asarray(c.cdf(v, v))


def _refine_edges(c, lo, hi, gap_lo, eps=1e-12, iters=80):
    """Boundaries of {v : v - C(v, v) > eps}, one inside each bracket
    (lo[i], hi[i]) whose diagonal gap at lo[i] is ``gap_lo[i]``, by
    bisecting every bracket at once: one cdf call per step."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    side_lo = np.asarray(gap_lo) > eps
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        keep_lo_side = (_diagonal_gap(c, mid) > eps) == side_lo
        lo = np.where(keep_lo_side, mid, lo)
        hi = np.where(keep_lo_side, hi, mid)
    return 0.5 * (lo + hi)


def extract_pi_ordinal_structure(c: Copula, tol=1e-6, scan=1024) -> PiDecomposition:
    """Recover the interval family of an idempotent copula from its diagonal.

    The closed set {v : v - C(v, v) <= tol} is located on a scan grid (the
    exact cell corners for checkerboards, a uniform 1/scan grid refined by
    bisection for closed forms); its complement in (0, 1) is the interval
    family.  Each block is then rescaled and compared against independence;
    a worst-block gap beyond 10*tol raises :class:`DecompositionError`.

    Requires the input idempotent within ``tol``.
    """
    idem = is_idempotent(c, tol=tol)
    if not idem.idempotent:
        raise DomainError(
            f"input is not idempotent within {tol:g} (sup gap {idem.gap:.3g} "
            f"at {idem.witness})"
        )

    if isinstance(c, GridCopula):
        points = np.arange(1, c.n) / c.n
        refine = False
    else:
        points = np.arange(1, scan) / scan
        refine = True

    gaps = _diagonal_gap(c, points)
    # runs of scan points off the fixed set: starts[r] .. stops[r]
    free = np.concatenate([[False], gaps > tol, [False]])
    starts = np.flatnonzero(free[1:-1] & ~free[:-2])
    stops = np.flatnonzero(free[1:-1] & ~free[2:])
    m = points.size
    # a run's end lies between its outermost free point and the fixed scan
    # point beside it, or at 0 or 1 when the run reaches the end of the scan
    has_left = starts > 0
    has_right = stops < m - 1
    fixed_side = np.concatenate([starts[has_left] - 1, stops[has_right] + 1])
    free_side = np.concatenate([starts[has_left], stops[has_right]])
    if refine and fixed_side.size:
        ends = _refine_edges(c, points[fixed_side], points[free_side], gaps[fixed_side])
    else:
        ends = points[fixed_side]
    split = np.count_nonzero(has_left)
    lefts = np.zeros(starts.size)
    lefts[has_left] = ends[:split]
    rights = np.ones(stops.size)
    rights[has_right] = ends[split:]
    intervals = [(float(a), float(b)) for a, b in zip(lefts, rights)]

    if m == 0:
        # resolution-1 grids carry a single block covering everything
        if float(_diagonal_gap(c, 0.5)) > tol:
            intervals.append((0.0, 1.0))

    family = IntervalFamily(tuple(intervals))

    block_gaps = []
    s = np.linspace(0.0, 1.0, 33)
    target = s[:, None] * s[None, :]
    for a, b in family:
        width = b - a
        vals = np.asarray(c.cdf(a + width * s[:, None], a + width * s[None, :]))
        block_gaps.append(float(np.max(np.abs((vals - a) / width - target))))
    max_gap = max(block_gaps) if block_gaps else 0.0
    if max_gap > 10.0 * tol:
        raise DecompositionError(family, tuple(block_gaps), 10.0 * tol)
    return PiDecomposition(family, tuple(block_gaps), float(max_gap))
