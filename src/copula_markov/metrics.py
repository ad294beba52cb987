"""Distances and functionals on copulas: sup distance, the integrated
partial-derivative distance D1, and the diagonal Sobolev functional.

Every comparison of two grids of one resolution (sup gap, D1, the grid SI
check, the ``iterate_to_limit`` step) reads the running sums of the
difference of their matrices, :func:`_difference_sums`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Copula,
    DomainError,
    GridCopula,
    IndependenceCopula,
    InvariantError,
    _Record,
)

__all__ = [
    "d_inf",
    "sup_gap",
    "d1_metric",
    "sobolev_diagonal",
    "nqd_idempotent_check",
    "NqdVerdict",
    "AUDIT_POINTS",
]

#: default audit grid for sup-type comparisons (257 points per axis)
AUDIT_POINTS = 257

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

#: closed-form D1: Gauss-Legendre panels per u-interval between knots, and
#: uniform midpoint cells per t-slice (joined with the slice's knots)
_D1_U_PANELS = 24
_D1_T_CELLS = 2048

#: entries per slab of every streamed scan (a 512 KiB float buffer)
_CORNER_SLAB = 1 << 16


def _axis_points(*knots):
    """The audit lattice joined with the knots, sorted."""
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, AUDIT_POINTS), *map(np.asarray, knots)]))


def _first_extremes(blocks):
    """Max and min over the values of one scan, given as arrays in scan
    order, each with the position in the scan of the first value attaining
    it: ``(max, max_at, min, min_at)``; ``(-inf, 0, inf, 0)`` for an empty
    scan.  A NaN anywhere raises :class:`InvariantError`."""
    hi, at_hi, lo, at_lo, start = -np.inf, 0, np.inf, 0, 0
    for diff in blocks:
        i, j = int(np.argmax(diff)), int(np.argmin(diff))
        if np.isnan(diff.flat[i]):  # argmax stops at the first NaN
            raise InvariantError("a copula evaluated to NaN")
        if diff.flat[i] > hi:  # strict, so a tie keeps the earlier point
            hi, at_hi = float(diff.flat[i]), start + i
        if diff.flat[j] < lo:
            lo, at_lo = float(diff.flat[j]), start + j
        start += diff.size
    return hi, at_hi, lo, at_lo


def _slab_rows(width):
    """Rows of ``width`` entries per slab of a streamed scan."""
    return max(1, _CORNER_SLAB // width)


def _difference_sums(a1, a2, buf=None):
    """The running sums along the rows of ``a1 - a2`` (two arrays of one
    shape) in row-major slabs of :func:`_slab_rows` rows, each subtracted
    into ``buf`` (by default a new one-slab buffer), summed along its rows
    in place and yielded as a view of it.  Reducing the difference, not
    differencing two reductions, cancels equal entries to exact zeros
    before any sum is rounded."""
    lines, width = a1.shape
    rows = _slab_rows(width)
    buf = np.empty((min(rows, lines), width)) if buf is None else buf
    for start in range(0, lines, rows):
        cum = buf[: min(rows, lines - start)]
        np.subtract(a1[start : start + rows], a2[start : start + rows], out=cum)
        yield np.cumsum(cum, axis=1, out=cum)


def _corner_values(sums, n):
    """The corner values (C1 - C2)(k/n, l/n) of two grids in row-major slabs:
    corner row 0, then the running sums down the columns of the slabs
    ``sums`` of :func:`_difference_sums` of their matrices, added row by row
    along contiguous rows and carried across slabs, over n."""
    yield np.zeros(n + 1)
    buf = np.zeros((min(_slab_rows(n), n), n + 1))
    carry = np.zeros(n)  # column sums of the rows above the slab
    for cum in sums:
        slab = buf[: len(cum)]
        above = carry
        for row, line in zip(slab[:, 1:], cum):
            above = np.add(above, line, out=row)
        carry[:] = above
        yield np.divide(slab, n, out=slab)


def _corner_extremes(g1: GridCopula, g2: GridCopula):
    """Max and min of (C1 - C2) on the corner lattice of two grids of one
    resolution, each with its row-major flat corner index (the first one
    attaining it): ``(max, max_index, min, min_index)``."""
    return _first_extremes(_corner_values(_difference_sums(g1.matrix, g2.matrix), g1.n))


def _step_gaps(g1: GridCopula, g2: GridCopula):
    """``(max, min, D1)``: the corner extremes of C1 - C2 (as
    :func:`_corner_extremes`) and :func:`_d1_grids` of two grids of one
    resolution, from one pass over the running sums of their difference."""
    parts = []

    def sums():
        for cum in _difference_sums(g1.matrix, g2.matrix):
            yield cum
            # the corner pass has read the slab; D1 takes |cum| in place
            parts.append(_d1_parts(cum))

    hi, _, lo, _ = _first_extremes(_corner_values(sums(), g1.n))
    return hi, lo, _d1_total(parts, g1.n)


def _extremes(c1: Copula, c2: Copula):
    """Max and min of C1 - C2, each with the first point attaining it
    (``None`` for an extreme equal to 0) and its position in the scan:
    ``((max, point, position), (min, point, position))``.  The scan runs row
    by row over the lattice us x vs: the corners of two grids of one
    resolution, the audit mesh of any other pair, both in slabs of whole
    rows of at most ``_CORNER_SLAB`` points (one row if a row is longer)."""
    if isinstance(c1, GridCopula) and isinstance(c2, GridCopula) and c1.n == c2.n:
        us = vs = np.arange(c1.n + 1) / c1.n
        hi, at_hi, lo, at_lo = _corner_extremes(c1, c2)
    else:
        us = _axis_points(c1.knots_u(), c2.knots_u())
        vs = _axis_points(c1.knots_v(), c2.knots_v())
        rows = _slab_rows(vs.size)
        slabs = (us[s : s + rows, None] for s in range(0, us.size, rows))
        hi, at_hi, lo, at_lo = _first_extremes(c1.cdf(u, vs) - c2.cdf(u, vs) for u in slabs)

    def point(value, at):
        i, j = divmod(at, vs.size)
        return (float(us[i]), float(vs[j])) if value else None

    return (hi, point(hi, at_hi), at_hi), (lo, point(lo, at_lo), at_lo)


def sup_gap(c1: Copula, c2: Copula, signed=False):
    """Max of |C1 - C2| (or of C1 - C2 when ``signed``) with a point attaining it.

    Two grids of one resolution compare their corner values; the difference
    is bilinear on each cell, so the corner lattice is exact.  Any other
    pair runs over the audit mesh: the 257-point lattice joined with the
    knots of both operands, which is exact for grids of different
    resolutions too, since their knots are all their corners.  Unsigned, a
    tie between the max and the negated min takes the point scanned first.
    A gap of 0 has no witness: its point is ``None``.
    """
    (hi, hi_uv, hi_pos), (lo, lo_uv, lo_pos) = _extremes(c1, c2)
    if signed or abs(hi) > abs(lo):
        return hi, hi_uv
    return abs(lo), lo_uv if abs(lo) > abs(hi) or lo_pos < hi_pos else hi_uv


def d_inf(c1: Copula, c2: Copula) -> float:
    """max |C1 - C2|: exact on the corners of two equal-resolution grids,
    else over the audit mesh joined with both operands' knots."""
    return sup_gap(c1, c2)[0]


# ---------------------------------------------------------------------------
# D1 metric
# ---------------------------------------------------------------------------


def d1_metric(c1: Copula, c2: Copula) -> float:
    """Integral of |d1 C1 - d1 C2| over the unit square.

    Grid pairs are brought to their least common resolution, under the
    refinement cap of :func:`copula_markov.algebra.markov_product`, and
    integrated exactly (the derivative gap is piecewise linear in v and
    constant in u on each cell).  A grid paired with a closed-form copula
    discretizes the latter onto a refinement of the grid with at least
    ``algebra.DEFAULT_RESOLUTION`` (128) cells per axis.  Closed-form pairs
    use one fixed rule: Gauss-Legendre (12 nodes on 24 panels) in u
    between the u-knots of both operands, and at each u-node the midpoint
    rule in t on 2048 uniform cells joined with the slice's knots.  The rule is exact where the gap is linear and of
    one sign between knots (Pi, M, W and their ordinal sums) and second
    order elsewhere.
    """
    grids = [c.n for c in (c1, c2) if isinstance(c, GridCopula)]
    if not grids:
        return _d1_slices(c1, c2)
    from .algebra import DEFAULT_RESOLUTION, _common_resolution

    if len(grids) == 2:
        n = _common_resolution(c1, c2)
    else:
        n = grids[0] * max(1, -(-DEFAULT_RESOLUTION // grids[0]))
    return _d1_grids(c1.discretize(n), c2.discretize(n))


def _d1_grids(g1: GridCopula, g2: GridCopula) -> float:
    return _d1_total(map(_d1_parts, _difference_sums(g1.matrix, g2.matrix)), g1.n)


def _d1_parts(cum):
    """``(trapezoid, crossing)`` of grid D1 over one slab ``cum`` of the
    running sums of the matrix difference, which is left holding |cum|.
    On u-cell k, the derivative gap is linear in v across v-cell m, from
    y0 = cum[k, m - 1] (0 for m = 0) to y1 = cum[k, m]; the integral of |y|
    over a cell is the trapezoid (|y0| + |y1|) / 2, less |y0| |y1| /
    (|y0| + |y1|) where y changes sign, and the trapezoids sum to every |y|
    with half weight on the end columns (y is 0 at v = 0)."""
    neg = cum < 0.0
    pos = cum > 0.0
    flips = (neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:])
    np.abs(cum, out=cum)
    y0 = cum[:, :-1][flips]
    y1 = cum[:, 1:][flips]
    return cum.sum() - 0.5 * cum[:, -1].sum(), np.sum(y0 * y1 / (y0 + y1))


def _d1_total(parts, n):
    """Grid D1 from the per-slab sums of :func:`_d1_parts`, in slab order."""
    trapezoid, crossing = map(sum, zip(*parts))
    return float((trapezoid - crossing) / n**2)


def _fixed_knots(c1, c2):
    """0, 1 and both operands' v-knots: the knots every slice shares."""
    pts = {0.0, 1.0}
    pts.update(float(x) for x in c1.knots_v())
    pts.update(float(x) for x in c2.knots_v())
    return pts


def _slice_knots(c1, c2, u, fixed=None):
    """The t-knots of the slice at u: ``fixed`` (by default
    :func:`_fixed_knots`) and both operands' conditional knots at u."""
    pts = set(_fixed_knots(c1, c2) if fixed is None else fixed)
    pts.update(float(x) for x in c1.conditional_knots(u))
    pts.update(float(x) for x in c2.conditional_knots(u))
    return np.array(sorted(p for p in pts if 0.0 <= p <= 1.0))


def _d1_slices(c1, c2):
    u_edges = {0.0, 1.0}
    u_edges.update(float(x) for x in c1.knots_u())
    u_edges.update(float(x) for x in c2.knots_u())
    u_edges = np.array(sorted(u_edges))
    cells = np.linspace(0.0, 1.0, _D1_T_CELLS + 1)
    fixed = _fixed_knots(c1, c2)
    total = 0.0
    for a, b in zip(u_edges[:-1], u_edges[1:]):
        panels = np.linspace(a, b, _D1_U_PANELS + 1)
        for p0, p1 in zip(panels[:-1], panels[1:]):
            mid = 0.5 * (p0 + p1)
            half = 0.5 * (p1 - p0)
            vals = _panel_slices(c1, c2, mid + half * _GL_NODES, cells, fixed)
            total += half * float(np.dot(_GL_WEIGHTS, vals))
    return float(total)


def _panel_slices(c1, c2, us, cells, fixed):
    """The t-integrals of |d1 C1(u, t) - d1 C2(u, t)| at the u-nodes of one
    panel, from one derivative call per operand.

    Each slice integrates by the midpoint rule over the cells joined with
    its own knots (``fixed`` and the conditional ones).  When no slice adds
    a knot to the cells, the call takes a column of u against one row of
    t.  Otherwise the slices' knots go into one tiled copy of the cells by
    a single insertion, and the call takes its midpoints, each beside its
    slice's u; the midpoint between two slices is evaluated and skipped.
    """
    n, m = cells.size, us.size
    knots = [_slice_knots(c1, c2, u, fixed) for u in us]
    owner = np.repeat(np.arange(m), [k.size for k in knots])
    knots = np.concatenate(knots)
    # knots <= 1 = cells[-1], so each has a cell at or above it; those that
    # are cells already (0 and 1 always) add nothing
    at = np.searchsorted(cells, knots)
    new = cells[at] != knots
    if not new.any():
        widths = np.diff(cells)
        gap = _derivative_gap(c1, c2, us[:, None], 0.5 * (cells[:-1] + cells[1:]))
        # one dot per slice, as a slice-by-slice evaluation sums it
        return [float(row @ widths) for row in gap]
    edges = n + np.bincount(owner[new], minlength=m)
    flat = np.insert(np.tile(cells, m), at[new] + n * owner[new], knots[new])
    gap = _derivative_gap(c1, c2, np.repeat(us, edges)[:-1], 0.5 * (flat[:-1] + flat[1:]))
    widths = flat[1:] - flat[:-1]
    starts = np.cumsum(edges) - edges
    return [
        float(gap[a : a + k - 1] @ widths[a : a + k - 1]) for a, k in zip(starts, edges)
    ]


def _derivative_gap(c1, c2, u, t):
    """|d1 C1(u, t) - d1 C2(u, t)|, one derivative call per operand."""
    return np.abs(c1.partial_derivative(1, u, t) - c2.partial_derivative(1, u, t))


# ---------------------------------------------------------------------------
# diagonal Sobolev functional
# ---------------------------------------------------------------------------


def sobolev_diagonal(c: Copula) -> float:
    """2 * integral of (C*C)(u, u) du.

    For symmetric idempotent copulas this equals the squared Sobolev norm.
    The self-product comes from :func:`copula_markov.algebra.markov_product`;
    grid products are integrated exactly cell by cell (the diagonal section
    is piecewise quadratic).  The product leaves only Pi and M closed, whose
    diagonals u^2 and u composite Simpson on 1024 uniform panels integrates
    exactly up to rounding.
    """
    from .algebra import markov_product

    square = markov_product(c, c)
    if isinstance(square, GridCopula):
        return 2.0 * _grid_diagonal_integral(square)
    u = np.linspace(0.0, 1.0, 1025)
    y = square.cdf(u, u)
    # Simpson weights 1, 4, 2, ..., 4, 1 times h / 3 = 1 / 3072
    return 2.0 * float((y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1]) / 3072.0)


def _grid_diagonal_integral(g: GridCopula) -> float:
    n = g.n
    a = g.matrix
    prefix = g._prefix
    block = prefix[np.arange(n), np.arange(n)]
    row_part = prefix[np.arange(1, n + 1), np.arange(n)] - block
    col_part = prefix[np.arange(n), np.arange(1, n + 1)] - block
    diag = np.diagonal(a)
    # within cell k: n C(u, u) = block + f (row_part + col_part) + f^2 diag
    return float(np.sum(block + 0.5 * (row_part + col_part) + diag / 3.0) / n**2)


# ---------------------------------------------------------------------------
# the NQD-idempotent characterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NqdVerdict(_Record):
    """Outcome of the idempotent + negative-quadrant-dependence check."""

    nqd: bool
    max_excess_over_independence: float
    d_inf_to_independence: float | None
    sobolev: float | None
    consistent: bool | None


def nqd_idempotent_check(c: Copula, tol=1e-9) -> NqdVerdict:
    """For an idempotent copula: if it is NQD, it must already be the
    independence copula (sup distance <= 10*tol and diagonal Sobolev
    functional within 10*tol of 2/3); the verdict reports both checks.

    Raises :class:`DomainError` when the input is not idempotent within
    ``tol`` in sup distance.
    """
    from .algebra import is_idempotent

    idem = is_idempotent(c, tol=tol)
    if not idem.idempotent:
        raise DomainError(
            f"input is not idempotent within {tol:g} (gap {idem.gap:.3g})"
        )
    (excess, _, _), (lo, _, _) = _extremes(c, IndependenceCopula())
    if excess > tol:
        return NqdVerdict(False, float(excess), None, None, None)
    gap = max(abs(excess), abs(lo))
    sob = sobolev_diagonal(c)
    consistent = gap <= 10.0 * tol and abs(sob - 2.0 / 3.0) <= 10.0 * tol
    return NqdVerdict(True, float(excess), float(gap), float(sob), bool(consistent))
