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
import threading
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
    _bisect,
    _check_count,
    _check_tol,
    _ConstantCopula,
    _public,
    _Record,
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

# extract_pi_ordinal_structure: diagonal-gap level that marks a block edge,
# and bisection steps per edge
_EDGE_EPS = 1e-12
_EDGE_ITERS = 80


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
        return _check_count(cap, "cap")
    env = os.environ.get(RESOLUTION_CAP_ENV)
    if not env:
        return _DEFAULT_CAP
    try:
        env = float(env)
    except ValueError:
        pass  # refused below, by name
    return _check_count(env, RESOLUTION_CAP_ENV)


def _common_resolution(*copulas, resolution=DEFAULT_RESOLUTION, cap=None):
    """The resolution the operands share, cap-checked: the lcm of the grids'
    resolutions, or ``resolution`` when all are closed forms."""
    resolution = _check_count(resolution)
    sizes = [c.n for c in copulas if isinstance(c, GridCopula)]
    n = lcm(*sizes) if sizes else resolution
    limit = resolution_cap(cap)
    if n > limit:
        raise ResolutionCapError(
            f"common resolution {n} exceeds the cap {limit} "
            f"(override with {RESOLUTION_CAP_ENV} or the cap argument)"
        )
    return n


def _grids(*copulas, resolution=DEFAULT_RESOLUTION, cap=None):
    """The operands as grids: a grid as it is, and each distinct closed
    form discretized once at the common resolution."""
    n = _common_resolution(*copulas, resolution=resolution, cap=cap)
    grids = {id(c): c for c in copulas}  # an operand passed twice discretizes once
    grids = {key: c if isinstance(c, GridCopula) else c.discretize(n) for key, c in grids.items()}
    return tuple(grids[id(c)] for c in copulas)


def markov_product(c1: Copula, c2: Copula, resolution=DEFAULT_RESOLUTION, cap=None):
    """C1 * C2.

    The upper Frechet bound is the unit and independence annihilates; both
    identities are applied exactly.  Everything else goes through the grid
    path: a closed-form operand discretizes at the partner grid's
    resolution (or ``resolution`` when both are closed forms), and two
    grids multiply their matrices.  The product of a p-grid and a q-grid
    is a checkerboard at L = lcm(p, q); it is computed from p x q block
    values without refining either operand to L, but L is still checked
    against the cap, because the result holds L x L entries.
    """
    product = _exact_product(c1, c2)
    if product is not None:
        return product
    return _grid_product(*_grids(c1, c2, resolution=resolution, cap=cap))


def _grid_product(g1: GridCopula, g2: GridCopula):
    """The product of two grids, whose common resolution the caller has
    checked against the cap.

    For a p-grid A and a q-grid B with p != q, L = lcm(p, q), r = L/p and
    s = L/q, the L-refined product is constant on r x s blocks: block
    (i, j) is (A B')[i, j] / (r s), where the p x q matrix B' sums B's rows
    over each cell of A (every row of B repeated s times, then added in
    runs of r).  That costs 2 p^2 q flops instead of 2 L^3.
    """
    p, q = g1.n, g2.n
    if p == q:
        return GridCopula._trusted(_matmul(g1.matrix, g2.matrix))
    n = lcm(p, q)
    r, s = n // p, n // q
    rebinned = np.repeat(g2.matrix, s, axis=0).reshape(p, r, q).sum(axis=1)
    blocks = _matmul(g1.matrix, rebinned) / (r * s)
    expanded = np.broadcast_to(blocks[:, None, :, None], (p, r, q, s)).reshape(n, n)
    return GridCopula._trusted(expanded)


# Measured with one BLAS thread: the support path costs about 5 ns per
# output entry and 25 ns per pair of nonzeros, BLAS about 0.035 ns per
# multiply-add, so the two break even near n k m = 150 (n m + 5 pairs).
# A pair is weighed as 4 output entries, and the support path is taken
# below n k m / 256: for permutations from n = 260, for mixtures of 12
# permutations from about n = 540 (768: 4 against 14 to 18 ms in BLAS;
# 2048: 37 against 290 ms); at 1024 not for mixtures of 40 permutations
# (40 to 60 against 44 ms).
_PAIR_WEIGHT = 4
_SUPPORT_MARGIN = 256


def _matmul(a, b):
    """a @ b, summed over the pairs of nonzeros when the supports are small.

    Operands without a zero row or column (doubly stochastic ones) give
    at least max(nnz(a), nnz(b)) pairs of nonzeros, so each operand's
    nonzero count rules out most dense products first.  Then the pairs
    are counted exactly, as the sum over k of the nonzeros in a's column
    k times those in b's row k, before any support is read.

    The support path lists every product a[i, k] b[k, j] of two nonzeros,
    in the row-major order of a's support, and adds them into the result
    with one bincount, so each entry sums its terms in ascending k from
    0.0.  An entry with one term (every entry, for permutation operands)
    is that product exactly, as in BLAS; elsewhere the two may differ in
    the last bits.
    """
    n, k = a.shape
    m = b.shape[1]
    budget = n * k * m // _SUPPORT_MARGIN - n * m  # for the weighted pairs
    if budget <= 0:
        return a @ b
    masks = []
    for x in (a, b):
        masks.append(x != 0)
        if _PAIR_WEIGHT * np.count_nonzero(masks[-1]) >= budget:
            return a @ b
    mask_a, mask_b = masks
    row_counts_b = np.count_nonzero(mask_b, axis=1)
    pairs = int(np.count_nonzero(mask_a, axis=0) @ row_counts_b)
    if _PAIR_WEIGHT * pairs >= budget:
        return a @ b
    support_a = np.flatnonzero(mask_a)
    support_b = np.flatnonzero(mask_b)
    # the two n^2 masks and the pair positions go before bincount allocates
    # the result
    del masks, mask_a, mask_b
    rows_a, ka = np.divmod(support_a, k)
    reps = row_counts_b[ka]  # the pairs each nonzero of a takes part in
    # pair t of a's e-th nonzero is b's nonzero row_start[ka[e]] + t
    row_start = np.cumsum(row_counts_b) - row_counts_b
    first_pair = np.cumsum(reps) - reps
    pos = np.arange(pairs) + np.repeat(row_start[ka] - first_pair, reps)
    weights = np.repeat(np.take(a, support_a), reps) * np.take(b, support_b)[pos]
    index = np.repeat(rows_a * m, reps) + support_b[pos] % m
    del pos
    return np.bincount(index, weights=weights, minlength=n * m).reshape(n, m)


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


def _product_and_operand(d: Copula, c: Copula, target=None, resolution=DEFAULT_RESOLUTION):
    """D * C, and the copula to compare it with (C by default), on the
    product's grid when the product is a grid."""
    product = _exact_product(d, c)
    if product is None:
        d, c = _grids(d, c, resolution=resolution)
        product = _grid_product(d, c)
    target = c if target is None else target
    if isinstance(product, GridCopula):
        target = target.discretize(product.n)
    return product, target


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
    panels = _check_count(panels, "panels", least=8)
    t = (np.arange(panels) + 0.5) / panels

    def value(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.ndim == 2 and u.shape[1] == 1 and v.shape in ((v.size,), (1, v.size)):
            left = c1.partial_derivative(2, u, t)
            right = c2.partial_derivative(1, t[:, None], v.reshape(-1))
            return left @ right / panels
        left = c1.partial_derivative(2, u[..., None], t)
        right = c2.partial_derivative(1, t, v[..., None])
        return _public((left * right).sum(axis=-1) / panels)

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
    if isinstance(c, _ConstantCopula):
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
    n = _check_count(n, "n")
    if _exact_product(c, c) is not None:
        return c
    (grid,) = _grids(c, resolution=resolution, cap=cap)
    return GridCopula._trusted(np.linalg.matrix_power(grid.matrix, n))


@dataclass(frozen=True)
class IdempotenceVerdict(_Record):
    idempotent: bool
    gap: float
    witness: tuple | None

    def __bool__(self):
        return self.idempotent


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
    _check_tol(tol, positive=True)
    if isinstance(c, OrdinalSumCopula):
        gap, witness = 0.0, None
        for (a, b), comp in zip(c.intervals, c.components):
            sub = is_idempotent(comp, tol=tol, resolution=resolution)
            scaled = (b - a) * sub.gap
            if scaled > gap:
                gap = scaled
                witness = (a + (b - a) * sub.witness[0], a + (b - a) * sub.witness[1])
        return IdempotenceVerdict(bool(gap <= tol), float(gap), witness)
    if isinstance(c, TransposedCopula):
        sub = is_idempotent(c.base, tol=tol, resolution=resolution)
        return IdempotenceVerdict(sub.idempotent, sub.gap, sub.witness and sub.witness[::-1])
    square, c = _product_and_operand(c, c, resolution=resolution)
    gap, witness = metrics.sup_gap(square, c)
    return IdempotenceVerdict(bool(gap <= tol), float(gap), witness)


# ---------------------------------------------------------------------------
# iterates and their idempotent limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterateReport(_Record):
    """Outcome of iterating C, C*C, C*C*C, ... to its idempotent limit."""

    n_steps: int
    limit: GridCopula
    intervals: IntervalFamily
    sup_gap: float
    monotone_decrease_violation: float
    converged: bool
    steps: tuple  # (step, d_inf_gap, d1_gap) per iteration

    _json_skip = ("steps",)


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
    (numpy's matmul releases the GIL).  Two queues carry the work: one
    takes iterates to the worker, the other brings back each product, or
    the exception that stopped the worker, which is raised here.  Only the
    matmul runs there; the results are those of the serial loop, and a
    product computed past the last step is discarded (an error it raises
    is not).  The worker is joined before this returns or raises.
    """
    import queue

    from .monotonicity import check_si

    _check_tol(tol, positive=True)
    _check_tol(interval_tol, positive=True, name="interval_tol")
    max_iter = _check_count(max_iter, "max_iter")
    (base,) = _grids(c, resolution=resolution)
    verdict = check_si(base, component=1, tol=1e-9)
    if not verdict.si:
        raise NotStochasticallyIncreasingError(verdict)

    # the worker takes a matrix m from ``requests`` and puts base @ m on
    # ``products``, or the exception that stopped it; None in ``requests``
    # stops it
    requests, products = queue.SimpleQueue(), queue.SimpleQueue()

    def multiply():
        try:
            while (m := requests.get()) is not None:
                products.put(np.matmul(base.matrix, m))
        except BaseException as exc:
            products.put(exc)

    def take():
        product = products.get()
        if isinstance(product, BaseException):
            raise product
        return product

    current = base
    steps = []
    worst_increase = 0.0
    converged = False
    worker = threading.Thread(target=multiply, name="iterate_to_limit")
    worker.start()
    try:
        requests.put(base.matrix)
        for step in range(1, max_iter + 1):
            nxt = GridCopula._trusted(take())
            if step < max_iter:
                requests.put(nxt.matrix)
            # the sup gap, the largest increase and D1, from one pass
            hi, lo, d1 = metrics._step_gaps(nxt, current)
            sup_gap = max(abs(hi), abs(lo))
            worst_increase = max(worst_increase, max(hi, 0.0))
            steps.append((step, sup_gap, d1))
            current = nxt
            if sup_gap < tol:
                converged = True
                if step < max_iter:
                    take()  # a product past the last step is discarded, its error is not
                break
    finally:
        requests.put(None)
        worker.join()

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
class PiDecomposition(_Record):
    """Interval family of an idempotent copula plus per-block verification."""

    intervals: IntervalFamily
    block_gaps: tuple
    max_block_gap: float


def _diagonal_gap(c: Copula, v):
    v = np.asarray(v, dtype=float)
    return v - c.cdf(v, v)


def _refine_edges(c, lo, hi, gap_lo):
    """Boundaries of {v : v - C(v, v) > _EDGE_EPS}, one inside each bracket
    (lo[i], hi[i]) whose diagonal gap at lo[i] is ``gap_lo[i]``, by
    bisecting every bracket at once: one cdf call per step."""
    side_lo = np.asarray(gap_lo) > _EDGE_EPS

    def high(v):  # v lies on hi's side of the boundary
        return (_diagonal_gap(c, v) > _EDGE_EPS) != side_lo

    lo, hi = _bisect(high, lo, hi, _EDGE_ITERS)
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
    scan = _check_count(scan, "scan")
    idem = is_idempotent(c, tol=tol)
    if not idem.idempotent:
        raise DomainError(
            f"input is not idempotent within {tol:g} (sup gap {idem.gap:.3g} "
            f"at {idem.witness})"
        )

    closed = not isinstance(c, GridCopula)
    m = scan if closed else c.n
    points = np.arange(1, m) / m
    # a closed form also probes beside 0 and 1, in the same cdf call
    probes = [4 * _EDGE_EPS, 1.0 - 4 * _EDGE_EPS] if closed else []
    gaps = _diagonal_gap(c, np.concatenate([points, probes]))
    gaps, probe_gaps = gaps[: m - 1], gaps[m - 1 :]
    # the scan padded with 0 and 1, which count as fixed: the runs of free
    # points start and stop at the edges between unlike neighbours, and
    # each run end lies between the fixed and the free point of its edge
    padded = np.concatenate([[0.0], points, [1.0]])
    padded_gaps = np.concatenate([[0.0], gaps, [0.0]])
    free = np.concatenate([[False], gaps > tol, [False]])
    edge = np.flatnonzero(free[1:] != free[:-1])
    fixed, loose = edge + free[edge], edge + ~free[edge]  # the two points of each edge
    ends = padded[fixed]
    # a grid's ends are its corners; a closed form keeps an end at a pad
    # (0 or 1) only where the probe beside that pad is free, and bisects
    # every other end between the two points of its edge
    if closed:
        bisected = ~np.isin(fixed, np.array([0, m])[probe_gaps > _EDGE_EPS])
        if bisected.any():
            fixed, loose = fixed[bisected], loose[bisected]
            ends[bisected] = _refine_edges(c, padded[fixed], padded[loose], padded_gaps[fixed])
    intervals = [(float(a), float(b)) for a, b in zip(ends[::2], ends[1::2])]

    if m == 1:
        # resolution-1 grids carry a single block covering everything
        if float(_diagonal_gap(c, 0.5)) > tol:
            intervals.append((0.0, 1.0))

    family = IntervalFamily(tuple(intervals))

    block_gaps = []
    s = np.linspace(0.0, 1.0, 33)
    target = s[:, None] * s[None, :]
    for a, b in family:
        width = b - a
        vals = c.cdf(a + width * s[:, None], a + width * s[None, :])
        block_gaps.append(float(np.max(np.abs((vals - a) / width - target))))
    max_gap = max(block_gaps) if block_gaps else 0.0
    if max_gap > 10.0 * tol:
        raise DecompositionError(family, tuple(block_gaps), 10.0 * tol)
    return PiDecomposition(family, tuple(block_gaps), float(max_gap))
