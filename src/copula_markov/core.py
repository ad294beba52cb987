"""Bivariate copula carriers: exact checkerboard grids and closed forms.

A copula is a distribution function on the unit square with uniform
margins.  Two kinds of carrier are provided:

* :class:`GridCopula` stores an n-by-n doubly stochastic matrix ``A``;
  cell ``(k, l)`` of the uniform n-partition holds mass ``A[k, l] / n``
  spread uniformly, so the copula is piecewise bilinear and evaluation,
  H-volumes, partial derivatives and conditional sampling are exact.
* closed-form copulas (independence, the two Frechet-Hoeffding bounds,
  plus the parametric families in :mod:`copula_markov.families`) implement
  the same interface analytically, falling back to central finite
  differences where no closed-form derivative exists.

All operations are pure; carrier objects are immutable and safe to share
across threads.
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "CopulaError",
    "DomainError",
    "InvariantError",
    "Copula",
    "GridCopula",
    "IndependenceCopula",
    "UpperFrechetCopula",
    "LowerFrechetCopula",
    "TransposedCopula",
    "StepFunction",
    "IntervalFamily",
    "cell_index",
]

#: validation tolerance for row/column sums of input matrices
MATRIX_TOL = 1e-9

#: finite-difference step for analytic partial derivatives
FD_STEP = 1e-6

# relative snap of n*x onto integer cell boundaries: k/n rounded to a double
# lies on its boundary, a point a few ulps farther inside a cell stays in it
_BOUNDARY_SNAP = 4 * np.finfo(float).eps


class CopulaError(Exception):
    """Base class for errors raised by this package."""


class DomainError(CopulaError, ValueError):
    """A point, rectangle or parameter lies outside its admissible domain."""


class InvariantError(CopulaError, ValueError):
    """A carrier object violates one of its structural invariants."""


def _check_unit(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(np.isnan(arr)) or arr.min() < 0.0 or arr.max() > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def _public(x):
    """A kernel's result as a public entry returns it: 0-d as a float."""
    return float(x) if np.ndim(x) == 0 else x


def _check_tol(tol, positive=False, name="tol"):
    """Refuse a NaN or negative tolerance, and 0 where ``positive``."""
    if not (tol > 0 if positive else tol >= 0):
        raise DomainError(f"{name} must be {'positive' if positive else '>= 0'}, got {tol!r}")


def _check_count(n, name="resolution", least=1):
    """``n`` as an int, refused with :class:`DomainError` naming ``name``
    unless it is a whole number >= ``least``.  Numpy integers and integral
    floats pass; bools, NaN and infinities do not."""
    whole = not isinstance(n, bool) and (
        isinstance(n, numbers.Integral) or isinstance(n, numbers.Real) and float(n).is_integer()
    )
    if not (whole and n >= least):
        raise DomainError(f"{name} must be a whole number >= {least}, got {n!r}")
    return int(n)


def _bisect(high, lo, hi, steps):
    """``steps`` halvings of the brackets (lo, hi) at once: where
    ``high(mid)`` holds, hi moves to mid, elsewhere lo does."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        above = high(mid)
        lo = np.where(above, lo, mid)
        hi = np.where(above, mid, hi)
    return lo, hi


def _snap(t):
    """Snap values of ``t = n*x`` that sit within rounding noise of an integer."""
    r = np.rint(t)
    return np.where(np.abs(t - r) <= _BOUNDARY_SNAP * np.maximum(1.0, np.abs(t)), r, t)


def cell_index(n, x, side="right"):
    """Cell of ``x`` in the uniform n-partition of [0, 1].

    Boundary points k/n resolve to the right-hand cell for ``side="right"``
    (the package-wide convention for partial derivatives) and to the
    left-hand cell for ``side="left"``.  x = 1 always maps to the last cell.
    """
    t = _snap(np.asarray(x, dtype=float) * n)
    if side == "left":
        k = np.ceil(t).astype(int) - 1
    else:
        k = np.floor(t).astype(int)
    return np.clip(k, 0, n - 1)


def _validate_doubly_stochastic(matrix, tol=MATRIX_TOL, what="matrix"):
    # one private copy, made by the clip (np.maximum maps -0.0 to +0.0); a
    # NaN or an infinity shows up in the min or in a line sum, so isfinite
    # runs only to name a failure
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] < 1:
        raise InvariantError(f"{what} must be square and non-empty, got shape {x.shape}")
    low = x.min()
    if not low >= -tol:
        _refuse_non_finite(x, what)
        raise InvariantError(f"{what} has a negative entry ({low:g})")
    a = np.maximum(x, 0.0, order="C")
    row_gap = np.max(np.abs(a.sum(axis=1) - 1.0))
    col_gap = np.max(np.abs(a.sum(axis=0) - 1.0))
    if not (row_gap <= tol and col_gap <= tol):
        _refuse_non_finite(a, what)
        raise InvariantError(
            f"{what} is not doubly stochastic within {tol:g} "
            f"(worst row gap {row_gap:.3g}, column gap {col_gap:.3g}); "
            "use GridCopula.renormalized() for an explicit Sinkhorn rebalance"
        )
    a.setflags(write=False)
    return a


def _refuse_non_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise InvariantError(f"{what} contains non-finite entries")


def _trusted_carrier(cls, matrix):
    """Wrap ``matrix`` in the frozen matrix carrier ``cls`` without a copy
    or a check.

    Only for a validated carrier's own read-only matrix, or a fresh
    C-contiguous float array the package builds from validated carriers:
    products, transposes, refinements and coarsenings of doubly stochastic
    matrices are doubly stochastic and nonnegative.  Likewise the grids of
    independence and the Frechet bounds, which are built that way.
    """
    matrix.setflags(write=False)
    carrier = object.__new__(cls)
    object.__setattr__(carrier, "matrix", matrix)
    return carrier


class Copula(abc.ABC):
    """Interface shared by all copula carriers.

    ``cdf``, ``partial_derivative``, ``conditional_quantile`` and
    ``discretize`` are the public entries: each checks its arguments once
    and calls the carrier's unchecked kernel.  A carrier implements

    * ``_cdf(u, v)``, C(u, v);
    * ``_partial(component, u, v, side)``, by default central finite
      differences of ``_cdf``;
    * ``_quantile(u, w)``, by default bisection of ``_partial(1, ...)``,
      which exact inverses replace where a carrier has one;
    * ``_discretize(n)``, by default the cell masses of ``_cdf`` on the
      corner lattice.

    Kernels take float ndarrays in [0, 1] (0-d for scalars), broadcast
    their point arguments, and call each other, never the public entries.
    They return numpy values, 0-d for scalar points; ``cdf`` and
    ``partial_derivative`` hand a 0-d result out as a ``float``.
    """

    def cdf(self, u, v):
        """C(u, v).  Raises :class:`DomainError` outside the unit square."""
        return _public(self._cdf(_check_unit(u, "u"), _check_unit(v, "v")))

    @abc.abstractmethod
    def _cdf(self, u, v):
        """C(u, v) on checked arrays."""

    @abc.abstractmethod
    def to_spec(self) -> dict:
        """Serializable description (see :mod:`copula_markov.serialize`)."""

    # -- derivatives --------------------------------------------------------

    def partial_derivative(self, component, u, v, side="right"):
        """Partial derivative of C with respect to one component.

        ``side`` fixes the convention where the derivative jumps (grid cell
        boundaries, ridges of the Frechet bounds): "right" takes the
        right-hand limit in the differentiated variable, "left" the
        left-hand one.  Both are versions of the same a.e.-defined function.
        """
        if component not in (1, 2):
            raise DomainError(f"component must be 1 or 2, got {component!r}")
        if side not in ("left", "right"):
            raise DomainError(f"side must be 'left' or 'right', got {side!r}")
        return _public(self._partial(component, _check_unit(u, "u"), _check_unit(v, "v"), side))

    def _partial(self, component, u, v, side):
        return _fd_partial(self._cdf, u, v, axis=component - 1)

    # -- volumes and discretization -----------------------------------------

    def h_volume(self, u1, u2, v1, v2):
        """Mass of the rectangle [u1, u2] x [v1, v2] (>= 0 for any copula)."""
        if not (0.0 <= u1 <= u2 <= 1.0 and 0.0 <= v1 <= v2 <= 1.0):
            raise DomainError(
                f"malformed rectangle [{u1}, {u2}] x [{v1}, {v2}]"
            )
        c = self._cdf(np.array([[u1], [u2]], dtype=float), np.array([v1, v2], dtype=float))
        return float(c[1, 1] - c[1, 0] - c[0, 1] + c[0, 0])

    def discretize(self, n):
        """Checkerboard approximation at resolution n (exact cell masses)."""
        return self._discretize(_check_count(n, "n"))

    def _discretize(self, n):
        g = np.linspace(0.0, 1.0, n + 1)
        corners = np.asarray(self._cdf(g[:, None], g[None, :]), dtype=float)
        a = n * np.diff(np.diff(corners, axis=0), axis=1)
        if a.min() < -MATRIX_TOL:
            raise DomainError(
                f"copula is not 2-increasing within tolerance: "
                f"most negative cell mass {a.min() / n:.3g}"
            )
        return GridCopula(np.clip(a, 0.0, None))

    # -- conditioning and sampling -------------------------------------------

    def conditional_cdf(self, u, t):
        """t -> d1 C(u, t), the conditional law of the second coordinate."""
        return self.partial_derivative(1, u, t)

    def conditional_quantile(self, u, w):
        """Generalized inverse inf{t : d1 C(u, t) >= w}; u and w broadcast."""
        return self._quantile(_check_unit(u, "u"), _check_unit(w, "w"))

    def _quantile(self, u, w):
        """Bisection of the right-hand conditional law, 60 halvings of
        [0, 1]: the fallback for carriers without an exact inverse (grids,
        Pi, M, W and the Clayton, Frank and independence generators have
        one).  w = 0 gives 0 exactly.  Where d1 C(u, .) is nearly flat, its
        rounding limits the result to about 1e-16 over the conditional
        density."""
        def high(t):
            return self._partial(1, u, t, "right") >= w

        shape = np.broadcast_shapes(u.shape, w.shape)
        _, hi = _bisect(high, np.zeros(shape), np.ones(shape), 60)
        return np.where(w == 0.0, 0.0, hi)  # inf{t : d1 C(u, t) >= 0} = 0

    def sample(self, count, seed):
        """``count`` i.i.d. pairs, deterministic for a given ``seed``."""
        count = _check_count(count, "count")
        rng = np.random.default_rng(seed)
        u = rng.random(count)
        w = np.maximum(rng.random(count), 1e-300)
        return np.column_stack([u, self.conditional_quantile(u, w)])

    # -- structure hints used by the metrics integrators ----------------------

    def knots_u(self):
        """Interior u-values where the copula is not smooth (may be empty)."""
        return ()

    def knots_v(self):
        return ()

    def conditional_knots(self, u):
        """Interior non-smooth points of t -> d1 C(u, t)."""
        return ()


def _fd_partial(f, u, v, axis):
    # central difference in the interior; the stencil slides inward at the
    # boundary so it never leaves the unit square
    h = FD_STEP
    x = u if axis == 0 else v
    lo = np.clip(np.asarray(x, dtype=float) - h, 0.0, 1.0 - 2.0 * h)
    hi = lo + 2.0 * h
    if axis == 0:
        return (f(hi, v) - f(lo, v)) / (2.0 * h)
    return (f(u, hi) - f(u, lo)) / (2.0 * h)


# ---------------------------------------------------------------------------
# checkerboard copulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridCopula(Copula):
    """Checkerboard copula of resolution n.

    ``matrix`` is doubly stochastic (rows and columns sum to 1); entry
    ``matrix[k, l]`` is n times the mass of the cell
    ((k)/n, (k+1)/n) x ((l)/n, (l+1)/n).  The induced cdf is the bilinear
    interpolant of its own corner values, so the whole grid algebra is
    exact up to floating point.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = _validate_doubly_stochastic(self.matrix)
        object.__setattr__(self, "matrix", a)

    _trusted = classmethod(_trusted_carrier)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def renormalized(matrix, tol=1e-13, max_iter=10_000):
        """Sinkhorn-balance a nonnegative matrix into the carrier.

        Rebalancing is always explicit; the constructor never repairs its
        input silently.
        """
        a = np.asarray(matrix, dtype=float).copy()
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise InvariantError(f"matrix must be square and non-empty, got shape {a.shape}")
        if a.min() < 0 or not np.all(np.isfinite(a)):
            raise InvariantError("matrix must be nonnegative and finite")
        if a.sum(axis=1).min() == 0.0 or a.sum(axis=0).min() == 0.0:
            raise InvariantError("matrix has a zero row or column, so no rebalancing exists")
        for _ in range(_check_count(max_iter, "max_iter")):
            a /= a.sum(axis=1, keepdims=True)
            a /= a.sum(axis=0, keepdims=True)
            if (
                np.max(np.abs(a.sum(axis=1) - 1.0)) <= tol
                and np.max(np.abs(a.sum(axis=0) - 1.0)) <= tol
            ):
                break
        else:
            raise InvariantError("Sinkhorn rebalancing did not converge")
        return GridCopula(a)

    @cached_property
    def _prefix(self):
        """(n+1)x(n+1) corner values n*C(k/n, l/n), i.e. 2-d prefix sums."""
        n = self.n
        a = self.matrix
        p = np.zeros((n + 1, n + 1))
        body = p[1:, 1:]
        # column sums row by row: the additions of cumsum(axis=0) in the
        # same order, but along contiguous rows instead of across them
        body[0] = a[0]
        for k in range(1, n):
            np.add(body[k - 1], a[k], out=body[k])
        np.cumsum(body, axis=1, out=body)
        p.setflags(write=False)
        return p

    def corner_cdf(self):
        """Exact cdf values on the (n+1)x(n+1) corner lattice."""
        return self._prefix / self.n

    def _cdf(self, u, v):
        u, v = np.broadcast_arrays(u, v)
        n = self.n
        ku = cell_index(n, u)
        kv = cell_index(n, v)
        fu = np.clip(n * u - ku, 0.0, 1.0)
        fv = np.clip(n * v - kv, 0.0, 1.0)
        p = self._prefix
        val = (
            (1 - fu) * (1 - fv) * p[ku, kv]
            + fu * (1 - fv) * p[ku + 1, kv]
            + (1 - fu) * fv * p[ku, kv + 1]
            + fu * fv * p[ku + 1, kv + 1]
        ) / n
        return val

    @cached_property
    def _row_sums(self):
        """(n, n+1) running sums along each row of the matrix, from 0."""
        return _running_sums(self.matrix)

    @cached_property
    def _column_sums(self):
        """(n, n+1) running sums down each column of the matrix, from 0."""
        return _running_sums(self.matrix.T)

    def _partial(self, component, u, v, side):
        if component == 1:
            return _line_derivative(self._row_sums, self.matrix, u, v, side)
        return _line_derivative(self._column_sums, self.matrix.T, v, u, side)

    def refined(self, factor):
        """Equivalent checkerboard on the (factor*n)-grid (same copula)."""
        r = _check_count(factor, "factor")
        if r == 1:
            return self
        return GridCopula._trusted(np.kron(self.matrix, np.full((r, r), 1.0 / r)))

    def _discretize(self, n):
        if n == self.n:
            return self
        if n % self.n == 0:
            return self.refined(n // self.n)
        if self.n % n == 0:
            r = self.n // n
            coarse = self.matrix.reshape(n, r, n, r).sum(axis=(1, 3)) / r
            return GridCopula._trusted(coarse)
        return super()._discretize(n)

    def _quantile(self, u, w):
        """Exact generalized inverse inf{t : d1 C(u, t) >= w}.

        Row k = cell(u) of the running sums is searched for the first cell
        m whose sum reaches w, clamped to the row's total (which rounding
        may leave just below 1); the quantile is that cell's left edge plus
        the fraction (w - sums[k, m]) / A[k, m] of it, clipped to [0, 1],
        so a w above the total gives the end of the row's support.  Points
        are grouped by row, so no points-by-n table is built.
        """
        u, w = np.broadcast_arrays(u, w)
        shape = u.shape
        u, w = u.reshape(-1), w.reshape(-1)
        n = self.n
        sums = self._row_sums
        k = cell_index(n, u)
        reach = np.minimum(w, sums[k, n])
        # side="left" counts the running sums < reach, i.e. the first cell
        # whose sum reaches it
        m = np.empty(k.size, dtype=np.intp)
        order = np.argsort(k, kind="stable")
        edges = np.searchsorted(k[order], np.arange(n + 1))
        for row, lo, hi in zip(range(n), edges[:-1], edges[1:]):
            m[order[lo:hi]] = np.searchsorted(sums[row, 1:], reach[order[lo:hi]], side="left")
        mass = self.matrix[k, m]
        frac = np.divide(w - sums[k, m], mass, out=np.zeros_like(w), where=mass > 0)
        return ((m + np.clip(frac, 0.0, 1.0)) / n).reshape(shape)

    def knots_u(self):
        return tuple(np.arange(1, self.n) / self.n)

    knots_v = knots_u

    def conditional_knots(self, u):
        return self.knots_v()

    def to_spec(self):
        return {"type": "checkerboard", "matrix": self.matrix.tolist()}


def _running_sums(a):
    out = np.zeros((a.shape[0], a.shape[1] + 1))
    np.cumsum(a, axis=1, out=out[:, 1:])
    out.setflags(write=False)
    return out


def _line_derivative(sums, a, x, y, side):
    """Derivative of a grid cdf in x: line k = cell(x) of the matrix ``a``,
    summed up to y.  With m = floor(n y) that is the running sum over the
    cells before m plus the fraction n y - m of cell m, read in O(1) per
    point; x and y broadcast against each other."""
    n = a.shape[0]
    k = cell_index(n, x, side=side)
    ny = n * y
    m = np.clip(np.floor(ny), 0, n - 1).astype(np.intp)
    return sums[k, m] + np.clip(ny - m, 0.0, 1.0) * a[k, m]


# ---------------------------------------------------------------------------
# closed-form base copulas
# ---------------------------------------------------------------------------


class _ConstantCopula(Copula):
    """A copula without parameters (Pi, M and W): the instances of one class
    are equal and hash alike, and print as ``Name()``."""

    def __repr__(self):
        return f"{type(self).__name__}()"

    def __eq__(self, other):
        return isinstance(other, type(self))

    def __hash__(self):
        return hash(type(self))


class IndependenceCopula(_ConstantCopula):
    """C(u, v) = u v."""

    def _cdf(self, u, v):
        return u * v

    def _partial(self, component, u, v, side):
        if component == 2:
            u, v = v, u
        v, _ = np.broadcast_arrays(v, u)
        return v.copy()

    def _quantile(self, u, w):
        w, _ = np.broadcast_arrays(w, u)
        return w.copy()

    def _discretize(self, n):
        # every line holds n entries 1/n: doubly stochastic by construction
        return GridCopula._trusted(np.full((n, n), 1.0 / n))

    def to_spec(self):
        return {"type": "product"}


class UpperFrechetCopula(_ConstantCopula):
    """Upper Frechet-Hoeffding bound C(u, v) = min(u, v) (comonotone)."""

    def _cdf(self, u, v):
        return np.minimum(u, v)

    def _partial(self, component, u, v, side):
        if component == 2:
            u, v = v, u
        u, v = np.broadcast_arrays(u, v)
        return ((u <= v) if side == "left" else (u < v)).astype(float)

    def _quantile(self, u, w):
        u, _ = np.broadcast_arrays(u, w)
        return u.copy()

    def conditional_knots(self, u):
        return (float(u),)

    def _discretize(self, n):
        # mass sits on the diagonal v = u, one cell's worth per diagonal
        # cell: a permutation matrix, doubly stochastic by construction
        return GridCopula._trusted(np.eye(n))

    def to_spec(self):
        return {"type": "frechet-upper"}


class LowerFrechetCopula(_ConstantCopula):
    """Lower Frechet-Hoeffding bound C(u, v) = max(u + v - 1, 0)."""

    def _cdf(self, u, v):
        return np.maximum(u + v - 1.0, 0.0)

    def _partial(self, component, u, v, side):
        if component == 2:
            u, v = v, u
        u, v = np.broadcast_arrays(u, v)
        return ((u > 1.0 - v) if side == "left" else (u >= 1.0 - v)).astype(float)

    def _quantile(self, u, w):
        u, _ = np.broadcast_arrays(u, w)
        return 1.0 - u

    def conditional_knots(self, u):
        return (1.0 - float(u),)

    def _discretize(self, n):
        # mass sits on the antidiagonal v = 1 - u (a permutation matrix)
        return GridCopula._trusted(np.eye(n)[::-1].copy())

    def to_spec(self):
        return {"type": "frechet-lower"}


@dataclass(frozen=True, eq=False)
class TransposedCopula(Copula):
    """(u, v) -> C(v, u) for a wrapped copula C."""

    base: Copula

    def _cdf(self, u, v):
        return self.base._cdf(v, u)

    def _partial(self, component, u, v, side):
        return self.base._partial(3 - component, v, u, side)

    def knots_u(self):
        return self.base.knots_v()

    def knots_v(self):
        return self.base.knots_u()

    def conditional_knots(self, u):
        # d1 of the transpose at (u, t) is d2 of the base at (t, u); its
        # non-smooth points in t are the base's u-knots plus any ridge
        return (*self.base.knots_u(), *self.base.conditional_knots(u))

    def to_spec(self):
        return {"type": "transpose", "of": self.base.to_spec()}


# ---------------------------------------------------------------------------
# auxiliary value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant function on the uniform n-partition of [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)):
            raise InvariantError("values must be a non-empty finite 1-d array")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    def __call__(self, x):
        x = _check_unit(x, "x")
        return self.values[cell_index(self.n, x)]

    def integral(self) -> float:
        """Integral over [0, 1]; equals the mean of the cell values exactly."""
        return float(np.mean(self.values))

    def is_decreasing(self, tol=0.0) -> bool:
        return bool(np.all(np.diff(self.values) <= tol))

    def is_increasing(self, tol=0.0) -> bool:
        return bool(np.all(np.diff(self.values) >= -tol))

    @staticmethod
    def indicator_upto(n, j):
        """Indicator of [0, j/n] as a step function (1 on the first j cells)."""
        n = _check_count(n, "n")
        j = _check_count(j, "j", least=0)
        if j > n:
            raise DomainError(f"j must be in 0..{n}")
        vals = np.zeros(n)
        vals[:j] = 1.0
        return StepFunction(vals)


@dataclass(frozen=True)
class IntervalFamily:
    """Finite family of disjoint open subintervals of (0, 1), sorted."""

    intervals: tuple

    def __post_init__(self):
        clean = []
        for pair in self.intervals:
            try:
                a, b = pair
            except (TypeError, ValueError):
                a = b = None
            if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in (a, b)):
                raise InvariantError(f"interval entry {pair!r} is not a pair of numbers")
            a, b = float(a), float(b)
            if not (0.0 <= a < b <= 1.0):
                raise InvariantError(f"bad interval ({a}, {b})")
            clean.append((a, b))
        clean.sort()
        for (a1, b1), (a2, b2) in zip(clean, clean[1:]):
            if b1 > a2:
                raise InvariantError(
                    f"intervals ({a1}, {b1}) and ({a2}, {b2}) overlap"
                )
        object.__setattr__(self, "intervals", tuple(clean))

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def endpoints(self):
        return tuple(sorted({x for ab in self.intervals for x in ab}))

    def aligned_cell_ranges(self, n, tol=1e-9):
        """Intervals as (start, stop) cell-index ranges on the n-grid.

        Raises :class:`DomainError` when an endpoint is not a multiple of
        1/n within ``tol``, suggesting the nearest aligned family, and when
        an interval is narrower than one cell, so that it holds no cell.
        """
        n = _check_count(n, "n")
        ranges = []
        for a, b in self.intervals:
            ia, ib = a * n, b * n
            ra, rb = round(ia), round(ib)
            if abs(ia - ra) > tol * n or abs(ib - rb) > tol * n:
                raise DomainError(
                    f"interval ({a}, {b}) is not aligned to the 1/{n} grid; "
                    f"nearest aligned interval is ({ra / n}, {rb / n})"
                )
            if ra == rb:
                raise DomainError(f"interval ({a}, {b}) is narrower than one cell of the 1/{n} grid")
            ranges.append((ra, rb))
        return ranges

    def to_list(self):
        return [[a, b] for a, b in self.intervals]

    @staticmethod
    def from_list(pairs):
        return IntervalFamily(tuple(pairs))


class _Record:
    """Base of the result records (verdicts and reports), frozen dataclasses
    whose JSON form is their fields by name.

    ``to_json`` maps each field to a JSON value: a tuple becomes a list
    (recursively), an :class:`IntervalFamily` its ``to_list()``, a
    :class:`Copula` its ``to_spec()``; numbers, strings, booleans and None
    pass as they are.  Fields named in the class attribute ``_json_skip``
    are left out.  The JSON writers sort keys, so field order is free.
    """

    _json_skip = ()

    def to_json(self):
        return {
            f.name: _json_value(getattr(self, f.name))
            for f in fields(self)
            if f.name not in self._json_skip
        }


def _json_value(x):
    if isinstance(x, tuple):
        return [_json_value(item) for item in x]
    if isinstance(x, IntervalFamily):
        return x.to_list()
    if isinstance(x, Copula):
        return x.to_spec()
    return x
