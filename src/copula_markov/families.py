"""Closed-form copula families and their stochastic-monotonicity criteria.

Shipped Archimedean generators: independence exp(-t), Clayton, Gumbel and
Frank, each with analytic inverse and first derivative.  User-defined
generators enter through tabulated (t, phi(t)) values with monotone
interpolation.  Extreme-value copulas are parameterized by a Pickands
dependence function A with max(t, 1-t) <= A <= 1 and A convex.

Both parametric families transform each argument value once (phi_inverse,
or log) before the two broadcast, share one margin rule for the cdf on the
edges, and keep their own edge rules for the partial derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    Copula,
    CopulaError,
    DomainError,
    InvariantError,
    IntervalFamily,
    UpperFrechetCopula,
    _check_count,
    _check_tol,
    _fd_partial,
)

__all__ = [
    "ArchimedeanGenerator",
    "ArchimedeanCopula",
    "PickandsFunction",
    "ExtremeValueCopula",
    "OrdinalSumCopula",
    "InconclusiveError",
    "archimedean_copula",
    "extreme_value_copula",
    "ordinal_sum",
    "is_si_archimedean",
    "independence_generator",
    "clayton_generator",
    "gumbel_generator",
    "frank_generator",
    "tabulated_generator",
    "independence_pickands",
    "comonotone_pickands",
    "gumbel_pickands",
]


class InconclusiveError(CopulaError):
    """A numeric certificate could not be evaluated (not a negative verdict)."""


# points of the decreasing-and-convex audit of a generator
_GENERATOR_AUDIT_POINTS = 257

# bracket width and bracket doublings of _invert_decreasing
_INVERT_TOL = 1e-12
_INVERT_MAX_DOUBLINGS = 400

# largest |theta| for Frank: e^-|theta| stays a normal double up to it
_FRANK_MAX_THETA = -float(np.log(np.finfo(float).tiny))  # 708.39...


def _parameter(theta, family, bound=np.inf):
    """theta as a float, refused if it is NaN, infinite or beyond +-bound."""
    theta = float(theta)
    if not (np.isfinite(theta) and abs(theta) <= bound):
        within = f" with |theta| <= {bound:.6g}" if np.isfinite(bound) else ""
        raise DomainError(f"{family} requires a finite theta{within}, got {theta!r}")
    return theta


# ---------------------------------------------------------------------------
# Archimedean generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ArchimedeanGenerator:
    """Additive generator phi: [0, inf) -> (0, 1], decreasing and convex.

    ``phi_inverse`` must satisfy phi(phi_inverse(x)) = x on (0, 1];
    ``phi_prime`` is the first derivative (None when unavailable, in which
    case derivative-based checks report themselves inconclusive).
    ``quantile(u, w)`` is the exact inverse of t -> d1 C(u, t) of the
    copula, for u and w in (0, 1) (None when unavailable, in which case the
    conditional quantile bisects d1 C).
    """

    name: str
    phi: Callable
    phi_inverse: Callable
    phi_prime: Optional[Callable] = None
    theta: Optional[float] = None
    quantile: Optional[Callable] = None

    def __post_init__(self):
        self._validate()

    def _validate(self):
        if abs(float(self.phi(0.0)) - 1.0) > 1e-12:
            raise InvariantError(f"generator {self.name}: phi(0) must equal 1")
        # decreasing and convex on a quantile-spaced audit grid
        u = np.linspace(1e-6, 1.0 - 1e-9, _GENERATOR_AUDIT_POINTS)
        t = np.sort(np.asarray(self.phi_inverse(u), dtype=float))
        t = t[np.isfinite(t)]
        vals = np.asarray(self.phi(t), dtype=float)
        if np.any(np.diff(vals) > 1e-12):
            raise InvariantError(f"generator {self.name}: phi is not decreasing")
        if not _chord_convex(t, vals, 1e-9):
            raise InvariantError(f"generator {self.name}: phi is not convex")


def _chord_convex(t, g, tol):
    """Whether g is convex over the sorted points t: its chord slopes
    (repeated points skipped) never fall by more than tol times
    max(1, |slope|).  The slack is relative because the slopes of a
    generator diverge near t = 0 where phi'(0+) = -inf."""
    dt = np.diff(t)
    keep = dt > 0
    slopes = np.diff(g)[keep] / dt[keep]
    slack = tol * np.maximum(1.0, np.abs(slopes[:-1]))
    return bool(np.all(np.diff(slopes) >= -slack))


def independence_generator():
    """phi(t) = exp(-t); the resulting copula is the product copula."""
    return ArchimedeanGenerator(
        name="independence",
        phi=lambda t: np.exp(-np.asarray(t, dtype=float)),
        phi_inverse=lambda x: -np.log(np.asarray(x, dtype=float)),
        phi_prime=lambda t: -np.exp(-np.asarray(t, dtype=float)),
        quantile=lambda u, w: np.array(w, dtype=float),
    )


def clayton_generator(theta):
    """phi(t) = (1 + theta t)^(-1/theta), theta > 0."""
    theta = _parameter(theta, "Clayton")
    if theta <= 0:
        raise DomainError("Clayton requires theta > 0")

    def quantile(u, w):
        # (1 + u^-theta (w^(-theta/(1+theta)) - 1))^(-1/theta), with u^-theta
        # taken out of the bracket, so that a small u does not overflow it
        grow = np.expm1(-theta / (1.0 + theta) * np.log(w))
        return u * np.power(np.power(u, theta) + grow, -1.0 / theta)

    return ArchimedeanGenerator(
        name="clayton",
        theta=theta,
        phi=lambda t: np.power(1.0 + theta * np.asarray(t, dtype=float), -1.0 / theta),
        phi_inverse=lambda x: (np.power(np.asarray(x, dtype=float), -theta) - 1.0) / theta,
        phi_prime=lambda t: -np.power(1.0 + theta * np.asarray(t, dtype=float), -1.0 / theta - 1.0),
        quantile=quantile,
    )


def gumbel_generator(theta):
    """phi(t) = exp(-t^(1/theta)), theta >= 1."""
    theta = _parameter(theta, "Gumbel")
    if theta < 1:
        raise DomainError("Gumbel requires theta >= 1")

    def phi(t):
        return np.exp(-np.power(np.asarray(t, dtype=float), 1.0 / theta))

    def phi_inverse(x):
        return np.power(-np.log(np.asarray(x, dtype=float)), theta)

    def phi_prime(t):
        t = np.maximum(np.asarray(t, dtype=float), 1e-300)
        return -(1.0 / theta) * np.power(t, 1.0 / theta - 1.0) * np.exp(-np.power(t, 1.0 / theta))

    return ArchimedeanGenerator("gumbel", phi, phi_inverse, phi_prime, theta)


def frank_generator(theta):
    """phi(t) = -log(1 - (1 - e^-theta) e^-t) / theta, theta != 0.

    theta < 0 gives a negatively dependent copula whose log(-phi') is
    strictly concave, a handy counterexample for the SI criterion.

    For theta > 0, 1 - (1 - e^-theta) e^-t cancels near t = 0, where phi
    falls from 1 within t of the order of e^-theta; there it is taken as
    e^(-t-theta) - expm1(-t), and phi_inverse likewise avoids rounding its
    ratio to 1.  theta < 0 keeps the plain expressions.  |theta| is at
    most 708.39..., where e^-|theta| is still a normal double.
    """
    theta = _parameter(theta, "Frank", _FRANK_MAX_THETA)
    if theta == 0:
        raise DomainError("Frank requires theta != 0 (the limit is independence)")
    c = -np.expm1(-theta)  # 1 - e^-theta, sign(theta)

    def gap(t, e):
        """1 - c e^-t for theta > 0, with e = e^-t."""
        return np.where(c * e > 0.5, np.exp(-t - theta) - np.expm1(-t), 1.0 - c * e)

    def phi(t):
        t = np.asarray(t, dtype=float)
        if theta < 0:
            return -np.log1p(-c * np.exp(-t)) / theta
        e = np.exp(-t)
        near = c * e > 0.5
        # the placeholder 1/2 keeps log1p off -1 where the other branch applies
        far = np.log1p(-np.where(near, 0.5, c * e))
        return -np.where(near, np.log(gap(t, e)), far) / theta

    def phi_inverse(x):
        x = np.asarray(x, dtype=float)
        if theta < 0:
            return -np.log(np.expm1(-theta * x) / np.expm1(-theta))
        # where the ratio is near 1, take 1 - ratio = e^(-theta x) expm1(-theta
        # (1 - x)) / expm1(-theta); the placeholder x = 1 elsewhere keeps
        # log1p off -1
        ratio = np.expm1(-theta * x) / np.expm1(-theta)
        near = ratio > 0.5
        xs = np.where(near, x, 1.0)
        short = -np.log1p(-np.exp(-theta * xs) * np.expm1(-theta * (1.0 - xs)) / np.expm1(-theta))
        return np.where(near, short, -np.log(ratio))

    def phi_prime(t):
        t = np.asarray(t, dtype=float)
        e = np.exp(-t)
        if theta < 0:
            return -(c / theta) * e / (1.0 - c * e)
        return -(c / theta) * e / gap(t, e)

    def quantile(u, w):
        if theta < 0:
            return -np.log1p(w * np.expm1(-theta) / (w + (1.0 - w) * np.exp(-theta * u))) / theta
        # the same inverse, its terms kept positive: 1 + w expm1(-theta) / (w +
        # (1 - w) e^(-theta u)) cancels where theta > 0 and v is near 1
        rest = (1.0 - w) * np.exp(-theta * u) + w * np.exp(-theta)
        return np.log1p(w * c / rest) / theta

    return ArchimedeanGenerator("frank", phi, phi_inverse, phi_prime, theta, quantile)


def tabulated_generator(t_values, phi_values, name="tabulated"):
    """Generator from (t, phi(t)) samples via monotone cubic interpolation.

    The table must start at t = 0 with phi = 1 and be strictly decreasing
    in phi.  Outside the tabulated range phi decays exponentially with the
    boundary slope, keeping it positive and decreasing.
    """
    from scipy.interpolate import PchipInterpolator

    t = np.asarray(t_values, dtype=float)
    p = np.asarray(phi_values, dtype=float)
    if t.ndim != 1 or t.shape != p.shape or t.size < 4:
        raise InvariantError("need matching 1-d arrays with at least 4 samples")
    if t[0] != 0.0 or abs(p[0] - 1.0) > 1e-12:
        raise InvariantError("table must start at (0, 1)")
    if np.any(np.diff(t) <= 0) or np.any(np.diff(p) >= 0):
        raise InvariantError("t must increase strictly and phi decrease strictly")
    interp = PchipInterpolator(t, p, extrapolate=False)
    dinterp = interp.derivative()
    t_max = float(t[-1])
    p_max = float(p[-1])
    tail_rate = max(-float(dinterp(t_max)) / p_max, 1e-12)

    def phi(x):
        x = np.asarray(x, dtype=float)
        inside = interp(np.clip(x, 0.0, t_max))
        tail = p_max * np.exp(-tail_rate * (x - t_max))
        return np.where(x <= t_max, inside, tail)

    def phi_prime(x):
        x = np.asarray(x, dtype=float)
        inside = dinterp(np.clip(x, 0.0, t_max))
        tail = -tail_rate * p_max * np.exp(-tail_rate * (x - t_max))
        return np.where(x <= t_max, inside, tail)

    def phi_inverse(y):
        return _invert_decreasing(phi, y, hi_start=max(t_max, 1.0))

    return ArchimedeanGenerator(name, phi, phi_inverse, phi_prime)


def _invert_decreasing(f, y, hi_start):
    """Solve f(t) = y for decreasing f on [0, inf) by monotone bisection."""
    y = np.asarray(y, dtype=float)
    hi = np.full(y.shape, hi_start)
    for _ in range(_INVERT_MAX_DOUBLINGS):
        need = np.asarray(f(hi)) > y
        if not np.any(need):
            break
        hi = np.where(need, hi * 2.0, hi)
    lo = np.zeros_like(hi)
    # each point stops once its own bracket is within _INVERT_TOL, so its
    # value does not depend on the other points solved alongside it
    open_ = hi - lo > _INVERT_TOL
    while np.any(open_):
        mid = 0.5 * (lo + hi)
        high_side = np.asarray(f(mid)) > y
        lo = np.where(open_ & high_side, mid, lo)
        hi = np.where(open_ & ~high_side, mid, hi)
        open_ = hi - lo > _INVERT_TOL
    # an array for every y, 0-d for a scalar one, as phi returns
    return np.asarray(0.5 * (lo + hi))


def is_si_archimedean(gen: ArchimedeanGenerator, tol=1e-9, points=1001):
    """True iff t -> log(-phi'(t)) is convex on the audit grid.

    This is the membership criterion for the copula being stochastically
    increasing in both components.  The certificate checks that the chord
    slopes of log(-phi') are non-decreasing over a 1001-point grid placed
    at the quantiles phi_inverse(u), u uniform in (1e-6, 1 - 1e-6); grid
    convexity with slack ``tol`` is a sound but grid-limited certificate.

    Raises :class:`InconclusiveError` when the generator carries no
    derivative evaluator (not differentiable != not SI).
    """
    _check_tol(tol)
    points = _check_count(points, "points", least=3)
    if gen.phi_prime is None:
        raise InconclusiveError(
            f"generator {gen.name} has no derivative; SI criterion is inconclusive"
        )
    u = np.linspace(1e-6, 1.0 - 1e-6, points)
    t = np.unique(np.asarray(gen.phi_inverse(u), dtype=float))
    t = t[np.isfinite(t)]
    d = np.asarray(gen.phi_prime(t), dtype=float)
    if np.any(d >= 0):
        raise InconclusiveError(
            f"generator {gen.name}: phi' must be negative on the audit grid"
        )
    return _chord_convex(t, np.log(-d), tol)


@dataclass(frozen=True, eq=False)
class ArchimedeanCopula(Copula):
    """C(u, v) = phi(phi_inverse(u) + phi_inverse(v)).

    ``phi_inverse`` (and ``phi_prime`` of it) runs once per value of each
    argument, before the two broadcast against each other, so a u-by-v
    lattice costs one ``phi`` or ``phi_prime`` per point.  The edges 0 and
    1 take the margin limits.
    """

    generator: ArchimedeanGenerator

    def _cdf(self, u, v):
        g = self.generator
        tu, inner_u = _on_open_unit(g.phi_inverse, u, u)
        tv, inner_v = _on_open_unit(g.phi_inverse, v, v)
        # on an edge the placeholder 0 leaves phi of the other argument's
        # transform, or phi(0) = 1 (checked when the generator is built)
        out = np.asarray(g.phi(tu + tv), dtype=float)
        return _with_margins(out, u, v, inner_u.all() and inner_v.all())

    def _partial(self, component, u, v, side):
        if component == 2:
            u, v = v, u
        g = self.generator
        if g.phi_prime is None:
            return super()._partial(1, u, v, side)
        tu, inner_u = _on_open_unit(g.phi_inverse, u, u)
        tv, inner_v = _on_open_unit(g.phi_inverse, v, v)
        slope_u, _ = _on_open_unit(g.phi_prime, u, tu)
        s = tu + tv
        if inner_u.all() and inner_v.all():
            out = np.asarray(g.phi_prime(s), dtype=float) / slope_u
        else:
            interior = inner_u & inner_v
            slope_u = np.broadcast_to(slope_u, interior.shape)
            u, v = np.broadcast_arrays(u, v)
            out = np.empty(u.shape)
            out[v == 0.0] = 0.0
            out[v == 1.0] = 1.0
            u_edge = ~inner_u & inner_v
            if np.any(u_edge):
                out[u_edge] = _fd_partial(self._cdf, u[u_edge], v[u_edge], axis=0)
            if np.any(interior):
                out[interior] = np.asarray(g.phi_prime(s[interior])) / slope_u[interior]
        return out

    def _quantile(self, u, w):
        """The generator's closed-form inverse of t -> d1 C(u, t) where u and
        w lie in (0, 1), clipped to [0, 1] against rounding; the bisection
        on the edges and for generators without one."""
        kernel = self.generator.quantile
        if kernel is None:
            return super()._quantile(u, w)
        u, w = np.broadcast_arrays(u, w)
        inner = (u > 0.0) & (u < 1.0) & (w > 0.0) & (w < 1.0)
        out = np.empty(u.shape)
        out[inner] = kernel(u[inner], w[inner])
        edge = ~inner
        if edge.any():
            out[edge] = super()._quantile(u[edge], w[edge])
        return np.clip(out, 0.0, 1.0, out=out)

    def to_spec(self):
        return {
            "type": "archimedean",
            "family": self.generator.name,
            "theta": self.generator.theta,
        }


def _on_open_unit(f, x, arg):
    """f(arg) where 0 < x < 1, and 0 elsewhere (edge values the caller
    replaces), in the shape of x; also the mask of 0 < x < 1."""
    inner = (x > 0.0) & (x < 1.0)
    if inner.all():
        # f sees a contiguous array either way, as the masked gather gives it
        return np.asarray(f(arg if arg.flags.c_contiguous else arg.copy()), dtype=float), inner
    out = np.zeros(x.shape)
    out[inner] = f(arg[inner])
    return out, inner


def _with_margins(out, u, v, inner):
    """``out`` with the margin limits 0 where u or v is 0, u where v = 1 and
    v where u = 1, unless ``inner`` (all of u and v in (0, 1))."""
    if not inner:
        u, v = np.broadcast_arrays(u, v)
        u_one, v_one = u == 1.0, v == 1.0
        out[v_one] = u[v_one]
        out[u_one] = v[u_one]  # C(1, 1) = 1 either way
        out[(u == 0.0) | (v == 0.0)] = 0.0
    return out


def archimedean_copula(gen: ArchimedeanGenerator) -> ArchimedeanCopula:
    """Copula with additive generator ``gen``."""
    return ArchimedeanCopula(gen)


# ---------------------------------------------------------------------------
# extreme-value copulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PickandsFunction:
    """Pickands dependence function A: [0, 1] -> [1/2, 1].

    Construction certifies max(t, 1-t) <= A(t) <= 1 within 1e-12, and
    convexity (chord slopes falling by at most 1e-9), on a uniform
    1001-point grid.
    """

    name: str
    func: Callable
    deriv: Optional[Callable] = None
    theta: Optional[float] = None

    def __post_init__(self):
        t = np.linspace(0.0, 1.0, 1001)
        a = np.asarray(self.func(t), dtype=float)
        lo = np.maximum(t, 1.0 - t)
        if np.any(a < lo - 1e-12) or np.any(a > 1.0 + 1e-12):
            raise InvariantError(
                f"Pickands function {self.name} leaves the band max(t, 1-t) <= A <= 1"
            )
        # slopes of a valid A lie in [-1, 1], so the slack is 1e-12 on the
        # second differences of the grid step 1e-3
        if not _chord_convex(t, a, 1e-9):
            raise InvariantError(f"Pickands function {self.name} is not convex")

    def __call__(self, t):
        return self.func(np.asarray(t, dtype=float))

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.deriv is not None:
            return np.asarray(self.deriv(t), dtype=float)
        return _fd_partial(lambda x, _: self.func(x), t, None, axis=0)


def independence_pickands():
    """A = 1, giving the product copula."""
    return PickandsFunction(
        "independence",
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        deriv=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def comonotone_pickands():
    """A(t) = max(t, 1-t), giving the upper Frechet bound."""
    return PickandsFunction(
        "comonotone",
        lambda t: np.maximum(t, 1.0 - np.asarray(t, dtype=float)),
        deriv=lambda t: np.where(np.asarray(t, dtype=float) < 0.5, -1.0, 1.0),
    )


def gumbel_pickands(theta):
    """A(t) = (t^theta + (1-t)^theta)^(1/theta), theta >= 1."""
    theta = _parameter(theta, "Gumbel Pickands")
    if theta < 1:
        raise DomainError("Gumbel Pickands requires theta >= 1")

    def func(t):
        t = np.asarray(t, dtype=float)
        return np.power(np.power(t, theta) + np.power(1.0 - t, theta), 1.0 / theta)

    def deriv(t):
        t = np.clip(np.asarray(t, dtype=float), 1e-12, 1.0 - 1e-12)
        s = np.power(t, theta) + np.power(1.0 - t, theta)
        return (np.power(t, theta - 1.0) - np.power(1.0 - t, theta - 1.0)) * np.power(
            s, 1.0 / theta - 1.0
        )

    return PickandsFunction("gumbel", func, deriv=deriv, theta=theta)


@dataclass(frozen=True, eq=False)
class ExtremeValueCopula(Copula):
    """C(u, v) = exp(log(uv) A(log u / log uv)).

    ``log`` runs once per argument value, before the broadcast.  The cdf
    takes the margin limits on the edges.  The derivative in x, the other
    argument being y, is 0 at y = 0, 1 at y = 1, a finite difference of the
    cdf at x = 0 and the formula at x = 1.  Stochastic increasingness in
    both components is asserted by the family (and exercised by the test
    suite at grid resolution 64), not re-derived pointwise.
    """

    pickands: PickandsFunction

    def _cdf(self, u, v):
        total, _, a, inner = self._exponent(u, v)
        return _with_margins(np.asarray(np.exp(total * a), dtype=float), u, v, inner)

    def _exponent(self, u, v):
        """log uv, t = log u / log uv, A(t), and whether all of u and v lie in
        (0, 1).  0 stands in for log 0 (log 1 = 0 is exact), and for t where
        log uv = 0."""
        lu, inner_u = _on_open_unit(np.log, u, u)
        lv, inner_v = _on_open_unit(np.log, v, v)
        total = lu + lv
        t = np.divide(lu, total, out=np.zeros(total.shape), where=total != 0.0)
        return total, t, self.pickands(t), inner_u.all() and inner_v.all()

    def _partial(self, component, u, v, side):
        """d/du (component 1) or d/dv (component 2):
        exp(log(uv) A(t)) (A(t) + w A'(t)) / x with x = u, w = 1 - t or
        x = v, w = -t."""
        total, t, a, inner = self._exponent(u, v)
        x, w = (u, 1.0 - t) if component == 1 else (v, -t)
        # 1 stands in for x = 0, where the finite difference replaces the value
        scale = x if inner else np.where(x > 0.0, x, 1.0)
        out = np.exp(total * a) * (a + w * self.pickands.derivative(t)) / scale
        out = np.asarray(out, dtype=float)
        if not inner:
            u, v = np.broadcast_arrays(u, v)
            x, y = (u, v) if component == 1 else (v, u)
            out[y == 0.0] = 0.0
            out[y == 1.0] = 1.0
            x_zero = (x == 0.0) & (y > 0.0) & (y < 1.0)
            if np.any(x_zero):
                out[x_zero] = _fd_partial(self._cdf, u[x_zero], v[x_zero], axis=component - 1)
        return out

    def to_spec(self):
        return {
            "type": "extreme-value",
            "family": self.pickands.name,
            "theta": self.pickands.theta,
        }


def extreme_value_copula(pickands: PickandsFunction) -> ExtremeValueCopula:
    """Extreme-value copula with Pickands dependence function ``pickands``."""
    return ExtremeValueCopula(pickands)


# ---------------------------------------------------------------------------
# ordinal sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OrdinalSumCopula(Copula):
    """Rescaled components on the diagonal blocks (a_k, b_k)^2, the upper
    Frechet bound everywhere else.  An empty family is the upper bound."""

    intervals: IntervalFamily
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != len(self.intervals):
            raise InvariantError(
                f"{len(self.intervals)} intervals but {len(comps)} components"
            )
        for c in comps:
            if not isinstance(c, Copula):
                raise InvariantError("components must be Copula instances")
        object.__setattr__(self, "components", comps)

    def _blockwise(self, u, v, base, block):
        u, v = np.broadcast_arrays(u, v)
        out = np.array(base(u, v), dtype=float)
        for (a, b), comp in zip(self.intervals, self.components):
            inside = (u > a) & (u < b) & (v > a) & (v < b)
            if np.any(inside):
                w = b - a
                out[inside] = block(comp, a, w, (u[inside] - a) / w, (v[inside] - a) / w)
        return out

    def _cdf(self, u, v):
        return self._blockwise(
            u,
            v,
            np.minimum,
            lambda comp, a, w, s, t: a + w * comp._cdf(s, t),
        )

    def _partial(self, component, u, v, side):
        upper = UpperFrechetCopula()
        return self._blockwise(
            u,
            v,
            lambda uu, vv: upper._partial(component, uu, vv, side),
            lambda comp, a, w, s, t: comp._partial(component, s, t, side),
        )

    def knots_u(self):
        return self.intervals.endpoints()

    knots_v = knots_u

    def conditional_knots(self, u):
        knots = list(self.intervals.endpoints())
        knots.append(float(u))  # off-block diagonal ridge of the upper bound
        for (a, b), comp in zip(self.intervals, self.components):
            if a < u < b:
                w = b - a
                knots.extend(a + w * np.asarray(comp.conditional_knots((u - a) / w)))
        return tuple(knots)

    def to_spec(self):
        return {
            "type": "ordinal-sum",
            "intervals": self.intervals.to_list(),
            "components": [c.to_spec() for c in self.components],
        }


def ordinal_sum(intervals, components) -> OrdinalSumCopula:
    """Ordinal sum of ``components`` over ``intervals`` (may both be empty)."""
    if not isinstance(intervals, IntervalFamily):
        intervals = IntervalFamily.from_list(intervals)
    return OrdinalSumCopula(intervals, tuple(components))
