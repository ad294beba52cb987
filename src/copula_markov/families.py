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
    DomainError,
    InvariantError,
    IntervalFamily,
    UpperFrechetCopula,
    _check_unit,
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


class InconclusiveError(Exception):
    """A numeric certificate could not be evaluated (not a negative verdict)."""


# ---------------------------------------------------------------------------
# Archimedean generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ArchimedeanGenerator:
    """Additive generator phi: [0, inf) -> (0, 1], decreasing and convex.

    ``phi_inverse`` must satisfy phi(phi_inverse(x)) = x on (0, 1];
    ``phi_prime`` is the first derivative (None when unavailable, in which
    case derivative-based checks report themselves inconclusive).
    """

    name: str
    phi: Callable
    phi_inverse: Callable
    phi_prime: Optional[Callable] = None
    theta: Optional[float] = None

    def __post_init__(self):
        self._validate()

    def _validate(self, points=257):
        if abs(float(self.phi(0.0)) - 1.0) > 1e-12:
            raise InvariantError(f"generator {self.name}: phi(0) must equal 1")
        # decreasing and convex on a quantile-spaced audit grid
        u = np.linspace(1e-6, 1.0 - 1e-9, points)
        t = np.sort(np.asarray(self.phi_inverse(u), dtype=float))
        t = t[np.isfinite(t)]
        vals = np.asarray(self.phi(t), dtype=float)
        if np.any(np.diff(vals) > 1e-12):
            raise InvariantError(f"generator {self.name}: phi is not decreasing")
        dt = np.diff(t)
        keep = dt > 0
        slopes = np.diff(vals)[keep] / dt[keep]
        # slopes diverge near t = 0 for generators with phi'(0+) = -inf, so
        # the convexity slack must scale with the slope magnitude
        slack = 1e-9 * np.maximum(1.0, np.abs(slopes[:-1]))
        if np.any(np.diff(slopes) < -slack):
            raise InvariantError(f"generator {self.name}: phi is not convex")


def independence_generator():
    """phi(t) = exp(-t); the resulting copula is the product copula."""
    return ArchimedeanGenerator(
        name="independence",
        phi=lambda t: np.exp(-np.asarray(t, dtype=float)),
        phi_inverse=lambda x: -np.log(np.asarray(x, dtype=float)),
        phi_prime=lambda t: -np.exp(-np.asarray(t, dtype=float)),
    )


def clayton_generator(theta):
    """phi(t) = (1 + theta t)^(-1/theta), theta > 0."""
    theta = float(theta)
    if theta <= 0:
        raise DomainError("Clayton requires theta > 0")
    return ArchimedeanGenerator(
        name="clayton",
        theta=theta,
        phi=lambda t: np.power(1.0 + theta * np.asarray(t, dtype=float), -1.0 / theta),
        phi_inverse=lambda x: (np.power(np.asarray(x, dtype=float), -theta) - 1.0) / theta,
        phi_prime=lambda t: -np.power(1.0 + theta * np.asarray(t, dtype=float), -1.0 / theta - 1.0),
    )


def gumbel_generator(theta):
    """phi(t) = exp(-t^(1/theta)), theta >= 1."""
    theta = float(theta)
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
    """
    theta = float(theta)
    if theta == 0:
        raise DomainError("Frank requires theta != 0 (the limit is independence)")
    c = -np.expm1(-theta)  # 1 - e^-theta, sign(theta)

    def phi(t):
        return -np.log1p(-c * np.exp(-np.asarray(t, dtype=float))) / theta

    def phi_inverse(x):
        x = np.asarray(x, dtype=float)
        return -np.log(np.expm1(-theta * x) / np.expm1(-theta))

    def phi_prime(t):
        e = np.exp(-np.asarray(t, dtype=float))
        return -(c / theta) * e / (1.0 - c * e)

    return ArchimedeanGenerator("frank", phi, phi_inverse, phi_prime, theta)


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


def _invert_decreasing(f, y, hi_start=1.0, tol=1e-12, max_doublings=400):
    """Solve f(t) = y for decreasing f on [0, inf) by monotone bisection."""
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    hi = np.full(y.shape, hi_start)
    for _ in range(max_doublings):
        need = np.asarray(f(hi)) > y
        if not np.any(need):
            break
        hi = np.where(need, hi * 2.0, hi)
    lo = np.zeros_like(hi)
    # each point stops once its own bracket is within tol, so its value
    # does not depend on the other points solved alongside it
    open_ = hi - lo > tol
    while np.any(open_):
        mid = 0.5 * (lo + hi)
        high_side = np.asarray(f(mid)) > y
        lo = np.where(open_ & high_side, mid, lo)
        hi = np.where(open_ & ~high_side, mid, hi)
        open_ = hi - lo > tol
    out = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out


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
    g = np.log(-d)
    slopes = np.diff(g) / np.diff(t)
    slack = tol * np.maximum(1.0, np.abs(slopes[:-1]))
    return bool(np.all(np.diff(slopes) >= -slack))


@dataclass(frozen=True, eq=False)
class ArchimedeanCopula(Copula):
    """C(u, v) = phi(phi_inverse(u) + phi_inverse(v)).

    ``phi_inverse`` (and ``phi_prime`` of it) runs once per value of each
    argument, before the two broadcast against each other, so a u-by-v
    lattice costs one ``phi`` or ``phi_prime`` per point.  The edges 0 and
    1 take the margin limits.
    """

    generator: ArchimedeanGenerator

    def cdf(self, u, v):
        u = _check_unit(u, "u")
        v = _check_unit(v, "v")
        g = self.generator
        tu, inner_u = _on_open_unit(g.phi_inverse, u, u)
        tv, inner_v = _on_open_unit(g.phi_inverse, v, v)
        # on an edge the placeholder 0 leaves phi of the other argument's
        # transform, or phi(0) = 1 (checked when the generator is built)
        out = np.asarray(g.phi(tu + tv), dtype=float)
        return _with_margins(out, u, v, inner_u.all() and inner_v.all())

    def _pd1(self, u, v, side):
        g = self.generator
        if g.phi_prime is None:
            return super()._pd1(u, v, side)
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
                out[u_edge] = _fd_partial(self.cdf, u[u_edge], v[u_edge], axis=0)
            if np.any(interior):
                out[interior] = np.asarray(g.phi_prime(s[interior])) / slope_u[interior]
        return out if out.shape else float(out)

    def _pd2(self, u, v, side):
        return self._pd1(v, u, side)

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
    v where u = 1, unless ``inner`` (all of u and v in (0, 1)); scalar: float."""
    if not inner:
        u, v = np.broadcast_arrays(u, v)
        u_one, v_one = u == 1.0, v == 1.0
        out[v_one] = u[v_one]
        out[u_one] = v[u_one]  # C(1, 1) = 1 either way
        out[(u == 0.0) | (v == 0.0)] = 0.0
    return out if out.shape else float(out)


def archimedean_copula(gen: ArchimedeanGenerator) -> ArchimedeanCopula:
    """Copula with additive generator ``gen``."""
    return ArchimedeanCopula(gen)


# ---------------------------------------------------------------------------
# extreme-value copulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PickandsFunction:
    """Pickands dependence function A: [0, 1] -> [1/2, 1].

    Construction certifies max(t, 1-t) <= A(t) <= 1 and midpoint convexity
    on a uniform 1001-point grid, both within 1e-12.
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
        if np.any(a[:-2] + a[2:] - 2.0 * a[1:-1] < -1e-12):
            raise InvariantError(f"Pickands function {self.name} is not midpoint convex")

    def __call__(self, t):
        return self.func(np.asarray(t, dtype=float))

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.deriv is not None:
            return np.asarray(self.deriv(t), dtype=float)
        h = 1e-6
        lo = np.clip(t - h, 0.0, 1.0 - 2 * h)
        return (self.func(lo + 2 * h) - self.func(lo)) / (2 * h)


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
    theta = float(theta)
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

    def cdf(self, u, v):
        u = _check_unit(u, "u")
        v = _check_unit(v, "v")
        total, _, a, inner = self._exponent(u, v)
        return _with_margins(np.asarray(np.exp(total * a), dtype=float), u, v, inner)

    def _pd1(self, u, v, side):
        return self._partial(u, v, axis=0)

    def _pd2(self, u, v, side):
        return self._partial(u, v, axis=1)

    def _exponent(self, u, v):
        """log uv, t = log u / log uv, A(t), and whether all of u and v lie in
        (0, 1).  0 stands in for log 0 (log 1 = 0 is exact), and for t where
        log uv = 0."""
        lu, inner_u = _on_open_unit(np.log, u, u)
        lv, inner_v = _on_open_unit(np.log, v, v)
        total = lu + lv
        t = np.divide(lu, total, out=np.zeros(total.shape), where=total != 0.0)
        return total, t, self.pickands(t), inner_u.all() and inner_v.all()

    def _partial(self, u, v, axis):
        """d/du (axis 0) or d/dv (axis 1): exp(log(uv) A(t)) (A(t) + w A'(t)) / x
        with x = u, w = 1 - t or x = v, w = -t."""
        total, t, a, inner = self._exponent(u, v)
        x, w = (u, 1.0 - t) if axis == 0 else (v, -t)
        # 1 stands in for x = 0, where the finite difference replaces the value
        scale = x if inner else np.where(x > 0.0, x, 1.0)
        out = np.exp(total * a) * (a + w * self.pickands.derivative(t)) / scale
        out = np.asarray(out, dtype=float)
        if not inner:
            u, v = np.broadcast_arrays(u, v)
            x, y = (u, v) if axis == 0 else (v, u)
            out[y == 0.0] = 0.0
            out[y == 1.0] = 1.0
            x_zero = (x == 0.0) & (y > 0.0) & (y < 1.0)
            if np.any(x_zero):
                out[x_zero] = _fd_partial(self.cdf, u[x_zero], v[x_zero], axis=axis)
        return out if out.shape else float(out)

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
        scalar = np.ndim(u) == 0 and np.ndim(v) == 0
        u, v = np.atleast_1d(*np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float)))
        out = np.array(base(u, v), dtype=float)
        for (a, b), comp in zip(self.intervals, self.components):
            inside = (u > a) & (u < b) & (v > a) & (v < b)
            if np.any(inside):
                w = b - a
                out[inside] = block(comp, a, w, (u[inside] - a) / w, (v[inside] - a) / w)
        return float(out[0]) if scalar else out

    def cdf(self, u, v):
        u = _check_unit(u, "u")
        v = _check_unit(v, "v")
        return self._blockwise(
            u,
            v,
            np.minimum,
            lambda comp, a, w, s, t: a + w * np.asarray(comp.cdf(s, t)),
        )

    def _pd1(self, u, v, side):
        return self._partial(1, u, v, side)

    def _pd2(self, u, v, side):
        return self._partial(2, u, v, side)

    def _partial(self, component, u, v, side):
        upper = UpperFrechetCopula()
        base = upper._pd1 if component == 1 else upper._pd2
        return self._blockwise(
            u,
            v,
            lambda uu, vv: base(uu, vv, side),
            lambda comp, a, w, s, t: np.asarray(comp.partial_derivative(component, s, t, side)),
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
