import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copula_markov import (
    ArchimedeanGenerator,
    DomainError,
    GridCopula,
    InconclusiveError,
    IndependenceCopula,
    InvariantError,
    LowerFrechetCopula,
    PickandsFunction,
    UpperFrechetCopula,
    archimedean_copula,
    check_si,
    clayton_generator,
    comonotone_pickands,
    extreme_value_copula,
    frank_generator,
    gumbel_generator,
    gumbel_pickands,
    independence_generator,
    independence_pickands,
    is_si_archimedean,
    ordinal_sum,
    tabulated_generator,
    transpose,
)
from copula_markov.core import Copula, _fd_partial
from copula_markov.serialize import copula_from_spec

from conftest import CHECKER3


# ---------------------------------------------------------------------------
# Archimedean copulas
# ---------------------------------------------------------------------------


def test_independence_generator_gives_product(rng):
    cop = archimedean_copula(independence_generator())
    for _ in range(20):
        u, v = rng.random(2)
        assert cop.cdf(u, v) == pytest.approx(u * v, abs=1e-14)


def test_clayton_small_theta_approaches_independence():
    cop = archimedean_copula(clayton_generator(1e-6))
    assert cop.cdf(0.5, 0.5) == pytest.approx(0.25, abs=1e-6)


def test_clayton_closed_form(rng):
    theta = 2.0
    cop = archimedean_copula(clayton_generator(theta))
    for _ in range(20):
        u, v = rng.random(2)
        expected = (u ** -theta + v ** -theta - 1.0) ** (-1.0 / theta)
        assert cop.cdf(u, v) == pytest.approx(expected, abs=1e-12)


def test_frank_closed_form(rng):
    theta = 4.0
    cop = archimedean_copula(frank_generator(theta))
    for _ in range(20):
        u, v = rng.random(2)
        expected = -np.log1p(
            np.expm1(-theta * u) * np.expm1(-theta * v) / np.expm1(-theta)
        ) / theta
        assert cop.cdf(u, v) == pytest.approx(expected, abs=1e-12)


def test_archimedean_margins(rng):
    for gen in (clayton_generator(3.0), gumbel_generator(2.5), frank_generator(-2.0)):
        cop = archimedean_copula(gen)
        for _ in range(10):
            u = rng.random()
            assert cop.cdf(u, 1.0) == pytest.approx(u, abs=1e-12)
            assert cop.cdf(1.0, u) == pytest.approx(u, abs=1e-12)
            assert cop.cdf(u, 0.0) == 0.0
            assert cop.cdf(0.0, u) == 0.0


def test_archimedean_partial_derivative_against_finite_differences(rng):
    h = 1e-7
    for gen in (clayton_generator(2.0), gumbel_generator(1.7), frank_generator(3.0)):
        cop = archimedean_copula(gen)
        for _ in range(15):
            u, v = rng.uniform(0.05, 0.95, size=2)
            fd = (cop.cdf(u + h, v) - cop.cdf(u - h, v)) / (2 * h)
            assert cop.partial_derivative(1, u, v) == pytest.approx(fd, abs=1e-6)


def test_generator_parameter_ranges():
    with pytest.raises(DomainError):
        clayton_generator(0.0)
    with pytest.raises(DomainError):
        gumbel_generator(0.5)
    with pytest.raises(DomainError):
        frank_generator(0.0)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "factory", [clayton_generator, gumbel_generator, frank_generator, gumbel_pickands]
)
def test_non_finite_parameters_rejected(factory, theta):
    with pytest.raises(DomainError, match="finite theta"):
        factory(theta)


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "archimedean", "family": "clayton", "theta": np.nan},
        {"type": "archimedean", "family": "gumbel", "theta": np.inf},
        {"type": "archimedean", "family": "frank", "theta": -np.inf},
        {"type": "archimedean", "family": "frank", "theta": 740.0},
        {"type": "extreme-value", "family": "gumbel", "theta": np.nan},
        {"type": "extreme-value", "family": "gumbel", "theta": np.inf},
    ],
)
def test_non_finite_parameters_rejected_from_specs(spec):
    with pytest.raises(DomainError, match="finite theta"):
        copula_from_spec(spec)


@pytest.mark.parametrize("theta", [740.0, 800.0, -750.0, 708.4, -708.4])
def test_frank_refuses_theta_whose_exponential_is_subnormal(theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"\|theta\| <= 708\.396"):
            frank_generator(theta)


@pytest.mark.parametrize("theta", [708.39, -708.39])
def test_frank_builds_up_to_the_normal_range(theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cop = archimedean_copula(frank_generator(theta))
        value = cop.cdf(0.3, 0.6)
    assert value == pytest.approx(0.3 if theta > 0 else 0.0, abs=1e-12)


def test_generator_invariants_rejected():
    # phi(0) != 1
    with pytest.raises(InvariantError):
        ArchimedeanGenerator(
            "bad", lambda t: 0.9 * np.exp(-np.asarray(t, float)),
            lambda x: -np.log(np.asarray(x, float) / 0.9),
        )
    # phi rises at t = 1
    with pytest.raises(InvariantError, match="not decreasing"):
        ArchimedeanGenerator(
            "rising", lambda t: np.exp(-np.asarray(t, float)) + 0.5 * (np.asarray(t, float) > 1.0),
            lambda x: -np.log(np.asarray(x, float)),
        )


def broadcast_archimedean_cdf(gen, u, v):
    """Archimedean cdf with the generator inverse applied point by point on
    the broadcast arguments: the reference for the per-axis evaluation."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    out = np.empty(u.shape)
    zero = (u == 0.0) | (v == 0.0)
    u_one = (v == 1.0) & ~zero
    v_one = (u == 1.0) & ~zero & ~u_one
    interior = ~(zero | u_one | v_one)
    out[zero] = 0.0
    out[u_one] = u[u_one]
    out[v_one] = v[v_one]
    if np.any(interior):
        s = np.asarray(gen.phi_inverse(u[interior])) + np.asarray(gen.phi_inverse(v[interior]))
        out[interior] = gen.phi(s)
    return out


def broadcast_archimedean_pd1(cop, u, v):
    """d1 of an Archimedean copula, point by point on the broadcast
    arguments (the reference for the per-axis evaluation)."""
    gen = cop.generator
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    out = np.empty(u.shape)
    v_zero = v == 0.0
    v_one = (v == 1.0) & ~v_zero
    u_edge = ((u == 0.0) | (u == 1.0)) & ~(v_zero | v_one)
    interior = ~(v_zero | v_one | u_edge)
    out[v_zero] = 0.0
    out[v_one] = 1.0
    if np.any(u_edge):
        out[u_edge] = _fd_partial(cop.cdf, u[u_edge], v[u_edge], axis=0)
    if np.any(interior):
        ti = np.asarray(gen.phi_inverse(u[interior]))
        s = ti + np.asarray(gen.phi_inverse(v[interior]))
        out[interior] = np.asarray(gen.phi_prime(s)) / np.asarray(gen.phi_prime(ti))
    return out


TABLE_T = np.concatenate([[0.0], np.geomspace(1e-4, 60.0, 400)])


@pytest.mark.parametrize(
    "gen",
    [
        independence_generator(),
        clayton_generator(0.5),
        clayton_generator(2.0),
        gumbel_generator(1.0),
        gumbel_generator(2.5),
        frank_generator(-3.0),
        frank_generator(5.0),
        tabulated_generator(TABLE_T, clayton_generator(1.5).phi(TABLE_T)),
    ],
    ids=lambda gen: f"{gen.name}-{gen.theta}",
)
def test_archimedean_per_axis_evaluation_matches_the_broadcast_path(gen, rng):
    cop = archimedean_copula(gen)
    axis = np.linspace(0.0, 1.0, 65)  # holds both edges
    flat_u, flat_v = rng.random(200), rng.random(200)
    flat_u[:10], flat_u[10:20] = 0.0, 1.0
    flat_v[15:25], flat_v[25:35] = 0.0, 1.0
    cases = [
        (axis[:, None], axis[None, :]),
        (axis[:, None], axis),
        (axis[1:-1, None], axis[1:-1]),  # all interior
        (flat_u, flat_v),
        (0.3, axis),
        (axis, 1.0),
    ] + [(a, b) for a in (0.0, 0.4, 1.0) for b in (0.0, 0.7, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for u, v in cases:
            assert np.array_equal(cop.cdf(u, v), broadcast_archimedean_cdf(gen, u, v))
            assert np.array_equal(
                cop.partial_derivative(1, u, v), broadcast_archimedean_pd1(cop, u, v)
            )
            assert np.array_equal(
                cop.partial_derivative(2, u, v), broadcast_archimedean_pd1(cop, v, u)
            )
            if np.ndim(u) == 0 and np.ndim(v) == 0:
                assert isinstance(cop.cdf(u, v), float)
                assert isinstance(cop.partial_derivative(1, u, v), float)


def stable_frank_cdf(theta, u, v):
    """Frank cdf for theta > 0 as -(log N - log1p(-e^-theta)) / theta, where
    N = -e^(-theta u) expm1(-theta v) - e^(-theta v) expm1(-theta (1 - v))
    sums two nonnegative terms: the reference for strong dependence."""
    n = -np.exp(-theta * u) * np.expm1(-theta * v) - np.exp(-theta * v) * np.expm1(
        -theta * (1.0 - v)
    )
    return -(np.log(n) - np.log1p(-np.exp(-theta))) / theta


@pytest.mark.parametrize("theta", [15.0, 25.0, 40.0, 100.0])
def test_frank_strong_positive_dependence_builds_and_keeps_its_cdf(theta):
    grid = np.array([1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cop = archimedean_copula(frank_generator(theta))
        values = cop.cdf(grid[:, None], grid[None, :])
    expected = stable_frank_cdf(theta, grid[:, None], grid[None, :])
    assert np.max(np.abs(values - expected)) <= 1e-12
    assert is_si_archimedean(cop.generator)


@pytest.mark.parametrize("theta", [-3.0, -0.5])
def test_frank_negative_theta_keeps_its_plain_expressions(theta):
    gen = frank_generator(theta)
    t = np.linspace(0.0, 5.0, 101)
    x = np.linspace(1e-6, 1.0, 101)
    c = -np.expm1(-theta)
    e = np.exp(-t)
    assert np.array_equal(gen.phi(t), -np.log1p(-c * np.exp(-t)) / theta)
    assert np.array_equal(gen.phi_prime(t), -(c / theta) * e / (1.0 - c * e))
    assert np.array_equal(
        gen.phi_inverse(x), -np.log(np.expm1(-theta * x) / np.expm1(-theta))
    )


# ---------------------------------------------------------------------------
# closed-form conditional quantiles
# ---------------------------------------------------------------------------


def exact_quantile(family, theta, u, w):
    """Inverse of t -> d1 C(u, t) in decimal arithmetic, with 50 digits
    beyond the two that e^-theta - 1 and log(1 + ratio) cancel for small
    theta."""
    theta, u, w = Decimal(theta), Decimal(u), Decimal(w)
    with localcontext() as ctx:
        ctx.prec = 50 + 2 * max(0, -theta.adjusted())
        if family == "clayton":
            inner = 1 + u ** -theta * (w ** (-theta / (1 + theta)) - 1)
            return float(inner ** (-1 / theta))
        ratio = w * ((-theta).exp() - 1) / (w + (1 - w) * (-theta * u).exp())
        return float(-(1 + ratio).ln() / theta)


INNER = st.floats(1e-6, 1.0 - 1e-6)
QUANTILE_CASES = st.one_of(
    st.tuples(st.just("clayton"), st.floats(0.1, 20.0)),
    st.tuples(
        st.just("frank"),
        st.floats(-10.0, 10.0, allow_subnormal=False).filter(lambda t: t != 0.0),
    ),
)
GENERATORS = {"clayton": clayton_generator, "frank": frank_generator}


@settings(max_examples=300, deadline=None)
@given(case=QUANTILE_CASES, u=INNER, w=INNER)
def test_archimedean_quantile_kernel_inverts_the_conditional_law(case, u, w):
    family, theta = case
    cop = archimedean_copula(GENERATORS[family](theta))
    q = float(cop.conditional_quantile(u, w))
    exact = exact_quantile(family, theta, u, w)
    assert abs(q - exact) <= 1e-13
    assert abs(cop.partial_derivative(1, u, q) - w) <= 1e-11
    # the bisection's answer can be no closer than ~1e-16 / density, up to
    # 2e-11 off where the conditional law is nearly flat (Clayton(1) at
    # u = 3.4e-6, w = 1 - 1.9e-6, say); past 1e-12 the gap is its own error
    bisected = float(Copula._quantile(cop, np.asarray(u), np.asarray(w)))
    assert abs(q - bisected) <= 1e-12 + abs(bisected - exact)


@pytest.mark.parametrize(
    "gen", [clayton_generator(2.0), frank_generator(-3.0), frank_generator(4.0)],
    ids=lambda gen: f"{gen.name}-{gen.theta}",
)
def test_archimedean_quantile_edges_bisect_without_a_warning(gen):
    cop = archimedean_copula(gen)
    u = np.array([0.0, 1.0, 0.0, 1.0, 0.3, 0.3, 0.0, 0.3])
    w = np.array([0.4, 0.4, 0.0, 1.0, 0.0, 1.0, 1e-300, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = cop.conditional_quantile(u, w)
        # the first seven points lie on an edge: the bisection alone solves them
        edge = slice(0, 7)
        bisected = Copula._quantile(cop, u[edge], w[edge])
        assert np.array_equal(q[edge], bisected)
        # w = 1e-300, the floor of Copula.sample, is inner: the kernel's
        # quantile reaches down to it
        assert 0.0 < q[-1] < 1e-100
        assert abs(cop.partial_derivative(1, 0.3, q[-1]) - 1e-300) <= 1e-310


def test_independence_generator_quantile_is_w(rng):
    cop = archimedean_copula(independence_generator())
    u, w = rng.random(50), rng.random(50)
    assert np.array_equal(cop.conditional_quantile(u, w), w)


def test_archimedean_quantile_without_a_kernel_bisects(rng):
    cop = archimedean_copula(gumbel_generator(2.0))
    u, w = rng.random(20), rng.random(20)
    assert np.array_equal(cop.conditional_quantile(u, w), Copula._quantile(cop, u, w))


@pytest.mark.parametrize(
    "cop",
    [
        archimedean_copula(gumbel_generator(2.0)),
        extreme_value_copula(gumbel_pickands(2.5)),
        ordinal_sum([(0.2, 0.6)], [archimedean_copula(clayton_generator(2.0))]),
        transpose(extreme_value_copula(gumbel_pickands(2.5))),
    ],
    ids=["gumbel-archimedean", "gumbel-ev", "ordinal-sum", "transposed-ev"],
)
def test_bisected_quantile_of_zero_is_zero(cop, rng):
    # inf{t : d1 C(u, t) >= 0} = 0 on every carrier
    u = np.array([0.0, 0.5, 0.9, 1.0])
    assert np.array_equal(cop.conditional_quantile(u, 0.0), np.zeros(4))
    assert cop.conditional_quantile(0.5, 0.0) == 0.0
    w = rng.random(8)
    assert np.all(cop.conditional_quantile(0.5, w) > 0.0)


# ---------------------------------------------------------------------------
# the SI membership criterion
# ---------------------------------------------------------------------------


def test_si_criterion_exponential_generator():
    # log(-phi') = -t is linear, hence convex
    assert is_si_archimedean(independence_generator()) is True


def test_si_criterion_clayton_cross_checked_at_grid():
    gen = clayton_generator(2.0)
    assert is_si_archimedean(gen) is True
    grid = archimedean_copula(gen).discretize(64)
    assert check_si(grid, component=1, tol=1e-10).si


def test_si_criterion_negative_frank_cross_checked_at_grid():
    # for theta < 0 the log-derivative of the Frank generator is strictly
    # concave, so the copula cannot be stochastically increasing
    gen = frank_generator(-5.0)
    assert is_si_archimedean(gen) is False
    verdict = check_si(archimedean_copula(gen).discretize(64), 1, tol=1e-10)
    assert not verdict.si
    assert verdict.sd


def test_si_criterion_gumbel_and_positive_frank():
    assert is_si_archimedean(gumbel_generator(3.0)) is True
    assert is_si_archimedean(frank_generator(4.0)) is True


def test_si_criterion_inconclusive_without_derivative():
    gen = ArchimedeanGenerator(
        "no-deriv",
        lambda t: np.exp(-np.asarray(t, float)),
        lambda x: -np.log(np.asarray(x, float)),
        phi_prime=None,
    )
    with pytest.raises(InconclusiveError):
        is_si_archimedean(gen)


def test_si_criterion_inconclusive_for_a_nonnegative_derivative():
    base = clayton_generator(1.0)  # a valid generator given a derivative of the wrong sign
    gen = ArchimedeanGenerator("upward", base.phi, base.phi_inverse, phi_prime=lambda t: np.ones_like(t))
    with pytest.raises(InconclusiveError, match="must be negative"):
        is_si_archimedean(gen)


# ---------------------------------------------------------------------------
# extreme-value copulas
# ---------------------------------------------------------------------------


def test_ev_constant_pickands_is_independence(rng):
    cop = extreme_value_copula(independence_pickands())
    for _ in range(20):
        u, v = rng.random(2)
        assert cop.cdf(u, v) == pytest.approx(u * v, abs=1e-14)


def test_ev_comonotone_pickands_is_upper_bound():
    cop = extreme_value_copula(comonotone_pickands())
    assert cop.cdf(0.3, 0.8) == pytest.approx(0.3, abs=1e-14)
    assert cop.cdf(0.9, 0.2) == pytest.approx(0.2, abs=1e-14)


def test_ev_gumbel_theta_one_is_independence(rng):
    cop = extreme_value_copula(gumbel_pickands(1.0))
    for _ in range(20):
        u, v = rng.random(2)
        assert abs(cop.cdf(u, v) - u * v) <= 1e-12


def test_ev_margin_limits():
    cop = extreme_value_copula(gumbel_pickands(2.0))
    assert cop.cdf(1.0, 0.4) == 0.4
    assert cop.cdf(0.4, 1.0) == 0.4
    assert cop.cdf(0.0, 0.4) == 0.0
    assert cop.cdf(1.0, 1.0) == 1.0


def test_ev_partial_derivative_against_finite_differences(rng):
    h = 1e-7
    cop = extreme_value_copula(gumbel_pickands(2.5))
    for _ in range(15):
        u, v = rng.uniform(0.05, 0.95, size=2)
        fd = (cop.cdf(u + h, v) - cop.cdf(u - h, v)) / (2 * h)
        assert cop.partial_derivative(1, u, v) == pytest.approx(fd, abs=1e-6)
        fd2 = (cop.cdf(u, v + h) - cop.cdf(u, v - h)) / (2 * h)
        assert cop.partial_derivative(2, u, v) == pytest.approx(fd2, abs=1e-6)


def test_ev_partial_derivatives_evaluate_pickands_once(rng):
    gumbel = gumbel_pickands(2.5)
    calls = []

    def counted(t):
        calls.append(1)
        return gumbel.func(t)

    cop = extreme_value_copula(PickandsFunction("gumbel", counted, gumbel.deriv, 2.5))
    u, v = rng.uniform(0.05, 0.95, size=(2, 40))
    # the displayed formula, with A evaluated per use
    s, r = np.log(u), np.log(v)
    t = s / (s + r)
    a = gumbel(t)
    d1 = np.exp((s + r) * gumbel(t)) * (a + (1.0 - t) * gumbel.derivative(t)) / u
    d2 = np.exp((s + r) * gumbel(t)) * (a - t * gumbel.derivative(t)) / v
    for component, reference in ((1, d1), (2, d2)):
        calls.clear()
        assert cop.partial_derivative(component, u, v).tobytes() == reference.tobytes()
        assert len(calls) == 1


def broadcast_ev_cdf(cop, u, v):
    """Extreme-value cdf with log u, log v and A taken point by point on the
    broadcast arguments: the reference for the per-axis evaluation."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    out = np.empty(u.shape)
    zero = (u == 0.0) | (v == 0.0)
    u_margin = (v == 1.0) & ~zero
    v_margin = (u == 1.0) & ~zero & ~u_margin
    interior = ~(zero | u_margin | v_margin)
    out[zero] = 0.0
    out[u_margin] = u[u_margin]
    out[v_margin] = v[v_margin]
    if np.any(interior):
        s = np.log(u[interior])
        r = np.log(v[interior])
        total = s + r
        out[interior] = np.exp(total * cop.pickands(s / total))
    return out


def broadcast_ev_pd1(cop, u, v):
    """d1 of an extreme-value copula, point by point on the broadcast
    arguments (the reference for the per-axis evaluation)."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    out = np.empty(u.shape)
    v_zero = v == 0.0
    v_one = (v == 1.0) & ~v_zero
    u_zero = (u == 0.0) & ~(v_zero | v_one)
    interior = ~(v_zero | v_one | u_zero)
    out[v_zero] = 0.0
    out[v_one] = 1.0
    if np.any(u_zero):
        out[u_zero] = _fd_partial(cop.cdf, u[u_zero], v[u_zero], axis=0)
    if np.any(interior):
        ui, vi = u[interior], v[interior]
        s = np.log(ui)
        r = np.log(np.minimum(vi, 1.0 - 1e-16))
        total = s + r
        t = np.where(total < 0, s / total, 0.0)
        a = cop.pickands(t)
        out[interior] = np.exp(total * a) * (a + (1.0 - t) * cop.pickands.derivative(t)) / ui
    return out


def broadcast_ev_pd2(cop, u, v):
    """d2 of an extreme-value copula, point by point on the broadcast
    arguments, written out on its own: its weight -t is not d1's 1 - t."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    out = np.empty(u.shape)
    u_zero = u == 0.0
    u_one = (u == 1.0) & ~u_zero
    v_zero = (v == 0.0) & ~(u_zero | u_one)
    interior = ~(u_zero | u_one | v_zero)
    out[u_zero] = 0.0
    out[u_one] = 1.0
    if np.any(v_zero):
        out[v_zero] = _fd_partial(cop.cdf, u[v_zero], v[v_zero], axis=1)
    if np.any(interior):
        ui, vi = u[interior], v[interior]
        s = np.log(np.minimum(ui, 1.0 - 1e-16))
        r = np.log(vi)
        total = s + r
        t = np.where(total < 0, s / total, 0.0)
        a = cop.pickands(t)
        out[interior] = np.exp(total * a) * (a - t * cop.pickands.derivative(t)) / vi
    return out


def asymmetric_logistic_pickands(theta=2.0, psi1=0.3, psi2=0.9):
    """Tawn's asymmetric logistic A(t) = (1 - psi1)(1 - t) + (1 - psi2) t +
    ((psi1 (1 - t))^theta + (psi2 t)^theta)^(1/theta); A(t) != A(1 - t)."""

    def func(t):
        t = np.asarray(t, dtype=float)
        inner = np.power(psi1 * (1.0 - t), theta) + np.power(psi2 * t, theta)
        return (1.0 - psi1) * (1.0 - t) + (1.0 - psi2) * t + np.power(inner, 1.0 / theta)

    def deriv(t):
        t = np.clip(np.asarray(t, dtype=float), 1e-12, 1.0 - 1e-12)
        inner = np.power(psi1 * (1.0 - t), theta) + np.power(psi2 * t, theta)
        slope = psi2**theta * np.power(t, theta - 1.0) - psi1**theta * np.power(
            1.0 - t, theta - 1.0
        )
        return psi1 - psi2 + np.power(inner, 1.0 / theta - 1.0) * slope

    return PickandsFunction("asymmetric-logistic", func, deriv=deriv, theta=theta)


EV_PICKANDS = [
    gumbel_pickands(1.0),
    gumbel_pickands(2.5),
    comonotone_pickands(),
    independence_pickands(),
    asymmetric_logistic_pickands(),
]


@pytest.mark.parametrize("pickands", EV_PICKANDS, ids=lambda p: f"{p.name}-{p.theta}")
def test_ev_per_axis_evaluation_matches_the_broadcast_path(pickands, rng):
    cop = extreme_value_copula(pickands)
    axis = np.linspace(0.0, 1.0, 65)  # holds both edges
    flat_u, flat_v = rng.random(200), rng.random(200)
    flat_u[:10], flat_u[10:20] = 0.0, 1.0
    flat_v[15:25], flat_v[25:35] = 0.0, 1.0
    cases = [
        (axis[:, None], axis[None, :]),
        (axis[:, None], axis),
        (axis[1:-1, None], axis[1:-1]),  # all interior
        (flat_u, flat_v),
        (0.3, axis),
        (axis, 0.6),
        (axis, 1.0),
    ] + [(a, b) for a in (0.0, 0.4, 1.0) for b in (0.0, 0.7, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for u, v in cases:
            for got, reference in (
                (cop.cdf(u, v), broadcast_ev_cdf(cop, u, v)),
                (cop.partial_derivative(1, u, v), broadcast_ev_pd1(cop, u, v)),
                (cop.partial_derivative(2, u, v), broadcast_ev_pd2(cop, u, v)),
            ):
                assert np.asarray(got).tobytes() == reference.tobytes()
                if np.ndim(u) == 0 and np.ndim(v) == 0:
                    assert isinstance(got, float)


def test_ev_asymmetric_pickands_against_finite_differences(rng):
    pickands = asymmetric_logistic_pickands()
    assert abs(pickands(0.2) - pickands(0.8)) > 0.05
    cop = extreme_value_copula(pickands)
    h = 1e-6
    u, v = rng.uniform(0.05, 0.95, size=(2, 40))
    fd1 = (cop.cdf(u + h, v) - cop.cdf(u - h, v)) / (2 * h)
    fd2 = (cop.cdf(u, v + h) - cop.cdf(u, v - h)) / (2 * h)
    assert np.max(np.abs(cop.partial_derivative(1, u, v) - fd1)) < 1e-7
    assert np.max(np.abs(cop.partial_derivative(2, u, v) - fd2)) < 1e-7
    # asymmetry: the copula is not its own transpose
    assert np.max(np.abs(cop.cdf(u, v) - cop.cdf(v, u))) > 1e-3


@pytest.mark.parametrize("theta", [1.5, 2.0, 4.0])
def test_ev_si_in_both_components_at_grid_64(theta):
    cop = extreme_value_copula(gumbel_pickands(theta))
    grid = cop.discretize(64)
    assert check_si(grid, component=1, tol=1e-10).si
    assert check_si(grid, component=2, tol=1e-10).si


def test_pickands_band_violation_rejected():
    with pytest.raises(InvariantError):
        PickandsFunction("too-low", lambda t: np.full_like(np.asarray(t, float), 0.45))


def test_pickands_convexity_violation_rejected():
    # piecewise linear with slopes 0, -0.5, +0.25: slope decrease = not convex
    def func(t):
        return np.interp(np.asarray(t, float), [0.0, 0.4, 0.6, 1.0], [1.0, 1.0, 0.9, 1.0])

    with pytest.raises(InvariantError):
        PickandsFunction("dented", func)


def test_pickands_parameter_range():
    with pytest.raises(DomainError):
        gumbel_pickands(0.8)


# ---------------------------------------------------------------------------
# ordinal sums
# ---------------------------------------------------------------------------


def test_ordinal_sum_empty_family_is_upper_bound(rng, upper):
    cop = ordinal_sum([], [])
    for _ in range(20):
        u, v = rng.random(2)
        assert cop.cdf(u, v) == upper.cdf(u, v)


def test_ordinal_sum_full_interval_is_identity(rng, pi):
    cop = ordinal_sum([(0.0, 1.0)], [pi])
    for _ in range(20):
        u, v = rng.random(2)
        assert cop.cdf(u, v) == pytest.approx(pi.cdf(u, v), abs=1e-15)


def test_ordinal_sum_hand_evaluated_block(pi):
    # inside (1/3, 1)^2 the value is 1/3 + (2/3) * independence of rescaled
    cop = ordinal_sum([(1 / 3, 1.0)], [pi])
    assert cop.cdf(2 / 3, 2 / 3) == pytest.approx(0.5, abs=1e-15)


def test_ordinal_sum_of_independence_is_symmetric(rng, pi):
    cop = ordinal_sum([(0.0, 1 / 3), (5 / 6, 1.0)], [pi, pi])
    for _ in range(40):
        u, v = rng.random(2)
        assert cop.cdf(u, v) == cop.cdf(v, u)


def test_ordinal_sum_component_count_mismatch(pi):
    with pytest.raises(InvariantError):
        ordinal_sum([(0.0, 0.5)], [pi, pi])
    with pytest.raises(InvariantError):
        ordinal_sum([(0.0, 0.5), (0.5, 1.0)], [pi])


def test_ordinal_sum_rejects_a_component_that_is_not_a_copula(pi):
    with pytest.raises(InvariantError, match="Copula instances"):
        ordinal_sum([(0.0, 0.5), (0.5, 1.0)], [pi, np.eye(2)])


def test_ordinal_sum_overlap_rejected(pi):
    with pytest.raises(InvariantError):
        ordinal_sum([(0.0, 0.6), (0.5, 1.0)], [pi, pi])


# ---------------------------------------------------------------------------
# tabulated generators
# ---------------------------------------------------------------------------


def test_tabulated_generator_tracks_its_source(rng):
    source = clayton_generator(2.0)
    t = np.concatenate([[0.0], np.geomspace(1e-4, 60.0, 400)])
    gen = tabulated_generator(t, source.phi(t), name="clayton-table")
    cop = archimedean_copula(gen)
    exact = archimedean_copula(source)
    for _ in range(20):
        u, v = rng.uniform(0.1, 0.95, size=2)
        assert cop.cdf(u, v) == pytest.approx(exact.cdf(u, v), abs=2e-4)


def test_tabulated_generator_inverse_roundtrip():
    source = gumbel_generator(1.5)
    t = np.concatenate([[0.0], np.geomspace(1e-4, 30.0, 300)])
    gen = tabulated_generator(t, source.phi(t))
    for x in (0.9, 0.5, 0.2):
        assert gen.phi(gen.phi_inverse(x)) == pytest.approx(x, abs=1e-9)


def test_tabulated_generator_inverse_of_a_scalar_is_0d_like_phi():
    source = clayton_generator(2.0)
    t = np.concatenate([[0.0], np.geomspace(1e-4, 60.0, 400)])
    gen = tabulated_generator(t, source.phi(t))
    x = gen.phi_inverse(0.5)
    assert np.ndim(x) == 0
    assert type(x) is type(gen.phi(0.5))
    assert x.tobytes() == gen.phi_inverse(np.array([0.2, 0.5, 0.9]))[1].tobytes()


def test_tabulated_generator_rejects_bad_tables():
    with pytest.raises(InvariantError):
        tabulated_generator([0.0, 1.0, 2.0], [1.0, 0.5, 0.6])
    with pytest.raises(InvariantError):
        tabulated_generator([0.1, 1.0, 2.0, 3.0], [1.0, 0.5, 0.4, 0.3])
    with pytest.raises(InvariantError, match="increase strictly"):
        tabulated_generator([0.0, 1.0, 1.0, 2.0], [1.0, 0.5, 0.4, 0.3])


# ---------------------------------------------------------------------------
# family-wide audits
# ---------------------------------------------------------------------------


def family_instances(pi):
    return [
        archimedean_copula(clayton_generator(2.0)),
        archimedean_copula(gumbel_generator(2.5)),
        archimedean_copula(frank_generator(4.0)),
        archimedean_copula(frank_generator(-3.0)),
        extreme_value_copula(gumbel_pickands(2.5)),
        extreme_value_copula(comonotone_pickands()),
        ordinal_sum([(0.0, 1 / 3), (5 / 6, 1.0)], [pi, pi]),
    ]


def test_every_family_instance_passes_the_copula_audit(pi):
    grid = np.linspace(0.0, 1.0, 101)
    lo = np.maximum(grid[:, None] + grid[None, :] - 1.0, 0.0)
    hi = np.minimum(grid[:, None], grid[None, :])
    for cop in family_instances(pi):
        vals = np.asarray(cop.cdf(grid[:, None], grid[None, :]))
        assert np.all(vals >= lo - 1e-9)
        assert np.all(vals <= hi + 1e-9)
        assert np.max(np.abs(vals[:, -1] - grid)) <= 1e-9
        assert np.max(np.abs(vals[-1, :] - grid)) <= 1e-9
        # 2-increasingness: every cell of a fine discretization carries
        # nonnegative mass
        assert cop.discretize(32).matrix.min() >= -1e-12


def test_inconclusive_error_is_a_package_error():
    from copula_markov import CopulaError

    assert issubclass(InconclusiveError, CopulaError)


def test_partial_of_a_generator_without_derivative_differences_the_cdf():
    clayton = clayton_generator(2.0)
    bare = archimedean_copula(ArchimedeanGenerator("clayton-fd", clayton.phi, clayton.phi_inverse))
    u = np.linspace(0.05, 0.95, 19)[:, None]
    v = np.linspace(0.05, 0.95, 19)
    exact = archimedean_copula(clayton).partial_derivative(1, u, v)
    assert np.max(np.abs(bare.partial_derivative(1, u, v) - exact)) <= 1e-8
    assert np.array_equal(bare.partial_derivative(2, v, u), bare.partial_derivative(1, u, v))


SCALAR_CARRIERS = {
    "grid": lambda: GridCopula(CHECKER3),
    "pi": IndependenceCopula,
    "upper": UpperFrechetCopula,
    "lower": LowerFrechetCopula,
    "clayton": lambda: archimedean_copula(clayton_generator(2.0)),
    "gumbel-archimedean": lambda: archimedean_copula(gumbel_generator(2.0)),
    "gumbel-ev": lambda: extreme_value_copula(gumbel_pickands(2.5)),
    "ordinal-sum": lambda: ordinal_sum([(0.2, 0.7)], [archimedean_copula(clayton_generator(2.0))]),
    "transpose": lambda: transpose(extreme_value_copula(gumbel_pickands(2.5))),
}


@pytest.mark.parametrize("make", SCALAR_CARRIERS.values(), ids=SCALAR_CARRIERS.keys())
def test_scalar_queries_answer_with_python_floats(make):
    c = make()
    for u, v in [(0.3, 0.6), (0.0, 0.5), (1.0, 0.4), (0.5, 0.5)]:
        assert type(c.cdf(u, v)) is float
        for k in (1, 2):
            assert type(c.partial_derivative(k, u, v)) is float
            assert type(c.partial_derivative(k, u, v, side="left")) is float
    assert isinstance(c.cdf(np.array([0.3]), 0.6), np.ndarray)
