import warnings

import numpy as np
import pytest

from copula_markov import (
    ArchimedeanGenerator,
    DomainError,
    InconclusiveError,
    InvariantError,
    PickandsFunction,
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
)
from copula_markov.core import _fd_partial
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


def test_generator_invariants_rejected():
    # phi(0) != 1
    with pytest.raises(InvariantError):
        ArchimedeanGenerator(
            "bad", lambda t: 0.9 * np.exp(-np.asarray(t, float)),
            lambda x: -np.log(np.asarray(x, float) / 0.9),
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


def test_tabulated_generator_rejects_bad_tables():
    with pytest.raises(InvariantError):
        tabulated_generator([0.0, 1.0, 2.0], [1.0, 0.5, 0.6])
    with pytest.raises(InvariantError):
        tabulated_generator([0.1, 1.0, 2.0, 3.0], [1.0, 0.5, 0.4, 0.3])


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
