from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from copula_markov import (
    Copula,
    DiscreteMarkovOperator,
    DomainError,
    GridCopula,
    IntervalFamily,
    InvariantError,
    LowerFrechetCopula,
    StepFunction,
    TransposedCopula,
)
from copula_markov import metrics
from copula_markov.core import cell_index

from conftest import CHECKER3, count_validations, random_doubly_stochastic


def cell_mass_cdf(matrix, u, v):
    """Independent oracle: sum the mass of each cell below (u, v)."""
    n = matrix.shape[0]
    total = 0.0
    for k in range(n):
        for l in range(n):
            fu = min(max(u * n - k, 0.0), 1.0)
            fv = min(max(v * n - l, 0.0), 1.0)
            total += matrix[k, l] / n * fu * fv
    return total


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_independence_center(pi):
    assert pi.cdf(0.5, 0.5) == 0.25


def test_eval_upper_bound(upper):
    assert upper.cdf(0.3, 0.7) == 0.3


def test_eval_checkerboard_against_cell_mass_oracle(checker3, rng):
    # first block: mass of (0, 1/3)^2 is (2/3)/3
    expected = cell_mass_cdf(CHECKER3, 1 / 3, 1 / 3)
    assert expected == pytest.approx(2 / 9, abs=1e-15)
    assert checker3.cdf(1 / 3, 1 / 3) == pytest.approx(expected, abs=1e-14)
    for _ in range(50):
        u, v = rng.random(2)
        assert checker3.cdf(u, v) == pytest.approx(
            cell_mass_cdf(CHECKER3, u, v), abs=1e-13
        )


def test_eval_rejects_points_outside_square(checker3, pi):
    with pytest.raises(DomainError):
        pi.cdf(-0.1, 0.5)
    with pytest.raises(DomainError):
        checker3.cdf(0.5, 1.2)
    with pytest.raises(DomainError):
        checker3.partial_derivative(1, 0.5, np.nan)


def test_margins_and_frechet_bounds_on_audit_grid(checker3, pi, upper, lower):
    from copula_markov import archimedean_copula, clayton_generator

    grid = np.linspace(0.0, 1.0, 101)
    cases = (checker3, pi, upper, lower, archimedean_copula(clayton_generator(2.0)))
    for cop in cases:
        vals = np.asarray(cop.cdf(grid[:, None], grid[None, :]))
        lo = np.maximum(grid[:, None] + grid[None, :] - 1.0, 0.0)
        hi = np.minimum(grid[:, None], grid[None, :])
        assert np.all(vals >= lo - 1e-9)
        assert np.all(vals <= hi + 1e-9)
        assert np.max(np.abs(vals[:, -1] - grid)) <= 1e-9   # C(u, 1) = u
        assert np.max(np.abs(vals[-1, :] - grid)) <= 1e-9   # C(1, v) = v
        assert np.max(np.abs(vals[:, 0])) <= 1e-9
        assert np.max(np.abs(vals[0, :])) <= 1e-9


# ---------------------------------------------------------------------------
# H-volumes
# ---------------------------------------------------------------------------


def test_h_volume_total_mass(pi):
    assert pi.h_volume(0.0, 1.0, 0.0, 1.0) == 1.0


def test_h_volume_lower_bound_off_antidiagonal(lower):
    assert lower.h_volume(0.0, 0.5, 0.0, 0.5) == 0.0


def test_h_volume_zero_mass_cell(checker3):
    # matrix entry (1, 2) vanishes
    assert checker3.h_volume(0.0, 1 / 3, 1 / 3, 2 / 3) == 0.0


def test_h_volume_rejects_malformed_rectangle(pi):
    with pytest.raises(DomainError):
        pi.h_volume(0.6, 0.4, 0.0, 1.0)


def test_h_volume_additive_under_splits(checker3, rng):
    for _ in range(100):
        u1, u2 = np.sort(rng.random(2))
        v1, v2 = np.sort(rng.random(2))
        um = rng.uniform(u1, u2)
        whole = checker3.h_volume(u1, u2, v1, v2)
        split = checker3.h_volume(u1, um, v1, v2) + checker3.h_volume(um, u2, v1, v2)
        assert abs(whole - split) <= 1e-12


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------


def test_partial_derivative_independence(pi, rng):
    for _ in range(10):
        u, v = rng.random(2)
        assert pi.partial_derivative(1, u, v) == v
        assert pi.partial_derivative(2, u, v) == u


def test_partial_derivative_checkerboard_row_value(checker3):
    # the v = 1/3 slice picks out the first matrix column: 2/3 on cell 1
    assert checker3.partial_derivative(1, 0.1, 1 / 3) == 2 / 3


def test_partial_derivative_upper_bound_indicator(upper):
    assert upper.partial_derivative(1, 0.2, 0.7) == 1.0
    assert upper.partial_derivative(1, 0.8, 0.7) == 0.0


def test_partial_derivative_matches_finite_differences(checker3, rng):
    h = 1e-7
    for _ in range(40):
        # stay inside cells so the difference quotient sees no kink
        k, l = rng.integers(0, 3, size=2)
        u = (k + rng.uniform(0.2, 0.8)) / 3
        v = (l + rng.uniform(0.2, 0.8)) / 3
        fd = (checker3.cdf(u + h, v) - checker3.cdf(u - h, v)) / (2 * h)
        assert checker3.partial_derivative(1, u, v) == pytest.approx(fd, abs=1e-7)
        fd2 = (checker3.cdf(u, v + h) - checker3.cdf(u, v - h)) / (2 * h)
        assert checker3.partial_derivative(2, u, v) == pytest.approx(fd2, abs=1e-7)


def test_partial_derivative_boundary_convention(checker3):
    # at a cell boundary the right-hand cell decides; side="left" flips it
    right = checker3.partial_derivative(1, 1 / 3, 0.5)
    left = checker3.partial_derivative(1, 1 / 3, 0.5, side="left")
    assert right == checker3.partial_derivative(1, 1 / 3 + 1e-3, 0.5)
    assert left == checker3.partial_derivative(1, 1 / 3 - 1e-3, 0.5)
    assert right != left


def test_partial_derivative_piecewise_constant_in_u(checker3):
    v = 0.55
    inside = [checker3.partial_derivative(1, u, v) for u in (0.34, 0.5, 0.66)]
    assert inside[0] == inside[1] == inside[2]


def ramp_derivative(matrix, x, y, side):
    """Derivative of a grid cdf in x as the full weighted line sum: line
    cell(x) of ``matrix`` against the weights clamp(n y - l, 0, 1)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    n = matrix.shape[0]
    k = cell_index(n, x, side=side)
    weights = np.clip(n * y[..., None] - np.arange(n, dtype=float), 0.0, 1.0)
    return np.einsum("...l,...l->...", matrix[k, :], weights)


@pytest.mark.parametrize("n", [1, 3, 17, 64])
def test_grid_derivatives_match_the_weighted_line_sum(rng, n):
    g = GridCopula(random_doubly_stochastic(rng, n))
    points = np.concatenate([rng.random(200), np.arange(n + 1) / n])
    u, v = np.meshgrid(points, points[::3])
    for side in ("right", "left"):
        d1 = g.partial_derivative(1, u, v, side=side)
        d2 = g.partial_derivative(2, u, v, side=side)
        # running sums and the weighted sum add in different orders; the
        # values lie in [0, 1], so they agree to a few ulps of 1
        assert np.max(np.abs(d1 - ramp_derivative(g.matrix, u, v, side))) <= 1e-15
        assert np.max(np.abs(d2 - ramp_derivative(g.matrix.T, v, u, side))) <= 1e-15
        # a row against a column reads the same values as the full mesh
        lattice = g.partial_derivative(1, points, points[::3, None], side=side)
        assert np.array_equal(lattice, d1)
        assert isinstance(g.partial_derivative(2, 0.3, 1.0, side=side), float)


def test_partial_derivative_rejects_bad_component(pi):
    with pytest.raises(DomainError):
        pi.partial_derivative(3, 0.5, 0.5)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_discretize_independence_two_cells(pi):
    assert np.array_equal(pi.discretize(2).matrix, np.full((2, 2), 0.5))


def test_discretize_lower_bound_antidiagonal(lower):
    assert np.array_equal(lower.discretize(3).matrix, np.eye(3)[::-1])


def test_discretize_upper_bound_identity(upper):
    assert np.array_equal(upper.discretize(3).matrix, np.eye(3))


@pytest.mark.parametrize("n", [1, 3, 7, 64])
def test_independence_and_frechet_grids_skip_the_boundary_check(pi, upper, lower, n, monkeypatch):
    calls = count_validations(monkeypatch)
    grids = [
        (pi.discretize(n), np.full((n, n), 1.0 / n)),
        (upper.discretize(n), np.eye(n)),
        (lower.discretize(n), np.eye(n)[::-1]),
    ]
    assert calls == []
    for grid, matrix in grids:
        assert grid.matrix.flags.c_contiguous and not grid.matrix.flags.writeable
        assert grid.matrix.tobytes() == GridCopula(matrix).matrix.tobytes()


def test_discretize_is_projection(checker3):
    assert discretize_roundtrip_exact(checker3, 3)


def discretize_roundtrip_exact(grid, n):
    return np.array_equal(grid.discretize(n).matrix, grid.matrix)


def test_discretize_refinement_preserves_the_copula(checker3, rng):
    refined = checker3.discretize(6)
    assert refined.n == 6
    for _ in range(50):
        u, v = rng.random(2)
        assert refined.cdf(u, v) == pytest.approx(checker3.cdf(u, v), abs=1e-14)


def test_discretize_coarsening_collects_cell_mass(checker3):
    coarse = checker3.discretize(6).discretize(3)
    assert np.max(np.abs(coarse.matrix - checker3.matrix)) <= 1e-15


def test_discretize_closed_form_family():
    from copula_markov import archimedean_copula, gumbel_generator

    grid = archimedean_copula(gumbel_generator(2.0)).discretize(16)
    assert grid.matrix.min() >= 0.0
    assert np.max(np.abs(grid.matrix.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(grid.matrix.sum(axis=1) - 1.0)) <= 1e-12


def test_discretize_approaches_closed_form():
    from copula_markov import archimedean_copula, gumbel_generator

    cop = archimedean_copula(gumbel_generator(2.0))
    # probe away from every cell corner, where checkerboards are exact anyway
    pts = np.linspace(0.013, 0.987, 31)
    gaps = []
    for n in (8, 32, 128):
        grid = cop.discretize(n)
        gaps.append(
            np.max(
                np.abs(
                    np.asarray(grid.cdf(pts[:, None], pts[None, :]))
                    - np.asarray(cop.cdf(pts[:, None], pts[None, :]))
                )
            )
        )
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-2


def test_discretize_rejects_bad_resolution(pi):
    with pytest.raises(DomainError):
        pi.discretize(0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_upper_bound_is_comonotone(upper):
    pairs = upper.sample(500, seed=3)
    assert np.array_equal(pairs[:, 0], pairs[:, 1])


def test_sample_lower_bound_is_countermonotone(lower):
    pairs = lower.sample(500, seed=3)
    assert np.max(np.abs(pairs[:, 0] + pairs[:, 1] - 1.0)) == 0.0


def test_sample_independence_spearman_within_clt_band(pi):
    pairs = pi.sample(100_000, seed=12345)
    rho = stats.spearmanr(pairs[:, 0], pairs[:, 1]).statistic
    assert abs(rho) <= 0.02


def test_sample_deterministic_for_seed(checker3):
    a = checker3.sample(64, seed=9)
    b = checker3.sample(64, seed=9)
    c = checker3.sample(64, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def table_sample(matrix, count, seed):
    """Reference: inverse conditional cdf through a count-by-n table of the
    sampled rows' cumulative sums."""
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    w = np.maximum(rng.random(count), 1e-300)
    k = cell_index(n, u)
    row_cum = np.cumsum(matrix, axis=1)[k, :]
    m = np.minimum((row_cum < w[:, None]).sum(axis=1), n - 1)
    prev = np.where(
        m > 0, np.take_along_axis(row_cum, np.maximum(m - 1, 0)[:, None], 1)[:, 0], 0.0
    )
    mass = matrix[k, m]
    frac = np.divide(w - prev, mass, out=np.zeros_like(w), where=mass > 0)
    return np.column_stack([u, (m + np.clip(frac, 0.0, 1.0)) / n])


def test_sample_checkerboard_matches_table_reference(checker3, rng):
    # row-by-row search draws the same pairs bit for bit
    for grid in (checker3, GridCopula(random_doubly_stochastic(rng, 16, n_perms=3))):
        expected = table_sample(grid.matrix, 5_000, seed=17)
        assert np.array_equal(grid.sample(5_000, seed=17), expected)


def test_sample_checkerboard_cell_masses(checker3):
    pairs = checker3.sample(100_000, seed=21)
    hist = np.histogram2d(
        pairs[:, 0], pairs[:, 1], bins=3, range=[[0, 1], [0, 1]]
    )[0] / 100_000
    assert np.max(np.abs(hist - CHECKER3 / 3)) <= 0.01


def test_sample_conditional_quantile_inverts_conditional_cdf(checker3, rng):
    for _ in range(30):
        u, w = rng.random(2)
        v = float(checker3.conditional_quantile(u, w))
        assert checker3.partial_derivative(1, u, v) >= w - 1e-12
        if v > 1e-9:
            assert checker3.partial_derivative(1, u, v - 1e-9) <= w + 1e-9


def test_sample_rejects_bad_count(pi):
    with pytest.raises(DomainError):
        pi.sample(0, seed=1)


def table_quantile(matrix, u, w):
    """Reference: the inverse of table_sample for given u and w, through a
    points-by-n table of the rows' cumulative sums."""
    n = matrix.shape[0]
    u, w = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(w, dtype=float))
    shape = u.shape
    u, w = u.reshape(-1), w.reshape(-1)
    k = cell_index(n, u)
    row_cum = np.cumsum(matrix, axis=1)[k, :]
    m = np.minimum((row_cum < w[:, None]).sum(axis=1), n - 1)
    prev = np.where(
        m > 0, np.take_along_axis(row_cum, np.maximum(m - 1, 0)[:, None], 1)[:, 0], 0.0
    )
    mass = matrix[k, m]
    frac = np.divide(w - prev, mass, out=np.zeros_like(w), where=mass > 0)
    return ((m + np.clip(frac, 0.0, 1.0)) / n).reshape(shape)


def quantile_grids(rng):
    # rows with zero-mass cells at the start, inside and at the end; the
    # permutation grids and CHECKER3 sum every row to exactly 1.0
    return [
        GridCopula(CHECKER3),
        GridCopula(np.eye(4)),
        GridCopula(np.eye(5)[::-1].copy()),
        GridCopula(np.array([[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0],
                             [0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]])),
        GridCopula(random_doubly_stochastic(rng, 7)),
        GridCopula(random_doubly_stochastic(rng, 16, n_perms=3)),
    ]


def quantile_points(rng, n):
    u = np.concatenate([[0.0, 1.0, 0.5], np.arange(1, n) / n, rng.random(12)])
    w = np.concatenate([[0.0, 1.0, 1e-300, 0.25, 1 / 3, 0.5, 2 / 3, 0.75], rng.random(16)])
    return u[:, None], w[None, :]


def test_grid_conditional_quantile_matches_table_inverse(rng):
    for grid in quantile_grids(rng):
        u, w = quantile_points(rng, grid.n)
        got = grid.conditional_quantile(u, w)
        assert got.shape == (u.size, w.size)
        assert np.array_equal(got, table_quantile(grid.matrix, u, w))
        for x, y in ((0.2, 0.5), (1.0, 1.0), (0.0, 0.0)):
            one = grid.conditional_quantile(x, y)
            assert one.shape == ()
            assert np.array_equal(one, table_quantile(grid.matrix, x, y))


def test_grid_conditional_quantile_agrees_with_bisection(rng):
    # beyond a row's floating-point total (w = 1 on a row summing to
    # 1 - 1e-16) the set {t : d1 C(u, t) >= w} is empty and the two
    # conventions differ, so w = 1 is compared on rows that sum to 1.0
    for grid in quantile_grids(rng):
        u, w = quantile_points(rng, grid.n)
        exact_rows = bool(np.all(np.cumsum(grid.matrix, axis=1)[:, -1] == 1.0))
        if not exact_rows:
            w = w[w < 1.0][None, :]
        got = grid.conditional_quantile(u, w)
        reference = Copula.conditional_quantile(grid, u, w)
        assert np.max(np.abs(got - reference)) <= 1e-15


def test_grid_conditional_quantile_checks_u():
    grid = GridCopula(CHECKER3)
    for bad in (-0.1, 1.5, np.nan):
        with pytest.raises(DomainError):
            grid.conditional_quantile(bad, 0.5)


def test_every_carrier_samples_through_the_conditional_quantile():
    assert "sample" not in GridCopula.__dict__


# ---------------------------------------------------------------------------
# carrier validation
# ---------------------------------------------------------------------------


def test_grid_rejects_non_square():
    with pytest.raises(InvariantError):
        GridCopula(np.ones((2, 3)) / 3)


def test_grid_rejects_negative_entries():
    m = np.array([[1.2, -0.2], [-0.2, 1.2]])
    with pytest.raises(InvariantError):
        GridCopula(m)


def test_grid_rejects_bad_margins():
    with pytest.raises(InvariantError) as err:
        GridCopula(np.array([[0.9, 0.0], [0.0, 0.9]]))
    assert "renormalize" in str(err.value)


def test_grid_never_repairs_silently_but_renormalized_does(rng):
    raw = rng.random((4, 4)) + 0.05
    with pytest.raises(InvariantError):
        GridCopula(raw)
    fixed = GridCopula.renormalized(raw)
    assert np.max(np.abs(fixed.matrix.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(fixed.matrix.sum(axis=1) - 1.0)) <= 1e-12


def test_renormalized_rejects_empty_matrix():
    with pytest.raises(InvariantError):
        GridCopula.renormalized(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [-0.1, np.nan])
def test_renormalized_rejects_a_negative_or_nan_entry(bad):
    raw = np.ones((3, 3))
    raw[1, 2] = bad
    with pytest.raises(InvariantError, match="nonnegative and finite"):
        GridCopula.renormalized(raw)


def test_renormalized_refuses_when_not_converged():
    with pytest.raises(InvariantError, match="did not converge"):
        GridCopula.renormalized([[1.0, 2.0], [3.0, 4.0]], max_iter=1)


def test_refined_by_one_is_the_grid_itself(checker3):
    assert checker3.refined(1) is checker3


@pytest.mark.parametrize("axis", [0, 1])
def test_renormalized_rejects_zero_row_or_column(axis):
    raw = np.ones((3, 3))
    if axis == 0:
        raw[1, :] = 0.0
    else:
        raw[:, 2] = 0.0
    with np.errstate(all="raise"), pytest.raises(InvariantError, match="zero row or column"):
        GridCopula.renormalized(raw)


def test_grid_matrix_is_immutable(checker3):
    with pytest.raises(ValueError):
        checker3.matrix[0, 0] = 0.5


def test_grid_constructor_copies_its_input():
    m = CHECKER3.copy()
    grid = GridCopula(m)
    m[0, 0] = 0.0
    assert grid.matrix.tobytes() == CHECKER3.tobytes()
    assert not grid.matrix.flags.writeable
    assert m.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("also_negative", [False, True])
def test_grid_rejects_non_finite_entries_before_negative_ones(bad, also_negative):
    m = CHECKER3.copy()
    m[1, 1] = bad
    if also_negative:
        m[0, 0] = -0.5
    with pytest.raises(InvariantError, match="non-finite"):
        GridCopula(m)


@pytest.mark.parametrize("tiny", [-1e-12, -0.0])
def test_grid_stores_tiny_negatives_as_positive_zero(tiny):
    m = CHECKER3.copy()
    m[0, 1] = tiny
    m[2, 0] = tiny
    stored = GridCopula(m).matrix
    assert stored[0, 1] == stored[2, 0] == 0.0
    assert not np.signbit(stored).any()
    assert stored.tobytes() == CHECKER3.tobytes()


@pytest.mark.parametrize(
    "source",
    [np.asfortranarray(CHECKER3), CHECKER3.tolist(), CHECKER3[::-1, ::-1][::-1, ::-1]],
    ids=["fortran", "list", "view"],
)
def test_grid_stores_a_private_c_ordered_copy(source):
    stored = GridCopula(source).matrix
    assert stored.flags.c_contiguous and not stored.flags.writeable
    assert stored.tobytes() == CHECKER3.tobytes()
    assert not np.shares_memory(stored, CHECKER3)


def test_carrier_equality_is_identity_not_elementwise(checker3):
    # array-valued carriers compare by identity; matrices compare via numpy
    other = GridCopula(CHECKER3)
    assert checker3 == checker3
    assert checker3 != other
    assert np.array_equal(checker3.matrix, other.matrix)
    assert StepFunction([1.0, 0.5]) != StepFunction([1.0, 0.5])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_random_checkerboards_are_copulas(seed, n):
    g = GridCopula(random_doubly_stochastic(np.random.default_rng(seed), n))
    pts = np.linspace(0.0, 1.0, 21)
    vals = np.asarray(g.cdf(pts[:, None], pts[None, :]))
    lo = np.maximum(pts[:, None] + pts[None, :] - 1.0, 0.0)
    hi = np.minimum(pts[:, None], pts[None, :])
    assert np.all(vals >= lo - 1e-12)
    assert np.all(vals <= hi + 1e-12)
    assert np.max(np.abs(vals[:, -1] - pts)) <= 1e-12
    assert np.max(np.abs(vals[-1, :] - pts)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    rect=st.tuples(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
    ),
)
def test_random_checkerboards_are_2_increasing(seed, n, rect):
    g = GridCopula(random_doubly_stochastic(np.random.default_rng(seed), n))
    u1, u2 = sorted(rect[:2])
    v1, v2 = sorted(rect[2:])
    assert g.h_volume(u1, u2, v1, v2) >= -1e-12


# ---------------------------------------------------------------------------
# step functions and interval families
# ---------------------------------------------------------------------------


def test_step_function_integral_is_cell_mean():
    f = StepFunction([3.0, 1.0, 2.0, 0.0])
    assert f.integral() == np.mean([3.0, 1.0, 2.0, 0.0])


def test_step_function_evaluation_right_continuous():
    f = StepFunction([2.0, 1.0])
    assert f(0.49) == 2.0
    assert f(0.5) == 1.0
    assert f(1.0) == 1.0


def test_step_function_hands_out_a_float_for_a_scalar():
    f = StepFunction([1.0, 2.0])
    assert type(f(0.3)) is float and f(0.3) == 1.0
    out = f(np.array([0.3, 0.7]))
    assert isinstance(out, np.ndarray) and out.tolist() == [1.0, 2.0]


def test_step_function_monotonicity_flags():
    assert StepFunction([3.0, 2.0, 2.0, 1.0]).is_decreasing()
    assert not StepFunction([3.0, 2.0, 2.5, 1.0]).is_decreasing()
    assert StepFunction([1.0, 2.0, 2.0, 3.0]).is_increasing()
    assert not StepFunction([3.0, 2.0, 2.5, 1.0]).is_increasing()
    assert StepFunction.indicator_upto(4, 2).is_decreasing()
    assert np.array_equal(
        StepFunction.indicator_upto(4, 2).values, [1.0, 1.0, 0.0, 0.0]
    )


@pytest.mark.parametrize("values", [[1.0, np.nan], [], [[1.0, 0.0]]], ids=["nan", "empty", "2-d"])
def test_step_function_rejects_bad_values(values):
    with pytest.raises(InvariantError, match="non-empty finite 1-d"):
        StepFunction(values)


def test_indicator_upto_refuses_more_cells_than_the_partition():
    with pytest.raises(DomainError, match="j must be in 0..3"):
        StepFunction.indicator_upto(3, 4)


def test_interval_family_rejects_overlap():
    with pytest.raises(InvariantError):
        IntervalFamily(((0.0, 0.5), (0.4, 1.0)))
    with pytest.raises(InvariantError):
        IntervalFamily(((0.5, 0.5),))


@pytest.mark.parametrize(
    "entry", [(0, 0.5, 1), (0.2,), {"a": 0, "b": 0.5}, "ab", (True, 0.5), ("0", "0.5"), None]
)
def test_interval_family_rejects_entries_that_are_not_pairs_of_numbers(entry):
    with pytest.raises(InvariantError, match="not a pair of numbers"):
        IntervalFamily((entry,))
    with pytest.raises(InvariantError, match="not a pair of numbers"):
        IntervalFamily.from_list([[0.6, 0.8], entry])


def test_interval_family_accepts_numpy_rows():
    fam = IntervalFamily.from_list(np.array([[0.5, 1.0], [0.0, 0.25]]))
    assert fam.to_list() == [[0.0, 0.25], [0.5, 1.0]]


def test_interval_family_sorts_and_allows_touching():
    fam = IntervalFamily(((0.5, 1.0), (0.0, 0.5)))
    assert fam.to_list() == [[0.0, 0.5], [0.5, 1.0]]
    assert fam.total_length() == 1.0


def test_interval_family_alignment_suggestion():
    fam = IntervalFamily(((0.0, 0.3),))
    assert fam.aligned_cell_ranges(10) == [(0, 3)]
    with pytest.raises(DomainError) as err:
        fam.aligned_cell_ranges(6)
    assert "nearest aligned" in str(err.value)


def test_transpose_wrapper_swaps_arguments(checker3):
    t = TransposedCopula(checker3)
    assert t.cdf(0.2, 0.9) == checker3.cdf(0.9, 0.2)
    assert t.partial_derivative(1, 0.2, 0.9) == checker3.partial_derivative(
        2, 0.9, 0.2
    )


# ---------------------------------------------------------------------------
# corner prefix sums and the names perfbench/tracing.py wraps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
def test_prefix_is_bit_identical_to_cumsum_reference(rng, n):
    a = random_doubly_stochastic(rng, n, n_perms=min(n, 8) + 1)
    reference = np.zeros((n + 1, n + 1))
    reference[1:, 1:] = np.cumsum(np.cumsum(a, 0), 1)
    prefix = GridCopula(a)._prefix
    assert prefix.tobytes() == reference.tobytes()
    assert not prefix.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_corner_slabs_of_any_height_hold_the_table_bits(rng, n, monkeypatch):
    """The corner values of C1 - C2 that the grid sup gap scans, streamed
    in slabs of any height, hold the bits of the whole-table formula."""
    a = random_doubly_stochastic(rng, n, n_perms=min(n, 8) + 1)
    b = random_doubly_stochastic(rng, n, n_perms=min(n, 8) + 1)
    table = np.zeros((n + 1, n + 1))
    table[1:, 1:] = np.cumsum(np.cumsum(a - b, axis=1), axis=0)
    table /= n
    for rows in sorted({1, 2, 3, n, n + 1}):
        monkeypatch.setattr(metrics, "_CORNER_SLAB", rows * n)
        slabs = metrics._corner_values(metrics._difference_sums(a, b), n)
        got = np.concatenate([s.reshape(-1, n + 1).copy() for s in slabs])
        assert got.tobytes() == table.tobytes()


def test_benchmark_hook_points_exist():
    # the traced benchmark wraps these by name; a rename fails here first
    assert isinstance(GridCopula.__dict__["_prefix"], cached_property)
    assert callable(metrics.__dict__["_d1_grids"])
    assert "__post_init__" in GridCopula.__dict__
    assert "__post_init__" in DiscreteMarkovOperator.__dict__


def test_a_point_just_inside_a_cell_stays_in_it():
    # 1024 u = 972.99999967: strictly inside cell 972, 3.3e-10 below its edge
    u = 0.9501953121822189
    assert cell_index(1024, u) == 972
    assert cell_index(1024, u, side="left") == 972
    # rows 972 and 973 of a permutation grid put their mass far apart
    perm = np.arange(1024)
    perm[[972, 100]] = perm[[100, 972]]
    grid = GridCopula(np.eye(1024)[perm])
    assert grid.conditional_quantile(u, 0.5) == (100 + 0.5) / 1024
    # a boundary k/n computed in floating point still lands on the edge
    assert cell_index(100, 0.29) == 29
    assert list(cell_index(3, np.array([1 / 3, 2 / 3]))) == [1, 2]
    assert list(cell_index(3, np.array([1 / 3, 2 / 3]), side="left")) == [0, 1]
    assert np.array_equal(cell_index(1024, np.arange(1, 1024) / 1024), np.arange(1, 1024))


# ---------------------------------------------------------------------------
# branches of the defaults: grids of unrelated resolutions, the W ridge, a
# carrier that implements only its cdf
# ---------------------------------------------------------------------------


def cell_overlap_discretization(matrix, m):
    """Independent oracle: the mass of each cell of the m-partition, summed
    from the overlaps of the n-grid's cells with it."""
    n = matrix.shape[0]
    overlap = np.array(
        [[max(0.0, min((k + 1) / n, (i + 1) / m) - max(k / n, i / m)) for k in range(n)] for i in range(m)]
    )
    # cell (k, l) holds mass matrix[k, l] / n, a share n * overlap of it
    # in coarse cell (i, j), whose entry is m times its mass
    return m * n * overlap @ matrix @ overlap.T


def test_discretize_between_unrelated_resolutions_matches_cell_overlaps():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    coarse = GridCopula(a).discretize(2)
    expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert np.max(np.abs(coarse.matrix - expected)) <= 1e-15
    assert np.max(np.abs(coarse.matrix - cell_overlap_discretization(a, 2))) <= 1e-15


def test_lower_bound_ridge_takes_the_side_asked_for():
    w = LowerFrechetCopula()
    assert w.partial_derivative(1, 0.25, 0.75, side="left") == 0.0
    assert w.partial_derivative(1, 0.25, 0.75) == 1.0
    assert w.partial_derivative(2, 0.75, 0.25, side="left") == 0.0
    assert w.partial_derivative(2, 0.75, 0.25) == 1.0


class _CdfOnly(Copula):
    """A carrier with nothing but its cdf: every other kernel is a default."""

    def __init__(self, cdf):
        self.function = cdf

    def _cdf(self, u, v):
        return self.function(u, v)

    def to_spec(self):
        raise NotImplementedError


def test_default_partial_of_a_cdf_only_carrier_is_its_derivative():
    # Farlie-Gumbel-Morgenstern, theta = 0.5: d1 C = v (1 + theta (1 - v) (1 - 2u))
    fgm = _CdfOnly(lambda u, v: u * v * (1.0 + 0.5 * (1.0 - u) * (1.0 - v)))
    u = np.linspace(0.05, 0.95, 19)[:, None]
    v = np.linspace(0.0, 1.0, 21)
    exact = v * (1.0 + 0.5 * (1.0 - v) * (1.0 - 2.0 * u))
    assert np.max(np.abs(fgm.partial_derivative(1, u, v) - exact)) <= 1e-8
    assert type(fgm.partial_derivative(1, 0.3, 0.6)) is float


def test_discretize_refuses_a_cdf_that_is_not_2_increasing():
    bumped = _CdfOnly(lambda u, v: u * v - 0.2 * np.sin(np.pi * u) * np.sin(np.pi * v))
    with pytest.raises(DomainError, match="not 2-increasing"):
        bumped.discretize(4)
