from types import SimpleNamespace

import numpy as np
import pytest

from copula_markov import (
    Copula,
    DomainError,
    GridCopula,
    IndependenceCopula,
    InvariantError,
    LowerFrechetCopula,
    ResolutionCapError,
    archimedean_copula,
    check_quadrant_dependence,
    check_si,
    clayton_generator,
    conditional_expectation_form,
    copula_of,
    d1_metric,
    d_inf,
    extreme_value_copula,
    frank_generator,
    gumbel_pickands,
    nqd_idempotent_check,
    ordinal_sum,
    power,
    sobolev_diagonal,
    transpose,
)
from copula_markov import metrics
from copula_markov.metrics import (
    _CORNER_SLAB,
    _D1_T_CELLS,
    _D1_U_PANELS,
    _GL_NODES,
    _GL_WEIGHTS,
    _corner_extremes,
    _d1_grids,
    _d1_slices,
    _slice_knots,
    sup_gap,
)

from conftest import CHECKER3, random_doubly_stochastic, traced_peak


# ---------------------------------------------------------------------------
# sup distance
# ---------------------------------------------------------------------------


def test_d_inf_identical_inputs(checker3, pi):
    assert d_inf(checker3, checker3) == 0.0
    assert d_inf(pi, pi) == 0.0


def test_d_inf_independence_to_bounds(pi, upper, lower):
    # grid-search oracle: max of min(u,v) - uv is 1/4, at the center
    value, witness = sup_gap(pi, upper)
    assert value == pytest.approx(0.25, abs=1e-6)
    assert witness == (0.5, 0.5)
    assert d_inf(pi, lower) == pytest.approx(0.25, abs=1e-6)


def test_d_inf_symmetry_and_triangle(rng):
    for n in (3, 6):
        a = GridCopula(random_doubly_stochastic(rng, n))
        b = GridCopula(random_doubly_stochastic(rng, n))
        c = GridCopula(random_doubly_stochastic(rng, n))
        assert d_inf(a, b) == d_inf(b, a)
        assert d_inf(a, c) <= d_inf(a, b) + d_inf(b, c) + 1e-12


def test_d_inf_exact_for_common_resolution_grids(checker3):
    # difference of two piecewise bilinear surfaces peaks at a corner
    other = GridCopula(np.full((3, 3), 1 / 3))
    p1 = np.zeros((4, 4))
    p1[1:, 1:] = CHECKER3.cumsum(0).cumsum(1)
    p2 = np.zeros((4, 4))
    p2[1:, 1:] = np.full((3, 3), 1 / 3).cumsum(0).cumsum(1)
    oracle = np.max(np.abs(p1 - p2)) / 3
    assert d_inf(checker3, other) == pytest.approx(oracle, abs=1e-15)


def prefix_sums(matrix):
    p = np.zeros((matrix.shape[0] + 1,) * 2)
    p[1:, 1:] = matrix.cumsum(0).cumsum(1)
    return p


def corner_values(matrix):
    return prefix_sums(matrix) / matrix.shape[0]


def test_sup_gap_common_resolution_grids_on_corners(rng):
    a = random_doubly_stochastic(rng, 6)
    b = random_doubly_stochastic(rng, 6)
    diff = corner_values(a) - corner_values(b)
    gap, (u, v) = sup_gap(GridCopula(a), GridCopula(b))
    assert gap == pytest.approx(np.abs(diff).max(), abs=1e-15)
    assert abs(diff[round(u * 6), round(v * 6)]) == pytest.approx(gap, abs=1e-15)
    signed, (u, v) = sup_gap(GridCopula(a), GridCopula(b), signed=True)
    assert signed == pytest.approx(diff.max(), abs=1e-15)
    assert diff[round(u * 6), round(v * 6)] == pytest.approx(signed, abs=1e-15)


def corner_difference(a, b):
    """The corner values of C1 - C2 on the whole (n+1)^2 lattice: the
    running sums of a - b along the rows, summed down the columns, over n."""
    n = a.shape[0]
    table = np.zeros((n + 1, n + 1))
    table[1:, 1:] = np.cumsum(np.cumsum(a - b, axis=1), axis=0)
    return table / n


def reference_sup_gap(a, b, signed=False):
    """The corner-lattice gap as argmax over the whole difference array; a
    gap of 0 has no witness."""
    n = a.shape[0]
    diff = corner_difference(a, b)
    if not signed:
        diff = np.abs(diff)
    i, j = np.unravel_index(np.argmax(diff), diff.shape)
    gap = float(diff[i, j])
    return gap, (int(i) / n, int(j) / n) if gap else None


def test_sup_gap_matches_argmax_reference_including_ties(rng):
    eye = np.eye(3)
    # rows of the identity in orders (0, 2, 1) and (1, 0, 2): the corner
    # difference reaches +1/3 and -1/3, so |max| = |min|
    pairs = [(eye[[0, 2, 1]], eye[[1, 0, 2]]), (eye[[1, 0, 2]], eye[[0, 2, 1]])]
    pairs += [(CHECKER3, CHECKER3), (CHECKER3, CHECKER3.T.copy())]
    for n in (1, 2, 7, 40):
        for _ in range(5):
            pairs.append(
                (random_doubly_stochastic(rng, n, n_perms=2), random_doubly_stochastic(rng, n))
            )
    for a, b in pairs:
        for signed in (False, True):
            assert sup_gap(GridCopula(a), GridCopula(b), signed=signed) == reference_sup_gap(
                a, b, signed=signed
            )
    diff = corner_values(pairs[0][0]) - corner_values(pairs[0][1])
    assert diff.max() == -diff.min() == pytest.approx(1 / 3)


def reference_corner_extremes(g1, g2):
    """The corner extremes from argmax/argmin over the whole difference array."""
    flat = corner_difference(g1.matrix, g2.matrix).ravel()
    hi, lo = int(np.argmax(flat)), int(np.argmin(flat))
    return float(flat[hi]), hi, float(flat[lo]), lo


@pytest.mark.parametrize("n", [1, 3, 300, 700])
def test_corner_extremes_match_the_full_array_reference(rng, n):
    a = GridCopula(random_doubly_stochastic(rng, n, n_perms=min(n, 12)))
    b = GridCopula(random_doubly_stochastic(rng, n, n_perms=min(n, 12)))
    assert _corner_extremes(a, b) == reference_corner_extremes(a, b)


def test_corner_extremes_ties_across_slabs_take_the_earlier_corner(monkeypatch):
    # permutation grids of 8 cells: every corner value is a count over 8,
    # exact in binary, so equal counts tie exactly
    eye = np.eye(8)
    g1 = GridCopula(eye[[6, 0, 2, 7, 1, 4, 5, 3]])
    g2 = GridCopula(eye[[3, 0, 7, 1, 5, 6, 2, 4]])
    upper, lower = GridCopula(eye), GridCopula(eye[::-1].copy())
    # slabs of 1, 2 and 3 rows of steps, and one slab; corner row 0 and
    # column 0 count in every index, 9 corners to a row
    for rows in (1, 2, 3, 8):
        monkeypatch.setattr(metrics, "_CORNER_SLAB", 8 * rows)
        # +-1/8, first met at corners (3, 3) and (1, 4), and again in later rows
        assert _corner_extremes(g1, g2) == (0.125, 3 * 9 + 3, -0.125, 1 * 9 + 4)
        assert _corner_extremes(g2, g1) == (0.125, 1 * 9 + 4, -0.125, 3 * 9 + 3)
        # the unsigned tie between the max and -min takes the corner met first
        assert sup_gap(g1, g2) == (0.125, (1 / 8, 4 / 8))
        # W <= M: the zero extreme is met first at corner (0, 0) of row 0
        assert _corner_extremes(lower, upper) == (0.0, 0, -0.5, 4 * 9 + 4)
        assert _corner_extremes(upper, lower) == (0.5, 4 * 9 + 4, 0.0, 0)
        for a, b in ((g1, g2), (g2, g1), (lower, upper), (upper, lower)):
            assert _corner_extremes(a, b) == reference_corner_extremes(a, b)


@pytest.mark.parametrize("n", [1, 2, 254, 255, 256, 257, 700])
def test_corner_extremes_stream_an_uncached_operand_with_its_table_bits(rng, n):
    a = GridCopula(random_doubly_stochastic(rng, n, n_perms=min(n, 12)))
    b = GridCopula(random_doubly_stochastic(rng, n, n_perms=min(n, 12)))
    a._prefix  # a cached corner table is not read
    forward, backward = _corner_extremes(a, b), _corner_extremes(b, a)
    assert "_prefix" not in vars(b)
    assert forward == reference_corner_extremes(a, b)
    assert backward == reference_corner_extremes(b, a)


def test_grid_sup_gap_and_d1_hold_no_full_size_temporary(rng):
    n = 1024
    a = GridCopula(random_doubly_stochastic(rng, n, n_perms=12))
    b = GridCopula(random_doubly_stochastic(rng, n, n_perms=12))
    half_matrix = n * n * 8 // 2
    assert traced_peak(d_inf, a, b) < half_matrix
    assert traced_peak(d1_metric, a, b) < half_matrix
    assert "_prefix" not in vars(a) and "_prefix" not in vars(b)


def test_mesh_scans_hold_slabs_not_the_mesh(rng):
    # meshes of 1537^2 and 1025^2 points, in slabs of about _CORNER_SLAB
    a = GridCopula(random_doubly_stochastic(rng, 512, n_perms=12))
    b = GridCopula(random_doubly_stochastic(rng, 768, n_perms=12))
    c = GridCopula(random_doubly_stochastic(rng, 1024, n_perms=12))
    assert traced_peak(d_inf, a, b) < 16 << 20
    assert traced_peak(check_quadrant_dependence, c) < 16 << 20


def test_sup_gap_mixed_resolution_grids_exact(rng):
    # the knots of a 2-grid and a 3-grid span every corner of their 6-grid
    a = random_doubly_stochastic(rng, 2)
    b = random_doubly_stochastic(rng, 3)
    diff = corner_values(np.kron(a, np.full((3, 3), 1 / 3))) - corner_values(
        np.kron(b, np.full((2, 2), 1 / 2))
    )
    assert sup_gap(GridCopula(a), GridCopula(b))[0] == pytest.approx(
        np.abs(diff).max(), abs=1e-12
    )
    assert sup_gap(GridCopula(a), GridCopula(b), signed=True)[0] == pytest.approx(
        diff.max(), abs=1e-12
    )


# ---------------------------------------------------------------------------
# the D1 metric
# ---------------------------------------------------------------------------


def test_d1_identical_inputs(checker3, pi):
    assert d1_metric(checker3, checker3) == 0.0
    assert d1_metric(pi, pi) == 0.0


def reference_d1_grids(a, b):
    """Grid D1 summed per piece: on u-cell k the derivative gap is linear
    across v-cell m from cum[k, m] to cum[k, m + 1]."""
    n = a.shape[0]
    cum = np.zeros((n, n + 1))
    cum[:, 1:] = np.cumsum(a - b, axis=1)
    y0, y1 = cum[:, :-1], cum[:, 1:]
    trapezoid = 0.5 * (np.abs(y0) + np.abs(y1))
    denom = np.abs(y0) + np.abs(y1)
    crossing = np.divide(
        y0 * y0 + y1 * y1, 2.0 * denom, out=np.zeros_like(denom), where=denom > 0
    )
    pieces = (1.0 / n) * np.where(y0 * y1 >= 0.0, trapezoid, crossing)
    return float(pieces.sum() / n)


def test_d1_grid_kernel_matches_per_piece_reference(rng):
    eye = np.eye(4)
    pairs = [
        (CHECKER3, np.full((3, 3), 1 / 3)),
        # permutation rows: every gap row runs 0, +-1, ... and touches 0
        (eye, eye[[1, 0, 3, 2]]),
        (eye, eye[[3, 2, 1, 0]]),
        (np.ones((1, 1)), np.ones((1, 1))),
    ]
    for n in (1, 2, 5, 33, 128):
        for _ in range(4):
            pairs.append(
                (random_doubly_stochastic(rng, n, n_perms=3), random_doubly_stochastic(rng, n))
            )
    for a, b in pairs:
        got = _d1_grids(GridCopula(a), GridCopula(b))
        assert got == pytest.approx(reference_d1_grids(a, b), rel=1e-13, abs=0.0)
        assert d1_metric(GridCopula(a), GridCopula(b)) == got
    # a signed zero inside a crossing-free row must not divide 0 by 0
    neg_zero = SimpleNamespace(n=2, matrix=np.array([[-0.0, 1.0], [1.0, -0.0]]))
    flat = SimpleNamespace(n=2, matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    with np.errstate(all="raise"):
        assert _d1_grids(neg_zero, flat) == 0.0
        assert _d1_grids(GridCopula(eye), GridCopula(eye)) == 0.0
    for a, _ in pairs:
        assert d1_metric(GridCopula(a), GridCopula(a)) == 0.0


def full_array_d1_grids(g1, g2):
    """The grid D1 kernel on whole n x n arrays, one sum over all rows."""
    cum = np.cumsum(g1.matrix - g2.matrix, axis=1)
    flips = ((cum[:, :-1] < 0) & (cum[:, 1:] > 0)) | ((cum[:, :-1] > 0) & (cum[:, 1:] < 0))
    cum = np.abs(cum)
    trapezoid = cum.sum() - 0.5 * cum[:, -1].sum()
    y0, y1 = cum[:, :-1][flips], cum[:, 1:][flips]
    return float((trapezoid - np.sum(y0 * y1 / (y0 + y1))) / g1.n**2)


@pytest.mark.parametrize("n", [1, 2, 100, 255, 256, 257, 700])
def test_d1_grid_slabs_sum_to_the_full_array_kernel(rng, n):
    a = GridCopula(random_doubly_stochastic(rng, n, n_perms=min(n, 12)))
    b = GridCopula(random_doubly_stochastic(rng, n, n_perms=min(n, 12)))
    got, full = _d1_grids(a, b), full_array_d1_grids(a, b)
    if n * n <= _CORNER_SLAB:  # one slab: the same sums in the same order
        assert got == full
    else:
        assert got == pytest.approx(full, rel=1e-15, abs=0.0)


def test_d1_independence_to_upper_bound(pi, upper):
    # analytic oracle: integral of |v - 1{u<v}| dudv = integral 2v(1-v) dv
    assert d1_metric(pi, upper) == pytest.approx(1 / 3, abs=1e-6)


def test_d1_grid_pair_respects_resolution_cap(rng, monkeypatch):
    monkeypatch.setenv("COPULA_GRID_CAP", "10")
    a = GridCopula(random_doubly_stochastic(rng, 3))
    b = GridCopula(random_doubly_stochastic(rng, 4))
    with pytest.raises(ResolutionCapError):
        d1_metric(a, b)


def d1_midpoint(c1, c2, panels=512):
    """Plain midpoint-rule estimate of the D1 integral (validation oracle)."""
    t = (np.arange(panels) + 0.5) / panels
    u, v = t[:, None], t[None, :]
    return float(np.abs(c1.partial_derivative(1, u, v) - c2.partial_derivative(1, u, v)).mean())


def test_d1_midpoint_oracle_agrees(pi, upper):
    assert d1_midpoint(pi, upper, panels=512) == pytest.approx(
        d1_metric(pi, upper), abs=1e-3
    )


@pytest.mark.parametrize(
    "intervals",
    [[(0.0, 1.0)], [(0.2, 0.7)], [(0.6, 0.62)], [(0.0, 1 / 3), (0.5, 0.9)]],
)
def test_d1_ordinal_sum_of_independence_to_upper_bound_is_exact(pi, upper, intervals):
    # each block contributes (b - a)^2 times the Pi-to-M distance 1/3; the
    # gap is linear and of one sign between slice knots, so the rule is exact
    cop = ordinal_sum(intervals, [pi] * len(intervals))
    exact = sum((b - a) ** 2 for a, b in intervals) / 3
    assert d1_metric(cop, upper) == pytest.approx(exact, abs=1e-12)


def test_d1_closed_forms_agree_with_exact_and_midpoint_values(pi, upper):
    assert d1_metric(pi, upper) == pytest.approx(1 / 3, abs=1e-12)
    # the derivative gap of this pair changes sign inside slices, off any knot
    clayton = archimedean_copula(clayton_generator(2.0))
    gumbel = extreme_value_copula(gumbel_pickands(2.5))
    assert d1_metric(clayton, gumbel) == pytest.approx(
        d1_midpoint(clayton, gumbel, panels=1024), abs=1e-5
    )
    frank = archimedean_copula(frank_generator(-3.0))
    assert d1_metric(frank, pi) == pytest.approx(
        d1_midpoint(frank, pi, panels=1024), abs=1e-5
    )


def per_slice_d1(c1, c2):
    """The closed-form D1 rule with one derivative call per operand per
    slice: the reference for the panel-batched evaluation."""
    u_edges = {0.0, 1.0}
    u_edges.update(float(x) for x in c1.knots_u())
    u_edges.update(float(x) for x in c2.knots_u())
    u_edges = np.array(sorted(u_edges))
    cells = np.linspace(0.0, 1.0, _D1_T_CELLS + 1)

    def slice_value(u):
        edges = np.union1d(cells, _slice_knots(c1, c2, u))
        t = 0.5 * (edges[:-1] + edges[1:])
        gap = np.asarray(c1.partial_derivative(1, u, t)) - np.asarray(
            c2.partial_derivative(1, u, t)
        )
        return float(np.abs(gap) @ np.diff(edges))

    total = 0.0
    for a, b in zip(u_edges[:-1], u_edges[1:]):
        panels = np.linspace(a, b, _D1_U_PANELS + 1)
        for p0, p1 in zip(panels[:-1], panels[1:]):
            mid = 0.5 * (p0 + p1)
            half = 0.5 * (p1 - p0)
            vals = [slice_value(mid + half * x) for x in _GL_NODES]
            total += half * float(np.dot(_GL_WEIGHTS, vals))
    return total


def test_d1_panel_batches_equal_the_per_slice_rule(pi, upper):
    clayton = archimedean_copula(clayton_generator(2.0))
    frank = archimedean_copula(frank_generator(-3.0))
    pairs = [
        (pi, upper),
        (clayton, extreme_value_copula(gumbel_pickands(2.5))),
        (frank, pi),
        (ordinal_sum([(0.0, 0.62)], [pi]), upper),
        (LowerFrechetCopula(), pi),
        (transpose(archimedean_copula(clayton_generator(3.0))), frank),
        (ordinal_sum([(0.1, 0.4), (0.5, 0.9)], [clayton, LowerFrechetCopula()]), frank),
        (ordinal_sum([(0.2, 0.7)], [GridCopula(CHECKER3)]), pi),
    ]
    for c1, c2 in pairs:
        assert _d1_slices(c1, c2) == per_slice_d1(c1, c2)


def test_d1_slices_read_the_v_knots_once_per_call(monkeypatch, pi):
    calls = []
    knots_v = GridCopula.knots_v

    def counted(self):
        calls.append(1)
        return knots_v(self)

    monkeypatch.setattr(GridCopula, "knots_v", counted)
    # once for the knots all slices share, and once per slice as the grid's
    # conditional knots; 3 u-cells of 24 panels of 12 slices
    _d1_slices(GridCopula(CHECKER3), pi)
    assert len(calls) == 1 + 3 * _D1_U_PANELS * _GL_NODES.size


def test_d1_closed_form_makes_one_derivative_call_per_operand_per_panel(monkeypatch):
    calls = []
    derivative = Copula.partial_derivative

    def counted(self, *args, **kwargs):
        calls.append(1)
        return derivative(self, *args, **kwargs)

    monkeypatch.setattr(Copula, "partial_derivative", counted)
    clayton = archimedean_copula(clayton_generator(2.0))
    gumbel = extreme_value_copula(gumbel_pickands(2.5))
    d1_metric(clayton, gumbel)
    # neither operand has a u-knot: one interval of 24 panels, two operands
    assert len(calls) == 2 * _D1_U_PANELS == 48


def test_d1_symmetry_and_triangle(rng):
    for n in (4, 8):
        a = GridCopula(random_doubly_stochastic(rng, n))
        b = GridCopula(random_doubly_stochastic(rng, n))
        c = GridCopula(random_doubly_stochastic(rng, n))
        assert d1_metric(a, b) == pytest.approx(d1_metric(b, a), abs=1e-15)
        assert d1_metric(a, c) <= d1_metric(a, b) + d1_metric(b, c) + 1e-12


def test_d1_exact_grid_path_matches_quadrature(rng):
    # midpoint cannot resolve the |.| kinks of the piecewise-linear gap
    # exactly, but it must converge to the exact cellwise value
    a = GridCopula(random_doubly_stochastic(rng, 6))
    b = GridCopula(random_doubly_stochastic(rng, 6))
    exact = d1_metric(a, b)
    assert d1_midpoint(a, b, panels=600) == pytest.approx(exact, abs=1e-5)
    assert d1_midpoint(a, b, panels=1800) == pytest.approx(exact, abs=2e-6)


def test_d1_decreases_along_iterates(checker3):
    flat = GridCopula(np.full((3, 3), 1 / 3))
    values = [d1_metric(power(checker3, k), flat) for k in range(1, 12)]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[-1] <= 1e-4


def test_d1_mixed_grid_and_closed_form(pi):
    # the grid of independence IS independence, so the mixed path must
    # agree with the analytic pair up to the refinement residual
    grid_pi = pi.discretize(4)
    from copula_markov import UpperFrechetCopula

    mixed = d1_metric(grid_pi, UpperFrechetCopula())
    assert mixed == pytest.approx(1 / 3, abs=5e-3)


def test_d1_answers_with_a_python_float_on_every_path(checker3, pi, upper):
    clayton = archimedean_copula(clayton_generator(2.0))
    for pair in [(clayton, pi), (pi, upper), (checker3, pi), (checker3, checker3.discretize(6))]:
        assert type(d1_metric(*pair)) is float


# ---------------------------------------------------------------------------
# uniform / derivative / D1 convergence move together on SI sequences
# ---------------------------------------------------------------------------


def test_convergence_equivalence_along_si_iterates(checker3):
    flat = GridCopula(np.full((3, 3), 1 / 3))
    sup_gaps, d1_gaps, deriv_gaps = [], [], []
    interior = np.arange(1, 3) / 3
    for k in range(1, 25):
        it = power(checker3, k)
        sup_gaps.append(d_inf(it, flat))
        d1_gaps.append(d1_metric(it, flat))
        worst = max(
            abs(
                it.partial_derivative(1, u, v)
                - flat.partial_derivative(1, u, v)
            )
            for u in interior
            for v in interior
        )
        deriv_gaps.append(worst)
    for seq in (sup_gaps, d1_gaps, deriv_gaps):
        assert all(x >= y for x, y in zip(seq, seq[1:]))
        assert seq[-1] <= 1e-9


# ---------------------------------------------------------------------------
# diagonal Sobolev functional
# ---------------------------------------------------------------------------


def test_sobolev_independence(pi):
    assert sobolev_diagonal(pi) == pytest.approx(2 / 3, abs=1e-9)


def test_sobolev_upper_bound(upper):
    assert sobolev_diagonal(upper) == pytest.approx(1.0, abs=1e-6)


def test_sobolev_two_block_ordinal_sum(pi):
    # diagonal is 2u^2 on the first block and 1/2 + 2(u - 1/2)^2 on the
    # second: the integral is 5/12, twice that is 5/6
    cop = ordinal_sum([(0.0, 0.5), (0.5, 1.0)], [pi, pi])
    assert sobolev_diagonal(cop) == pytest.approx(5 / 6, abs=1e-6)


def test_sobolev_grid_path_matches_quadrature_oracle(checker3):
    from scipy.integrate import simpson
    from copula_markov import markov_product

    square = markov_product(checker3, checker3)
    u = np.linspace(0.0, 1.0, 4097)
    oracle = 2.0 * simpson(np.asarray(square.cdf(u, u)), x=u)
    assert sobolev_diagonal(checker3) == pytest.approx(oracle, abs=1e-7)


# ---------------------------------------------------------------------------
# the NQD-idempotent characterization
# ---------------------------------------------------------------------------


def test_nqd_check_independence_passes_with_equality(pi):
    verdict = nqd_idempotent_check(pi)
    assert verdict.nqd
    assert verdict.consistent
    assert verdict.d_inf_to_independence == 0.0
    assert verdict.sobolev == pytest.approx(2 / 3, abs=1e-9)


def test_nqd_check_upper_bound_is_not_nqd(upper):
    verdict = nqd_idempotent_check(upper)
    assert not verdict.nqd
    assert verdict.max_excess_over_independence == pytest.approx(0.25, abs=1e-6)


def test_nqd_check_single_block_ordinal_sum_not_nqd(pi):
    cop = ordinal_sum([(0.0, 0.5)], [pi])
    verdict = nqd_idempotent_check(cop)
    assert not verdict.nqd


def test_nqd_check_rejects_non_idempotent(checker3):
    with pytest.raises(DomainError):
        nqd_idempotent_check(checker3)


# ---------------------------------------------------------------------------
# idempotent sweep: SD and NQD single out independence
# ---------------------------------------------------------------------------


def test_idempotent_suite_sweep():
    n = 12
    suite = {
        "independence": IndependenceCopula().discretize(n),
        "identity": copula_of(conditional_expectation_form([], n)),
        "two-blocks": copula_of(
            conditional_expectation_form([(0.0, 1 / 3), (5 / 6, 1.0)], n)
        ),
        "half-block": copula_of(conditional_expectation_form([(0.0, 0.5)], n)),
        "scattered": GridCopula(
            np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
        ),
    }
    sd_members = []
    nqd_members = []
    si_members = []
    for name, cop in suite.items():
        verdict = check_si(cop, 1, tol=1e-12)
        if verdict.si:
            si_members.append(name)
        if verdict.sd:
            sd_members.append(name)
        if check_quadrant_dependence(cop, tol=1e-9).nqd:
            nqd_members.append(name)
    assert sd_members == ["independence"]
    assert nqd_members == ["independence"]
    # the ordinal sums of independence are exactly the SI members
    assert sorted(si_members) == sorted(
        ["independence", "identity", "two-blocks", "half-block"]
    )
    assert d_inf(suite["independence"], IndependenceCopula()) <= 1e-9


# ---------------------------------------------------------------------------
# one extremes pass per comparison
# ---------------------------------------------------------------------------


def mesh_reference(c1, c2, signed):
    """sup_gap over the audit mesh from one full (u, v) array: the first
    maximum row by row."""
    us = np.unique(np.concatenate([np.linspace(0, 1, 257), c1.knots_u(), c2.knots_u()]))
    vs = np.unique(np.concatenate([np.linspace(0, 1, 257), c1.knots_v(), c2.knots_v()]))
    diff = np.asarray(c1.cdf(us[:, None], vs[None, :])) - np.asarray(c2.cdf(us[:, None], vs[None, :]))
    if not signed:
        diff = np.abs(diff)
    i, j = divmod(int(np.argmax(diff)), vs.size)
    return float(diff[i, j]), (float(us[i]), float(vs[j]))


def swap_bumps(n, bumps):
    """The n-grid of Pi with half a cell's mass moved around each
    (i, k, j, l): onto cells (i, j) and (k, l), off (i, l) and (k, j), the
    other way for sign -1.  C - Pi is then +-1/(2 n^2) on
    [i + 1, k] x [j + 1, l] / n, exactly for n a power of 2."""
    a = np.full((n, n), 1.0 / n)
    for (i, k, j, l), sign in bumps:
        a[[i, k], [j, l]] += 0.5 * sign / n
        a[[i, k], [l, j]] -= 0.5 * sign / n
    return GridCopula(a)


def several_block_tie():
    """A 2048-grid against the 1024-grid of Pi, a mesh of 2049^2 points
    (many u-row slabs), with C1 - C2 = +1/(2 n^2) at large u and
    small v and -1/(2 n^2) at small u and large v: row by row, the scan
    meets the minimum first."""
    g = swap_bumps(2048, [((1900, 1910, 100, 110), 1), ((100, 110, 2000, 2010), -1)])
    return g, GridCopula(np.full((1024, 1024), 1.0 / 1024))


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize(
    "pair",
    ["tie", "tie-reversed", "mixed", "closed", "grid-closed", "several-blocks"],
)
def test_sup_gap_on_the_mesh_matches_the_full_array_reference(pair, signed, rng, monkeypatch):
    tie_3 = GridCopula(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]]))
    tie_2 = GridCopula(np.eye(2))  # against tie_3: +-1/6 on the mesh
    clayton = archimedean_copula(clayton_generator(2.0))
    c1, c2 = {
        "tie": (tie_3, tie_2),
        "tie-reversed": (tie_2, tie_3),
        "mixed": (GridCopula(random_doubly_stochastic(rng, 6)), GridCopula(random_doubly_stochastic(rng, 4))),
        "closed": (clayton, extreme_value_copula(gumbel_pickands(2.5))),
        "grid-closed": (GridCopula(random_doubly_stochastic(rng, 12)), clayton),
        "several-blocks": several_block_tie(),
    }[pair]
    reference = mesh_reference(c1, c2, signed)
    # a slab of 1 scans one mesh row per cdf call
    for slab in (_CORNER_SLAB, 1):
        monkeypatch.setattr(metrics, "_CORNER_SLAB", slab)
        assert sup_gap(c1, c2, signed=signed) == reference


def test_an_unsigned_tie_on_several_blocks_takes_the_first_block():
    c1, c2 = several_block_tie()
    gap, (u, v) = sup_gap(c1, c2)
    assert gap == 0.5 / 2048**2
    assert (u, v) == (101 / 2048, 2001 / 2048)  # the minimum, met first row by row
    low, (u_low, v_low) = sup_gap(c2, c1, signed=True)
    assert low == gap and u_low < 0.1 and v_low > 0.9  # the minimum


class _NanAtCenter(Copula):
    """min(u, v), except NaN at (0.5, 0.5), a point of every audit mesh."""

    def _cdf(self, u, v):
        return np.where((u == 0.5) & (v == 0.5), np.nan, np.minimum(u, v))

    def to_spec(self):
        raise NotImplementedError


@pytest.mark.parametrize(
    "verdict",
    [lambda c: d_inf(c, IndependenceCopula()), check_quadrant_dependence, check_si],
    ids=["d_inf", "quadrant", "si"],
)
def test_a_nan_in_a_scan_is_refused(verdict):
    with pytest.raises(InvariantError, match="NaN"):
        verdict(_NanAtCenter())


def test_the_cli_exits_2_on_a_nan_in_a_scan(monkeypatch, capsys):
    from copula_markov import cli

    monkeypatch.setattr(cli, "load_copula", lambda path: _NanAtCenter())
    assert cli.main(["check", "nan.json", "--property", "pqd"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "NaN" in out.err


def count_cdf_points(monkeypatch):
    """Record the copula and the points of every public cdf evaluation."""
    points = []
    cdf = Copula.cdf

    def counted(self, u, v):
        points.append((self, np.broadcast(np.asarray(u), np.asarray(v)).size))
        return cdf(self, u, v)

    monkeypatch.setattr(Copula, "cdf", counted)
    return points


def assert_each_evaluates_the_mesh_once(points, c, mesh):
    """Slab by slab, C and then Pi; the points of each sum to the mesh."""
    c_calls, pi_calls = points[::2], points[1::2]
    assert all(owner is c for owner, _ in c_calls)
    assert all(isinstance(owner, IndependenceCopula) and owner is not c for owner, _ in pi_calls)
    assert [size for _, size in c_calls] == [size for _, size in pi_calls]
    assert sum(size for _, size in c_calls) == mesh


@pytest.mark.parametrize("kind", ["clayton", "grid"])
def test_quadrant_check_evaluates_the_mesh_once(monkeypatch, rng, kind):
    c = {
        "clayton": archimedean_copula(clayton_generator(2.0)),
        "grid": GridCopula(random_doubly_stochastic(rng, 5)),
    }[kind]
    mesh = np.unique(np.concatenate([np.linspace(0, 1, 257), c.knots_u()])).size ** 2
    points = count_cdf_points(monkeypatch)
    verdict = check_quadrant_dependence(c)
    assert_each_evaluates_the_mesh_once(points, c, mesh)
    assert verdict.max_above_independence == max(sup_gap(c, IndependenceCopula(), signed=True)[0], 0.0)
    assert verdict.max_below_independence == max(sup_gap(IndependenceCopula(), c, signed=True)[0], 0.0)


def test_nqd_check_evaluates_the_mesh_once(monkeypatch):
    from copula_markov import algebra
    from copula_markov.algebra import IdempotenceVerdict

    # the idempotence gate is not counted here
    monkeypatch.setattr(algebra, "is_idempotent", lambda c, tol: IdempotenceVerdict(True, 0.0, (0.0, 0.0)))
    pi = IndependenceCopula()
    points = count_cdf_points(monkeypatch)
    verdict = nqd_idempotent_check(pi)
    assert_each_evaluates_the_mesh_once(points[:-1], pi, 257**2)
    assert points[-1][1] == 1025  # then the Sobolev diagonal
    assert verdict.nqd and verdict.consistent
    assert verdict.d_inf_to_independence == 0.0


def test_zero_gaps_serialise_as_positive_zero(pi, checker3):
    import json
    import math

    from copula_markov import check_dominance
    from copula_markov.core import UpperFrechetCopula

    quadrant = check_quadrant_dependence(pi)
    dominance = check_dominance(UpperFrechetCopula(), checker3, reverse=True)
    nqd = nqd_idempotent_check(pi)
    for value in (
        quadrant.max_below_independence,
        quadrant.max_above_independence,
        dominance.gap,
        nqd.max_excess_over_independence,
        nqd.d_inf_to_independence,
    ):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    for record in (quadrant, dominance, nqd):
        assert "-0.0" not in json.dumps(record.to_json())
