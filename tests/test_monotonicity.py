import numpy as np
import pytest

from copula_markov import (
    DomainError,
    GridCopula,
    IndependenceCopula,
    StepFunction,
    archimedean_copula,
    check_complete_dependence,
    check_dominance,
    check_quadrant_dependence,
    check_si,
    clayton_generator,
    empirical_si_check,
    extreme_value_copula,
    frank_generator,
    gumbel_pickands,
    markov_product,
    operator_preserves_monotone,
    si_sd_involution,
)

from copula_markov import monotonicity
from copula_markov.algebra import transpose
from copula_markov.core import _running_sums
from copula_markov.metrics import sup_gap
from copula_markov.monotonicity import MonotonicityVerdict

from conftest import CHECKER3, random_doubly_stochastic, traced_peak


# ---------------------------------------------------------------------------
# the SI/SD verdicts
# ---------------------------------------------------------------------------


def test_checkerboard_si_first_component(checker3):
    verdict = check_si(checker3, component=1, tol=0.0)
    assert verdict.si
    assert not verdict.sd
    assert verdict.method == "exact-cumsum"
    assert verdict.max_violation == 0.0


def test_checkerboard_not_si_second_component(checker3):
    verdict = check_si(checker3, component=2, tol=0.0)
    assert not verdict.si
    # column cumulative sums at u in the first cell run 2/3, 0, 1/3: the
    # increase from the second to the third column is the worst violation
    assert verdict.max_violation == pytest.approx(1 / 3, abs=1e-15)
    assert verdict.witness is not None
    u1, u2, v = verdict.witness
    assert (u1, u2) == (0.5, 5 / 6)


def test_lower_bound_is_sd_not_si(lower):
    verdict = check_si(lower, component=1)
    assert not verdict.si
    assert verdict.sd


def test_upper_bound_and_independence_si(pi, upper):
    assert check_si(upper, 1).si
    assert check_si(pi, 1).si
    assert check_si(pi, 1).sd  # constant conditional law: both hold


def test_si_verdict_grid_versus_section_certificate():
    cop = archimedean_copula(clayton_generator(2.0))
    analytic = check_si(cop, 1)
    grid = check_si(cop.discretize(64), 1, tol=1e-10)
    assert analytic.method == "grid-certified"
    assert grid.method == "exact-cumsum"
    assert analytic.si and grid.si


def test_negative_frank_is_sd_both_ways():
    cop = archimedean_copula(frank_generator(-5.0))
    assert check_si(cop, 1).sd
    assert check_si(cop, 2).sd
    assert not check_si(cop, 1).si


def test_check_si_rejects_bad_arguments(pi):
    with pytest.raises(DomainError):
        check_si(pi, component=0)
    with pytest.raises(DomainError):
        check_si(pi, component=1, tol=-1.0)


def cumsum_check_si(c, component, tol):
    """Reference: the grid SI check through a transposed grid and its own
    cumulative row sums."""
    work = c if component == 1 else transpose(c)
    n = work.n
    if n == 1:
        verdict = True, True, 0.0, None, "exact-cumsum"
    else:
        cum = np.cumsum(work.matrix, axis=1)
        steps = np.diff(cum, axis=0)  # > 0 anywhere breaks SI, < 0 breaks SD
        si_worst = float(steps.max())
        sd_worst = float(-steps.min())
        k, l = np.unravel_index(np.argmax(steps), steps.shape)
        witness = ((k + 0.5) / n, (k + 1.5) / n, (l + 1.0) / n) if si_worst > 0 else None
        verdict = si_worst <= tol, sd_worst <= tol, max(si_worst, 0.0), witness, "exact-cumsum"
    return MonotonicityVerdict(
        si=verdict[0],
        sd=verdict[1],
        component=component,
        max_violation=verdict[2],
        witness=verdict[3],
        method=verdict[4],
    ).to_json()


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_grid_si_check_matches_the_cumsum_reference(rng, n):
    si = 0.6 * np.eye(n) + 0.4 / n  # SI; its row reversal is SD
    grids = [
        si,
        si[::-1].copy(),
        np.full((n, n), 1.0 / n),  # both
        random_doubly_stochastic(rng, n),
        random_doubly_stochastic(rng, n, n_perms=2),
    ]
    if n % 2 == 0:
        half = np.full((n // 2, n // 2), 2.0 / n)
        grids.append(np.kron(np.eye(2), half))  # ordinal sum of two independence blocks
        grids.append(np.kron(np.eye(2)[::-1], half))
    for a in grids:
        grid = GridCopula(a)
        for component in (1, 2):
            for tol in (0.0, 1e-9):
                expected = cumsum_check_si(grid, component, tol)
                assert check_si(grid, component, tol=tol).to_json() == expected


@pytest.mark.parametrize("n", [2, 300, 700])
def test_grid_si_check_slabs_match_the_full_step_table(rng, n):
    si = 0.6 * np.eye(n) + 0.4 / n
    for a in (si, si[::-1].copy(), random_doubly_stochastic(rng, n, n_perms=min(n, 12))):
        grid = GridCopula(a)
        for component, lines in ((1, grid.matrix), (2, grid.matrix.T)):
            steps = np.diff(_running_sums(lines)[:, 1:], axis=0)
            slabs = np.concatenate([s.flatten() for s in monotonicity._running_sum_steps(lines)])
            assert slabs.tobytes() == steps.tobytes()
            k, l = np.unravel_index(np.argmax(steps), steps.shape)
            verdict = check_si(grid, component)
            assert verdict.max_violation == max(float(steps.max()), 0.0)
            assert verdict.si == (steps.max() <= 1e-9)
            assert verdict.sd == (-steps.min() <= 1e-9)
            breach = steps.max() > 0
            assert verdict.witness == (((k + 0.5) / n, (k + 1.5) / n, (l + 1.0) / n) if breach else None)


def test_grid_si_check_holds_no_full_size_temporary(rng):
    n = 1024
    grid = GridCopula(random_doubly_stochastic(rng, n, n_perms=12))
    for component in (1, 2):
        assert traced_peak(check_si, grid, component) < n * n * 8 // 2


def test_grid_si_check_builds_no_transposed_grid(checker3, monkeypatch):
    def refuse(c):
        raise AssertionError("transpose called")

    monkeypatch.setattr(monotonicity, "transpose", refuse)
    assert not check_si(checker3, component=2).si


# ---------------------------------------------------------------------------
# dominance under the product
# ---------------------------------------------------------------------------


def test_dominance_holds_for_si_checkerboard(checker3, rng):
    for _ in range(100):
        d = GridCopula(random_doubly_stochastic(rng, 3))
        assert check_dominance(d, checker3, tol=1e-10)


def test_dominance_with_equality_for_independence(pi, rng):
    d = GridCopula(random_doubly_stochastic(rng, 5))
    verdict = check_dominance(d, pi)
    assert verdict.holds
    assert abs(verdict.gap) <= 1e-12


def test_dominance_discretizes_a_closed_form_once(rng, monkeypatch):
    d = GridCopula(random_doubly_stochastic(rng, 64))
    clayton = archimedean_copula(clayton_generator(2.0))
    # the verdict of the product-then-compare path, discretizing per use
    product = markov_product(d, clayton)
    gap, witness = sup_gap(product, clayton.discretize(product.n), signed=True)
    calls = []
    discretize = type(clayton).discretize

    def counted(self, n):
        calls.append(n)
        return discretize(self, n)

    monkeypatch.setattr(type(clayton), "discretize", counted)
    verdict = check_dominance(d, clayton)
    assert calls == [64]
    assert (verdict.holds, verdict.gap, verdict.witness) == (bool(gap <= 1e-9), gap, witness)


def test_dominance_short_circuits_keep_the_closed_form_comparison(pi, upper, rng):
    clayton = archimedean_copula(clayton_generator(2.0))
    assert check_dominance(upper, clayton).gap == sup_gap(clayton, clayton, signed=True)[0]
    assert check_dominance(pi, clayton).gap == sup_gap(pi, clayton, signed=True)[0]
    d = GridCopula(random_doubly_stochastic(rng, 8))
    verdict = check_dominance(d, upper, reverse=True)
    assert verdict.gap == sup_gap(upper.discretize(8), d, signed=True)[0]


def test_dominance_reverses_for_sd_copulas(lower):
    forward = check_dominance(lower, lower, tol=1e-9)
    assert not forward.holds  # C- * C- is the upper bound, far above C-
    assert check_dominance(lower, lower, tol=1e-9, reverse=True).holds


def test_dominance_violation_search_for_non_si_input(checker3, rng):
    # the transposed example is not SI in the first component, so some D
    # must break the inequality; random search plus the transpose product
    # family finds one
    target = GridCopula(CHECKER3.T.copy())
    assert not check_si(target, 1, tol=0.0).si
    found = False
    candidates = [markov_product(GridCopula(CHECKER3.T.copy()), target)]
    for _ in range(1000):
        candidates.append(GridCopula(random_doubly_stochastic(rng, 3)))
    for d in candidates:
        if not check_dominance(d, target, tol=1e-10).holds:
            found = True
            break
    assert found


def test_dominance_forward_for_si_set(checker3, rng):
    si_set = [
        IndependenceCopula(),
        checker3,
        extreme_value_copula(gumbel_pickands(1.5)).discretize(16),
    ]
    for cop in si_set:
        n = cop.n if isinstance(cop, GridCopula) else 16
        for _ in range(20):
            d = GridCopula(random_doubly_stochastic(rng, n))
            assert check_dominance(d, cop, tol=1e-9)


# ---------------------------------------------------------------------------
# the sign table for products of monotone copulas
# ---------------------------------------------------------------------------


def test_product_sign_table(rng):
    n = 12
    si_pool = [
        IndependenceCopula().discretize(n),
        GridCopula(CHECKER3).discretize(n),
        extreme_value_copula(gumbel_pickands(2.0)).discretize(n),
        archimedean_copula(clayton_generator(1.5)).discretize(n),
    ]
    sd_pool = [si_sd_involution(c) for c in si_pool]
    for c in si_pool:
        assert check_si(c, 1, tol=1e-12).si
    for c in sd_pool:
        assert check_si(c, 1, tol=1e-12).sd
    for a in si_pool:
        for b in si_pool:
            assert check_si(markov_product(a, b), 1, tol=1e-12).si
    for a in sd_pool:
        for b in sd_pool:
            assert check_si(markov_product(a, b), 1, tol=1e-12).si
    for a in si_pool:
        for b in sd_pool:
            assert check_si(markov_product(a, b), 1, tol=1e-12).sd
            assert check_si(markov_product(b, a), 1, tol=1e-12).sd


# ---------------------------------------------------------------------------
# quadrant dependence
# ---------------------------------------------------------------------------


def test_quadrant_dependence_bounds(upper, lower):
    assert check_quadrant_dependence(upper).label == "PQD"
    assert check_quadrant_dependence(lower).label == "NQD"


def test_quadrant_dependence_independence_is_both(pi):
    assert check_quadrant_dependence(pi).label == "both"


def test_si_checkerboard_is_pqd(checker3):
    # grid sweep confirms the ordering C >= uv implied by SI
    assert check_quadrant_dependence(checker3).label == "PQD"


def test_sd_copula_is_nqd():
    cop = archimedean_copula(frank_generator(-4.0))
    assert check_quadrant_dependence(cop, tol=1e-9).nqd


# ---------------------------------------------------------------------------
# complete dependence
# ---------------------------------------------------------------------------


def test_complete_dependence_frechet_bounds(upper, lower):
    assert check_complete_dependence(upper)
    assert check_complete_dependence(lower)


def test_complete_dependence_fails_for_independence(pi):
    verdict = check_complete_dependence(pi)
    assert not verdict.completely_dependent
    assert verdict.gap == pytest.approx(0.25, abs=1e-6)


def test_complete_dependence_permutation_grid(rng):
    perm = np.eye(8)[rng.permutation(8)]
    assert check_complete_dependence(GridCopula(perm), tol=1e-10)
    assert not check_complete_dependence(GridCopula(random_doubly_stochastic(rng, 8)))


def test_si_plus_complete_dependence_forces_upper_bound(rng):
    # scan all SI permutation grids at small n: only the identity survives
    from itertools import permutations

    n = 4
    for sigma in permutations(range(n)):
        mat = np.zeros((n, n))
        mat[np.arange(n), list(sigma)] = 1.0
        g = GridCopula(mat)
        if check_si(g, 1, tol=0.0).si and check_complete_dependence(g, tol=1e-10):
            assert np.array_equal(mat, np.eye(n))


# ---------------------------------------------------------------------------
# operator monotonicity
# ---------------------------------------------------------------------------


def test_operator_of_independence_averages(pi):
    f = StepFunction([5.0, 3.0, 1.0, 1.0])
    assert operator_preserves_monotone(pi, f)


def test_operator_of_checkerboard_preserves_indicator(checker3):
    f = StepFunction.indicator_upto(3, 1)
    assert operator_preserves_monotone(checker3, f)
    from copula_markov import operator_of

    image = operator_of(checker3, 3).apply(f)
    assert np.max(np.abs(image.values - np.array([2 / 3, 1 / 3, 0.0]))) == 0.0


def test_operator_of_lower_bound_reverses(lower):
    f = StepFunction([3.0, 2.0, 1.0])
    assert not operator_preserves_monotone(lower, f)


def test_operator_rejects_non_monotone_input(pi):
    with pytest.raises(DomainError):
        operator_preserves_monotone(pi, StepFunction([1.0, 2.0, 0.0]))


def test_si_equivalent_to_indicator_basis_preservation(rng):
    # SI in the first component iff the operator maps every decreasing
    # indicator onto a decreasing function, at matching resolution
    for _ in range(25):
        n = int(rng.integers(2, 9))
        g = GridCopula(random_doubly_stochastic(rng, n))
        si = check_si(g, 1, tol=1e-12).si
        basis_ok = all(
            operator_preserves_monotone(g, StepFunction.indicator_upto(n, j), tol=1e-12)
            for j in range(n + 1)
        )
        assert si == basis_ok


# ---------------------------------------------------------------------------
# the sampling check
# ---------------------------------------------------------------------------


def test_empirical_upper_bound_means_track_the_diagonal(upper):
    report = empirical_si_check(upper, lambda t: 1.0 - t, samples=100_000, seed=5)
    assert not report.insufficient_samples
    assert report.significant_increases == 0
    centers = np.asarray(report.bin_centers)
    means = np.asarray(report.bin_means)
    assert np.max(np.abs(means - (1.0 - centers))) <= 0.03
    assert np.all(np.diff(means) < 0)


def test_empirical_independence_is_flat_within_noise(pi):
    report = empirical_si_check(pi, lambda t: 1.0 - t, samples=100_000, seed=6)
    assert report.significant_increases == 0
    assert np.max(np.abs(np.asarray(report.bin_means) - 0.5)) <= 0.02


def test_empirical_checkerboard_no_significant_increase(checker3):
    report = empirical_si_check(
        checker3, lambda t: 1.0 - t, samples=100_000, bins=10, seed=7
    )
    assert report.significant_increases == 0


def test_empirical_accepts_tables_and_flags_small_bins(pi):
    table = np.column_stack([np.linspace(0, 1, 11), np.linspace(1, 0, 11)])
    report = empirical_si_check(pi, table, samples=400, bins=10, seed=8)
    assert report.insufficient_samples


def test_empirical_rejects_increasing_function(pi):
    with pytest.raises(DomainError):
        empirical_si_check(pi, lambda t: t, samples=1000, seed=9)


@pytest.mark.parametrize(
    "table, message",
    [
        (np.ones((3, 3)), "table of"),
        ([[0.0, 1.0], [0.0, 0.5]], "abscissae must increase"),
        ([[0.0, 0.0], [1.0, 1.0]], "must be decreasing"),
    ],
    ids=["shape", "abscissae", "increasing"],
)
def test_empirical_rejects_bad_tables(pi, table, message):
    with pytest.raises(DomainError, match=message):
        empirical_si_check(pi, table, samples=100, seed=9)


def test_empirical_clayton_is_si_and_frank_negative_is_sd():
    # 100k closed-form samples: the paper's Monte-Carlo reading of SI
    clayton = archimedean_copula(clayton_generator(2.0))
    report = empirical_si_check(clayton, lambda t: 1.0 - t, samples=100_000, seed=10)
    assert not report.insufficient_samples
    assert report.significant_increases == 0
    frank = archimedean_copula(frank_generator(-3.0))
    report = empirical_si_check(frank, lambda t: 1.0 - t, samples=100_000, seed=11)
    assert report.significant_increases >= 1


@pytest.mark.parametrize("z", [float("nan"), 0.0, -1.0])
def test_empirical_refuses_a_band_that_is_not_positive(pi, z):
    with pytest.raises(DomainError, match="z must be positive"):
        empirical_si_check(pi, lambda t: 1.0 - t, samples=1000, seed=12, z=z)


def test_complete_dependence_discretizes_at_the_given_resolution():
    clayton = archimedean_copula(clayton_generator(2.0))
    default = check_complete_dependence(clayton)
    assert check_complete_dependence(clayton, resolution=128) == default
    coarse = check_complete_dependence(clayton, resolution=16)
    assert coarse.gap != default.gap
    # the 16-grid's own comparison: C^T * C against M, both at 16
    grid = clayton.discretize(16)
    expected, _ = sup_gap(GridCopula(grid.matrix.T @ grid.matrix), GridCopula(np.eye(16)))
    assert coarse.gap == pytest.approx(expected, abs=1e-15)


def test_reverse_dominance_is_the_sup_of_c_minus_the_product(rng):
    # one extremes pass: the negated minimum of D * C - C, at its point
    for n in (3, 4, 6):
        d = GridCopula(random_doubly_stochastic(rng, n))
        c = GridCopula(random_doubly_stochastic(rng, n))
        product = markov_product(d, c)
        verdict = check_dominance(d, c, reverse=True)
        assert (verdict.gap, verdict.witness) == sup_gap(c, product, signed=True)
    clayton = archimedean_copula(clayton_generator(2.0))
    grid = GridCopula(random_doubly_stochastic(rng, 5))
    verdict = check_dominance(grid, clayton, reverse=True)
    product = markov_product(grid, clayton.discretize(5))
    assert (verdict.gap, verdict.witness) == sup_gap(clayton.discretize(5), product, signed=True)


def test_quadrant_verdict_of_a_lower_bound_block_is_neither():
    # M outside the block lies above uv, the rescaled W inside it below
    from copula_markov import LowerFrechetCopula, ordinal_sum

    verdict = check_quadrant_dependence(ordinal_sum([(0.2, 0.8)], [LowerFrechetCopula()]))
    assert (verdict.pqd, verdict.nqd) == (False, False)
    assert verdict.label == "neither"
