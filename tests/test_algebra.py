import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager, nullcontext
from functools import cached_property
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copula_markov import (
    DecompositionError,
    DomainError,
    GridCopula,
    IndependenceCopula,
    LowerFrechetCopula,
    NotStochasticallyIncreasingError,
    OrdinalSumCopula,
    ResolutionCapError,
    TransposedCopula,
    UpperFrechetCopula,
    archimedean_copula,
    check_complete_dependence,
    check_dominance,
    check_si,
    clayton_generator,
    comonotone_pickands,
    extract_pi_ordinal_structure,
    gumbel_pickands,
    extreme_value_copula,
    is_idempotent,
    iterate_to_limit,
    markov_product,
    ordinal_sum,
    power,
    quadrature_markov_product,
    si_sd_involution,
    transpose,
)
from copula_markov import algebra, core, d_inf, metrics
from copula_markov.serialize import copula_from_spec, load_copula, save_copula

from conftest import CHECKER3, count_validations, random_doubly_stochastic, traced_peak

# matrix square of the workhorse example, from the matrix-product oracle
CHECKER3_SQUARED = np.array(
    [
        [4 / 9, 2 / 9, 1 / 3],
        [1 / 3, 1 / 3, 1 / 3],
        [2 / 9, 4 / 9, 1 / 3],
    ]
)


# ---------------------------------------------------------------------------
# the product
# ---------------------------------------------------------------------------


def test_product_upper_bound_is_the_unit(checker3, pi, upper):
    assert markov_product(upper, checker3) is checker3
    assert markov_product(checker3, upper) is checker3
    assert markov_product(upper, pi) is pi


def test_product_independence_annihilates(checker3, pi):
    assert isinstance(markov_product(pi, checker3), IndependenceCopula)
    assert isinstance(markov_product(checker3, pi), IndependenceCopula)


def test_product_grid_identities_exact(rng):
    for n in (2, 3, 8, 16):
        eye = UpperFrechetCopula().discretize(n)
        uni = IndependenceCopula().discretize(n)
        anti = LowerFrechetCopula().discretize(n)
        c = GridCopula(random_doubly_stochastic(rng, n))
        assert np.max(np.abs(markov_product(eye, c).matrix - c.matrix)) <= 1e-12
        assert np.max(np.abs(markov_product(c, eye).matrix - c.matrix)) <= 1e-12
        assert np.max(np.abs(markov_product(uni, c).matrix - uni.matrix)) <= 1e-12
        assert np.max(np.abs(markov_product(c, uni).matrix - uni.matrix)) <= 1e-12
        assert np.max(np.abs(markov_product(anti, anti).matrix - eye.matrix)) <= 1e-12


def test_product_of_checkerboard_with_itself(checker3):
    square = markov_product(checker3, checker3)
    assert np.max(np.abs(square.matrix - CHECKER3_SQUARED)) <= 1e-15
    # cross-check against numpy's own product
    assert np.max(np.abs(square.matrix - CHECKER3 @ CHECKER3)) == 0.0


def test_product_mixed_resolution_refines_to_lcm(rng):
    a = GridCopula(random_doubly_stochastic(rng, 2))
    b = GridCopula(random_doubly_stochastic(rng, 3))
    result = markov_product(a, b)
    assert result.n == 6
    oracle = quadrature_markov_product(a, b, 12)
    corners = np.arange(7) / 6
    worst = max(
        abs(float(oracle(u, v)) - result.cdf(u, v)) for u in corners for v in corners
    )
    assert worst <= 1e-9


def test_product_resolution_cap(rng, monkeypatch):
    a = GridCopula(random_doubly_stochastic(rng, 2))
    b = GridCopula(random_doubly_stochastic(rng, 3))
    with pytest.raises(ResolutionCapError):
        markov_product(a, b, cap=4)
    monkeypatch.setenv("COPULA_GRID_CAP", "5")
    with pytest.raises(ResolutionCapError):
        markov_product(a, b)
    monkeypatch.setenv("COPULA_GRID_CAP", "6")
    assert markov_product(a, b).n == 6


def test_power_and_iterate_respect_resolution_cap(rng, monkeypatch):
    clayton = archimedean_copula(clayton_generator(2.0))
    with pytest.raises(ResolutionCapError):
        power(GridCopula(random_doubly_stochastic(rng, 8)), 2, cap=4)
    monkeypatch.setenv("COPULA_GRID_CAP", "10")
    with pytest.raises(ResolutionCapError):
        power(clayton, 2, resolution=16)
    with pytest.raises(ResolutionCapError):
        iterate_to_limit(clayton, resolution=16)


def test_product_associative_on_random_triples(rng):
    for n in (2, 5, 32):
        for _ in range(5):
            a = GridCopula(random_doubly_stochastic(rng, n))
            b = GridCopula(random_doubly_stochastic(rng, n))
            c = GridCopula(random_doubly_stochastic(rng, n))
            left = markov_product(markov_product(a, b), c).matrix
            right = markov_product(a, markov_product(b, c)).matrix
            assert np.max(np.abs(left - right)) <= 1e-12


# ---------------------------------------------------------------------------
# the grid-product kernel: mixed resolutions and small supports
# ---------------------------------------------------------------------------


def _refined_reference(a, b):
    """The product at L = lcm(p, q) of both operands refined to L."""
    n = lcm(a.shape[0], b.shape[0])
    r, s = n // a.shape[0], n // b.shape[0]
    return np.kron(a, np.full((r, r), 1.0 / r)) @ np.kron(b, np.full((s, s), 1.0 / s))


def _operand(kind, n, rng):
    if kind == "full":
        return GridCopula.renormalized(rng.random((n, n)) + 0.05).matrix
    if kind == "mixture":
        return random_doubly_stochastic(rng, n, n_perms=int(rng.integers(1, 4)))
    if kind == "blocks":
        cuts = np.unique(np.concatenate([[0, n], rng.integers(0, n + 1, size=3)]))
        a = np.zeros((n, n))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            a[lo:hi, lo:hi] = 1.0 / (hi - lo)
        return a
    return np.eye(n)[rng.permutation(n)]


@st.composite
def resolution_pairs(draw):
    p = draw(st.integers(1, 24))
    relation = draw(st.sampled_from(["equal", "divisible", "coprime", "any"]))
    if relation == "equal":
        q = p
    elif relation == "divisible":
        q = p * draw(st.integers(1, 24 // p))
    elif relation == "coprime":
        q = draw(st.integers(1, 24).filter(lambda q: gcd(p, q) == 1))
    else:
        q = draw(st.integers(1, 24))
    return (q, p) if draw(st.booleans()) else (p, q)


OPERANDS = st.sampled_from(["full", "mixture", "blocks", "permutation"])


@contextmanager
def support_path_forced():
    """Send every product with an inner size above 1 down the support path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_SUPPORT_MARGIN", 1)
        mp.setattr(algebra, "_PAIR_WEIGHT", 0)
        yield


@settings(max_examples=150, deadline=None)
@given(
    sizes=resolution_pairs(),
    kinds=st.tuples(OPERANDS, OPERANDS),
    forced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_product_matches_the_refined_product(sizes, kinds, forced, seed):
    rng = np.random.default_rng(seed)
    a = _operand(kinds[0], sizes[0], rng)
    b = _operand(kinds[1], sizes[1], rng)
    with support_path_forced() if forced else nullcontext():
        result = markov_product(GridCopula(a), GridCopula(b)).matrix
    reference = _refined_reference(a, b)
    assert result.shape == reference.shape == (lcm(*sizes),) * 2
    assert np.max(np.abs(result - reference)) <= 1e-15
    assert not result.flags.writeable
    assert np.max(np.abs(result.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(result.sum(axis=1) - 1.0)) <= 1e-12
    if sizes[0] == sizes[1] and not forced:
        # below the support path's sizes the product is BLAS's, bit for bit
        assert result.tobytes() == (a @ b).tobytes()
    if kinds == ("permutation", "permutation") and sizes[0] == sizes[1]:
        assert np.array_equal(result, a @ b)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
def test_support_path_multiplies_permutations_exactly(n, seed):
    rng = np.random.default_rng(seed)
    p, q = _operand("permutation", n, rng), _operand("permutation", n, rng)
    mixture = random_doubly_stochastic(rng, n, n_perms=3)
    with support_path_forced():
        assert markov_product(GridCopula(p), GridCopula(q)).matrix.tobytes() == (p @ q).tobytes()
        # a permutation factor moves entries without adding any
        moved = markov_product(GridCopula(p), GridCopula(mixture)).matrix
        assert moved.tobytes() == mixture[np.argmax(p, axis=1)].tobytes()


def _count_support_products(monkeypatch):
    calls = []
    bincount = np.bincount

    def counted(*args, **kwargs):
        calls.append(kwargs.get("minlength"))
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    return calls


def test_large_permutation_products_take_the_support_path_exactly(rng, monkeypatch, upper, lower):
    n = 1024
    calls = _count_support_products(monkeypatch)
    square = markov_product(lower, lower, resolution=n)
    assert calls == [n * n]
    assert square.matrix.tobytes() == upper.discretize(n).matrix.tobytes()
    g = GridCopula(random_doubly_stochastic(rng, n, n_perms=12))
    twice = si_sd_involution(si_sd_involution(g))
    assert twice.matrix.tobytes() == g.matrix.tobytes()
    assert len(calls) == 3


def test_large_sparse_product_is_blas_within_ulps(rng, monkeypatch):
    a = random_doubly_stochastic(rng, 1024, n_perms=12)
    b = random_doubly_stochastic(rng, 1024, n_perms=12)
    calls = _count_support_products(monkeypatch)
    result = markov_product(GridCopula(a), GridCopula(b)).matrix
    assert len(calls) == 1
    assert np.max(np.abs(result - a @ b)) <= 1e-16


def test_large_dense_products_stay_on_blas(rng, monkeypatch):
    full = GridCopula.renormalized(rng.random((600, 600)) + 0.05)
    blocks = GridCopula(_operand("blocks", 600, rng))
    calls = _count_support_products(monkeypatch)
    for a, b in ((full, full), (blocks, blocks)):
        assert markov_product(a, b).matrix.tobytes() == (a.matrix @ b.matrix).tobytes()
    assert calls == []


def test_sparse_product_with_too_many_pairs_falls_back_to_blas(rng, monkeypatch):
    # 12-permutation mixtures at 512 pass the nonzero gate (4 nnz ~ 24k) but
    # fail the pair count (4 pairs ~ 290k) against the budget of 262,144
    n = 512
    a = random_doubly_stochastic(rng, n, n_perms=12)
    b = random_doubly_stochastic(rng, n, n_perms=12)
    budget = n**3 // algebra._SUPPORT_MARGIN - n * n
    pairs = int(np.count_nonzero(a, axis=0) @ np.count_nonzero(b, axis=1))
    assert algebra._PAIR_WEIGHT * np.count_nonzero(a) < budget
    assert algebra._PAIR_WEIGHT * np.count_nonzero(b) < budget
    assert algebra._PAIR_WEIGHT * pairs >= budget
    calls = _count_support_products(monkeypatch)
    assert algebra._matmul(a, b).tobytes() == (a @ b).tobytes()
    assert calls == []


def test_support_product_frees_its_masks_before_the_result(rng, monkeypatch):
    n = 1024
    a = GridCopula(random_doubly_stochastic(rng, n, n_perms=12))
    b = GridCopula(random_doubly_stochastic(rng, n, n_perms=12))
    calls = _count_support_products(monkeypatch)
    result_bytes = n * n * 8
    assert traced_peak(markov_product, a, b) < result_bytes + result_bytes // 2
    assert calls == [n * n]  # the support path


def test_mixed_resolution_product_is_capped_before_allocating(rng):
    a = GridCopula(random_doubly_stochastic(rng, 23))
    b = GridCopula(random_doubly_stochastic(rng, 24))
    result_bytes = (23 * 24) ** 2 * 8
    tracemalloc.start()
    try:
        with pytest.raises(ResolutionCapError):
            markov_product(a, b, cap=23 * 24 - 1)
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        markov_product(a, b, cap=23 * 24)
        built_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused_peak < result_bytes / 20 < result_bytes <= built_peak


def test_cli_product_of_sparse_grids_does_not_load_scipy(rng, tmp_path):
    # the support path is numpy only, so a product keeps the CLI's start-up
    specs = []
    for name in ("a.json", "b.json"):
        specs.append(str(tmp_path / name))
        save_copula(GridCopula(random_doubly_stochastic(rng, 512, n_perms=3)), specs[-1])
    src = os.path.dirname(os.path.dirname(core.__file__))
    argv = ["product", *specs, "-o", str(tmp_path / "ab.json")]
    probe = (
        "import sys; from copula_markov.cli import main; "
        f"code = main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stderr == "0 []\n"
    assert load_copula(str(tmp_path / "ab.json")).n == 512


# ---------------------------------------------------------------------------
# the quadrature oracle
# ---------------------------------------------------------------------------


def test_quadrature_lower_bound_squared_limits_to_upper(lower):
    oracle = quadrature_markov_product(lower, lower, 300)
    assert float(oracle(0.5, 0.5)) == pytest.approx(0.5, abs=1e-3)


def test_quadrature_independence_annihilates(pi, upper, rng):
    oracle = quadrature_markov_product(pi, upper, 256)
    for _ in range(10):
        u, v = rng.random(2)
        assert float(oracle(u, v)) == pytest.approx(u * v, abs=1e-3)


def test_quadrature_exact_on_aligned_panels(checker3):
    oracle = quadrature_markov_product(checker3, checker3, 3 * 17)
    square = markov_product(checker3, checker3)
    corners = np.arange(4) / 3
    for u in corners:
        for v in corners:
            assert float(oracle(u, v)) == pytest.approx(square.cdf(u, v), abs=1e-12)
    # a column against a row is one matrix product of the derivative tables
    for row in (corners, corners[None, :]):
        lattice = oracle(corners[:, None], row)
        assert lattice.shape == (4, 4)
        assert np.max(np.abs(lattice - square.corner_cdf())) <= 1e-12


def test_quadrature_rejects_small_panel_count(pi, upper):
    with pytest.raises(DomainError):
        quadrature_markov_product(pi, upper, 4)


# ---------------------------------------------------------------------------
# transposition and the SI/SD involution
# ---------------------------------------------------------------------------


def test_transpose_symmetric_copulas_unchanged(pi, upper, lower):
    assert transpose(pi) is pi
    assert transpose(upper) is upper
    assert transpose(lower) is lower


def test_transpose_grid_is_matrix_transpose(checker3):
    assert np.array_equal(transpose(checker3).matrix, CHECKER3.T)


def test_transpose_involution_bit_exact(checker3):
    assert np.array_equal(transpose(transpose(checker3)).matrix, checker3.matrix)
    ev = extreme_value_copula(gumbel_pickands(2.0))
    wrapped = transpose(ev)
    assert isinstance(wrapped, TransposedCopula)
    assert transpose(wrapped) is ev


def test_involution_swaps_frechet_bounds(upper, lower, pi):
    assert d_inf(si_sd_involution(upper), lower) == 0.0
    assert d_inf(si_sd_involution(pi), pi) == 0.0


def test_involution_reverses_grid_rows(checker3):
    flipped = si_sd_involution(checker3)
    assert np.array_equal(flipped.matrix, CHECKER3[::-1])


def test_involution_applied_twice_is_identity_bit_exact(rng):
    for n in (2, 3, 7, 12):
        for _ in range(5):
            g = GridCopula(random_doubly_stochastic(rng, n))
            twice = si_sd_involution(si_sd_involution(g))
            assert np.array_equal(twice.matrix, g.matrix)


def test_involution_derivative_identity(rng):
    # d1 (C- * C)(u, v) = d1 C(1 - u, v); at cell boundaries the reflection
    # swaps the one-sided conventions
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = GridCopula(random_doubly_stochastic(rng, n))
        flipped = si_sd_involution(g)
        mids = (np.arange(n) + 0.5) / n
        corners = np.arange(1, n) / n
        for v in corners:
            for u in mids:
                assert abs(
                    flipped.partial_derivative(1, u, v)
                    - g.partial_derivative(1, 1.0 - u, v)
                ) <= 1e-12
            for u in corners:
                assert abs(
                    flipped.partial_derivative(1, u, v)
                    - g.partial_derivative(1, 1.0 - u, v, side="left")
                ) <= 1e-12


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------


def test_power_unit_and_involution_elements(upper, lower):
    assert power(upper, 7) is upper
    squared = power(lower, 2)
    assert np.array_equal(squared.matrix, np.eye(squared.n))


def test_power_matches_matrix_power_oracle(checker3):
    for k in (1, 2, 5, 17):
        oracle = np.linalg.matrix_power(CHECKER3, k)
        assert np.max(np.abs(power(checker3, k).matrix - oracle)) <= 1e-12


def test_power_converges_to_uniform(checker3):
    # the matrix is ergodic (spectrum 1, 1/3, 0), so powers flatten to 1/3
    assert np.max(np.abs(power(checker3, 50).matrix - 1.0 / 3.0)) <= 1e-8


def test_power_rejects_zero(checker3):
    with pytest.raises(DomainError):
        power(checker3, 0)


def test_transpose_distributes_over_ordinal_sum(pi):
    cop = ordinal_sum(
        [(0.0, 1 / 3), (0.5, 0.9)], [pi, extreme_value_copula(gumbel_pickands(2.0))]
    )
    flipped = transpose(cop)
    assert isinstance(flipped, OrdinalSumCopula)
    assert flipped.intervals == cop.intervals
    s = np.concatenate([np.linspace(0.0, 1.0, 61), [1 / 3, 0.9]])
    u, v = np.meshgrid(s, s, indexing="ij")
    assert np.array_equal(flipped.cdf(u, v), cop.cdf(v, u))


# ---------------------------------------------------------------------------
# idempotency
# ---------------------------------------------------------------------------


def test_idempotent_independence_and_unit(pi, upper):
    assert is_idempotent(pi, tol=1e-12).idempotent
    assert is_idempotent(pi, tol=1e-12)  # the verdict's truth is its flag
    assert is_idempotent(upper, tol=1e-12).idempotent
    assert is_idempotent(pi.discretize(16), tol=1e-12).idempotent


def test_checkerboard_example_is_not_idempotent(checker3):
    verdict = is_idempotent(checker3, tol=1e-6)
    assert not verdict.idempotent
    assert not verdict
    # largest prefix-sum discrepancy between A^2 and A, computed directly
    p1 = np.zeros((4, 4))
    p1[1:, 1:] = CHECKER3.cumsum(0).cumsum(1)
    p2 = np.zeros((4, 4))
    p2[1:, 1:] = (CHECKER3 @ CHECKER3).cumsum(0).cumsum(1)
    oracle_gap = np.max(np.abs(p1 - p2)) / 3
    assert verdict.gap == pytest.approx(oracle_gap, abs=1e-12)
    assert verdict.witness is not None


def test_idempotent_ordinal_sum_resolves_componentwise(pi):
    # interval endpoints that align with no dyadic grid stay exact
    cop = ordinal_sum([(0.0, 1 / 3), (5 / 6, 1.0)], [pi, pi])
    verdict = is_idempotent(cop, tol=1e-12)
    assert verdict.idempotent
    assert verdict.gap == 0.0


def test_idempotent_ordinal_sum_rescales_a_failing_component(checker3):
    # the component's gap and witness shrink into its block (a, b)^2
    cop = ordinal_sum([(0.25, 0.75)], [checker3])
    verdict = is_idempotent(cop)
    base = is_idempotent(checker3)
    assert not verdict.idempotent and not base.idempotent
    assert verdict.gap == 0.5 * base.gap
    assert verdict.gap == is_idempotent(cop.discretize(12)).gap
    assert verdict.gap == pytest.approx(1 / 27, abs=1e-15)
    assert all(0.25 < w < 0.75 for w in verdict.witness)
    assert verdict.witness == tuple(0.25 + 0.5 * w for w in base.witness)


def test_idempotent_transposed_ordinal_sum(pi):
    verdict = is_idempotent(transpose(ordinal_sum([(0.0, 1 / 3)], [pi])))
    assert verdict.idempotent
    assert verdict.gap == 0.0


def test_idempotent_loaded_transpose_takes_the_base_verdict(pi, checker3):
    # a spec-loaded transpose wraps its base instead of distributing
    flipped = copula_from_spec(
        {"type": "transpose", "of": ordinal_sum([(0.0, 1 / 3)], [pi]).to_spec()}
    )
    assert isinstance(flipped, TransposedCopula)
    verdict = is_idempotent(flipped)
    assert verdict.idempotent
    assert verdict.gap == 0.0
    flipped = copula_from_spec({"type": "transpose", "of": checker3.to_spec()})
    base = is_idempotent(checker3)
    verdict = is_idempotent(flipped)
    assert not verdict.idempotent
    assert verdict.gap == base.gap == pytest.approx(2 / 27, abs=1e-15)
    assert verdict.witness == base.witness[::-1]


def test_idempotent_closed_form_compared_on_the_square_grid():
    # the extreme-value copula of A(t) = max(t, 1 - t) is the upper bound;
    # its discretized square matches its discretization on every corner
    verdict = is_idempotent(extreme_value_copula(comonotone_pickands()), tol=1e-9)
    assert verdict.idempotent
    assert verdict.gap <= 1e-12


def test_idempotent_closed_form_discretizes_once(monkeypatch):
    clayton = archimedean_copula(clayton_generator(2.0))
    # the verdict of the product-then-compare path, discretizing per use
    square = markov_product(clayton, clayton)
    gap, witness = metrics.sup_gap(square, clayton.discretize(square.n))
    calls = []
    discretize = type(clayton).discretize

    def counted(self, n):
        calls.append(n)
        return discretize(self, n)

    monkeypatch.setattr(type(clayton), "discretize", counted)
    verdict = is_idempotent(clayton)
    assert calls == [128]
    assert (verdict.idempotent, verdict.gap, verdict.witness) == (bool(gap <= 1e-9), gap, witness)


def test_self_products_discretize_a_closed_form_once(monkeypatch):
    # markov_product, check_dominance and sobolev_diagonal of C with itself
    clayton = archimedean_copula(clayton_generator(2.0))
    # the grid path with the closed form discretized per operand
    left, right = clayton.discretize(128), clayton.discretize(128)
    expected = left.matrix @ right.matrix
    gap, witness = metrics.sup_gap(GridCopula(expected), left, signed=True)
    sobolev = 2.0 * metrics._grid_diagonal_integral(GridCopula(expected))
    calls = []
    discretize = type(clayton).discretize

    def counted(self, n):
        calls.append(n)
        return discretize(self, n)

    monkeypatch.setattr(type(clayton), "discretize", counted)
    assert markov_product(clayton, clayton).matrix.tobytes() == expected.tobytes()
    assert calls == [128]
    verdict = check_dominance(clayton, clayton)
    assert calls == [128, 128]
    assert (verdict.gap, verdict.witness) == (gap, witness)
    assert metrics.sobolev_diagonal(clayton) == sobolev
    assert calls == [128, 128, 128]


def test_is_idempotent_requires_positive_tol(pi):
    with pytest.raises(DomainError):
        is_idempotent(pi, tol=0.0)


# ---------------------------------------------------------------------------
# carriers built from validated carriers are trusted
# ---------------------------------------------------------------------------


def test_internal_results_are_read_only_and_match_the_public_constructor(rng, checker3):
    a = GridCopula(random_doubly_stochastic(rng, 6))
    b = GridCopula(random_doubly_stochastic(rng, 6))
    report = iterate_to_limit(checker3)
    limit = checker3.matrix
    for _ in range(report.n_steps):
        limit = checker3.matrix @ limit
    results = [
        (markov_product(a, b), a.matrix @ b.matrix),
        (markov_product(a, checker3), a.matrix @ np.kron(CHECKER3, np.full((2, 2), 0.5))),
        (transpose(a), a.matrix.T.copy()),
        (a.refined(3), np.kron(a.matrix, np.full((3, 3), 1 / 3))),
        (a.refined(2).discretize(6), a.refined(2).matrix.reshape(6, 2, 6, 2).sum(axis=(1, 3)) / 2),
        (power(a, 1), a.matrix),
        (power(a, 5), np.linalg.matrix_power(a.matrix, 5)),
        (report.limit, limit),
    ]
    for grid, matrix in results:
        assert not grid.matrix.flags.writeable
        assert grid.matrix.tobytes() == GridCopula(matrix).matrix.tobytes()


def test_iterate_validates_only_its_input(monkeypatch):
    calls = count_validations(monkeypatch)
    # a mixture of the upper bound and independence: SI, converging to Pi
    report = iterate_to_limit(GridCopula(0.5 * np.eye(8) + 0.5 / 8))
    assert report.converged and report.n_steps > 1
    assert len(calls) == 1


def test_grid_algebra_validates_nothing_beyond_its_operands(rng, monkeypatch):
    calls = count_validations(monkeypatch)
    a = GridCopula(random_doubly_stochastic(rng, 4))
    b = GridCopula(random_doubly_stochastic(rng, 6))
    assert len(calls) == 2
    markov_product(a, b)
    transpose(a)
    power(b, 3)
    is_idempotent(a)
    check_si(a, component=2)
    check_dominance(a, b)
    metrics.sobolev_diagonal(a)
    metrics.d1_metric(a, b)
    check_complete_dependence(b)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# iterate to the idempotent limit
# ---------------------------------------------------------------------------


def test_iterate_independence_converges_immediately(pi):
    report = iterate_to_limit(pi, tol=1e-8, max_iter=50)
    assert report.converged
    assert report.n_steps == 1
    assert report.intervals.to_list() == [[0.0, 1.0]]


def test_iterate_upper_bound_fixed_point(upper):
    report = iterate_to_limit(upper, tol=1e-8, max_iter=50)
    assert report.converged
    assert report.n_steps == 1
    assert report.intervals.to_list() == []


def test_iterate_checkerboard_flattens_to_uniform(checker3):
    report = iterate_to_limit(checker3, tol=1e-8, max_iter=200)
    assert report.converged
    assert report.n_steps <= 60
    assert np.max(np.abs(report.limit.matrix - 1.0 / 3.0)) <= 1e-7
    assert report.intervals.to_list() == [[0.0, 1.0]]
    assert report.monotone_decrease_violation <= 1e-12
    gaps = [step[1] for step in report.steps]
    assert all(g1 >= g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_iterate_steps_are_the_sup_gaps_of_consecutive_iterates(checker3):
    report = iterate_to_limit(checker3, tol=1e-8, max_iter=200)
    current = checker3
    for step, gap, d1 in report.steps:
        nxt = GridCopula(checker3.matrix @ current.matrix)
        assert gap == d_inf(nxt, current)
        assert d1 == metrics._d1_grids(nxt, current)
        current = nxt
    assert report.sup_gap == report.steps[-1][1]
    assert report.limit.matrix.tobytes() == current.matrix.tobytes()


def test_iterate_rejects_non_si_input(lower):
    with pytest.raises(NotStochasticallyIncreasingError):
        iterate_to_limit(lower.discretize(8))


def test_iterate_reports_non_convergence(checker3):
    report = iterate_to_limit(checker3, tol=1e-8, max_iter=2)
    assert not report.converged
    assert report.n_steps == 2
    assert report.sup_gap > 1e-8


def test_iterate_aligned_ordinal_sum_is_fixed(pi):
    cop = ordinal_sum([(0.0, 0.5), (0.5, 1.0)], [pi, pi])
    report = iterate_to_limit(cop, tol=1e-8, max_iter=50)
    assert report.converged
    assert report.n_steps == 1
    assert report.intervals.to_list() == [[0.0, 0.5], [0.5, 1.0]]


@pytest.mark.parametrize(
    "option, value",
    [("tol", 0.0), ("tol", -1e-8), ("tol", float("nan")), ("max_iter", 0), ("max_iter", -1)],
)
def test_iterate_refuses_non_positive_tol_and_fewer_than_one_step(checker3, option, value):
    with pytest.raises(DomainError, match=option):
        iterate_to_limit(checker3, **{option: value})


# ---------------------------------------------------------------------------
# the iterate pipeline: the next product overlaps the current step's gaps
# ---------------------------------------------------------------------------


def si_grid(n, planted):
    """A stochastically increasing grid: a Sinkhorn-balanced Gaussian kernel
    (totally positive, so SI), optionally cut into diagonal blocks."""
    x = (np.arange(n) + 0.5) / n
    kernel = np.exp(-8.0 * (x[:, None] - x[None, :]) ** 2)
    if planted:
        kernel *= (x[:, None] < 0.5) == (x[None, :] < 0.5)
    return GridCopula.renormalized(kernel)


def serial_iterate(base, tol, max_iter):
    """The serial loop the pipeline replaced: product, then gaps, per step."""
    current = base
    steps = []
    worst_increase = 0.0
    for step in range(1, max_iter + 1):
        nxt = GridCopula._trusted(base.matrix @ current.matrix)
        hi, _, lo, _ = metrics._corner_extremes(nxt, current)
        sup_gap = max(abs(hi), abs(lo))
        worst_increase = max(worst_increase, max(hi, 0.0))
        steps.append((step, sup_gap, metrics._d1_grids(nxt, current)))
        current = nxt
        if sup_gap < tol:
            break
    return current, tuple(steps), sup_gap, worst_increase


@pytest.mark.parametrize("n", [1, 3, 64, 200])
@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("max_iter", [200, 3])
def test_iterate_pipeline_matches_the_serial_loop(n, planted, max_iter):
    base = si_grid(n, planted)
    report = iterate_to_limit(base, tol=1e-8, max_iter=max_iter)
    limit, steps, sup_gap, worst_increase = serial_iterate(base, 1e-8, max_iter)
    assert report.limit.matrix.tobytes() == limit.matrix.tobytes()
    assert report.steps == steps
    assert report.n_steps == len(steps)
    assert report.sup_gap == sup_gap
    assert report.monotone_decrease_violation == worst_increase
    assert report.converged == (sup_gap < 1e-8)
    if max_iter == 3 and n > 1:
        assert not report.converged and report.n_steps == 3


def test_iterate_handoff_under_fast_thread_switching():
    # four callers (more than the cores here), each with its own worker,
    # switching threads every microsecond: a lost or doubled handoff would
    # change a step row or hang a join
    bases = [si_grid(16, planted) for planted in (False, True)] * 2
    expected = [serial_iterate(b, 1e-8, 200)[1] for b in bases]
    results = [None] * len(bases)

    def run(i):
        results[i] = iterate_to_limit(bases[i], tol=1e-8).steps

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(bases))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_iterate_leaves_no_thread_behind(checker3, monkeypatch):
    before = threading.active_count()
    assert iterate_to_limit(checker3).converged
    assert threading.active_count() == before
    assert not iterate_to_limit(checker3, max_iter=3).converged
    assert threading.active_count() == before

    matmul = np.matmul
    for c, failing_call in ((checker3, 3), (GridCopula(np.eye(4)), 2)):
        # the third product of a long run, or the one past the last step
        products = []

        def failing(a, b):
            products.append(1)
            if len(products) == failing_call:
                raise FloatingPointError("worker product failed")
            return matmul(a, b)

        monkeypatch.setattr(np, "matmul", failing)
        with pytest.raises(FloatingPointError, match="worker product failed"):
            iterate_to_limit(c)
        assert len(products) == failing_call
        assert threading.active_count() == before


def test_iterate_runs_package_code_on_the_calling_thread(monkeypatch):
    """The benchmark's tracer keeps one span stack without a lock, so only
    the matmul may leave the calling thread."""
    seen = {}

    def recorded(name, func):
        def wrapper(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.get_ident())
            return func(*args, **kwargs)

        return wrapper

    prefix = cached_property(recorded("prefix", GridCopula.__dict__["_prefix"].func))
    prefix.__set_name__(GridCopula, "_prefix")
    monkeypatch.setattr(GridCopula, "_prefix", prefix)
    monkeypatch.setattr(metrics, "_d1_grids", recorded("d1", metrics._d1_grids))
    monkeypatch.setattr(
        core, "_validate_doubly_stochastic", recorded("validate", core._validate_doubly_stochastic)
    )
    trusted = GridCopula.__dict__["_trusted"].__func__
    monkeypatch.setattr(GridCopula, "_trusted", classmethod(recorded("trusted", trusted)))
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", recorded("matmul", matmul))

    report = iterate_to_limit(GridCopula(si_grid(16, planted=True).matrix))
    assert report.converged and report.n_steps > 2
    caller = {threading.get_ident()}
    for name in ("prefix", "d1", "validate", "trusted"):
        assert seen[name] == caller, name
    assert seen["matmul"].isdisjoint(caller)


# ---------------------------------------------------------------------------
# ordinal structure extraction
# ---------------------------------------------------------------------------


def test_extract_structure_independence(pi):
    result = extract_pi_ordinal_structure(pi)
    assert result.intervals.to_list() == [[0.0, 1.0]]
    assert result.max_block_gap <= 1e-9


def test_extract_structure_upper_bound(upper):
    result = extract_pi_ordinal_structure(upper)
    assert result.intervals.to_list() == []


def test_extract_structure_grid_exact_endpoints(pi):
    cop = ordinal_sum([(0.0, 1 / 3), (5 / 6, 1.0)], [pi, pi])
    result = extract_pi_ordinal_structure(cop.discretize(36))
    assert result.intervals.to_list() == [[0.0, 1 / 3], [5 / 6, 1.0]]
    assert result.max_block_gap <= 1e-9
    # one cell leaves no interior corner to scan
    single = extract_pi_ordinal_structure(GridCopula(np.ones((1, 1))))
    assert single.intervals.to_list() == [[0.0, 1.0]]


def test_extract_structure_analytic_refined_endpoints(pi):
    cop = ordinal_sum([(0.0, 1 / 3), (5 / 6, 1.0)], [pi, pi])
    result = extract_pi_ordinal_structure(cop)
    (a1, b1), (a2, b2) = result.intervals
    assert a1 == 0.0 and b2 == 1.0
    assert abs(b1 - 1 / 3) <= 1e-9
    assert abs(a2 - 5 / 6) <= 1e-9


def scalar_bisection_intervals(c, tol=1e-6, scan=1024, eps=1e-12, iters=80):
    """The closed-form interval scan with each inner end bisected on its
    own, one scalar cdf call per step: the reference for the vectorised
    bisection."""

    def gap(v):
        return float(v - c.cdf(v, v))

    def refine(lo, hi):
        g_lo = gap(lo)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if (gap(mid) > eps) == (g_lo > eps):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    points = np.arange(1, scan) / scan
    fixed = points - np.asarray(c.cdf(points, points)) <= tol
    intervals = []
    i, m = 0, points.size
    while i < m:
        if fixed[i]:
            i += 1
            continue
        j = i
        while j + 1 < m and not fixed[j + 1]:
            j += 1
        left = 0.0 if i == 0 else refine(points[i - 1], points[i])
        right = 1.0 if j == m - 1 else refine(points[j + 1], points[j])
        intervals.append([left, right])
        i = j + 1
    return intervals


@pytest.mark.parametrize(
    "intervals",
    [
        [(0.1, 0.35), (0.5, 0.83)],
        [(0.0, 0.2), (0.3, 0.4117), (0.6, 1.0)],
        [(0.123456, 0.654321)],
        [(0.0, 1.0)],
        [],
    ],
)
def test_extract_structure_bisects_every_edge_at_once(pi, monkeypatch, intervals):
    cop = ordinal_sum(intervals, [pi] * len(intervals))
    expected = scalar_bisection_intervals(cop)
    calls = []
    cdf = OrdinalSumCopula.cdf

    def counted(self, u, v):
        calls.append(1)
        return cdf(self, u, v)

    monkeypatch.setattr(OrdinalSumCopula, "cdf", counted)
    result = extract_pi_ordinal_structure(cop)
    assert result.intervals.to_list() == expected
    # one scan, 80 bisection steps shared by every inner end, one block
    # audit per interval
    inner_ends = sum((a > 0.0) + (b < 1.0) for a, b in intervals)
    assert len(calls) == 1 + (80 if inner_ends else 0) + len(intervals)


@pytest.mark.parametrize(
    "interval, scan",
    [((0.0005, 0.5), 1024), ((0.5, 0.9995), 1024), ((0.1, 0.4), 8)],
)
def test_extract_structure_bisects_block_ends_beside_a_pad(pi, interval, scan):
    # the run of free scan points reaches the first or last scan point, yet
    # the block stops short of 0 or 1 inside that scan cell
    result = extract_pi_ordinal_structure(ordinal_sum([interval], [pi]), scan=scan)
    ((a, b),) = result.intervals
    assert a == pytest.approx(interval[0], abs=1e-11)
    assert b == pytest.approx(interval[1], abs=1e-11)


def test_extract_structure_requires_idempotent_input(checker3):
    with pytest.raises(DomainError):
        extract_pi_ordinal_structure(checker3)


def test_extract_structure_flags_non_monotone_idempotents():
    # idempotent but not stochastically monotone: the averaged cells are
    # not contiguous, so the diagonal criterion misreads the structure
    scattered = GridCopula(
        np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    )
    assert is_idempotent(scattered, tol=1e-12).idempotent
    with pytest.raises(DecompositionError):
        extract_pi_ordinal_structure(scattered)


def test_iterate_does_not_load_the_thread_pool():
    # one thread and two stdlib queues carry the pipelined products
    src = os.path.dirname(os.path.dirname(core.__file__))
    probe = (
        "import sys, numpy as np; from copula_markov import GridCopula, iterate_to_limit; "
        "assert iterate_to_limit(GridCopula(np.full((4, 4), 0.25))).converged; "
        "print('concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"
