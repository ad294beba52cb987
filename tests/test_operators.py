import numpy as np
import pytest

from copula_markov import (
    DiscreteMarkovOperator,
    DomainError,
    GridCopula,
    IntervalFamily,
    InvariantError,
    StepFunction,
    conditional_expectation_form,
    copula_of,
    fixed_sigma_field,
    is_idempotent,
    markov_product,
    operator_of,
    operator_preserves_monotone,
    ordinal_sum,
)

from conftest import CHECKER3, count_validations, random_doubly_stochastic


def block_config(n=6):
    return conditional_expectation_form([(0.0, 1 / 3), (5 / 6, 1.0)], n)


# ---------------------------------------------------------------------------
# operator axioms
# ---------------------------------------------------------------------------


def test_operator_invariants_hold_for_random_matrices(rng):
    for _ in range(20):
        n = int(rng.integers(1, 10))
        op = DiscreteMarkovOperator(random_doubly_stochastic(rng, n))
        ones = StepFunction(np.ones(n))
        assert np.max(np.abs(op.apply(ones).values - 1.0)) <= 1e-12
        f = StepFunction(rng.random(n))
        assert abs(op.apply(f).integral() - f.integral()) <= 1e-12
        assert op.apply(StepFunction(rng.random(n))).values.min() >= 0.0


def test_operator_rejects_invalid_matrices():
    with pytest.raises(InvariantError):
        DiscreteMarkovOperator(np.array([[0.5, 0.5], [0.5, 0.4]]))
    with pytest.raises(InvariantError):
        DiscreteMarkovOperator(np.array([[1.5, -0.5], [-0.5, 1.5]]))


def test_operator_requires_matching_resolution(rng):
    op = DiscreteMarkovOperator(random_doubly_stochastic(rng, 4))
    with pytest.raises(DomainError):
        op.apply(StepFunction(np.ones(5)))


# ---------------------------------------------------------------------------
# the correspondence
# ---------------------------------------------------------------------------


def test_operator_of_independence_averages(pi):
    op = operator_of(pi, 5)
    assert np.array_equal(op.matrix, np.full((5, 5), 0.2))
    f = StepFunction([4.0, 2.0, 1.0, 0.5, 0.0])
    assert np.max(np.abs(op.apply(f).values - f.integral())) <= 1e-12


def test_operator_of_upper_bound_is_identity(upper):
    op = operator_of(upper, 4)
    assert np.array_equal(op.matrix, np.eye(4))
    f = StepFunction([3.0, 2.0, 1.0, 0.0])
    assert np.array_equal(op.apply(f).values, f.values)


def test_operator_of_checkerboard_action(checker3):
    image = operator_of(checker3, 3).apply(StepFunction([1.0, 0.0, 0.0]))
    assert np.array_equal(image.values, CHECKER3[:, 0])


def test_roundtrip_is_bit_exact(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        g = GridCopula(random_doubly_stochastic(rng, n))
        assert np.array_equal(copula_of(operator_of(g, n)).matrix, g.matrix)


def test_carrier_built_operators_are_not_validated_again(rng, monkeypatch):
    g = GridCopula(random_doubly_stochastic(rng, 5))
    calls = count_validations(monkeypatch)
    op = operator_of(g, 5)
    composed = operator_of(g, 10).compose(operator_of(g, 10))
    back = copula_of(op)
    assert calls == []
    assert back.matrix.tobytes() == g.matrix.tobytes()
    assert not composed.matrix.flags.writeable
    assert not back.matrix.flags.writeable
    DiscreteMarkovOperator(g.matrix)
    assert calls == [1]


def test_composition_isomorphism(rng):
    for _ in range(50):
        n = int(rng.integers(2, 10))
        a = GridCopula(random_doubly_stochastic(rng, n))
        b = GridCopula(random_doubly_stochastic(rng, n))
        composed = operator_of(a, n).compose(operator_of(b, n))
        direct = operator_of(markov_product(a, b), n)
        assert np.max(np.abs(composed.matrix - direct.matrix)) <= 1e-12


def test_operator_of_resamples_other_resolutions(checker3):
    op = operator_of(checker3, 6)
    assert op.n == 6
    assert np.max(np.abs(op.matrix - checker3.discretize(6).matrix)) == 0.0


def test_composition_isomorphism_on_step_functions(rng):
    # acting with the two operators in sequence equals acting with the
    # operator of the product, on arbitrary step functions
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = GridCopula(random_doubly_stochastic(rng, n))
        b = GridCopula(random_doubly_stochastic(rng, n))
        f = StepFunction(rng.uniform(-2.0, 2.0, size=n))
        chained = operator_of(a, n).apply(operator_of(b, n).apply(f))
        direct = operator_of(markov_product(a, b), n).apply(f)
        assert np.max(np.abs(chained.values - direct.values)) <= 1e-10


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------


def test_full_averaging_form(pi):
    op = conditional_expectation_form([(0.0, 1.0)], 4)
    assert np.array_equal(op.matrix, np.full((4, 4), 0.25))
    assert np.array_equal(copula_of(op).matrix, pi.discretize(4).matrix)


def test_empty_family_is_identity(upper):
    op = conditional_expectation_form([], 4)
    assert np.array_equal(op.matrix, np.eye(4))
    assert np.array_equal(copula_of(op).matrix, upper.discretize(4).matrix)


def test_block_form_matches_discretized_ordinal_sum(pi):
    op = block_config(6)
    target = ordinal_sum([(0.0, 1 / 3), (5 / 6, 1.0)], [pi, pi]).discretize(6)
    assert np.max(np.abs(op.matrix - target.matrix)) <= 1e-12


def test_block_forms_are_idempotent(rng):
    for intervals in ([], [(0.0, 1.0)], [(0.0, 0.25), (0.5, 1.0)]):
        op = conditional_expectation_form(intervals, 8)
        assert op.is_idempotent(tol=1e-12)


def test_misaligned_intervals_rejected_with_suggestion():
    with pytest.raises(DomainError) as err:
        conditional_expectation_form([(0.0, 0.3)], 6)
    assert "nearest aligned" in str(err.value)


def test_interval_narrower_than_one_cell_rejected():
    # both ends round to the same corner within the alignment tolerance,
    # so the interval holds no cell to average over
    with pytest.raises(DomainError, match=r"\(0\.1, 0\.1000000005\) is narrower than one cell"):
        conditional_expectation_form([(0.1, 0.1 + 5e-10)], 10)


# ---------------------------------------------------------------------------
# fixed sigma-fields
# ---------------------------------------------------------------------------


def test_identity_fixes_every_cell():
    op = conditional_expectation_form([], 5)
    assert fixed_sigma_field(op) == [(0,), (1,), (2,), (3,), (4,)]


def test_full_averaging_fixes_only_the_whole_space():
    op = conditional_expectation_form([(0.0, 1.0)], 5)
    assert fixed_sigma_field(op) == [(0, 1, 2, 3, 4)]


def test_block_config_partition():
    assert fixed_sigma_field(block_config(6)) == [(0, 1), (2,), (3,), (4,), (5,)]


def test_fixed_sigma_field_rejects_non_idempotent(rng):
    flip = DiscreteMarkovOperator(np.eye(4)[::-1].copy())
    with pytest.raises(DomainError):
        fixed_sigma_field(flip)


# ---------------------------------------------------------------------------
# idempotency chain and the averaging characterization
# ---------------------------------------------------------------------------


def idempotent_suite(n=6):
    return [
        conditional_expectation_form([], n),
        conditional_expectation_form([(0.0, 1.0)], n),
        block_config(n),
        conditional_expectation_form([(0.0, 0.5), (0.5, 1.0)], n),
    ]


def test_idempotency_chain_copula_operator_partition():
    for op in idempotent_suite():
        g = copula_of(op)
        assert is_idempotent(g, tol=1e-12).idempotent
        assert op.is_idempotent(tol=1e-12)
        rebuilt = _reconstruct_from_partition(op)
        assert np.max(np.abs(rebuilt.matrix - op.matrix)) <= 1e-12


def _reconstruct_from_partition(op):
    parts = fixed_sigma_field(op)
    intervals = []
    for part in parts:
        assert list(part) == list(range(part[0], part[-1] + 1)), "non-interval part"
        if len(part) > 1:
            intervals.append((part[0] / op.n, (part[-1] + 1) / op.n))
    return conditional_expectation_form(IntervalFamily(tuple(intervals)), op.n)


def test_averaging_operators_preserve_decreasing_basis():
    for op in idempotent_suite():
        g = copula_of(op)
        for j in range(op.n + 1):
            f = StepFunction.indicator_upto(op.n, j)
            assert operator_preserves_monotone(g, f, tol=1e-12)


def test_monotone_idempotent_operators_have_averaging_structure(rng):
    # converse sweep: every idempotent, monotonicity-preserving operator in
    # the suite is rebuilt exactly from its fixed partition
    suite = idempotent_suite(6) + idempotent_suite(12)
    for op in suite:
        g = copula_of(op)
        preserves = all(
            operator_preserves_monotone(g, StepFunction.indicator_upto(op.n, j), 1e-12)
            for j in range(op.n + 1)
        )
        assert preserves
        rebuilt = _reconstruct_from_partition(op)
        assert np.max(np.abs(rebuilt.matrix - op.matrix)) <= 1e-12


def test_non_monotone_idempotent_is_not_interval_structured():
    scattered = DiscreteMarkovOperator(
        np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    )
    assert scattered.is_idempotent(tol=1e-12)
    assert not operator_preserves_monotone(
        copula_of(scattered), StepFunction.indicator_upto(3, 1), tol=1e-12
    )
    parts = fixed_sigma_field(scattered)
    assert (0, 2) in parts  # a non-contiguous component: no interval form


# ---------------------------------------------------------------------------
# tangent identity for idempotent SI copulas
# ---------------------------------------------------------------------------


def test_tangent_identity_on_idempotent_si_grids():
    # (v - C(v, v)) d2- C(u, v) = C(u, v) - C(u, C(v, v)) at grid points
    for op in idempotent_suite(6) + idempotent_suite(12):
        g = copula_of(op)
        n = g.n
        pts = np.arange(1, n) / n
        for u in pts:
            for v in pts:
                dvv = float(g.cdf(v, v))
                lhs = (v - dvv) * g.partial_derivative(2, u, v, side="left")
                rhs = g.cdf(u, v) - g.cdf(u, dvv)
                assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# fixed sigma-fields against a support-graph search
# ---------------------------------------------------------------------------


def dfs_fixed_sigma_field(a, tol):
    """Connected components of the support graph {a > tol} | {a.T > tol},
    found by depth-first search; the reference for the row-support kernel."""
    n = a.shape[0]
    adjacency = (a > tol) | (a.T > tol)
    labels = np.full(n, -1)
    parts = []
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = len(parts)
        stack, member = [start], [start]
        while stack:
            i = stack.pop()
            for j in np.nonzero(adjacency[i])[0]:
                if labels[j] < 0:
                    labels[j] = labels[start]
                    stack.append(j)
                    member.append(int(j))
        parts.append(tuple(sorted(member)))
    return sorted(parts)


def permuted_block_average(rng, n, classes):
    labels = rng.permutation(np.arange(n) % classes)
    same = labels[:, None] == labels[None, :]
    return same / same.sum(axis=1, keepdims=True)


def test_fixed_sigma_field_matches_the_support_graph_search(rng):
    non_contiguous = 0
    for n, classes in [(1, 1), (5, 5), (7, 3), (16, 4), (64, 7), (256, 7)]:
        op = DiscreteMarkovOperator(permuted_block_average(rng, n, classes))
        parts = fixed_sigma_field(op)
        assert parts == dfs_fixed_sigma_field(op.matrix, 1e-9)
        assert all(type(j) is int for part in parts for j in part)
        non_contiguous += sum(part[-1] - part[0] + 1 != len(part) for part in parts)
    assert non_contiguous > 0


def test_fixed_sigma_field_refuses_overlapping_supports():
    # rows 0 and 1 share cells 0 and 1, but row 1 also reaches cell 2; the
    # square is within 0.125 of the matrix, so it passes the idempotency gate
    # at tol 0.2, where the support graph joins all three cells in one part
    a = np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.0, 0.25, 0.75]])
    op = DiscreteMarkovOperator(a)
    assert op.is_idempotent(tol=0.2)
    assert dfs_fixed_sigma_field(a, 0.2) == [(0, 1, 2)]
    with pytest.raises(DomainError, match="support"):
        fixed_sigma_field(op, tol=0.2)


@pytest.mark.parametrize("intervals", [[(0, 1)], [(0, 0.75)]])
def test_fixed_sigma_field_refuses_rows_without_support(intervals):
    # at tol 0.2 no entry of a 6- or 8-cell averaging row exceeds tol, so
    # such a row has no support and names no class
    op = conditional_expectation_form(intervals, 8)
    assert op.is_idempotent(tol=0.2)
    with pytest.raises(DomainError, match="no entry above"):
        fixed_sigma_field(op, tol=0.2)


def test_compose_multiplies_through_the_grid_product_kernel(rng):
    # at n <= 256 the kernel is a @ b bit for bit; large permutations take
    # the support path, exactly
    a = random_doubly_stochastic(rng, 64)
    b = random_doubly_stochastic(rng, 64)
    op_a, op_b = DiscreteMarkovOperator(a), DiscreteMarkovOperator(b)
    assert op_a.compose(op_b).matrix.tobytes() == (op_a.matrix @ op_b.matrix).tobytes()
    p, q = rng.permutation(512), rng.permutation(512)
    eye = np.eye(512)
    composed = DiscreteMarkovOperator(eye[p]).compose(DiscreteMarkovOperator(eye[q]))
    assert np.array_equal(composed.matrix, eye[q[p]])


def test_compose_refuses_operators_of_different_resolutions():
    with pytest.raises(DomainError, match="share a resolution"):
        operator_of(GridCopula(np.eye(2)), 2).compose(operator_of(GridCopula(CHECKER3), 3))
