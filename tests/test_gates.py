"""The four public entries of a copula check their arguments once and call
the carrier's unchecked kernel."""

import numpy as np
import pytest

import copula_markov
from copula_markov import (
    Copula,
    DomainError,
    GridCopula,
    IndependenceCopula,
    LowerFrechetCopula,
    PickandsFunction,
    SpecError,
    TransposedCopula,
    UpperFrechetCopula,
    archimedean_copula,
    check_complete_dependence,
    check_dominance,
    check_quadrant_dependence,
    check_si,
    clayton_generator,
    extreme_value_copula,
    fixed_sigma_field,
    gumbel_pickands,
    is_idempotent,
    is_si_archimedean,
    iterate_to_limit,
    load_copula,
    operator_of,
    ordinal_sum,
    save_copula,
)
from copula_markov import core
from copula_markov.cli import main

from conftest import CHECKER3, random_doubly_stochastic

PUBLIC_ENTRIES = ("cdf", "partial_derivative", "conditional_quantile", "discretize")


def asymmetric_pickands():
    """Asymmetric logistic A(t) (Tawn 1988), psi = (0.3, 0.9), theta = 2."""

    def func(t):
        t = np.asarray(t, dtype=float)
        return 0.7 * (1.0 - t) + 0.1 * t + np.hypot(0.3 * (1.0 - t), 0.9 * t)

    return PickandsFunction("asymmetric-logistic", func)


CARRIERS = {
    "pi": lambda: IndependenceCopula(),
    "upper": lambda: UpperFrechetCopula(),
    "lower": lambda: LowerFrechetCopula(),
    "grid": lambda: GridCopula(CHECKER3),
    "clayton": lambda: archimedean_copula(clayton_generator(2.0)),
    "gumbel-ev": lambda: extreme_value_copula(gumbel_pickands(2.0)),
    "ordinal-sum": lambda: ordinal_sum(
        [(0.1, 0.4), (0.5, 0.9)], [GridCopula(CHECKER3), IndependenceCopula()]
    ),
    "transposed-asymmetric-ev": lambda: TransposedCopula(
        extreme_value_copula(asymmetric_pickands())
    ),
}


@pytest.mark.parametrize("name", sorted(CARRIERS))
@pytest.mark.parametrize("bad", [-0.25, 1.5, np.nan])
def test_every_entry_refuses_arguments_outside_the_unit_interval(name, bad):
    c = CARRIERS[name]()
    calls = [
        lambda: c.cdf(bad, 0.5),
        lambda: c.cdf(0.5, bad),
        lambda: c.cdf(np.array([0.2, bad]), 0.5),
        lambda: c.partial_derivative(1, bad, 0.5),
        lambda: c.partial_derivative(2, 0.5, bad),
        lambda: c.partial_derivative(1, 0.5, np.array([[0.3], [bad]])),
        lambda: c.conditional_quantile(bad, 0.5),
        lambda: c.conditional_quantile(0.5, bad),
        lambda: c.conditional_quantile(np.array([0.2, 0.6]), np.array([0.5, bad])),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_every_entry_refuses_a_bad_component_or_resolution(name):
    c = CARRIERS[name]()
    for component in (0, 3):
        with pytest.raises(DomainError):
            c.partial_derivative(component, 0.5, 0.5)
    for n in (0, -2):
        with pytest.raises(DomainError):
            c.discretize(n)


@pytest.fixture
def unit_checks(monkeypatch):
    """Names of the arguments checked by every call of core._check_unit."""
    names = []
    check = core._check_unit

    def counted(x, name):
        names.append(name)
        return check(x, name)

    monkeypatch.setattr(core, "_check_unit", counted)
    return names


@pytest.mark.parametrize(
    "name, call",
    [
        ("ordinal-sum", lambda c: c.cdf(np.linspace(0.0, 1.0, 11), 0.45)),
        ("transposed-asymmetric-ev", lambda c: c.cdf(0.3, np.linspace(0.0, 1.0, 11))),
        ("ordinal-sum", lambda c: c.partial_derivative(2, 0.2, np.linspace(0.0, 1.0, 11))),
        ("transposed-asymmetric-ev", lambda c: c.partial_derivative(1, 0.3, 0.6)),
        ("clayton", lambda c: c.sample(50, 3)),
    ],
)
def test_a_public_call_checks_its_two_points_once(unit_checks, name, call):
    call(CARRIERS[name]())
    assert sorted(unit_checks) in (["u", "v"], ["u", "w"])


def test_nested_quantiles_check_once(unit_checks):
    c = TransposedCopula(CARRIERS["ordinal-sum"]())
    c.conditional_quantile(np.linspace(0.0, 1.0, 7), 0.4)
    assert unit_checks == ["u", "w"]


def test_only_copula_defines_the_public_entries():
    carriers = [
        cls
        for cls in vars(copula_markov).values()
        if isinstance(cls, type) and issubclass(cls, Copula) and cls is not Copula
    ]
    assert len(carriers) >= 8
    for cls in carriers:
        own = set(vars(cls))
        assert not own & set(PUBLIC_ENTRIES), cls.__name__
        assert not own & {"_pd1", "_pd2"}, cls.__name__


def test_grid_quantile_past_the_row_total_is_the_end_of_the_support():
    grid = GridCopula(random_doubly_stochastic(np.random.default_rng(0), 16, n_perms=3))
    row = grid.matrix[0]
    # rounding leaves the row's running total just below 1, and the row's
    # mass ends with cell 13
    assert grid._row_sums[0, -1] < 1.0
    assert np.flatnonzero(row).max() == 13
    u = 0.5 / 16
    assert grid.conditional_quantile(u, 1.0) == 0.875
    assert grid.conditional_quantile(u, grid._row_sums[0, -1]) == 0.875
    # the conditional law reaches its total at the quantile
    assert grid.partial_derivative(1, u, 0.875) == grid._row_sums[0, -1]


def test_save_refuses_an_operator_without_writing(tmp_path):
    op = operator_of(IndependenceCopula(), 3)
    for name in ("op.json", "op.csv"):
        path = tmp_path / name
        with pytest.raises(SpecError):
            save_copula(op, path)
        assert not path.exists()
    assert not hasattr(op, "to_spec")
    # a copula still round-trips
    path = tmp_path / "pi.json"
    save_copula(IndependenceCopula(), path)
    assert load_copula(path) == IndependenceCopula()


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_partial_derivative_refuses_an_unknown_side(name):
    c = CARRIERS[name]()
    for side in ("lft", "Left", None):
        with pytest.raises(DomainError):
            c.partial_derivative(1, 0.5, 0.5, side=side)
    assert UpperFrechetCopula().partial_derivative(1, 0.5, 0.5, side="left") == 1.0


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_h_volume_checks_its_rectangle_once(unit_checks, monkeypatch, name):
    c = CARRIERS[name]()
    rect = (0.2, 0.7, 0.1, 0.6)
    u1, u2, v1, v2 = rect
    expected = c.cdf(u2, v2) - c.cdf(u2, v1) - c.cdf(u1, v2) + c.cdf(u1, v1)
    unit_checks.clear()
    calls = []
    kernel = type(c)._cdf

    def counted(self, u, v):
        calls.append((np.shape(u), np.shape(v)))
        return kernel(self, u, v)

    monkeypatch.setattr(type(c), "_cdf", counted)
    assert c.h_volume(*rect) == pytest.approx(expected, abs=1e-15)
    assert unit_checks == []
    assert calls == [((2, 1), (2,))]


def tolerance_entries():
    g = GridCopula(CHECKER3)
    op = operator_of(IndependenceCopula(), 3)
    return {
        "check_si": lambda tol: check_si(g, tol=tol),
        "is_idempotent": lambda tol: is_idempotent(g, tol=tol),
        "check_dominance": lambda tol: check_dominance(g, g, tol=tol),
        "check_quadrant_dependence": lambda tol: check_quadrant_dependence(g, tol=tol),
        "check_complete_dependence": lambda tol: check_complete_dependence(g, tol=tol),
        "iterate_to_limit.tol": lambda tol: iterate_to_limit(g, tol=tol),
        "iterate_to_limit.interval_tol": lambda tol: iterate_to_limit(g, interval_tol=tol),
        "DiscreteMarkovOperator.is_idempotent": lambda tol: op.is_idempotent(tol=tol),
        "fixed_sigma_field": lambda tol: fixed_sigma_field(op, tol=tol),
        "is_si_archimedean": lambda tol: is_si_archimedean(clayton_generator(2.0), tol=tol),
    }


POSITIVE_TOLERANCES = {"is_idempotent", "iterate_to_limit.tol", "iterate_to_limit.interval_tol"}


@pytest.mark.parametrize("entry", sorted(tolerance_entries()))
@pytest.mark.parametrize("bad", [np.nan, -1e-9])
def test_every_tolerance_refuses_nan_and_negative_values(entry, bad):
    call = tolerance_entries()[entry]
    with pytest.raises(DomainError, match="tol"):
        call(bad)
    if entry in POSITIVE_TOLERANCES:
        with pytest.raises(DomainError, match="positive"):
            call(0.0)
    else:
        call(0.0)


def test_cli_refuses_a_nan_tolerance(tmp_path, capsys):
    spec = tmp_path / "m.json"
    save_copula(UpperFrechetCopula(), spec)
    assert main(["check", str(spec), "--property", "si1", "--tol", "nan"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "tol must be >= 0" in out.err
