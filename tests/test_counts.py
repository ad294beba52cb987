"""Counts (resolutions, sample sizes, step and panel counts) go through one
gate: a whole number at least the count's least value, or a DomainError
that names the argument.  Also the identity of the parameter-free copulas,
the generator convexity audit, the closed-form diagonal Sobolev functional
and the trusted block-average operator."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import copula_markov
from copula_markov import (
    ArchimedeanGenerator,
    DomainError,
    GridCopula,
    IndependenceCopula,
    IntervalFamily,
    InvariantError,
    LowerFrechetCopula,
    StepFunction,
    UpperFrechetCopula,
    archimedean_copula,
    check_si,
    clayton_generator,
    conditional_expectation_form,
    empirical_si_check,
    extract_pi_ordinal_structure,
    frank_generator,
    is_si_archimedean,
    iterate_to_limit,
    markov_product,
    ordinal_sum,
    power,
    quadrature_markov_product,
)
from copula_markov.algebra import RESOLUTION_CAP_ENV
from copula_markov.cli import main
from copula_markov.metrics import sobolev_diagonal

from conftest import CHECKER3, count_validations

CLAYTON = archimedean_copula(clayton_generator(2.0))
C3 = GridCopula(CHECKER3)


def _decreasing(x):
    return 1.0 - np.asarray(x)


# name -> (argument named in the error, least value, call with the count),
# each call returning a value that compares with ==
COUNTS = {
    "discretize": ("n", 1, lambda k: CLAYTON.discretize(k).matrix.tolist()),
    "sample": ("count", 1, lambda k: CLAYTON.sample(k, 3).tolist()),
    "refined": ("factor", 1, lambda k: C3.refined(k).matrix.tolist()),
    "indicator_upto.n": ("n", 1, lambda k: StepFunction.indicator_upto(k, 1).values.tolist()),
    "indicator_upto.j": ("j", 0, lambda k: StepFunction.indicator_upto(9, k).values.tolist()),
    "aligned_cell_ranges": (
        "n", 1, lambda k: IntervalFamily(((0.0, 0.5),)).aligned_cell_ranges(k)
    ),
    "markov_product.resolution": (
        "resolution", 1, lambda k: markov_product(CLAYTON, CLAYTON, resolution=k).matrix.tolist()
    ),
    "markov_product.cap": (
        "cap", 1, lambda k: markov_product(GridCopula(np.eye(2)), GridCopula(np.eye(4)), cap=k).n
    ),
    "power": ("n", 1, lambda k: power(C3, k).matrix.tolist()),
    "iterate_to_limit": ("max_iter", 1, lambda k: iterate_to_limit(C3, max_iter=k).to_json()),
    "quadrature_markov_product": (
        "panels", 8, lambda k: quadrature_markov_product(C3, C3, k)(0.3, 0.6)
    ),
    "extract_pi_ordinal_structure": (
        "scan",
        1,
        lambda k: extract_pi_ordinal_structure(
            ordinal_sum([(0.25, 0.75)], [IndependenceCopula()]), scan=k
        ).to_json(),
    ),
    "check_si.u_points": ("u_points", 3, lambda k: check_si(CLAYTON, u_points=k).to_json()),
    "check_si.v_points": ("v_points", 1, lambda k: check_si(CLAYTON, v_points=k).to_json()),
    "empirical_si_check.samples": (
        "samples", 1, lambda k: empirical_si_check(CLAYTON, _decreasing, samples=k).to_json()
    ),
    "empirical_si_check.bins": (
        "bins",
        2,
        lambda k: empirical_si_check(CLAYTON, _decreasing, samples=500, bins=k).to_json(),
    ),
    "conditional_expectation_form": (
        "n", 1, lambda k: conditional_expectation_form([(0.0, 0.5)], k).matrix.tolist()
    ),
    "is_si_archimedean": (
        "points", 3, lambda k: is_si_archimedean(clayton_generator(2.0), points=k)
    ),
    "renormalized": (
        "max_iter",
        1,
        lambda k: GridCopula.renormalized([[1.0, 2.0], [2.0, 1.0]], max_iter=k).matrix.tolist(),
    ),
}


def bad_counts(least):
    values = [2.5, np.nan, np.inf, -np.inf, True, least - 1]
    return values + [0] * (least > 0)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_every_count_refuses_what_is_not_a_whole_number_at_least_its_least(entry):
    name, least, call = COUNTS[entry]
    pattern = rf"^{re.escape(name)} must be a whole number >= {least}, got "
    for bad in bad_counts(least):
        with pytest.raises(DomainError, match=pattern):
            call(bad)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_integral_floats_and_numpy_integers_count_as_whole_numbers(entry):
    _, _, call = COUNTS[entry]
    expected = call(8)
    assert call(8.0) == expected
    assert call(np.int64(8)) == expected


@pytest.mark.parametrize("bad", ["2.5", "nan", "inf", "0", "-3", "many"])
def test_the_cap_variable_is_refused_by_name(monkeypatch, bad):
    monkeypatch.setenv(RESOLUTION_CAP_ENV, bad)
    with pytest.raises(DomainError, match=f"^{RESOLUTION_CAP_ENV} must be a whole number"):
        markov_product(GridCopula(np.eye(2)), GridCopula(np.eye(3)))


def test_the_cap_variable_takes_whole_numbers(monkeypatch):
    monkeypatch.setenv(RESOLUTION_CAP_ENV, "6.0")
    assert markov_product(GridCopula(np.eye(2)), GridCopula(np.eye(3))).n == 6


def test_cli_refuses_a_trace_without_points(tmp_path, capsys):
    spec = tmp_path / "pi.json"
    copula_markov.save_copula(IndependenceCopula(), spec)
    out = str(tmp_path / "trace.csv")
    assert main(["derivative-trace", str(spec), "--at", "0.5", "--points", "0", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "points must be a whole number >= 1" in captured.err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# Pi, M and W: one identity rule
# ---------------------------------------------------------------------------

CONSTANTS = (IndependenceCopula, UpperFrechetCopula, LowerFrechetCopula)


@pytest.mark.parametrize("cls", CONSTANTS)
def test_parameter_free_copulas_are_equal_within_their_class_only(cls):
    a, b = cls(), cls()
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(cls)
    assert repr(a) == f"{cls.__name__}()"
    for other in CONSTANTS:
        if other is not cls:
            assert a != other()
    assert a != GridCopula(np.eye(1))
    assert len({cls(), cls()}) == 1


# ---------------------------------------------------------------------------
# one convexity certificate for the generator audit and the SI criterion
# ---------------------------------------------------------------------------


def test_a_generator_with_nan_values_on_the_audit_grid_is_not_certified_convex():
    def phi(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 3.0, np.nan, np.exp(-t))

    with pytest.raises(InvariantError, match="not convex"):
        ArchimedeanGenerator("holed", phi, lambda x: -np.log(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# satellites: the Sobolev functional of Pi and M, plain-float SI witnesses,
# the trusted block average
# ---------------------------------------------------------------------------


def test_sobolev_of_the_closed_forms_needs_no_scipy():
    src = os.path.dirname(os.path.dirname(copula_markov.__file__))
    probe = (
        "import sys; from copula_markov import IndependenceCopula; "
        "from copula_markov.metrics import sobolev_diagonal; "
        "value = sobolev_diagonal(IndependenceCopula()); "
        "print(repr(value), 'scipy.integrate' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == f"{2.0 / 3.0!r} False\n"
    assert sobolev_diagonal(UpperFrechetCopula()) == 1.0


@pytest.mark.parametrize(
    "copula, component",
    [(C3, 2), (archimedean_copula(frank_generator(-3.0)), 1)],
    ids=["grid", "closed-form"],
)
def test_si_witnesses_hold_plain_floats(copula, component):
    witness = check_si(copula, component).witness
    assert [type(x) for x in witness] == [float] * 3
    assert "np.float64" not in repr(witness)


def test_the_block_average_is_built_without_a_second_validation(monkeypatch):
    calls = count_validations(monkeypatch)
    op = conditional_expectation_form([(0.25, 0.75)], 8)
    assert calls == []
    assert not op.matrix.flags.writeable
    assert np.allclose(op.matrix.sum(axis=0), 1.0) and np.allclose(op.matrix.sum(axis=1), 1.0)
