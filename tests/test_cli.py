import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import copula_markov
from copula_markov.cli import main

from conftest import CHECKER3, random_doubly_stochastic


@pytest.fixture
def specs(tmp_path):
    paths = {}

    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)

    write("checker3.json", {"type": "checkerboard", "matrix": CHECKER3.tolist()})
    write("pi.json", {"type": "product"})
    write("cplus.json", {"type": "frechet-upper"})
    write("cminus.json", {"type": "frechet-lower"})
    write(
        "osum.json",
        {
            "type": "ordinal-sum",
            "intervals": [[0.0, 1 / 3], [5 / 6, 1.0]],
            "components": [{"type": "product"}, {"type": "product"}],
        },
    )
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_si_first_component(specs, capsys):
    code, out, _ = run(capsys, "check", specs["checker3.json"], "--property", "si1")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["method"] == "exact-cumsum"


def test_check_si_second_component_fails_with_witness(specs, capsys):
    code, out, _ = run(capsys, "check", specs["checker3.json"], "--property", "si2")
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["witness"] is not None


def test_check_idempotent(specs, capsys):
    code, out, _ = run(
        capsys, "check", specs["pi.json"], "--property", "idempotent", "--tol", "1e-12"
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_check_quadrant_and_complete_dependence(specs, capsys):
    assert run(capsys, "check", specs["cplus.json"], "--property", "pqd")[0] == 0
    assert run(capsys, "check", specs["cminus.json"], "--property", "nqd")[0] == 0
    assert run(capsys, "check", specs["cplus.json"], "--property", "nqd")[0] == 1
    assert (
        run(capsys, "check", specs["cminus.json"], "--property", "complete-dependence")[0]
        == 0
    )
    assert (
        run(capsys, "check", specs["pi.json"], "--property", "complete-dependence")[0]
        == 1
    )


def test_check_malformed_spec_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "bogus"}')
    code, _, err = run(capsys, "check", str(bad), "--property", "si1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"type": "archimedean", "family": "clayton"}, "theta"),
        ({"type": "extreme-value", "family": "gumbel"}, "theta"),
        ({"type": "ordinal-sum", "intervals": 5, "components": []}, "intervals"),
        ({"type": "archimedean", "family": "clayton", "theta": True}, "theta"),
        ({"type": "archimedean", "family": "clayton", "theta": "2.0"}, "theta"),
    ],
    ids=["archimedean", "extreme-value", "ordinal-sum", "boolean-theta", "string-theta"],
)
def test_check_spec_with_malformed_field_is_input_error(tmp_path, capsys, spec, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code, out, err = run(capsys, "check", str(bad), "--property", "si1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"'{field}'" in err


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------


def test_product_with_oracle(specs, capsys, tmp_path):
    out_path = str(tmp_path / "square.json")
    code, out, _ = run(
        capsys,
        "product",
        specs["checker3.json"],
        specs["checker3.json"],
        "-o",
        out_path,
        "--oracle",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["oracle_max_discrepancy"] <= 1e-9
    matrix = np.asarray(json.loads(Path(out_path).read_text())["matrix"])
    assert np.max(np.abs(matrix - CHECKER3 @ CHECKER3)) <= 1e-15


def test_product_oracle_checks_a_64_grid_pair_on_every_corner(capsys, tmp_path):
    rng = np.random.default_rng(64)
    paths = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        matrix = random_doubly_stochastic(rng, 64, n_perms=8)
        path.write_text(json.dumps({"type": "checkerboard", "matrix": matrix.tolist()}))
        paths.append(str(path))
    out_path = str(tmp_path / "ab.json")
    code, out, _ = run(capsys, "product", *paths, "-o", out_path, "--oracle")
    assert code == 0
    summary = json.loads(out)
    assert summary["resolution"] == 64
    assert summary["oracle_panels"] == 64
    assert summary["oracle_max_discrepancy"] <= 1e-12


def test_product_unit_returns_operand(specs, capsys, tmp_path):
    out_path = str(tmp_path / "result.json")
    code, out, _ = run(
        capsys, "product", specs["cplus.json"], specs["checker3.json"], "-o", out_path
    )
    assert code == 0
    matrix = np.asarray(json.loads(Path(out_path).read_text())["matrix"])
    assert np.array_equal(matrix, CHECKER3)


def test_product_annihilator(specs, capsys, tmp_path):
    out_path = str(tmp_path / "result.json")
    code, _, _ = run(
        capsys, "product", specs["pi.json"], specs["checker3.json"], "-o", out_path
    )
    assert code == 0
    assert json.loads(Path(out_path).read_text()) == {"type": "product"}


def test_product_resolution_cap_env(specs, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COPULA_GRID_CAP", "2")
    code, _, err = run(
        capsys,
        "product",
        specs["checker3.json"],
        specs["checker3.json"],
        "-o",
        str(tmp_path / "never.json"),
    )
    assert code == 2
    assert "cap" in err


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------


def test_iterate_checkerboard(specs, capsys, tmp_path):
    out_dir = str(tmp_path / "iter")
    code, out, _ = run(
        capsys,
        "iterate",
        specs["checker3.json"],
        "--tol",
        "1e-8",
        "--max-iter",
        "200",
        "--out-dir",
        out_dir,
    )
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["n_steps"] <= 60
    assert report["intervals"] == [[0.0, 1.0]]
    assert Path(f"{out_dir}/report.json").read_text() == out
    lines = Path(f"{out_dir}/steps.csv").read_text().strip().splitlines()
    assert lines[0] == "step,d_inf_gap,d1_gap"
    assert len(lines) == report["n_steps"] + 1
    gaps = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_iterate_upper_bound_immediate(specs, capsys):
    code, out, _ = run(capsys, "iterate", specs["cplus.json"])
    assert code == 0
    report = json.loads(out)
    assert report["n_steps"] == 1
    assert report["intervals"] == []


def test_iterate_rejects_sd_input(specs, capsys):
    code, out, _ = run(capsys, "iterate", specs["cminus.json"])
    assert code == 1
    assert json.loads(out)["error"] == "not stochastically increasing"


def test_iterate_non_convergence_exit_code(specs, capsys):
    code, out, _ = run(
        capsys, "iterate", specs["checker3.json"], "--max-iter", "2"
    )
    assert code == 3
    assert json.loads(out)["converged"] is False


@pytest.mark.parametrize(
    "option, value, word", [("--max-iter", "0", "max_iter"), ("--tol", "0", "tol")]
)
def test_iterate_refuses_empty_or_endless_runs(specs, capsys, option, value, word):
    code, out, err = run(capsys, "iterate", specs["cplus.json"], option, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and word in err


def test_cli_import_leaves_the_thread_pool_unloaded():
    # iterate imports its queues when it runs, not at every start, and
    # no command needs scipy
    src = os.path.dirname(os.path.dirname(copula_markov.__file__))
    probe = (
        "import sys, copula_markov.cli; "
        "print([m for m in ('concurrent.futures', 'queue', 'scipy') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


# ---------------------------------------------------------------------------
# derivative traces
# ---------------------------------------------------------------------------


def test_trace_first_component_steps(specs, capsys, tmp_path):
    out_csv = str(tmp_path / "trace.csv")
    code, _, _ = run(
        capsys,
        "derivative-trace",
        specs["checker3.json"],
        "--component",
        "1",
        "--at",
        str(1 / 3),
        "--points",
        "9",
        "-o",
        out_csv,
    )
    assert code == 0
    rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:3, 1], np.full(3, 2 / 3))
    assert np.array_equal(rows[3:6, 1], np.full(3, 1 / 3))
    assert np.array_equal(rows[6:, 1], np.zeros(3))


def test_trace_second_component_non_monotone(specs, capsys, tmp_path):
    out_csv = str(tmp_path / "trace2.csv")
    code, _, _ = run(
        capsys,
        "derivative-trace",
        specs["checker3.json"],
        "--component",
        "2",
        "--at",
        str(1 / 3),
        "--points",
        "9",
        "-o",
        out_csv,
    )
    assert code == 0
    rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    steps = rows[::3, 1]
    assert np.array_equal(steps, np.array([2 / 3, 0.0, 1 / 3]))
    assert not np.all(np.diff(steps) <= 0) and not np.all(np.diff(steps) >= 0)


def test_trace_independence_constant(specs, capsys, tmp_path):
    out_csv = str(tmp_path / "trace3.csv")
    run(
        capsys,
        "derivative-trace",
        specs["pi.json"],
        "--component",
        "1",
        "--at",
        "0.5",
        "--points",
        "10",
        "-o",
        out_csv,
    )
    rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 1], np.full(10, 0.5))


# ---------------------------------------------------------------------------
# decompose and metric
# ---------------------------------------------------------------------------


def test_decompose_ordinal_sum(specs, capsys):
    code, out, _ = run(capsys, "decompose", specs["osum.json"])
    assert code == 0
    payload = json.loads(out)
    (a1, b1), (a2, b2) = payload["intervals"]
    assert a1 == 0.0 and b2 == 1.0
    assert abs(b1 - 1 / 3) <= 1e-9
    assert abs(a2 - 5 / 6) <= 1e-9


def test_decompose_trivial_cases(specs, capsys):
    code, out, _ = run(capsys, "decompose", specs["cplus.json"])
    assert code == 0
    assert json.loads(out)["intervals"] == []
    code, out, _ = run(capsys, "decompose", specs["pi.json"])
    assert code == 0
    assert json.loads(out)["intervals"] == [[0.0, 1.0]]


def test_decompose_rejects_non_idempotent(specs, capsys):
    code, _, err = run(capsys, "decompose", specs["checker3.json"])
    assert code == 1
    assert "idempotent" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_decompose_refuses_a_tolerance_that_is_not_positive(specs, capsys, tol):
    # a usage error (exit 2), not a property that fails (exit 1)
    code, out, err = run(capsys, "decompose", specs["pi.json"], "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol must be positive" in err


def test_metric_commands(specs, capsys):
    code, out, _ = run(
        capsys, "metric", specs["pi.json"], "--metric", "sobolev-diag"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2 / 3, abs=1e-9)
    # no node count is reported: none of the three computations has one
    assert "n_nodes" not in json.loads(out)

    code, out, _ = run(
        capsys, "metric", specs["pi.json"], specs["cplus.json"], "--metric", "d1"
    )
    assert json.loads(out)["value"] == pytest.approx(1 / 3, abs=1e-6)
    assert "n_nodes" not in json.loads(out)

    code, out, _ = run(
        capsys, "metric", specs["checker3.json"], specs["checker3.json"], "--metric", "dinf"
    )
    assert json.loads(out)["value"] == 0.0
    assert "n_nodes" not in json.loads(out)


def test_metric_requires_second_spec(specs, capsys):
    code, out, err = run(capsys, "metric", specs["pi.json"], "--metric", "d1")
    assert code == 2 and out == ""
    assert "needs two specs, got 1" in err


def test_metric_refuses_a_spec_it_would_ignore(specs, capsys):
    code, out, err = run(
        capsys, "metric", specs["checker3.json"], specs["pi.json"], "--metric", "sobolev-diag"
    )
    assert code == 2 and out == ""
    assert "needs one spec, got 2" in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identical_invocations_are_byte_identical(specs, capsys, tmp_path):
    argv = ["check", specs["checker3.json"], "--property", "si1"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    t1, t2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    trace = ["derivative-trace", specs["checker3.json"], "--at", "0.25", "-o"]
    run(capsys, *trace, t1)
    run(capsys, *trace, t2)
    assert Path(t1).read_bytes() == Path(t2).read_bytes()


def test_check_complete_dependence_honours_the_resolution(tmp_path, capsys):
    spec = tmp_path / "clayton.json"
    spec.write_text(json.dumps({"type": "archimedean", "family": "clayton", "theta": 2.0}))
    gaps = {}
    for n in ("16", "128"):
        code, out, _ = run(
            capsys, "check", str(spec), "--property", "complete-dependence", "--resolution", n
        )
        assert code == 1
        gaps[n] = json.loads(out)["gap"]
    _, out, _ = run(capsys, "check", str(spec), "--property", "complete-dependence")
    assert json.loads(out)["gap"] == gaps["128"] != gaps["16"]


def test_short_circuited_product_reports_no_oracle(specs, capsys, tmp_path):
    # M * C is C exactly: no quadrature runs, so no oracle figure is reported
    clayton = tmp_path / "clayton.json"
    clayton.write_text(json.dumps({"type": "archimedean", "family": "clayton", "theta": 2.0}))
    out_path = str(tmp_path / "result.json")
    code, out, _ = run(capsys, "product", specs["cplus.json"], str(clayton), "-o", out_path, "--oracle")
    assert code == 0
    assert json.loads(out) == {"out": out_path}
    assert json.loads(Path(out_path).read_text())["family"] == "clayton"
