import io
import json

import numpy as np
import pytest

from copula_markov import (
    GridCopula,
    SpecError,
    copula_from_spec,
    load_copula,
    save_copula,
)
from copula_markov.serialize import generator_from_csv, matrix_from_csv, matrix_to_csv

from conftest import CHECKER3


ROUNDTRIP_SPECS = [
    {"type": "product"},
    {"type": "frechet-upper"},
    {"type": "frechet-lower"},
    {"type": "checkerboard", "matrix": CHECKER3.tolist()},
    {"type": "archimedean", "family": "clayton", "theta": 2.0},
    {"type": "archimedean", "family": "independence", "theta": None},
    {"type": "archimedean", "family": "frank", "theta": -3.5},
    {"type": "extreme-value", "family": "gumbel", "theta": 2.5},
    {"type": "extreme-value", "family": "comonotone", "theta": None},
    {
        "type": "ordinal-sum",
        "intervals": [[0.0, 1 / 3], [5 / 6, 1.0]],
        "components": [{"type": "product"}, {"type": "product"}],
    },
    {
        "type": "transpose",
        "of": {"type": "checkerboard", "matrix": CHECKER3.tolist()},
    },
    {
        "type": "ordinal-sum",
        "intervals": [[0.25, 0.75]],
        "components": [
            {"type": "transpose", "of": {"type": "archimedean", "family": "gumbel", "theta": 3.0}}
        ],
    },
]


@pytest.mark.parametrize("spec", ROUNDTRIP_SPECS, ids=lambda s: s["type"])
def test_spec_roundtrip_bit_exact(spec):
    # through JSON text and back: every float must survive identically
    text = json.dumps(spec, sort_keys=True)
    cop = copula_from_spec(json.loads(text))
    again = cop.to_spec()
    assert json.loads(json.dumps(again, sort_keys=True)) == json.loads(text)


def test_file_roundtrip(tmp_path, checker3):
    path = tmp_path / "checker.json"
    save_copula(checker3, path)
    loaded = load_copula(path)
    assert isinstance(loaded, GridCopula)
    assert np.array_equal(loaded.matrix, checker3.matrix)


def test_csv_matrix_roundtrip(tmp_path, checker3):
    path = tmp_path / "checker.csv"
    matrix_to_csv(checker3.matrix, path)
    assert np.array_equal(matrix_from_csv(path), checker3.matrix)
    loaded = load_copula(str(path))
    assert np.array_equal(loaded.matrix, checker3.matrix)


def test_csv_save_via_save_copula(tmp_path, checker3):
    path = tmp_path / "out.csv"
    save_copula(checker3, str(path))
    assert np.array_equal(load_copula(str(path)).matrix, checker3.matrix)


def test_generator_table_from_csv(tmp_path):
    from copula_markov import archimedean_copula, clayton_generator

    source = clayton_generator(2.0)
    t = np.concatenate([[0.0], np.geomspace(1e-4, 60.0, 300)])
    np.savetxt(tmp_path / "gen.csv", np.column_stack([t, source.phi(t)]), delimiter=",")
    gen = generator_from_csv(tmp_path / "gen.csv")
    cop = archimedean_copula(gen)
    exact = archimedean_copula(source)
    assert cop.cdf(0.4, 0.7) == pytest.approx(exact.cdf(0.4, 0.7), abs=2e-4)


def test_malformed_specs_rejected():
    with pytest.raises(SpecError):
        copula_from_spec({"type": "bogus"})
    with pytest.raises(SpecError):
        copula_from_spec({"no_type": 1})
    with pytest.raises(SpecError):
        copula_from_spec({"type": "checkerboard"})
    with pytest.raises(SpecError):
        copula_from_spec({"type": "archimedean", "family": "gaussian", "theta": 0.3})
    with pytest.raises(SpecError):
        copula_from_spec({"type": "extreme-value", "family": "husler-reiss"})
    with pytest.raises(SpecError):
        copula_from_spec({"type": "transpose"})


MALFORMED_FIELD_SPECS = [
    ({"type": "archimedean", "family": "clayton"}, "theta"),
    ({"type": "archimedean", "family": "frank", "theta": [3.0]}, "theta"),
    ({"type": "extreme-value", "family": "gumbel"}, "theta"),
    ({"type": "extreme-value", "family": ["gumbel"], "theta": 2.0}, "family"),
    ({"type": "ordinal-sum", "intervals": 5, "components": []}, "intervals"),
    ({"type": "ordinal-sum", "intervals": [[0.0, None]], "components": []}, "intervals"),
    ({"type": "ordinal-sum", "intervals": [[0.0, 0.5]], "components": 5}, "components"),
    ({"type": "archimedean", "family": "clayton", "theta": True}, "theta"),
    ({"type": "archimedean", "family": "clayton", "theta": "2.0"}, "theta"),
    ({"type": "ordinal-sum", "intervals": [[0, 0.5, 1]], "components": []}, "intervals"),
    ({"type": "ordinal-sum", "intervals": [[0.2]], "components": []}, "intervals"),
    ({"type": "ordinal-sum", "intervals": [{"a": 0, "b": 0.5}], "components": []}, "intervals"),
]


@pytest.mark.parametrize("spec, field", MALFORMED_FIELD_SPECS, ids=lambda x: json.dumps(x))
def test_malformed_fields_raise_spec_errors_naming_them(spec, field):
    with pytest.raises(SpecError, match=field):
        copula_from_spec(spec)


def test_parameterless_families_load_with_null_theta():
    for spec in (
        {"type": "archimedean", "family": "independence", "theta": None},
        {"type": "extreme-value", "family": "independence", "theta": None},
        {"type": "extreme-value", "family": "comonotone"},
    ):
        assert copula_from_spec(spec).to_spec() == {**spec, "theta": None}


def test_invalid_json_file_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpecError):
        load_copula(path)


def test_non_checkerboard_cannot_be_csv(tmp_path, pi):
    with pytest.raises(SpecError):
        save_copula(pi, str(tmp_path / "pi.csv"))


@pytest.mark.parametrize("spec", ROUNDTRIP_SPECS, ids=lambda s: s["type"])
def test_save_then_load_roundtrip(tmp_path, spec):
    path = tmp_path / "spec.json"
    save_copula(copula_from_spec(spec), path)
    assert load_copula(path).to_spec() == json.loads(json.dumps(spec))


@pytest.mark.parametrize(
    "spec",
    ROUNDTRIP_SPECS + [{"type": "checkerboard", "matrix": (np.eye(64) * 0.75 + 0.25 / 64).tolist()}],
    ids=lambda s: s["type"],
)
def test_saved_spec_bytes_match_json_dump(tmp_path, spec):
    path = tmp_path / "spec.json"
    cop = copula_from_spec(spec)
    save_copula(cop, path)
    reference = io.StringIO()
    json.dump(cop.to_spec(), reference, sort_keys=True)
    assert path.read_bytes() == (reference.getvalue() + "\n").encode("utf-8")


def test_save_refuses_families_the_loader_does_not_know(tmp_path):
    from copula_markov import (
        PickandsFunction,
        archimedean_copula,
        extreme_value_copula,
        ordinal_sum,
        tabulated_generator,
        transpose,
    )

    s = np.linspace(0.0, 40.0, 200)
    tabulated = archimedean_copula(tabulated_generator(s, np.exp(-s)))
    custom = extreme_value_copula(PickandsFunction("flat", lambda t: np.ones_like(t)))
    for name, cop in [
        ("tabulated", tabulated),
        ("custom", custom),
        ("nested", ordinal_sum([(0.0, 0.5)], [transpose(custom)])),
    ]:
        path = tmp_path / f"{name}.json"
        with pytest.raises(SpecError, match="cannot save"):
            save_copula(cop, path)
        assert not path.exists()


def test_save_refuses_named_families_without_their_theta(tmp_path):
    from copula_markov import (
        ArchimedeanGenerator,
        PickandsFunction,
        archimedean_copula,
        clayton_generator,
        extreme_value_copula,
        gumbel_pickands,
    )

    # a known family name is not enough: the loader needs the theta too
    clayton = clayton_generator(2.0)
    bare_clayton = ArchimedeanGenerator("clayton", clayton.phi, clayton.phi_inverse, clayton.phi_prime)
    bare_gumbel = PickandsFunction("gumbel", gumbel_pickands(2.5).func)
    for name, cop in [
        ("clayton", archimedean_copula(bare_clayton)),
        ("gumbel", extreme_value_copula(bare_gumbel)),
    ]:
        path = tmp_path / f"{name}.json"
        with pytest.raises(SpecError, match="cannot save.*needs a numeric 'theta'"):
            save_copula(cop, path)
        assert not path.exists()


def test_unknown_family_error_lists_the_known_ones():
    with pytest.raises(SpecError, match=r"'gaussian' \(known: clayton, frank, gumbel, independence\)"):
        copula_from_spec({"type": "archimedean", "family": "gaussian", "theta": 0.3})
    with pytest.raises(SpecError, match=r"\(known: comonotone, gumbel, independence\)"):
        copula_from_spec({"type": "extreme-value", "family": "husler-reiss", "theta": 1.0})
