"""Result records serialise through one shared ``core._Record.to_json``."""

import dataclasses
import importlib
import json
import pkgutil

import numpy as np
import pytest

import copula_markov
from copula_markov import (
    GridCopula,
    IndependenceCopula,
    LowerFrechetCopula,
    check_complete_dependence,
    check_dominance,
    check_quadrant_dependence,
    check_si,
    empirical_si_check,
    extract_pi_ordinal_structure,
    is_idempotent,
    iterate_to_limit,
    nqd_idempotent_check,
)
from copula_markov.core import _Record

# dyadic entries keep every product and sup gap exact in binary
DYADIC = np.array([[0.5, 0.5, 0, 0], [0.25, 0.25, 0.5, 0], [0.25, 0.25, 0, 0.5], [0, 0, 0.5, 0.5]])
BLOCK = np.array([[1.0, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1.0]])

RECORDS = {
    "si-grid": lambda: check_si(GridCopula(DYADIC), component=2),
    "si-one-cell": lambda: check_si(GridCopula(np.ones((1, 1)))),
    "si-closed": lambda: check_si(LowerFrechetCopula()),
    "idempotent": lambda: is_idempotent(GridCopula(DYADIC)),
    "iterate": lambda: iterate_to_limit(GridCopula(BLOCK)),
    "decompose": lambda: extract_pi_ordinal_structure(GridCopula(BLOCK)),
    "nqd": lambda: nqd_idempotent_check(GridCopula(np.full((2, 2), 0.5))),
    "not-nqd": lambda: nqd_idempotent_check(GridCopula(BLOCK)),
    "dominance": lambda: check_dominance(GridCopula(DYADIC), GridCopula(BLOCK), reverse=True),
    "quadrant": lambda: check_quadrant_dependence(GridCopula(DYADIC)),
    "complete-dependence": lambda: check_complete_dependence(GridCopula(DYADIC)),
    "empirical-si": lambda: empirical_si_check(
        IndependenceCopula(), lambda x: 1 - x, samples=200, bins=3, seed=0
    ),
}

# json.dumps(record.to_json(), sort_keys=True) as each hand-written to_json
# produced it, before the records shared one; si-grid's witness is null
# since an SI witness names a breach only
GOLDEN = {
    "si-grid": "{\"component\": 2, \"max_violation\": 0.0, \"method\": \"exact-cumsum\", \"sd\": false, \"si\": true, \"witness\": null}",
    "si-one-cell": "{\"component\": 1, \"max_violation\": 0.0, \"method\": \"exact-cumsum\", \"sd\": true, \"si\": true, \"witness\": null}",
    "si-closed": "{\"component\": 1, \"max_violation\": 0.00390625, \"method\": \"grid-certified\", \"sd\": true, \"si\": false, \"witness\": [0.01171875, 0.01953125, 0.984375]}",
    "idempotent": "{\"gap\": 0.0625, \"idempotent\": false, \"witness\": [0.25, 0.5]}",
    "iterate": "{\"converged\": true, \"intervals\": [[0.25, 0.75]], \"limit\": {\"matrix\": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]], \"type\": \"checkerboard\"}, \"monotone_decrease_violation\": 0.0, \"n_steps\": 1, \"sup_gap\": 0.0}",
    "decompose": "{\"block_gaps\": [0.0], \"intervals\": [[0.25, 0.75]], \"max_block_gap\": 0.0}",
    "nqd": "{\"consistent\": true, \"d_inf_to_independence\": 0.0, \"max_excess_over_independence\": 0.0, \"nqd\": true, \"sobolev\": 0.6666666666666667}",
    "not-nqd": "{\"consistent\": null, \"d_inf_to_independence\": null, \"max_excess_over_independence\": 0.1875, \"nqd\": false, \"sobolev\": null}",
    "dominance": "{\"gap\": 0.125, \"holds\": false, \"reversed\": true, \"witness\": [0.25, 0.25]}",
    "quadrant": "{\"max_above_independence\": 0.125, \"max_below_independence\": 0.0, \"verdict\": \"PQD\"}",
    "complete-dependence": "{\"completely_dependent\": false, \"gap\": 0.15625}",
    "empirical-si": "{\"bin_centers\": [0.16666666666666666, 0.5, 0.8333333333333334], \"bin_counts\": [57, 64, 79], \"bin_means\": [0.4752996542178998, 0.44580840608455324, 0.5066743780310276], \"increases\": [[1, 0.06086597194647431, 0.1465409696424687]], \"insufficient_samples\": false, \"significant_increases\": 0, \"z\": 3.0}",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_json_text_is_unchanged(name):
    assert json.dumps(RECORDS[name]().to_json(), sort_keys=True) == GOLDEN[name]


def package_classes():
    modules = [copula_markov] + [
        importlib.import_module(f"copula_markov.{info.name}")
        for info in pkgutil.iter_modules(copula_markov.__path__)
        if info.name != "__main__"
    ]
    return {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__.startswith("copula_markov")
    }


def test_every_record_serialises_its_fields_by_name():
    records = {cls for cls in package_classes() if issubclass(cls, _Record) and cls is not _Record}
    assert {cls.__name__ for cls in records} == {
        "IdempotenceVerdict",
        "IterateReport",
        "PiDecomposition",
        "NqdVerdict",
        "MonotonicityVerdict",
        "DominanceVerdict",
        "CompleteDependenceVerdict",
        "EmpiricalSIReport",
    }
    built = {type(r): r for r in (make() for make in RECORDS.values())}
    for cls in records:
        fields = {f.name for f in dataclasses.fields(cls)} - set(cls._json_skip)
        assert set(built[cls].to_json()) == fields, cls.__name__


def test_only_the_base_and_the_quadrant_label_write_json():
    writers = {cls.__name__ for cls in package_classes() if "to_json" in vars(cls)}
    assert writers == {"_Record", "QuadrantVerdict"}
