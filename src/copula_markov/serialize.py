"""CopulaSpec serialization.

A copula spec is a JSON document with a ``type`` tag:

    {"type": "checkerboard", "matrix": [[...], ...]}
    {"type": "product"}
    {"type": "frechet-upper"} / {"type": "frechet-lower"}
    {"type": "archimedean", "family": "clayton", "theta": 2.0}
    {"type": "extreme-value", "family": "gumbel", "theta": 2.5}
    {"type": "ordinal-sum", "intervals": [[a, b], ...],
     "components": [spec, ...]}
    {"type": "transpose", "of": spec}

Archimedean families: independence, clayton, gumbel, frank.  Extreme-value
families: independence, comonotone, gumbel.  Checkerboard matrices may
also be read and written as headerless CSV, one row per line; tabulated
generators load from CSV rows of (t, phi(t)).
"""

from __future__ import annotations

import json

import numpy as np

from .core import (
    Copula,
    CopulaError,
    GridCopula,
    IndependenceCopula,
    IntervalFamily,
    InvariantError,
    LowerFrechetCopula,
    TransposedCopula,
    UpperFrechetCopula,
)
from . import families

__all__ = [
    "SpecError",
    "copula_from_spec",
    "load_copula",
    "save_copula",
    "matrix_from_csv",
    "matrix_to_csv",
    "generator_from_csv",
]


class SpecError(CopulaError, ValueError):
    """The spec document is malformed or references an unknown family."""


_ARCHIMEDEAN = {
    "independence": families.independence_generator,
    "clayton": families.clayton_generator,
    "gumbel": families.gumbel_generator,
    "frank": families.frank_generator,
}

_PICKANDS = {
    "independence": families.independence_pickands,
    "comonotone": families.comonotone_pickands,
    "gumbel": families.gumbel_pickands,
}


def _family(spec, table):
    """The member of ``table`` named by the spec's family and theta."""
    family = spec.get("family")
    if not isinstance(family, str) or family not in table:
        raise SpecError(
            f"unknown {spec['type']} family {family!r} (known: {', '.join(sorted(table))})"
        )
    if family in ("independence", "comonotone"):  # no parameter, "theta": null
        return table[family]()
    theta = spec.get("theta")
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise SpecError(f"{spec['type']} family {family!r} needs a numeric 'theta'")
    return table[family](theta)


def copula_from_spec(spec) -> Copula:
    """Build a copula from a spec document (dict)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise SpecError("spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "checkerboard":
        if "matrix" not in spec:
            raise SpecError("checkerboard spec needs a 'matrix'")
        return GridCopula(np.asarray(spec["matrix"], dtype=float))
    if kind == "product":
        return IndependenceCopula()
    if kind == "frechet-upper":
        return UpperFrechetCopula()
    if kind == "frechet-lower":
        return LowerFrechetCopula()
    if kind == "archimedean":
        return families.archimedean_copula(_family(spec, _ARCHIMEDEAN))
    if kind == "extreme-value":
        return families.extreme_value_copula(_family(spec, _PICKANDS))
    if kind == "ordinal-sum":
        try:
            intervals = IntervalFamily.from_list(spec.get("intervals", []))
        except TypeError as exc:
            raise SpecError("ordinal-sum 'intervals' must be a list of [a, b] pairs") from exc
        except InvariantError as exc:
            raise SpecError(f"ordinal-sum 'intervals': {exc}") from exc
        specs = spec.get("components", [])
        if not isinstance(specs, list):
            raise SpecError("ordinal-sum 'components' must be a list of specs")
        components = tuple(copula_from_spec(s) for s in specs)
        return families.OrdinalSumCopula(intervals, components)
    if kind == "transpose":
        if "of" not in spec:
            raise SpecError("transpose spec needs an 'of' field")
        return TransposedCopula(copula_from_spec(spec["of"]))
    raise SpecError(f"unknown spec type {kind!r}")


def load_copula(path) -> Copula:
    """Load a copula from a JSON spec file, or from a headerless CSV matrix
    when the path ends in .csv."""
    path = str(path)
    if path.endswith(".csv"):
        return GridCopula(matrix_from_csv(path))
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    return copula_from_spec(spec)


def save_copula(c: Copula, path) -> None:
    """Write ``c`` as a JSON spec, or a CSV matrix when the path ends in
    .csv.  A spec that :func:`copula_from_spec` refuses, or that loads as a
    copula whose cdf differs from ``c``'s anywhere on the 17 x 17 lattice of
    ``linspace(0, 1, 17)``, raises :class:`SpecError` "cannot save: ..."
    before the file is opened; a checkerboard spec always loads as its own
    matrix, so it is not re-read."""
    if not isinstance(c, Copula):
        raise SpecError(f"cannot save: {type(c).__name__} is not a copula")
    path = str(path)
    if path.endswith(".csv"):
        if not isinstance(c, GridCopula):
            raise SpecError("only checkerboard copulas can be written as CSV")
        matrix_to_csv(c.matrix, path)
        return
    spec = c.to_spec()
    if spec["type"] != "checkerboard":
        try:
            reloaded = copula_from_spec(spec)
        except CopulaError as exc:
            raise SpecError(f"cannot save: {exc}") from exc
        g = np.linspace(0.0, 1.0, 17)
        if not np.array_equal(reloaded.cdf(g[:, None], g), c.cdf(g[:, None], g)):
            raise SpecError("cannot save: the spec reloads as a different copula")
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(spec, fh)


def _write_json(obj, fh) -> None:
    """Write ``obj`` to the open text file ``fh`` as
    ``json.dump(obj, fh, sort_keys=True)`` does, plus a newline: saved
    specs, CLI files and CLI stdout all go through it."""
    _write_value(obj, fh)
    fh.write("\n")


def _write_value(obj, fh):
    # each list element is one json.dumps call, so the C encoder does the
    # work (json.dump streams through the pure-Python one) while the text
    # of one matrix row, not of the whole document, is held at a time
    if isinstance(obj, dict):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_value(obj[key], fh)
        fh.write("}")
    elif isinstance(obj, list):
        fh.write("[")
        for i, item in enumerate(obj):
            fh.write((", " if i else "") + json.dumps(item, sort_keys=True))
        fh.write("]")
    else:
        fh.write(json.dumps(obj, sort_keys=True))


def _write_csv(path, rows, fmt="%.17g", header="") -> None:
    """The package's one CSV writer: each row of the 2-d array ``rows`` as one
    line of ``fmt`` (a specifier per value, or the whole row's), under
    ``header`` unless it is empty."""
    np.savetxt(path, rows, fmt=fmt, delimiter=",", header=header, comments="")


def _read_csv(path, what) -> np.ndarray:
    """The package's one CSV reader: a 2-d array, or SpecError naming ``what``."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise SpecError(f"{path}: not a numeric CSV {what} ({exc})") from exc


def matrix_from_csv(path) -> np.ndarray:
    return _read_csv(path, "matrix")


def matrix_to_csv(matrix, path) -> None:
    _write_csv(path, np.asarray(matrix, dtype=float))


def generator_from_csv(path, name="tabulated"):
    """Tabulated Archimedean generator from CSV rows of (t, phi(t))."""
    table = _read_csv(path, "generator table")
    if table.shape[1] != 2:
        raise SpecError(f"{path}: generator table must have two columns")
    return families.tabulated_generator(table[:, 0], table[:, 1], name=name)
