"""Markov operators on step functions and the copula correspondence.

At resolution n the operator of a checkerboard copula acts on cell
averages as the doubly stochastic matrix itself: positivity, the fixed
constant function and integral preservation are the matrix statements
"entries >= 0", "row sums 1" and "column sums 1".  The inverse map
rebuilds the copula from the operator matrix, making the correspondence
one-to-one on grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Copula,
    DomainError,
    GridCopula,
    IntervalFamily,
    StepFunction,
    _check_count,
    _check_tol,
    _trusted_carrier,
    _validate_doubly_stochastic,
)
from .algebra import _matmul

__all__ = [
    "DiscreteMarkovOperator",
    "operator_of",
    "copula_of",
    "conditional_expectation_form",
    "fixed_sigma_field",
]


@dataclass(frozen=True, eq=False)
class DiscreteMarkovOperator:
    """Markov operator restricted to step functions on the uniform n-grid."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _validate_doubly_stochastic(self.matrix, what="operator matrix")
        object.__setattr__(self, "matrix", a)

    _trusted = classmethod(_trusted_carrier)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, f: StepFunction) -> StepFunction:
        if f.n != self.n:
            raise DomainError(
                f"operator resolution {self.n} does not match step function {f.n}"
            )
        return StepFunction(self.matrix @ f.values)

    def compose(self, other: "DiscreteMarkovOperator") -> "DiscreteMarkovOperator":
        if other.n != self.n:
            raise DomainError("operators must share a resolution")
        return DiscreteMarkovOperator._trusted(_matmul(self.matrix, other.matrix))

    def is_idempotent(self, tol=1e-12) -> bool:
        _check_tol(tol)
        return bool(np.max(np.abs(self.matrix @ self.matrix - self.matrix)) <= tol)


def operator_of(c: Copula, n: int) -> DiscreteMarkovOperator:
    """Operator of C at resolution n (the matrix of its checkerboard)."""
    return DiscreteMarkovOperator._trusted(c.discretize(n).matrix)


def copula_of(op: DiscreteMarkovOperator) -> GridCopula:
    """Checkerboard copula of a discrete Markov operator.

    Inverse of :func:`operator_of` on grids: the round trip reproduces the
    matrix bit for bit.
    """
    return GridCopula._trusted(op.matrix)


def conditional_expectation_form(intervals, n: int) -> DiscreteMarkovOperator:
    """Block-averaging operator: uniform average on each interval of cells,
    identity off the blocks.

    Interval endpoints must be multiples of 1/n; misaligned families are
    rejected with the nearest aligned suggestion.  The result is an
    idempotent Markov operator, doubly stochastic by construction (each
    block row and column averages over its own block), so it is not
    validated again.
    """
    n = _check_count(n, "n")
    if not isinstance(intervals, IntervalFamily):
        intervals = IntervalFamily.from_list(intervals)
    a = np.eye(n)
    for start, stop in intervals.aligned_cell_ranges(n):
        size = stop - start
        a[start:stop, start:stop] = 1.0 / size
        a[start:stop, :start] = 0.0
        a[start:stop, stop:] = 0.0
    return DiscreteMarkovOperator._trusted(a)


def fixed_sigma_field(op: DiscreteMarkovOperator, tol=1e-9):
    """Generating partition of the sets fixed by an idempotent operator.

    An idempotent doubly stochastic matrix is the block average over its
    classes, so each row's support {a > tol} is its class, named by its
    first cell.  Rows whose support differs from their first cell's row
    are refused, as are rows with no entry above ``tol``, and each
    class's indicator must be fixed by the operator within ``tol``.  Only
    unions of grid cells are searched, which is exhaustive for grid-exact
    operators.
    """
    if not op.is_idempotent(tol):
        raise DomainError(f"operator is not idempotent within {tol:g}")
    a = op.matrix
    support = a > tol
    first = support.argmax(axis=1)
    if not support[np.arange(op.n), first].all():
        raise DomainError(f"a row has no entry above {tol:g}")
    if np.any(support != support[first]):
        raise DomainError(f"row supports overlap without coinciding within {tol:g}")
    heads = np.flatnonzero(first == np.arange(op.n))  # sorted by first cell
    indicators = support[heads].T.astype(float)
    drift = np.max(np.abs(a @ indicators - indicators), axis=0)
    parts = [tuple(int(j) for j in np.flatnonzero(support[h])) for h in heads]
    for part, gap in zip(parts, drift):
        if gap > tol:
            raise DomainError(
                f"component {part} is not fixed by the operator within {tol:g}"
            )
    return parts
