"""The README's python examples run, and their comments hold."""

import ast
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks():
    text = README.read_text(encoding="utf-8")
    return [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]


@pytest.fixture(scope="module")
def readme():
    """The README's python blocks run in order in one namespace: that
    namespace, and each bare expression's value keyed by its source text."""
    namespace, values = {}, {}
    for block in _blocks():
        for stmt in ast.parse(block).body:
            code = ast.get_source_segment(block, stmt)
            if isinstance(stmt, ast.Expr):
                values[code] = eval(code, namespace)
            else:
                exec(code, namespace)
    return namespace, values


def test_the_readme_has_two_python_blocks():
    assert len(_blocks()) == 2


def test_the_readme_grid_example_holds(readme):
    ns, values = readme
    assert values["c.cdf(1/3, 1/3)"] == pytest.approx(2 / 9, abs=1e-15)
    assert values["c.partial_derivative(1, 0.1, 1/3)"] == pytest.approx(2 / 3, abs=1e-15)
    assert values["check_si(c, component=1).si"] is True
    assert values["check_si(c, component=2).si"] is False
    assert ns["check_si"](ns["c"], component=2).witness is not None
    assert ns["square"].matrix == pytest.approx(ns["A"] @ ns["A"], abs=1e-15)
    assert values["power(c, 50)"].matrix == pytest.approx(1 / 3, abs=1e-12)
    assert values["report.intervals.to_list()"] == [[0.0, 1.0]]
    assert ns["check_si"](ns["flipped"]).sd
    assert values["sobolev_diagonal(IndependenceCopula())"] == pytest.approx(2 / 3, abs=1e-12)


def test_the_readme_closed_form_example_holds(readme):
    _, values = readme
    assert values["is_si_archimedean(clayton_generator(2.0))"] is True
    assert values["ev.discretize(64)"].n == 64
