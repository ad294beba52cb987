"""Tests of the benchmark itself, on reduced sizes.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import copula_markov as cm  # noqa: E402
import cliwork  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer, installed  # noqa: E402

SMALL = {
    "grid-large": lambda seed: workloads.grid_large(seed, big=64, mid=32, mixed=(8, 12), samples=4000),
    "grid-iterate": lambda seed: workloads.grid_iterate(seed, sizes=(32, 64), op_n=32, power_k=5),
    "closed-form": lambda seed: workloads.closed_form(seed, grid_n=64, samples=2000),
}
CLI_SMALL = {"product_n": 16, "iterate_n": 32}


def failures(tasks):
    tracer = NullTracer()
    return {task.name for task in tasks if run.judge(task, *run.execute(task, tracer)[1:])}


def answers(tasks, tracer):
    return [task.run(tracer) for task in tasks]


def same(a, b):
    """Exact equality through verdict dataclasses, carriers and arrays."""
    if isinstance(a, cliwork.Invocation):
        return a.code == b.code and a.stdout == b.stdout
    if isinstance(a, cm.GridCopula):
        return np.array_equal(a.matrix, b.matrix)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.fixture(scope="module")
def cli_tasks(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("cli"))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    return cliwork.build(3, workdir, env, **CLI_SMALL)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_seeds_change_inputs_not_outcomes(workload):
    first, second = SMALL[workload](1), SMALL[workload](2)
    assert [t.name for t in first] == [t.name for t in second]
    assert not same(answers(first, NullTracer()), answers(second, NullTracer()))
    expected = {name for name in workloads.KNOWN_DEFECTS if name.startswith("closed.")}
    expected = expected if workload == "closed-form" else set()
    assert failures(first) == failures(second) == expected


def test_cli_seeds_change_inputs_not_outcomes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    specs = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        tasks = cliwork.build(seed, str(workdir), env, **CLI_SMALL)
        specs.append((workdir / "a.json").read_text())
        assert failures(tasks) == set()
    assert specs[0] != specs[1]


def test_perturbed_product_raises_fail_ratio(monkeypatch):
    tasks = SMALL["grid-large"](1)
    assert failures(tasks) == set()
    product = cm.markov_product

    def off_by_1e6(c1, c2, **kwargs):
        g = product(c1, c2, **kwargs)
        return cm.GridCopula((1 - 1e-6) * g.matrix + 1e-6 / g.n)

    monkeypatch.setattr(cm, "markov_product", off_by_1e6)
    assert failures(tasks) == {"large.markov_product.n64", "large.mixed_product.8x12"}


def test_flipped_verdict_raises_fail_ratio(monkeypatch):
    tasks = SMALL["grid-large"](1)
    check_si = cm.check_si
    monkeypatch.setattr(cm, "check_si", lambda *a, **k: dataclasses.replace(
        check_si(*a, **k), si=not check_si(*a, **k).si))
    assert failures(tasks) == {"large.check_si1.n64", "large.check_si2.n64"}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_trace_wrappers_leave_answers_unchanged(workload):
    tasks = SMALL[workload](4)
    plain = answers(tasks, NullTracer())
    tracer = Tracer()
    original = cm.GridCopula.__post_init__
    with installed(tracer):
        traced = answers(tasks, tracer)
    assert cm.GridCopula.__post_init__ is original
    assert all(same(a, b) for a, b in zip(plain, traced))
    assert tracer.counts["core.grid_constructions"] > 0
    inclusive, self_time = tracer.summary()
    assert sum(self_time.values()) == pytest.approx(
        sum(end - start for _, up, start, end in tracer.spans if up < 0))


def test_traced_cli_prints_the_same(cli_tasks):
    picked = [t for t in cli_tasks if t.name.split(":")[0] in ("cli.product", "cli.iterate", "cli.metric")]
    plain = answers(picked, NullTracer())
    tracer = Tracer()
    traced = answers(picked, tracer)
    assert all(same(a, b) for a, b in zip(plain, traced))
    names = {span[0] for span in tracer.spans}
    assert {"cli.import", "cli.main", "serialize.load", "serialize.save"} <= names
    assert tracer.counts["serialize.bytes_read"] > 0


def test_worker_pass_is_checked_here(tmp_path):
    tasks = workloads.grid_iterate(5)
    with run.Worker("grid-iterate", 5, str(tmp_path)) as worker:
        times, failed, answers, tracer = worker.run_pass(tasks, True)
    assert failed == [] and len(times) == len(tasks)
    assert answers == [None] * len(tasks)
    assert tracer.counts["algebra.iterate_steps"] > 0
    assert worker.proc.returncode == 0 and worker.peak_kb > 0


def test_launched_invocation_reports_its_own_peak(tmp_path):
    held = np.ones(256 * 2**20 // 8)  # this process's high-water mark passes 256 MB
    launcher = cliwork.Launcher(dict(os.environ))
    code, _, max_rss_kb = launcher.run([sys.executable, "-c", "pass"], str(tmp_path),
                                       str(tmp_path / "stdout.bin"))
    launcher.close()
    assert code == 0 and max_rss_kb < held.nbytes / 2048
