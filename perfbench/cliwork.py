"""The cli workload: serial ``python -m copula_markov`` invocations.

Set-up writes the spec files through the package's own ``save_copula``,
so spec writes are measured beside the reads the invocations make.  Each
task runs one invocation to completion (a single closed-loop client) and
checks its exit code, its JSON answer, the files it wrote, and that its
stdout is byte-identical to the same invocation in an earlier pass.

Invocations are started by ``launcher.py``, so that each one's peak
memory is its own.  In a traced pass the invocation goes through
``cli_shim.py``, which runs the same ``main`` with the benchmark's
wrappers installed and hands its spans back in a file.
"""

from __future__ import annotations

import atexit
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

import copula_markov as cm
import oracles as o
from tracing import Tracer
from workloads import PLANTED, Task, ergodic_si

HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "cli_shim.py")
LAUNCHER = os.path.join(HERE, "launcher.py")

#: rows of derivative-trace output without --points
TRACE_ROWS = 300

CHECKER3 = np.array([[2 / 3, 0.0, 1 / 3], [1 / 3, 1 / 3, 1 / 3], [0.0, 2 / 3, 1 / 3]])


@dataclass
class Invocation:
    code: int
    stdout: bytes
    wall: float
    max_rss_kb: int
    inproc: float | None = None  # seconds the traced child spent past interpreter start


class Launcher:
    """The ``launcher.py`` process; it ends when this process exits."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)
        atexit.register(self.close)

    def run(self, cmd, cwd, out_path):
        """(exit code, wall seconds, max_rss_kb) of one invocation."""
        self.proc.stdin.write(json.dumps([cmd, cwd, out_path]) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def invoke(argv, workdir, launcher, t):
    """Run one CLI invocation; spans of a traced child join ``t``."""
    traced = isinstance(t, Tracer)
    trace_file = os.path.join(workdir, "child-trace.json")
    cmd = [sys.executable, SHIM, trace_file, *argv] if traced else [
        sys.executable, "-m", "copula_markov", *argv]
    out_path = os.path.join(workdir, "stdout.bin")
    with t.span(f"cli.{argv[0]}"):
        code, wall, max_rss_kb = launcher.run(cmd, workdir, out_path)
        inproc = None
        if traced:
            with open(trace_file, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(trace_file)
            t.adopt(child["spans"], child["counts"])
            inproc = child["end"] - child["start"]
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return Invocation(code, stdout, wall, max_rss_kb, inproc)


def build(seed, workdir, env, product_n=512, iterate_n=256):
    """Write the specs into ``workdir`` and return the invocation tasks."""
    launcher = Launcher(env)
    rng = np.random.default_rng([seed, 4])
    path = partial(os.path.join, workdir)
    save = lambda c, name: cm.save_copula(c, path(name))

    pi, upper, lower = cm.IndependenceCopula(), cm.UpperFrechetCopula(), cm.LowerFrechetCopula()
    theta = float(rng.uniform(1.0, 4.0))
    blocks = o.separated_blocks(rng)
    a = o.permutation_mixture(rng, product_n)
    b = o.permutation_mixture(rng, product_n)
    ranges = o.block_layout(rng, iterate_n, PLANTED)
    planted = o.block_diagonal(iterate_n, ranges, lambda s: o.tp2_kernel(s, 0.4))
    si = ergodic_si(product_n)

    save(pi, "pi.json")
    save(upper, "m.json")
    save(lower, "w.json")
    save(cm.archimedean_copula(cm.clayton_generator(theta)), "clayton.json")
    save(cm.extreme_value_copula(cm.gumbel_pickands(2.5)), "gumbel.json")
    save(cm.GridCopula(CHECKER3), "c3.json")
    save(cm.ordinal_sum(blocks, [pi, pi]), "os.json")
    save(cm.GridCopula(a), "a.json")
    save(cm.GridCopula(b), "b.csv")
    save(cm.GridCopula(planted), "planted.json")
    save(cm.GridCopula(si), "si.csv")

    previous = {}

    def payload(inv):
        return json.loads(inv.stdout.decode())

    def spec(name):
        with open(path(name), encoding="utf-8") as fh:
            return json.load(fh)

    def matrix_file(name, reference, tol):
        def check(inv):
            if name.endswith(".csv"):
                matrix = np.loadtxt(path(name), delimiter=",", ndmin=2)
            else:
                matrix = spec(name)["matrix"]
            o.close_arrays(matrix, reference, tol, name)

        return check

    def field(key, expected):
        return lambda inv: o.expect(payload(inv)[key] == expected, f"{key}: {payload(inv)[key]!r}")

    def value(reference, tol):
        return lambda inv: o.close(payload(inv)["value"], reference, tol, "value")

    def intervals(reference, tol):
        return lambda inv: o.same_intervals(payload(inv)["intervals"], reference, tol, "intervals")

    def grid_si_check(matrix, component):
        si_ref, sd_ref, worst = o.grid_si(matrix if component == 1 else matrix.T)

        def check(inv):
            got = payload(inv)
            o.expect((got["si"], got["sd"]) == (si_ref, sd_ref), f"si/sd {got['si']}, {got['sd']}")
            o.close(got["max_violation"], worst, 1e-12, "max_violation")

        return check

    def trace_file(name, formula):
        def check(inv):
            table = np.loadtxt(path(name), delimiter=",", skiprows=1, ndmin=2)
            o.expect(table.shape == (TRACE_ROWS, 2), f"{name} has shape {table.shape}")
            o.close_arrays(table[:, 1], formula(table[:, 0]), 1e-9, name)

        return check

    def iterate_dir(inv):
        report = payload(inv)
        with open(path("iterate-out", "report.json"), encoding="utf-8") as fh:
            o.expect(json.load(fh) == report, "report.json differs from stdout")
        with open(path("iterate-out", "steps.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        o.expect(rows[0] == "step,d_inf_gap,d1_gap", "steps.csv header")
        o.expect(len(rows) == report["n_steps"] + 1, "one steps.csv row per step")
        o.same_intervals(report["intervals"], o.ranges_to_intervals(iterate_n, ranges), 1e-12,
                         "limit intervals")

    specs = [
        # (argv, expected exit code, checks)
        ("check clayton.json --property si1", 0, [field("holds", True)]),
        ("check clayton.json --property pqd", 0, [field("verdict", "PQD")]),
        ("check gumbel.json --property si2", 0, [field("holds", True)]),
        ("check c3.json --property si2", 1, [grid_si_check(CHECKER3, 2)]),
        ("check c3.json --property idempotent", 1, [field("idempotent", False)]),
        ("check w.json --property sd1", 0, [field("holds", True)]),
        ("check w.json --property nqd", 0, [field("verdict", "NQD")]),
        ("check m.json --property complete-dependence", 0, [field("gap", 0.0)]),
        ("check os.json --property idempotent", 0, [field("gap", 0.0)]),
        ("check a.json --property si1", 1, [grid_si_check(a, 1)]),
        ("check si.csv --property si1", 0, [grid_si_check(si, 1)]),
        ("check b.csv --property complete-dependence", 1, [field("completely_dependent", False)]),
        ("product pi.json c3.json --out pi-c3.json", 0,
         [lambda inv: o.expect(spec("pi-c3.json") == {"type": "product"}, "not independence")]),
        ("product c3.json c3.json --out c3-c3.csv", 0, [matrix_file("c3-c3.csv", CHECKER3 @ CHECKER3, 1e-15)]),
        ("product w.json w.json --out w-w.json", 0, [matrix_file("w-w.json", np.eye(128), 1e-15)]),
        ("product a.json b.csv --out a-b.csv", 0, [matrix_file("a-b.csv", a @ b, 1e-12)]),
        ("product b.csv a.json --out b-a.json", 0, [matrix_file("b-a.json", b @ a, 1e-12)]),
        ("iterate c3.json", 0, [intervals([(0.0, 1.0)], 0.0)]),
        ("iterate planted.json --out-dir iterate-out", 0, [iterate_dir]),
        ("derivative-trace clayton.json --at 0.3 --out clayton-d1.csv", 0,
         [trace_file("clayton-d1.csv", lambda x: o.clayton_d1(theta, x, 0.3))]),
        ("derivative-trace w.json --component 2 --at 0.4 --out w-d2.csv", 0,
         [trace_file("w-d2.csv", lambda x: (x >= 0.6).astype(float))]),
        ("decompose m.json", 0, [intervals([], 0.0)]),
        ("decompose pi.json", 0, [intervals([(0.0, 1.0)], 0.0)]),
        ("decompose os.json", 0, [intervals(blocks, 1e-9)]),
        ("metric pi.json m.json --metric dinf", 0, [value(0.25, 1e-15)]),
        ("metric c3.json --metric sobolev-diag", 0,
         [value(o.grid_diagonal_sobolev(CHECKER3 @ CHECKER3), 1e-14)]),
        ("metric c3.json pi.json --metric d1", 0, [value(o.grid_d1(CHECKER3, np.full((3, 3), 1 / 3)), 1e-12)]),
        ("metric pi.json m.json --metric d1", 0, [value(1.0 / 3.0, 1e-9)]),
    ]

    def task(line, code, checks):
        argv = line.split()

        def check(inv):
            o.expect(inv.code == code, f"exit code {inv.code} != {code}")
            for c in checks:
                c(inv)
            seen = previous.setdefault(line, inv.stdout)
            o.expect(seen == inv.stdout, "stdout differs from an earlier identical invocation")

        return Task(f"cli.{argv[0]}:{' '.join(argv[1:])}",
                    lambda t: invoke(argv, workdir, launcher, t), check, keep=True)

    return [task(*spec) for spec in specs]
