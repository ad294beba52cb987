"""copula-markov benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: grid-large, grid-iterate, closed-form, cli (see README.md).
The package is imported from ./src of the checkout; the run fails if it
is not there.  One closed-loop client: a worker process runs the task
list pass after pass, each task to completion before the next, and sends
every answer back to this process, which checks it against its oracle
before the worker starts the next task.  So the worker's time and memory
hold the package's work and its inputs, never an oracle.  Passes go on
until the next one would end after S seconds, and at least three run, so
that each task's median over the passes drops one disturbed pass.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 a warm-up pass runs first, then untraced and traced passes
alternate, and it reports the per-layer metrics from the traced passes,
whose spans are written to .perfbench/trace-<workload>-s<seed>-pass<i>.json.
Earlier stdout lines list the environment, failed tasks, pass times and
fail_ratio with its base.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy loads; children inherit the environment
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("grid-large", "grid-iterate", "closed-form", "cli")
SETUP_REPEATS = 5
MIN_PASSES = 3
# raw A @ B sizes for env.matmul_peak_gflops: the grid workloads' matmuls
MATMUL_SIZES = (512, 2048)

# per-layer metrics: inclusive span times, counters, layers for self time and
# CLI subcommands; BENCHMARK.json lists the resulting names, README.md what each moves
SPAN_MS = [
    "core.validate", "core.prefix", "core.sample", "metrics.d_inf", "metrics.d1_metric",
    "metrics.d1_grid", "metrics.d1_closed", "metrics.sobolev", "algebra.markov_product",
    "algebra.mixed_product", "algebra.is_idempotent", "algebra.iterate", "algebra.power",
    "algebra.extract_pi", "monotonicity.check_si", "monotonicity.dominance",
    "monotonicity.complete_dependence", "monotonicity.quadrant", "operators.apply",
    "operators.fixed_sigma_field", "families.discretize", "families.sample",
    "families.is_si_archimedean", "serialize.load", "serialize.save",
]
COUNTS = [
    "core.grid_constructions", "core.cdf_points", "core.discretize_calls",
    "algebra.iterate_steps", "families.pd_calls", "families.pd_points",
    "serialize.bytes_read", "serialize.bytes_written",
]
LAYERS = ["core", "families", "algebra", "metrics", "monotonicity", "operators", "serialize", "cli"]
CLI_COMMANDS = ["check", "product", "iterate", "derivative-trace", "decompose", "metric"]


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def check_source():
    if not os.path.isfile(os.path.join(SRC, "copula_markov", "__init__.py")):
        fail(f"no package source at {SRC}/copula_markov; run from the root of a checkout")


def import_package():
    check_source()
    sys.path[:0] = [SRC, HERE]
    import copula_markov

    if not os.path.abspath(copula_markov.__file__).startswith(SRC + os.sep):
        fail(f"copula_markov imported from {copula_markov.__file__}, not from {SRC}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def set_up(workload, seed, workdir):
    """Build the task list (the package is already imported)."""
    if workload == "cli":
        import cliwork

        os.makedirs(workdir, exist_ok=True)
        return cliwork.build(seed, workdir, child_env())
    import workloads

    return workloads.LIBRARY[workload](seed)


def time_set_up(workload, seed):
    """Median wall time of fresh processes that only set up the workload."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT, env=child_env(),
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": int(BLAS_THREADS),
        "seed": seed, "commit": commit,
    }


def matmul_peak_gflops():
    """Raw A @ B rate in the same run: the ceiling for algebra.matmul_gflops."""
    import numpy as np

    rng = np.random.default_rng(0)
    best = 0.0
    for n in MATMUL_SIZES:
        a, b = rng.random((n, n)), rng.random((n, n))
        times = []
        for _ in range(3):
            start = perf_counter()
            a @ b
            times.append(perf_counter() - start)
        best = max(best, 2.0 * n**3 / statistics.median(times) / 1e9)
    return best


def execute(task, tracer):
    """Run one task in its span; returns (seconds, answer, error text or None)."""
    with tracer.span(f"bench.{task.name}"):
        start = perf_counter()
        try:
            answer = task.run(tracer)
        except Exception:  # noqa: BLE001 - a raising task is a failed task
            return perf_counter() - start, None, traceback.format_exc(limit=3)
        return perf_counter() - start, answer, None


def judge(task, answer, error):
    """The one-line reason a task failed, or None if its answer passes its oracle."""
    if error is None:
        try:
            task.check(answer)
        except Exception:  # noqa: BLE001 - a raising oracle is a failed task
            error = traceback.format_exc(limit=3)
    return None if error is None else error.strip().splitlines()[-1]


def serve(workload, seed, workdir):
    """The worker: set up, then run each pass the parent asks for.

    For each task it sends (seconds, answer, error) and waits for the
    parent's go-ahead, so that no check overlaps a timed task; after a
    pass it sends the spans and counts of a traced pass, or None.
    Protocol 5 writes array data straight from the answer into the pipe,
    without a copy that would count in the worker's peak memory.
    """
    from tracing import NullTracer, Tracer, installed

    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print must not corrupt the replies
    tasks = set_up(workload, seed, workdir)
    pickle.dump(None, replies)  # ready
    replies.flush()
    while (traced := pickle.load(requests)) is not None:
        tracer = Tracer() if traced else NullTracer()
        with installed(tracer) if traced else nullcontext():
            for task in tasks:
                pickle.dump(execute(task, tracer), replies, protocol=5)
                replies.flush()
                requests.read(1)
        pickle.dump((tracer.spans, tracer.counts) if traced else None, replies, protocol=5)
        replies.flush()


class Worker:
    """The measured process, seen from the parent, which runs the checks."""

    def __init__(self, workload, seed, workdir):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", workdir,
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=child_env(),
        )
        self.peak_kb = None

    def run_pass(self, tasks, traced):
        """One pass; returns (per-task seconds, failures, kept answers, tracer or None).

        Only the small per-invocation records of the cli workload are kept,
        so memory does not grow with the number of passes.
        """
        from tracing import Tracer

        pickle.dump(traced, self.proc.stdin)
        self.proc.stdin.flush()
        times, failed, answers = [], [], []
        for task in tasks:
            seconds, answer, error = pickle.load(self.proc.stdout)
            reason = judge(task, answer, error)
            self.proc.stdin.write(b".")
            self.proc.stdin.flush()
            times.append(seconds)
            if reason is not None:
                failed.append((task.name, reason))
            answers.append(answer if task.keep else None)
        record = pickle.load(self.proc.stdout)
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.spans, tracer.counts = record
        return times, failed, answers, tracer

    def __enter__(self):
        try:
            pickle.load(self.proc.stdout)  # the worker's set-up is done
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def __exit__(self, kind, value, tb):
        """Stop the worker and keep its peak resident set (ru_maxrss, kB)."""
        if kind is not None:
            self.proc.kill()
        try:
            if kind is None:
                pickle.dump(None, self.proc.stdin)
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if kind is None and self.proc.returncode != 0:
            fail(f"worker exited with code {self.proc.returncode}")
        self.peak_kb = usage.ru_maxrss


def run(seconds, trace, tasks, worker):
    if trace:
        worker.run_pass(tasks, False)  # warm-up, so the overhead ratio compares warm passes
    passes = []  # (traced, task seconds, failed, answers, tracer)
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, *worker.run_pass(tasks, traced)))
        if len(passes) >= MIN_PASSES and perf_counter() - start + sum(passes[-1][1]) > seconds:
            return passes


def task_medians(passes):
    """Each task's median latency over ``passes``.

    Quantiles are taken over these, one value per task, so that they do not
    move with the number of passes and rest on every pass.
    """
    return [statistics.median(times) for times in zip(*(p[1] for p in passes))]


def task_p90(passes):
    """p90 over the task list of each task's median latency, in seconds."""
    return statistics.quantiles(task_medians(passes), n=10)[8]


def end_to_end(workload, passes, setup_s, worker_peak_kb):
    untraced = [p for p in passes if not p[0]]
    if workload == "cli":
        # the largest invocation, each at its median over the passes, so that
        # one stray high-water mark in one pass does not set the figure
        peak_kb = max(statistics.median(a.max_rss_kb for a in runs if a is not None)
                      for runs in zip(*(p[3] for p in untraced)) if any(runs))
    else:
        peak_kb = worker_peak_kb
    attempted = sum(len(p[1]) for p in untraced)
    failed = sum(len(p[2]) for p in untraced)
    return attempted, failed, {
        # one pass at each task's median: a disturbance of one task in one
        # pass is dropped, where a median of pass sums would keep it
        "wall_s": (sum(task_medians(untraced)), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(workload, tasks, passes):
    traced = [p for p in passes if p[0]]
    plain = [p for p in passes if not p[0]]
    rows = []
    for _, times, _, answers, tracer in traced:
        inclusive, self_time = tracer.summary()
        c = tracer.counts
        row = {f"{name}_ms": 1e3 * inclusive.get(name, 0.0) for name in SPAN_MS}
        row.update({name: float(c.get(name, 0)) for name in COUNTS})
        row.update({f"{layer}.self_ms": 1e3 * self_time.get(layer, 0.0) for layer in LAYERS})
        steps = c.get("algebra.iterate_steps", 0)
        row["algebra.iterate_step_ms"] = row["algebra.iterate_ms"] / steps if steps else 0.0
        pd_calls = c.get("families.pd_calls", 0)
        row["families.points_per_pd_call"] = c.get("families.pd_points", 0) / pd_calls if pd_calls else 0.0
        product_s = inclusive.get("algebra.markov_product", 0.0) + inclusive.get("algebra.iterate", 0.0)
        flops = c.get("algebra.matmul_flops", 0)
        row["algebra.matmul_gflops"] = flops / product_s / 1e9 if product_s else 0.0
        if workload == "cli":
            by_command = {cmd: [] for cmd in CLI_COMMANDS}
            for task, seconds, answer in zip(tasks, times, answers):
                by_command[task.name.split(":", 1)[0][4:]].append(seconds)
            for cmd, values in by_command.items():
                row[f"cli.{cmd}_ms"] = 1e3 * statistics.median(values)
            valid = [a for a in answers if a is not None and a.inproc is not None]
            row["cli.interpreter_ms"] = 1e3 * statistics.median(a.wall - a.inproc for a in valid)
            row["cli.import_ms"] = 1e3 * statistics.median(
                end - start for name, _, start, end in tracer.spans if name == "cli.import")
        else:
            row.update({f"cli.{cmd}_ms": 0.0 for cmd in CLI_COMMANDS})
            row["cli.interpreter_ms"] = row["cli.import_ms"] = 0.0
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["bench.trace_overhead"] = statistics.median(sum(p[1]) for p in traced) / statistics.median(
        sum(p[1]) for p in plain)
    metrics["bench.task_p50_ms"] = 1e3 * statistics.median(task_medians(plain))
    metrics["bench.task_p90_ms"] = 1e3 * task_p90(plain)
    return metrics


def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.startswith("serialize.bytes"):
        return "bytes"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name in ("bench.trace_overhead", "families.points_per_pd_call"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    check_source()  # fail fast, before spawning any child
    if args.worker:
        import_package()
        serve(args.workload, args.seed, args.worker)
        return 0
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.setup_only:
            import_package()
            set_up(args.workload, args.seed, workdir)
            return 0
        # the worker starts first: a Linux child's ru_maxrss begins at the
        # peak of the process that spawned it, and this one holds nothing yet
        with Worker(args.workload, args.seed, workdir) as worker:
            import_package()
            setup_s = time_set_up(args.workload, args.seed)
            tasks = set_up(args.workload, args.seed, workdir)  # this copy only checks answers
            env = environment(args.seed)
            print("# env " + json.dumps(env, sort_keys=True))
            passes = run(args.seconds, bool(args.trace), tasks, worker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import workloads

    reasons = {name: reason for p in passes for name, reason in p[2]}
    failures = sorted(reasons)
    for name in failures:
        print(f"# failed {name}: {reasons[name]}")
    print("# pass seconds " + " ".join(f"{sum(p[1]):.4f}{'t' if p[0] else ''}" for p in passes))
    correct = set(failures) <= workloads.KNOWN_DEFECTS
    attempted, failed, e2e = end_to_end(args.workload, passes, setup_s, worker.peak_kb)
    print(f"# fail_ratio {failed / attempted:.6g} = {failed}/{attempted} tasks of the untraced passes")
    untraced = [p for p in passes if not p[0]]
    p90 = task_p90(untraced)
    beyond = sum(t > p90 for p in untraced for t in p[1])
    print(f"# task p90 {1e3 * p90:.1f} ms has {beyond} of {attempted} task latencies beyond it")
    if args.trace:
        metrics = per_layer(args.workload, tasks, passes)
        metrics["env.matmul_peak_gflops"] = matmul_peak_gflops()
        os.makedirs(OUT, exist_ok=True)
        for i, p in enumerate(passes):
            if p[0]:
                p[4].dump(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}-pass{i}.json"),
                          {"workload": args.workload, "env": env})
        result = {name: {"value": value, "unit": unit(name)} for name, value in sorted(metrics.items())}
    else:
        result = {name: {"value": value, "unit": u} for name, (value, u) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
