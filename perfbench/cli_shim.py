"""Traced stand-in for ``python -m copula_markov``.

Usage: ``python cli_shim.py TRACE_FILE ARGS...``.  Runs the package's CLI
``main(ARGS)`` with the benchmark's wrappers installed, times the package
import and each spec read and write, and writes the spans and counters to
TRACE_FILE.  Stdout and the exit code are the CLI's own.
"""

import json
import os
import sys
from time import perf_counter

start = perf_counter()
import copula_markov.cli as cli  # noqa: E402

imported = perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import Tracer, installed  # noqa: E402


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(["cli.import", -1, start, imported])

    def traced(func, name, key):
        def wrapper(c_or_path, *rest):
            path = rest[0] if rest else c_or_path
            with tracer.span(name):
                result = func(c_or_path, *rest)
            tracer.count(key, os.path.getsize(path))
            return result

        return wrapper

    cli.load_copula = traced(cli.load_copula, "serialize.load", "serialize.bytes_read")
    cli.save_copula = traced(cli.save_copula, "serialize.save", "serialize.bytes_written")
    with installed(tracer), tracer.span("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"start": start, "end": perf_counter(), "spans": tracer.spans,
                   "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
