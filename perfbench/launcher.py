"""Starts the cli workload's invocations from a process that holds little.

On Linux a child's ``ru_maxrss`` begins at the high-water mark of the
process that spawned it (``subprocess`` uses vfork, and exec records the
spawner's peak for the child), so invocations spawned by a process that
holds numpy and the benchmark's inputs would report that process's peak.
This one imports nothing heavy.  It reads one JSON request per stdin line,
``[argv, cwd, stdout_path]``, runs it to completion with stderr discarded
and answers with one JSON line, ``[exit_code, wall_seconds, max_rss_kb]``.
It exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main():
    for line in sys.stdin:
        argv, cwd, out_path = json.loads(line)
        with open(out_path, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=cwd)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, wall, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
