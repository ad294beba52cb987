"""Run every workload once and print all its metrics by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N]

One row per metric and workload, with fail_ratio and its base (failed
tasks over attempted tasks) for each workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid-large", "grid-iterate", "closed-form", "cli")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        failed, attempted = result["failed"], result["attempted"]
        print(f"{workload}: correct={result['correct']} "
              f"fail_ratio={failed / attempted:.4g} ({failed}/{attempted} tasks)")
        for line in lines[:-1]:
            if line.startswith("# failed"):
                print("  " + line[2:])
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
