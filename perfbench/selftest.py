#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that each run validates and prints every metric BENCHMARK.json
names, by name and with its unit, both in the report and in the final JSON
line. Then it corrupts one output before ValidateOutput and checks that the
failure shows: the run exits non-zero, reports correct = false, and its
cell_fail_ratio rises above 0. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"] + list(extra)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines[:-1], result, proc.stderr


def printed(lines, name):
    """The report line for metric `name`, as (value, unit), or None."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == name:
            return float(parts[1]), parts[2]
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result, stderr = run(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  "%s validates" % tag)
            if result is None:
                print(stderr[-2000:])
                continue
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s attempted %d, failed %d" % (
                      tag, result["attempted"], result["failed"]))
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, "%s JSON holds exactly the %s metrics "
                  "with their units" % (tag, key))
            for name, unit in wanted.items():
                line = printed(lines, name)
                check(line is not None and line[1] == unit,
                      "%s prints %s [%s]" % (tag, name, unit))
            if trace == 0:
                line = printed(lines, "cell_fail_ratio")
                check(line is not None and line[0] == 0.0,
                      "%s prints cell_fail_ratio 0" % tag)

    code, lines, result, _ = run(spec["workloads"][0]["name"], 0,
                                 "--corrupt-one")
    line = printed(lines, "cell_fail_ratio")
    check(code != 0, "corrupted output: run exits non-zero")
    check(result is not None and not result["correct"] and
          result["failed"] >= 1, "corrupted output: correct is false")
    check(line is not None and line[0] > 0.0,
          "corrupted output: cell_fail_ratio rises above 0")

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
