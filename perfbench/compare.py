#!/usr/bin/env python3
"""Compares two sets of perfbench records, refusing unlike inputs or hosts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by run.py (.bench_out/*.json), e.g. one
set from the parent commit and one from a change, run with the same seeds.
Records are paired by file name (workload, seed, trace). A pair whose input
fingerprints differ (vertices, edges, file bytes, checksum) or whose hosts
differ (CPU model, nproc, compiler, build type) is refused: the comparison
would measure a different workload or machine, not the change. Otherwise it
prints, per workload and metric, the median of each side and their ratio.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")


def load(directory):
    records = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                records[name] = json.load(f)
    return records


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    pairs = sorted(set(base) & set(new))
    if not pairs:
        print("no records with the same workload, seed and trace",
              file=sys.stderr)
        return 2
    refused = []
    for name in pairs:
        if base[name]["input"] != new[name]["input"]:
            refused.append("%s: inputs differ: %s vs %s" % (
                name, base[name]["input"], new[name]["input"]))
        for key in HOST_KEYS:
            if base[name]["host"][key] != new[name]["host"][key]:
                refused.append("%s: host %s differs: %r vs %r" % (
                    name, key, base[name]["host"][key],
                    new[name]["host"][key]))
    if refused:
        print("refusing to compare:\n  " + "\n  ".join(refused),
              file=sys.stderr)
        return 2

    table = {}
    for name in pairs:
        workload = base[name]["raw"]["workload"]
        for side, records in (("base", base), ("new", new)):
            for metric, v in records[name]["result"]["metrics"].items():
                key = (workload, metric, v["unit"])
                table.setdefault(key, {"base": [], "new": []})[side].append(
                    v["value"])
    print("%-16s %-32s %14s %14s %8s %s" % (
        "workload", "metric", "base median", "new median", "new/base",
        "pairs"))
    for (workload, metric, unit), sides in sorted(table.items()):
        b = statistics.median(sides["base"])
        n = statistics.median(sides["new"])
        ratio = "%8.3f" % (n / b) if b else "%8s" % "-"
        print("%-16s %-32s %14.6g %14.6g %s %d  %s" % (
            workload, metric, b, n, ratio, len(sides["base"]), unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
