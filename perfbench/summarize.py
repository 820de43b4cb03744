"""Summarize the runs in perfbench/results/ as one JSON row per workload.

    python3 perfbench/summarize.py > summary.json

For every workload with results, each end-to-end metric gets the median,
quartiles and quartile spread (Q3 - Q1 over the median) across the untraced
runs, and each per-layer metric the median across the traced runs.  Rows
also name the commit, source digest and seeds they come from.
perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import json
import statistics
import sys

import run


def spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "runs": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "runs": len(values)}


def main() -> int:
    rows = []
    for workload in run.workloads.WORKLOADS:
        runs = {0: [], 1: []}
        for path in sorted(run.RESULTS.glob("%s-seed*-trace*.json" % workload)):
            record = json.loads(path.read_text())
            runs[record["manifest"]["trace"]].append(record)
        if not runs[0] and not runs[1]:
            continue
        first = (runs[0] or runs[1])[0]["manifest"]
        row = {"workload": workload, "params": first["params"],
               "git_commit": first["git_commit"], "src_sha256": first["src_sha256"],
               "python": first["python"], "numpy": first["numpy"], "nproc": first["nproc"],
               "seconds": first["seconds"],
               "all_correct": all(r["correct"] for r in runs[0] + runs[1]),
               "untraced_seeds": sorted(r["manifest"]["seed"] for r in runs[0]),
               "traced_seeds": sorted(r["manifest"]["seed"] for r in runs[1])}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if runs[trace]:
                names = runs[trace][0]["metrics"]
                row[key] = {n: spread([r["metrics"][n] for r in runs[trace]]) for n in names}
        rows.append(row)
    json.dump(rows, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
