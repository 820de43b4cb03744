"""Record reference digests and exact counts for (workload, seed) pairs.

    python3 perfbench/record.py --seeds 0-63 [--workload NAME ...]

For each pair one traced ``stclab.cli.main`` call is made; its output must
pass every invariant in workloads.check_output.  The digests, per-operation
digests and exact counts go to perfbench/reference.json, which run.py
compares every later call against.  Record only from a commit whose outputs
are known good: the reference is what a change must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import worker
import workloads
from tracer import Tracer


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seeds", required=True, help="e.g. 0-63 or 1,7,42")
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    os.environ.update(run.THREAD_PINS)              # before numpy is imported
    worker.setup()
    data = json.loads(run.REFERENCE.read_text())
    for name in args.workload or sorted(workloads.WORKLOADS):
        params = workloads.WORKLOADS[name]
        entry = data["workloads"].setdefault(name, {"params": params, "seeds": {}})
        if entry["params"] != params:
            entry.update(params=params, seeds={})      # old digests are void
        for seed in parse_seeds(args.seeds):
            call = worker.run_call(params, seed, Tracer())
            bad = [p for _, p in call["ops"] if p] + ([call["error"]] if call["error"] else [])
            if call["rc"] != 0 or bad:
                print("error: %s seed %d: %s" % (name, seed, bad or call["rc"]),
                      file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = {
                "digest": call["digest"], "ops": [d for d, _ in call["ops"]],
                "counts": call["counts"]}
            print("%s seed %d %s %s" % (name, seed, call["digest"], call["counts"]),
                  flush=True)
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
