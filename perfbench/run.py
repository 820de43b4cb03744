"""stc-lab benchmark: simulate sweeps in both modes and the INVARIANCE audit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload uncoded_sweep --seed 7 --seconds 30 --trace 0

Workloads (defined in workloads.py): ``uncoded_sweep``, ``trellis_sweep``,
``invariance_audit``.  Each run starts fresh processes with every BLAS
thread variable pinned to 1:

* SETUP_PROBES set-up probes, each between two baseline probes, then one
  worker.  Set-up time is the time from spawning the process until stc-lab
  is imported and ``default_trellis()``, ``build_constellation()`` and
  ``matrix_stack()`` have returned.
* The worker makes a small warm-up call, then calls ``stclab.cli.main``
  in-process with the full workload until ``--seconds`` have passed.

Every time is taken at nominal machine speed (calibrate.py): a call's time
is scaled by a fixed reference kernel timed around it in the same process,
and a set-up time by a bare ``import numpy`` process spawned around it, each
over its nominal time.  On a shared host this removes most of the drift in
machine speed; the raw times are printed and written too.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: median set-up time over the set-up probes of the run.
* ``work_units_per_s``: median over calls of work per second.  Work is
  code sections simulated (``sections_per_s``) on the simulate sweeps and
  INVARIANCE channel draws (``trials_per_s``) on ``invariance_audit``.
* ``peak_rss_mb``: peak resident memory of the worker.

With ``--trace 1`` untraced and traced calls alternate and the result
holds the per-layer metrics: self time per call of each traced function,
call and draw counts, Viterbi call-time percentiles, set-up phases, exact
simulate counts and the tracing overhead.  Spans are written to
``perfbench/results/<workload>.spans.csv.gz``; every run also writes its
manifest, metrics and calls to ``perfbench/results/``.

Correctness: every call's output is split into operations (one SNR point,
or one audit verdict line with the lines before it).  An operation fails if
the call raised or exited non-zero, if the output breaks an invariant
(early stop only at ``max_frame_errors``, BER/FER equal to the counts,
``audit.overall=PASS``), or if its digest differs from reference.json for
this seed, or, for a seed without a reference, from the first call of the
run.  Counts that must repeat exactly (workloads.EXACT_COUNTS) are compared
across the calls of the run, where a difference makes the run incorrect,
and with reference.json, where a difference is flagged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import NOMINAL_BASELINE_S, NOMINAL_KERNEL_S  # noqa: E402

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"

END_TO_END_UNITS = {"setup_s": "s", "work_units_per_s": "units/s", "peak_rss_mb": "MiB"}
WORK_NAMES = {"simulate": ("sections_per_s", "sections/s"),
              "audit": ("trials_per_s", "trials/s")}
LAYER_METRICS = (
    ("simulate.run_point", "self_s"), ("simulate.frame_rng", "self_s"),
    ("channel.standard_normal", "calls"), ("channel.standard_normal", "draws"),
    ("channel.standard_normal", "self_s"),
    ("channel.sample_channel", "calls"), ("channel.sample_channel", "self_s"),
    ("detectors.viterbi_decode", "calls"), ("detectors.viterbi_decode", "self_s"),
    ("detectors.viterbi_decode", "sections"),
    ("detectors.viterbi_decode", "ties_broken"),
    ("detectors.trellis_encode", "calls"), ("detectors.trellis_encode", "self_s"),
    ("channel.shape_invariance_audit", "self_s"),
    ("channel.build_equivalent_real_model", "calls"),
    ("channel.build_equivalent_real_model", "self_s"),
    ("cli.main", "self_s"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _ in LAYER_METRICS))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(argv: list, timeout: float) -> tuple:
    """Run a worker to completion; returns (spawn time, its JSON lines)."""
    env = dict(os.environ, **THREAD_PINS)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + argv,
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker %s timed out" % argv[0]) from exc
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s"
                         % (argv[0], proc.returncode, proc.stderr[-4000:]))
    return spawned, [json.loads(ln) for ln in proc.stdout.splitlines() if ln.strip()]


def probe(argv: list, started: float) -> tuple:
    """Spawn a short worker; returns its ready line and spawn-to-ready seconds."""
    spawned, (ready,) = spawn(argv, TIME_LIMIT_S - (time.monotonic() - started))
    return ready, ready["ready"] - spawned


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_reference(workload: str, params: dict, seed: int) -> dict | None:
    ref = json.loads(REFERENCE.read_text())["workloads"].get(workload)
    if ref is None:
        return None
    if ref["params"] != params:
        raise BenchError("reference.json was recorded for other %s parameters; "
                         "rerun perfbench/record.py" % workload)
    return ref["seeds"].get(str(seed))


def judge(calls: list, params: dict, reference: dict | None) -> tuple:
    """Count attempted and failed operations; collect integrity flags."""
    expected = workloads.expected_ops(params)
    want = reference["ops"] if reference else [d for d, _ in calls[0]["ops"]]
    attempted = failed = 0
    problems, flags = [], []
    for k, call in enumerate(calls):
        attempted += expected
        for j, (dig, problem) in enumerate(call["ops"]):
            if call["rc"] != 0:
                problem = "call %s" % (call["error"] or "exited %s" % call["rc"])
            elif problem is None and dig != want[j]:
                problem = "output differs from %s" % (
                    "reference.json" if reference else "the first call")
            if problem:
                failed += 1
                problems.append("call %d op %d: %s" % (k, j, problem))
    correct = failed == 0
    for name in workloads.EXACT_COUNTS:
        seen = {c["counts"][name] for c in calls if name in c["counts"]}
        if len(seen) > 1:
            correct = False
            flags.append("%s differs between calls of this run: %s" % (name, sorted(seen)))
        recorded = (reference or {}).get("counts", {}).get(name)
        if len(seen) == 1 and recorded is not None and recorded not in seen:
            flags.append("%s=%s, reference.json has %s" % (name, seen.pop(), recorded))
    return attempted, failed, correct, problems, flags


def layer_metrics(calls: list, worker: dict, setups: list) -> dict:
    traced = [c for c in calls if c["traced"]]
    plain = [c for c in calls if not c["traced"]]
    out = {}
    for layer, field in LAYER_METRICS:
        values = [c["layers"].get(layer, {}).get(field, 0) for c in traced]
        if field == "self_s":
            values = [v * NOMINAL_KERNEL_S / c["kernel_s"] for v, c in zip(values, traced)]
        out["%s.%s" % (layer, field)] = (statistics.median(values) if field == "self_s"
                                        else values[0])
    out["detectors.viterbi_decode.p50_us"] = worker.get("viterbi_p50_us", 0.0)
    out["detectors.viterbi_decode.p99_us"] = worker.get("viterbi_p99_us", 0.0)
    for phase in ("import_s", "default_trellis_s", "matrix_stack_s"):
        out["setup." + phase] = statistics.median(nominal(s, phase) for s in setups)
    for name in ("simulate.frames", "simulate.sections", "simulate.early_stopped_points"):
        out[name] = traced[0]["counts"].get(name, 0)
    out["tracing.overhead_frac"] = (statistics.median(nominal(c) for c in traced)
                                    / statistics.median(nominal(c) for c in plain) - 1.0)
    return out


def nominal(sample: dict, key: str = "wall_s") -> float:
    """A time scaled to nominal machine speed by its adjacent reference."""
    if "baseline_s" in sample:
        return sample[key] * NOMINAL_BASELINE_S / sample["baseline_s"]
    return sample[key] * NOMINAL_KERNEL_S / sample["kernel_s"]


def per_layer_units(name: str) -> str:
    field = name.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s"
    if field.endswith("_us"):
        return "us"
    if field.endswith("_frac"):
        return "ratio"
    return "count"


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "stclab" / "cli.py").is_file():
        raise BenchError("no stc-lab source tree at %s" % (ROOT / "src" / "stclab"))
    params = workloads.WORKLOADS[workload]
    reference = load_reference(workload, params, seed)
    RESULTS.mkdir(exist_ok=True)
    spans_file = RESULTS / ("%s.spans.csv.gz" % workload)

    spawn(["setup"], TIME_LIMIT_S)                 # writes bytecode caches; not counted
    setups = []
    before = probe(["baseline"], started)[1]
    for _ in range(SETUP_PROBES):
        ready, setup_s = probe(["setup"], started)
        after = probe(["baseline"], started)[1]
        setups.append(dict(ready, setup_s=setup_s, baseline_s=(before + after) / 2.0))
        before = after
    ready, worker = spawn(
        ["run", workload, str(seed), str(seconds), "1" if trace else "0", str(spans_file)],
        TIME_LIMIT_S - (time.monotonic() - started))[1]

    calls = worker["calls"]
    attempted, failed, correct, problems, flags = judge(calls, params, reference)
    plain = [c for c in calls if not c["traced"]]
    rates = [c["work"] / nominal(c) for c in plain]
    work_name, work_unit = WORK_NAMES[params["command"]]
    if trace:
        metrics = layer_metrics(calls, worker, setups)
        units = {name: per_layer_units(name) for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(nominal(s, "setup_s") for s in setups),
                   "work_units_per_s": statistics.median(rates),
                   "peak_rss_mb": worker["peak_rss_kb"] / 1024.0}
        units = END_TO_END_UNITS

    manifest = {
        "workload": workload, "params": params, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "numpy": ready["numpy"], "stclab": ready["stclab"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS, "git_commit": git_commit(),
        "src_sha256": source_digest(), "platform": platform.platform(),
    }
    digest = calls[0]["digest"]
    record = {"manifest": manifest, "correct": correct, "attempted": attempted,
              "failed": failed, "problems": problems, "integrity_flags": flags,
              "digest": digest, "reference_recorded": reference is not None,
              "metrics": metrics, "setup_samples": setups,
              "calls": [{k: c[k] for k in ("traced", "wall_s", "kernel_s", "work", "digest",
                                           "counts")}
                        for c in calls]}
    out_file = RESULTS / ("%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print("manifest %s" % json.dumps(manifest, sort_keys=True))
    if reference is None:
        print("digest.%s.seed%d=%s (no reference recorded for this seed)"
              % (workload, seed, digest))
    else:
        print("digest.%s.seed%d=%s (reference %s)" % (
            workload, seed, digest,
            "match" if digest == reference["digest"] else "MISMATCH " + reference["digest"]))
    for line in problems[:20] + ["integrity.flag: " + f for f in flags]:
        print(line)
    print("calls=%d traced=%d" % (len(calls), len(calls) - len(plain)))
    if trace:
        wall = statistics.median(nominal(c) for c in calls if c["traced"])
        shares = {layer: metrics[layer + ".self_s"] / wall for layer in LAYERS}
        print("traced time per call = %.4f s; self-time shares:" % wall)
        for layer in LAYERS:
            print("  %-38s %8.4f s  %5.1f%%" % (layer, metrics[layer + ".self_s"],
                                               100.0 * shares[layer]))
        print("largest self time: %s; simulate.* + channel.* share: %.1f%%" % (
            max(shares, key=shares.get),
            100.0 * statistics.median(
                sum(v["self_s"] for k, v in c["layers"].items()
                    if k.startswith(("simulate.", "channel."))) / c["wall_s"]
                for c in calls if c["traced"])))
    else:
        print("%s = %.1f %s at nominal speed (median of %d calls; raw %.1f)"
              % (work_name, metrics["work_units_per_s"], work_unit, len(rates),
                 statistics.median(c["work"] / c["wall_s"] for c in plain)))
        print("raw setup_s = %.4f s (baseline median %.4f s); kernel median %.4f s"
              % (statistics.median(s["setup_s"] for s in setups),
                 statistics.median(s["baseline_s"] for s in setups),
                 statistics.median(c["kernel_s"] for c in calls)))
    for name, value in metrics.items():
        print("%s = %.6g %s" % (name, value, units[name]))
    print("failed_frac = %.6g ratio (%d of %d operations)"
          % (failed / attempted, failed, attempted))
    print("results written to %s" % out_file.relative_to(ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be nonnegative and --seconds positive")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
