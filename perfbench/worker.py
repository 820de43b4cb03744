"""One fresh benchmark process: set-up, warm-up, then the timed calls.

Started by run.py from the checkout root:

    python3 perfbench/worker.py baseline
    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE SPANS_FILE

``baseline`` imports numpy only and prints when it is ready; it is the
machine-speed reference for set-up (calibrate.py).  ``setup`` and ``run``
print one JSON line with the set-up timings.  ``run`` then calls ``stclab.cli.main``
in-process with the workload's arguments until SECONDS have passed, with
the reference kernel timed before the first call and after every call, and
prints a second JSON line with every call's wall time, kernel time and
output check.  With TRACE 1 untraced and traced calls alternate, so both
share the same process state, and the spans go to SPANS_FILE.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402  (perfbench/ is the script directory; no numpy yet)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_CALLS = 2            # per kind (untraced, traced) in one run


def setup() -> dict:
    """Import stc-lab and fill its lazy caches; time each step.

    ``ready`` is CLOCK_MONOTONIC, which is system-wide on Linux, so the
    parent can subtract its own spawn time from it.
    """
    t0 = time.perf_counter()
    import numpy
    import stclab.cli
    from stclab.constellation import build_constellation, matrix_stack
    from stclab.detectors import default_trellis
    t1 = time.perf_counter()
    default_trellis()
    t2 = time.perf_counter()
    build_constellation()
    matrix_stack()
    t3 = time.perf_counter()
    return {"ready": time.clock_gettime(time.CLOCK_MONOTONIC),
            "import_s": t1 - t0, "default_trellis_s": t2 - t1,
            "matrix_stack_s": t3 - t2,
            "numpy": numpy.__version__, "stclab": stclab.__version__}


def run_call(params: dict, seed: int, tracer=None, small: bool = False) -> dict:
    """One ``stclab.cli.main`` call with its output checked."""
    import stclab.cli

    argv = workloads.cli_argv(params, seed, small=small)
    buf = io.StringIO()
    lo = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc, error = stclab.cli.main(argv), None
    except Exception as exc:   # a raising call is a failed operation, not a crash
        rc, error = None, repr(exc)
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    call = {"traced": tracer is not None, "wall_s": wall, "rc": rc, "error": error}
    call.update(workloads.check_output(params, buf.getvalue()))
    if tracer:
        layers, durations = tracer.aggregate(lo, len(tracer.spans))
        call["layers"] = layers
        call["counts"]["channel.standard_normal.draws"] = (
            layers.get("channel.standard_normal", {}).get("draws", 0))
        call["counts"]["detectors.viterbi_decode.ties_broken"] = (
            layers.get("detectors.viterbi_decode", {}).get("ties_broken", 0))
        call["_spans"] = (lo, len(tracer.spans), start, durations)
    return call


def measure(params: dict, seed: int, seconds: float, trace: bool, spans_file: str) -> dict:
    run_call(params, seed, small=True)             # argparse, _acs_tables, allocator
    tracer = tracing.Tracer() if trace else None
    calls = []
    kernel_before = calibrate.kernel_median(1.0)
    start = time.perf_counter()
    while True:
        traced = trace and len(calls) % 2 == 1
        call = run_call(params, seed, tracer if traced else None)
        kernel_after = calibrate.kernel_median(call["wall_s"])
        call["kernel_s"] = (kernel_before + kernel_after) / 2.0
        kernel_before = kernel_after
        calls.append(call)
        per_kind = len(calls) // 2 if trace else len(calls)
        if time.perf_counter() - start >= seconds and per_kind >= MIN_CALLS:
            break
    result = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        traced_calls = [c for c in calls if c["traced"]]
        viterbi_us = [d * 1e6 * calibrate.NOMINAL_KERNEL_S / c["kernel_s"]
                      for c in traced_calls
                      for d in c["_spans"][3].get("detectors.viterbi_decode", [])]
        if len(viterbi_us) >= 2:
            q = statistics.quantiles(viterbi_us, n=100, method="inclusive")
            result["viterbi_p50_us"], result["viterbi_p99_us"] = q[49], q[98]
            result["viterbi_samples"] = len(viterbi_us)
        tracer.write(spans_file, [(k, lo, hi, t0) for k, (lo, hi, t0, _) in
                                  enumerate(c["_spans"] for c in traced_calls)])
        result["spans"] = len(tracer.spans)
    for c in calls:
        c.pop("_spans", None)
    result["calls"] = calls
    return result


def main(argv) -> int:
    if argv[0] == "baseline":
        import numpy  # noqa: F401
        print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}), flush=True)
        return 0
    ready = setup()
    print(json.dumps(ready), flush=True)
    if argv[0] == "setup":
        return 0
    calibrate.timed_kernel()                       # first call pays one-time costs
    workload, seed, seconds, trace, spans_file = argv[1:6]
    result = measure(workloads.WORKLOADS[workload], int(seed), float(seconds),
                     trace == "1", spans_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
