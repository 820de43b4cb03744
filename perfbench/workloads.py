"""Workload definitions and the output checks that decide correctness.

Standard library only: the orchestrator imports this module without paying
for numpy, and the worker imports it before timing the stc-lab import.

Each workload is one ``stclab.cli.main`` call, run in-process and repeated
for the measured interval.  Why these three:

* ``uncoded_sweep`` stresses the per-frame path (stream setup, Box-Muller
  draws, channel draw, inline ML over 16 BASE points).  No Viterbi runs, so
  trellis work should not move it.
* ``trellis_sweep`` is dominated by ``viterbi_decode`` and
  ``trellis_encode``; per-frame RNG work is a few percent of it.
* ``invariance_audit`` bypasses ``simulate`` and ``detectors`` and drives
  ``channel`` through the equivalent real model, so it shows any cost that a
  detector rerouted through that model puts on the audit.

Every SNR list mixes points that stop on the error budget with points that
run the full frame budget, so both exits of ``run_point`` are exercised.
Budgets keep one call near a second where the error budget allows it, so
that the machine-speed kernel (calibrate.py) is sampled often; trellis
needs 400 frames per point for its 4 dB point to stop early.
"""

from __future__ import annotations

import hashlib
import re

SIMULATE_HEADER = "snr_db,frames,bits,bit_errors,frame_errors,ber,fer,elapsed_seconds"
BITS_PER_SECTION = 4     # both modes: 2 channel uses per section, 2 bits/use

WORKLOADS = {
    "uncoded_sweep": {
        "command": "simulate", "mode": "uncoded",
        "snr_db": [0, 5, 10, 15, 20, 25],
        "frames_per_point": 1500, "sections_per_frame": 50,
        "max_frame_errors": 200,
    },
    "trellis_sweep": {
        "command": "simulate", "mode": "trellis",
        "snr_db": [4, 8, 12],
        "frames_per_point": 400, "sections_per_frame": 50,
        "max_frame_errors": 200,
    },
    "invariance_audit": {
        "command": "audit", "which": "ALL", "trials": 1000,
    },
}

# Counts that must repeat exactly for a given (workload, seed).
EXACT_COUNTS = (
    "simulate.frames",
    "simulate.sections",
    "simulate.early_stopped_points",
    "channel.standard_normal.draws",
    "detectors.viterbi_decode.ties_broken",
)

# Audit lines that carry a verdict; each closes one checked operation.
_VERDICT = re.compile(r"^(?:[\w.\[\]]+\.pass|rh\.mixed\.fails_as_expected|"
                      r"audit\.overall)=")


def cli_argv(params: dict, seed: int, small: bool = False) -> list:
    """Arguments for ``stclab.cli.main``; ``small`` gives a warm-up call."""
    if params["command"] == "audit":
        trials = 1 if small else params["trials"]
        return ["audit", "--which", params["which"], "--trials", str(trials),
                "--seed", str(seed)]
    snrs = params["snr_db"][:1] if small else params["snr_db"]
    frames = 1 if small else params["frames_per_point"]
    return ["simulate", "--mode", params["mode"],
            "--snr", ",".join(str(s) for s in snrs),
            "--frames", str(frames),
            "--seed", str(seed),
            "--sections", str(params["sections_per_frame"]),
            "--max-frame-errors", str(params["max_frame_errors"])]


def expected_ops(params: dict) -> int:
    """Checked operations per call: SNR points, or audit verdict lines."""
    if params["command"] == "audit":
        # rh.base, rh.primed, rh.mixed, theorem1, corollary1, invariance,
        # forms, audit.overall
        return 8
    return len(params["snr_db"])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def check_output(params: dict, text: str) -> dict:
    """Split one call's output into checked operations.

    Returns the digest of the deterministic text, one (digest, problem) pair
    per operation (problem is None when the invariants hold), the work done
    (sections or INVARIANCE trials) and the exact counts readable from the
    output.
    """
    if params["command"] == "audit":
        return _check_audit(params, text)
    return _check_simulate(params, text)


def _check_simulate(params: dict, text: str) -> dict:
    lines = text.splitlines()
    det, rows = [], []
    for ln in lines:
        if ln.startswith("#"):
            det.append(ln)
        else:
            det.append(ln.rsplit(",", 1)[0])
            if ln != SIMULATE_HEADER:
                rows.append(ln)
    problems = [] if SIMULATE_HEADER in lines else ["missing CSV header"]
    budget = params["frames_per_point"]
    cap = params["max_frame_errors"]
    per_frame = BITS_PER_SECTION * params["sections_per_frame"]
    ops = []
    frames_total = early = 0
    for k, row in enumerate(rows):
        det_row = row.rsplit(",", 1)[0]
        problem = None
        try:
            f = row.split(",")
            snr, frames, bits, bit_err, frame_err = (float(f[0]), int(f[1]), int(f[2]),
                                                     int(f[3]), int(f[4]))
            ber, fer = f[5], f[6]
        except (IndexError, ValueError):
            ops.append((digest(det_row), "unparsable row %r" % row))
            continue
        frames_total += frames
        early += int(frames < budget)
        if k < len(params["snr_db"]) and snr != params["snr_db"][k]:
            problem = "snr %g, expected %g" % (snr, params["snr_db"][k])
        elif not 1 <= frames <= budget or bits != frames * per_frame:
            problem = "frames/bits out of range"
        elif not (0 <= bit_err <= bits and 0 <= frame_err <= min(frames, cap)):
            problem = "error counts out of range"
        elif frames < budget and frame_err != cap:
            problem = "stopped early without reaching max_frame_errors"
        elif "%.12e" % (bit_err / bits) != ber or "%.12e" % (frame_err / frames) != fer:
            problem = "ber/fer do not match the counts"
        ops.append((digest(det_row), problem))
    return {
        "digest": digest("\n".join(det)),
        "ops": _fit(ops, len(params["snr_db"]), problems),
        "work": frames_total * params["sections_per_frame"],
        "counts": {"simulate.frames": frames_total,
                   "simulate.sections": frames_total * params["sections_per_frame"],
                   "simulate.early_stopped_points": early},
    }


def _check_audit(params: dict, text: str) -> dict:
    lines = text.splitlines()
    ops, block = [], []
    for ln in lines:
        block.append(ln)
        if _VERDICT.match(ln):
            verdict = ln.split("=", 1)[1]
            problem = None if verdict in ("True", "PASS") else "verdict %s" % ln
            ops.append((digest("\n".join(block)), problem))
            block = []
    problems = []
    if block:
        problems.append("output after the last verdict")
    if not lines or lines[-1] != "audit.overall=PASS":
        problems.append("output does not end in audit.overall=PASS")
    if "invariance.trials=%d" % params["trials"] not in lines:
        problems.append("INVARIANCE did not run %d trials" % params["trials"])
    return {"digest": digest(text), "ops": _fit(ops, expected_ops(params), problems),
            "work": params["trials"], "counts": {}}


def _fit(ops: list, n: int, problems: list) -> list:
    """Exactly n operations; a whole-output problem fails every one."""
    if len(ops) != n:
        problems = problems + ["expected %d operations, got %d" % (n, len(ops))]
        ops = [(digest(""), None)] * n
    if problems:
        return [(d, "; ".join(problems)) for d, _ in ops]
    return ops
