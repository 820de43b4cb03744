"""Fixed reference work that measures how fast the machine is right now.

On a shared host the speed of this kind of code can drift by 20-40% over
minutes, often switching between two levels (measured on a 2-core x86_64
container).  All three workloads slow down together (their time ratios stay
within a few percent), so a fixed kernel with the same mix of work, timed
between workload calls, tracks the drift.  One kernel run is short and catches
only a moment, so after each call the kernel repeats for KERNEL_SHARE of
the call's time and its median is taken.  run.py scales each call's time by
NOMINAL_KERNEL_S / (mean of the kernel medians before and after the call).

Set-up is dominated by starting the interpreter and importing numpy, which
follows the drift less than compute does.  Its reference is a fresh process
that imports numpy and nothing else (``worker.py baseline``), spawned
before and after every set-up probe; run.py scales set-up times by
NOMINAL_BASELINE_S / (mean baseline time around the probe).

The kernel imports nothing from stc-lab, so a change to the program never
changes it: it must stay byte-identical for results to stay comparable.
It mixes the three styles of work the workloads do: a fresh seeded
generator per frame with Box-Muller draws and small complex products (the
simulate frame loop), a per-section loop over 32-element arrays (the
Viterbi sweep) and stacking and pairwise reductions of 32 vectors (the
INVARIANCE audit).
"""

from __future__ import annotations

import statistics
import time

# Kernel and baseline times on a 2-core x86_64 container (Python 3.11.7,
# numpy 2.4.6) at a quiet moment.  They only set the scale of the figures.
NOMINAL_KERNEL_S = 0.03
NOMINAL_BASELINE_S = 0.1
KERNEL_SHARE = 0.05


def kernel() -> float:
    """Run the fixed work once; returns a checksum so no work is skipped."""
    import numpy as np      # here, so importing this module leaves set-up alone

    mats = np.exp(0.25j * np.pi * np.arange(128.0)).reshape(32, 2, 2) / np.sqrt(2.0)
    total = 0.0
    for f in range(40):
        rng = np.random.default_rng(np.random.SeedSequence(20050505, spawn_key=(0, f)))
        idx = (rng.random(50) * 32).astype(np.int64)
        u1, u2 = rng.random(52), rng.random(52)
        g = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
        h = (g[0:2] + 1j * g[2:4]) / np.sqrt(2.0)
        rec = mats[idx] @ h + 0.1 * (g[4:52:2] + 1j * g[5:52:2]).mean()
        faded = mats @ h
        pm = np.zeros(8)
        for s in range(50):
            d = np.sum(np.abs(rec[s] - faded) ** 2, axis=1)
            cand = pm[np.arange(32) % 8] + d
            pm = np.min(cand.reshape(4, 8), axis=0)
        cols = np.column_stack([m @ h for m in mats])
        pair = np.sqrt(np.sum(np.abs(cols[:, :, None] - cols[:, None, :]) ** 2, axis=0))
        total += float(pm.min()) + float(pair.max())
    return total


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def kernel_median(call_s: float) -> float:
    """Median kernel time over repeats lasting KERNEL_SHARE of ``call_s``."""
    times = [timed_kernel()]
    while sum(times) < KERNEL_SHARE * call_s:
        times.append(timed_kernel())
    return statistics.median(times)
