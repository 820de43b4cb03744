"""In-memory spans around the stc-lab functions at the call sites it uses.

A traced call replaces, for its duration, the names that ``stclab.simulate``,
``stclab.channel`` and ``stclab.cli`` look up at call time, so the spans
measure the calls the program actually makes without editing it.  Each span
is (name, parent span index, start, end, counts); a span's self time is its
duration minus the durations of its direct children, which never overlap
in this single-threaded program.
"""

from __future__ import annotations

import gzip
import sys
import time


def _draws(args, kwargs, result):
    return {"draws": int(args[1] if len(args) > 1 else kwargs["n"])}


def _viterbi(args, kwargs, result):
    blocks = args[1] if len(args) > 1 else kwargs["received_blocks"]
    return {"sections": len(blocks), "ties_broken": int(result[0].ties_broken)}


# (span name, module whose global is replaced, attribute, counts extractor)
CALL_SITES = (
    ("cli.main", "stclab.cli", "main", None),
    ("simulate.run_point", "stclab.simulate", "run_point", None),
    ("simulate.frame_rng", "stclab.simulate", "_frame_rng", None),
    ("channel.sample_channel", "stclab.simulate", "sample_channel", None),
    ("channel.sample_channel", "stclab.cli", "sample_channel", None),
    ("channel.standard_normal", "stclab.simulate", "standard_normal", _draws),
    ("channel.standard_normal", "stclab.channel", "standard_normal", _draws),
    ("detectors.trellis_encode", "stclab.simulate", "trellis_encode", None),
    ("detectors.viterbi_decode", "stclab.simulate", "viterbi_decode", _viterbi),
    ("channel.shape_invariance_audit", "stclab.cli", "shape_invariance_audit", None),
    ("channel.build_equivalent_real_model", "stclab.channel",
     "build_equivalent_real_model", None),
)


class Tracer:
    """Records spans while installed; aggregates and writes them afterwards."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for name, module, attr, extract in CALL_SITES:
            mod = sys.modules[module]
            fn = getattr(mod, attr, None)
            if fn is None:          # call site no longer exists: nothing to time
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, extract))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name, fn, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, None)
            if extract is not None:
                spans[idx] = (name, parent, t0, t1, extract(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, lo: int, hi: int) -> tuple:
        """Per-name calls, self/total seconds and summed counts of spans[lo:hi].

        Also returns each name's call durations in seconds, for percentiles.
        """
        child = {}
        for _, parent, t0, t1, _ in self.spans[lo:hi]:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out, durations = {}, {}
        for i in range(lo, hi):
            name, _, t0, t1, counts = self.spans[i]
            a = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += (t1 - t0) - child.get(i, 0.0)
            for key, value in (counts or {}).items():
                a[key] = a.get(key, 0) + value
            durations.setdefault(name, []).append(t1 - t0)
        return out, durations

    def write(self, path, reps) -> None:
        """Gzipped CSV of every span; ``reps`` lists (rep, lo, hi, t_start)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("rep,span,parent,name,start_s,end_s,counts\n")
            for rep, lo, hi, base in reps:
                for i in range(lo, hi):
                    name, parent, t0, t1, counts = self.spans[i]
                    extra = ";".join("%s=%d" % kv for kv in (counts or {}).items())
                    fh.write("%d,%d,%d,%s,%.9f,%.9f,%s\n"
                             % (rep, i, parent, name, t0 - base, t1 - base, extra))
