"""Write the golden fixtures that pin simulate, viterbi_decode and CLI outputs.

The simulate and Viterbi fixtures were recorded once, with the per-frame
simulator and the per-section Viterbi decoder, including its
irregular-trellis branch; the audit, spectrum and show-constellation
outputs before the channel, constellation and CLI were trimmed, the
300-draw INVARIANCE audit before the audit was batched over channel draws,
and the odd-length simulate configs before each frame's stream was read
with one uniform fill.  The tests compare later code against them.  Never
rerun this to make a failing golden test pass: a changed fixture is a
changed result, and it must be explained, not re-recorded.

    python tests/golden/record.py            # write every fixture
    python tests/golden/record.py --check    # compare, write nothing

The script puts the repository's ``src`` first on ``sys.path``, so it runs
from any directory without ``PYTHONPATH``.

``--check`` computes every fixture in memory, writes nothing, and exits 1
naming each fixture whose bytes differ from the file on disk (0 when all
match).  It regenerates every fixture whole but viterbi.json, whose
outputs it recomputes from the inputs stored in it: those inputs are
Box-Muller draws, whose last bits depend on numpy's CPU dispatch target,
so they are drawn only to record.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from stclab.channel import channels_from_uniform, normals_from_uniform
from stclab.cli import main as cli_main
from stclab.constellation import matrix_stack
from stclab.detectors import default_trellis, load_trellis, trellis_encode, viterbi_decode
from stclab.simulate import SimConfig, format_csv, run_simulation

# Both modes; every config has a point that stops on max_frame_errors
# part-way through a chunk and a frame budget that is not a multiple of the
# chunk's frames.  The odd-length configs (7 and 1 sections per frame) give
# each Box-Muller slice of a frame's stream a length that is not a multiple
# of the SIMD width, so their bytes pin the vectorised log1p, cos and sin
# tails on unaligned slices.
SIMULATE_CONFIGS = {
    "simulate_uncoded.csv": SimConfig(
        mode="uncoded", snr_list_db=(0.0, 6.0, 12.0, 30.0), frames_per_point=200,
        base_seed=5, sections_per_frame=20, max_frame_errors=40),
    "simulate_trellis.csv": SimConfig(
        mode="trellis", snr_list_db=(3.0, 6.0, 9.0, 30.0), frames_per_point=160,
        base_seed=5, sections_per_frame=12, max_frame_errors=70),
    "simulate_uncoded_odd.csv": SimConfig(
        mode="uncoded", snr_list_db=(0.0, 10.0, 30.0), frames_per_point=150,
        base_seed=11, sections_per_frame=7, max_frame_errors=25),
    "simulate_trellis_odd.csv": SimConfig(
        mode="trellis", snr_list_db=(2.0, 8.0, 30.0), frames_per_point=300,
        base_seed=11, sections_per_frame=1, max_frame_errors=30),
}

# Stdout of one CLI call each, pinned byte for byte.
CLI_FIXTURES = {
    "audit_all.txt": ["audit", "--which", "ALL", "--trials", "50"],
    # 300 draws: many full chunks of the batched audit and one partial chunk
    "audit_invariance.txt": ["audit", "--which", "INVARIANCE", "--trials", "300",
                             "--seed", "3"],
    "spectrum_base.csv": ["spectrum", "--which", "BASE"],
    "spectrum_primed.csv": ["spectrum", "--which", "PRIMED"],
    "spectrum_full.csv": ["spectrum", "--which", "FULL"],
    "show_constellation.txt": ["show-constellation"],
}


def cli_stdout(argv) -> str:
    """What ``stc-lab <argv>`` prints; a nonzero exit is an error."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError("stc-lab %s exited %d" % (" ".join(argv), rc))
    return buf.getvalue()


def strip_elapsed(csv_text: str) -> str:
    """The CSV without its wall-clock column; every other byte is pinned."""
    out = []
    for ln in csv_text.splitlines():
        out.append(ln if ln.startswith("#") else ln.rsplit(",", 1)[0])
    return "\n".join(out) + "\n"


def irregular_trellis_text() -> str:
    """The shipped trellis with 0->1 rerouted to 0->0: in-degrees 5, 3, 4, ..."""
    text = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()
    lines = [("0 0 " + ln[4:]) if ln.startswith("0 1 3 ") else ln
             for ln in text.splitlines()]
    return "\n".join(lines) + "\n"


def _cases(spec, rng):
    """Noisy frames (one channel, or one per section) and all-tie frames."""
    mats = matrix_stack()
    cases = []
    for k in range(16):
        n = int(rng.integers(1, 13))
        start = int(rng.integers(0, spec.num_states))
        bits = rng.integers(0, 2, size=n * spec.bits_per_section)
        idx = trellis_encode(spec, bits, initial_state=start)
        sigma = float(rng.choice([0.05, 0.3, 0.7, 1.2]))
        if k < 12:
            hs = [channels_from_uniform(rng.random(4))] * n
        else:
            hs = [channels_from_uniform(rng.random(4)) for _ in range(n)]
        noise = normals_from_uniform(rng.random(4 * n))
        z = noise[0::2] + 1j * noise[1::2]
        rec = [mats[i] @ h + sigma * z[2 * s:2 * s + 2]
               for s, (i, h) in enumerate(zip(idx, hs))]
        cases.append((rec, hs, start))
    for start, n in ((0, 5), (3, 2)):
        cases.append(([np.zeros(2, complex)] * n, [np.zeros(2, complex)] * n, start))
    return cases


#: The fields of viterbi.json's cases and encode cases that are inputs; the
#: others are what the code computes from them.
CASE_INPUTS = ("trellis", "initial_state", "received", "channels")
ENCODE_INPUTS = ("trellis", "bits", "initial_state")


def viterbi_inputs(stored=None) -> dict:
    """viterbi.json's inputs: those of stored, the parsed fixture, or else drawn
    from a seeded generator.  The irregular trellis is always made afresh."""
    out = {"irregular_trellis": irregular_trellis_text(), "cases": [], "encode": []}
    if stored is not None:
        for key, fields in (("cases", CASE_INPUTS), ("encode", ENCODE_INPUTS)):
            out[key] = [{k: case[k] for k in fields} for case in stored[key]]
        return out
    rng = np.random.default_rng(20240505)
    for name, spec in (("default", default_trellis()),
                       ("irregular", load_trellis(out["irregular_trellis"]))):
        for rec, hs, start in _cases(spec, rng):
            out["cases"].append({
                "trellis": name, "initial_state": start,
                "received": [[[z.real, z.imag] for z in r] for r in rec],
                "channels": [[[z.real, z.imag] for z in h] for h in hs]})
        enc_bits = rng.integers(0, 2, size=40 * spec.bits_per_section)
        out["encode"].append({"trellis": name, "bits": enc_bits.tolist(), "initial_state": 5})
    return out


def viterbi_fixture(inputs: dict) -> dict:
    """inputs with the outputs of viterbi_decode and trellis_encode added to each case."""
    specs = {"default": default_trellis(), "irregular": load_trellis(inputs["irregular_trellis"])}
    out = dict(inputs, cases=[], encode=[])
    for case in inputs["cases"]:
        rec, hs = (np.array([[complex(re, im) for re, im in row] for row in case[key]])
                   for key in ("received", "channels"))
        res, bits = viterbi_decode(specs[case["trellis"]], rec, hs,
                                   initial_state=case["initial_state"])
        out["cases"].append(dict(case, decided_indices=list(res.decided_indices),
                                 bits=bits.tolist(), metric=res.metric,
                                 ties_broken=res.ties_broken))
    for case in inputs["encode"]:
        out["encode"].append(dict(case, indices=trellis_encode(
            specs[case["trellis"]], case["bits"], initial_state=case["initial_state"])))
    return out


def dump(fixture: dict) -> str:
    """JSON with one list item per line, so that a changed case shows alone."""
    fields = []
    for key, val in fixture.items():
        if isinstance(val, list):
            val = "[\n%s\n ]" % ",\n".join("  " + json.dumps(v) for v in val)
        else:
            val = json.dumps(val)
        fields.append("%s: %s" % (json.dumps(key), val))
    return "{\n %s\n}\n" % ",\n ".join(fields)


def fixtures(stored_viterbi=None) -> dict:
    """File name -> the text the current code produces for it, viterbi.json's
    from the inputs of stored_viterbi when it is given."""
    out = {fname: strip_elapsed(format_csv(cfg, run_simulation(cfg)))
           for fname, cfg in SIMULATE_CONFIGS.items()}
    out["viterbi.json"] = dump(viterbi_fixture(viterbi_inputs(stored_viterbi)))
    out.update((fname, cli_stdout(argv)) for fname, argv in CLI_FIXTURES.items())
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--check"]):
        print("usage: record.py [--check]", file=sys.stderr)
        return 2
    stored = HERE / "viterbi.json"
    texts = fixtures(json.loads(stored.read_text()) if argv and stored.exists() else None)
    if not argv:
        for fname, text in texts.items():
            (HERE / fname).write_text(text)
        return 0
    differ = [fname for fname, text in texts.items()
              if not (HERE / fname).exists() or (HERE / fname).read_text() != text]
    for fname in differ:
        print("differs: %s" % fname)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
