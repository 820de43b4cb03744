"""Outputs pinned by the fixtures that tests/golden/record.py recorded (its
docstring says when).  Later code must reproduce them exactly; a fixture is
never re-recorded to hide a changed result."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from golden import record
from golden.record import (
    CLI_FIXTURES,
    SIMULATE_CONFIGS,
    cli_stdout,
    strip_elapsed,
)

from stclab.detectors import (
    default_trellis,
    load_trellis,
    trellis_encode,
    viterbi_decode,
)
from stclab.simulate import format_csv, run_simulation

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE = json.loads((GOLDEN / "viterbi.json").read_text())


def _spec(name):
    if name == "default":
        return default_trellis()
    return load_trellis(FIXTURE["irregular_trellis"])


def _complex(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


@pytest.mark.parametrize("fname", sorted(SIMULATE_CONFIGS))
def test_simulate_csv_matches_golden(fname):
    cfg = SIMULATE_CONFIGS[fname]
    got = strip_elapsed(format_csv(cfg, run_simulation(cfg)))
    assert got == (GOLDEN / fname).read_text()


@pytest.mark.parametrize("fname", sorted(CLI_FIXTURES))
def test_cli_output_matches_golden(fname):
    assert cli_stdout(CLI_FIXTURES[fname]) == (GOLDEN / fname).read_text()


def test_record_check_names_each_differing_fixture(tmp_path, monkeypatch, capsys):
    for path in GOLDEN.iterdir():
        if path.is_file() and path.suffix in (".txt", ".csv", ".json"):
            (tmp_path / path.name).write_text(path.read_text())
    changed = tmp_path / "audit_invariance.txt"
    changed.write_text(changed.read_text().replace("trials=300", "trials=301"))
    (tmp_path / "spectrum_base.csv").unlink()
    viterbi = json.loads((tmp_path / "viterbi.json").read_text())
    viterbi["cases"][0]["ties_broken"] += 1      # an output, recomputed from the inputs
    (tmp_path / "viterbi.json").write_text(record.dump(viterbi))
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    monkeypatch.setattr(record, "HERE", tmp_path)
    assert record.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: viterbi.json", "differs: audit_invariance.txt", "differs: spectrum_base.csv"]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before


def test_record_check_holds_across_dispatch_targets():
    # numpy's AVX-512 kernels off: log1p, and so the Box-Muller draws that
    # viterbi.json's inputs came from, give other last bits; on a CPU
    # without AVX-512 this changes nothing
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    run = subprocess.run([sys.executable, str(GOLDEN / "record.py"), "--check"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


def test_irregular_trellis_has_uneven_in_degree():
    spec = _spec("irregular")
    indeg = np.bincount([t.to_state for t in spec.transitions],
                        minlength=spec.num_states)
    assert indeg.tolist() == [5, 3, 4, 4, 4, 4, 4, 4]


@pytest.mark.parametrize("k", range(len(FIXTURE["cases"])))
def test_viterbi_decode_matches_golden(k):
    case = FIXTURE["cases"][k]
    hs = _complex(case["channels"])
    if all(np.array_equal(h, hs[0]) for h in hs):
        hs = hs[0]          # one channel for the frame
    res, bits = viterbi_decode(_spec(case["trellis"]), _complex(case["received"]),
                               hs, initial_state=case["initial_state"])
    assert list(res.decided_indices) == case["decided_indices"]
    assert bits.tolist() == case["bits"]
    assert res.metric == case["metric"]
    assert res.ties_broken == case["ties_broken"]


@pytest.mark.parametrize("case", FIXTURE["encode"], ids=lambda c: c["trellis"])
def test_trellis_encode_matches_golden(case):
    got = trellis_encode(_spec(case["trellis"]), case["bits"],
                         initial_state=case["initial_state"])
    assert got == case["indices"]
