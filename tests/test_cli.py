import contextlib
import io
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stclab
from stclab import cli
from stclab.channel import channels_from_uniform
from stclab.cli import main
from stclab.constellation import distance_spectrum
from stclab.designs import RH_TOL, alamouti_generators, write_generator_file
from stclab.expansion import SPAN_SEPARATION_TOL


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is gone breaks `from stclab import *`
    assert [name for name in stclab.__all__ if not hasattr(stclab, name)] == []
    assert len(set(stclab.__all__)) == len(stclab.__all__)


#: The set-up steps the benchmark times, in a fresh interpreter.
SETUP_STEPS = """
import sys
import stclab.cli
from stclab.constellation import build_constellation, matrix_stack
from stclab.detectors import default_trellis
default_trellis()
build_constellation()
matrix_stack()
print(" ".join(sorted(m for m in ("numpy.random", "numpy.ma") if m in sys.modules)))
"""


def test_setup_imports_neither_numpy_random_nor_numpy_ma():
    # each is tens of milliseconds of set-up: numpy.ma comes with np.unique,
    # numpy.random with a generator built at import
    src = os.path.dirname(os.path.dirname(os.path.abspath(stclab.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", SETUP_STEPS], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_audit_all_passes(capsys):
    rc = main(["audit", "--which", "ALL", "--trials", "50", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit.overall=PASS" in out
    for key in ("rh.base.pass=True", "rh.primed.pass=True",
                "rh.mixed.fails_as_expected=True", "theorem1.pass=True",
                "corollary1.pass=True", "invariance.pass=True",
                "forms.pass=True"):
        assert key in out


def test_audit_builds_the_expansion_once(monkeypatch, capsys):
    built = []
    real = cli.table_expansion
    monkeypatch.setattr(cli, "table_expansion", lambda: built.append(1) or real())
    assert main(["audit", "--which", "ALL", "--trials", "3"]) == 0
    assert "audit.overall=PASS" in capsys.readouterr().out
    assert len(built) == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63), trials=st.integers(1, 40))
def test_invariance_audit_draws_equal_per_call_draws(seed, trials):
    argv = ["audit", "--which", "INVARIANCE", "--trials", str(trials), "--seed", str(seed)]
    with mock.patch.object(cli, "shape_invariance_audit",
                           wraps=cli.shape_invariance_audit) as audit, \
            contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    hs = audit.call_args.args[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    want = np.stack([channels_from_uniform(rng.random(4)) for _ in range(trials)])
    assert hs.dtype == want.dtype and hs.shape == want.shape
    assert hs.tobytes() == want.tobytes()


def test_audit_single_and_case_insensitive(capsys):
    rc = main(["audit", "--which", "rh"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rh.mixed.worst_pair=0,1" in out
    assert "theorem1" not in out
    assert main(["spectrum", "--which", "base"]) == 0
    assert capsys.readouterr().out.startswith("distance_sq,multiplicity\n4,32\n")


def test_which_error_echoes_the_text_as_typed(capsys):
    for argv, typed in ((["spectrum", "--which", "x"], "'x'"),
                        (["audit", "--which", "Bogus"], "'Bogus'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: %s (choose from " % typed in capsys.readouterr().err


def test_audit_bad_trials_is_usage_error(capsys):
    rc = main(["audit", "--trials", "0"])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


def test_audit_trials_beyond_memory_is_exit_2(capsys):
    # 4e15 uniforms (32 PB) exceed any address space: the allocation is refused at once
    assert main(["audit", "--which", "INVARIANCE", "--trials", "1000000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_printed_thresholds_are_the_ones_that_decide(monkeypatch, capsys):
    assert main(["audit", "--which", "ALL", "--trials", "50"]) == 0
    decides = {"rh": RH_TOL, "theorem1": SPAN_SEPARATION_TOL,
               "corollary1": SPAN_SEPARATION_TOL}
    decides.update(("invariance.%s" % f, tol) for f, tol in cli.INVARIANCE_TOLS.items())
    printed = []
    for line in capsys.readouterr().out.splitlines():
        found = re.search(r" (?:tol|threshold)=(\S+)$", line)
        if found:
            key = line.split("=")[0]
            assert float(found.group(1)) == decides.get(key, decides.get(key.split(".")[0])), line
            printed.append(key)
    assert len(printed) == 7
    # the INVARIANCE verdict reads the constant it prints
    monkeypatch.setitem(cli.INVARIANCE_TOLS, "max_gram_error", 0.0)
    assert main(["audit", "--which", "INVARIANCE", "--trials", "50"]) == 1
    out = capsys.readouterr().out
    assert " tol=0\n" in out and "invariance.pass=False" in out


def test_audit_generator_file_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(write_generator_file(alamouti_generators()))
    rc = main(["audit", "--which", "RH", "--generators", str(good)])
    out = capsys.readouterr().out
    assert rc == 0 and "rh.file.pass=True" in out

    g = alamouti_generators()
    bad = tmp_path / "bad.txt"
    from stclab.designs import make_generator_set
    broken = make_generator_set([g.basis[0], g.basis[0], g.basis[2], g.basis[3]])
    bad.write_text(write_generator_file(broken))
    rc = main(["audit", "--which", "RH", "--generators", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "rh.file.pass=False" in out
    assert "rh.file.worst_pair=0,1" in out
    assert "audit.overall=FAIL" in out


def test_audit_generator_file_with_huge_or_infinite_scale(tmp_path, capsys):
    # 2c = inf must fail the check, not make NaN residuals that compare as passing
    f = tmp_path / "g.txt"
    text = write_generator_file(alamouti_generators())
    f.write_text(text.replace(" 0.5\n", " 1e308\n", 1))
    assert main(["audit", "--which", "RH", "--generators", str(f)]) == 1
    out = capsys.readouterr().out
    assert "rh.file.max_residual=inf" in out and "rh.file.pass=False" in out
    f.write_text(text.replace(" 0.5\n", " inf\n", 1))
    assert main(["audit", "--which", "RH", "--generators", str(f)]) == 2
    assert "error: line 1: scale must be positive and finite" in capsys.readouterr().err


def test_audit_generator_file_with_huge_header_count(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("2 99999999999 2 0.5\n" + "1,0 0,0\n" * 8)
    assert main(["audit", "--which", "RH", "--generators", str(f)]) == 2
    assert "error: line 2: expected 99999999999 entries, got 2" in capsys.readouterr().err


def test_audit_missing_file_is_exit_2(capsys):
    rc = main(["audit", "--which", "RH", "--generators", "/no/such/file.txt"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_stdout_and_file_agree_modulo_elapsed(tmp_path, capsys):
    args = ["simulate", "--mode", "uncoded", "--snr", "8", "--frames", "20",
            "--seed", "4", "--sections", "10"]
    rc = main(args)
    stdout_text = capsys.readouterr().out
    assert rc == 0
    out = tmp_path / "r.csv"
    rc = main(args + ["--out", str(out)])
    assert rc == 0

    def strip(text):
        return [ln.rsplit(",", 1)[0] for ln in text.splitlines()]

    assert strip(stdout_text) == strip(out.read_text())
    assert "snr_db,frames,bits" in stdout_text


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    cfgf = tmp_path / "sim.cfg"
    cfgf.write_text("mode=uncoded\nsnr_list_db=0\nframes_per_point=5\n"
                    "sections_per_frame=10\nbase_seed=1\n")
    rc = main(["simulate", "--config", str(cfgf), "--snr", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")][1]
    assert data.startswith("30,5,")
    for bad, line in (("mode=uncoded\nmode=trellis\n", 2),
                      ("frames_per_point=abc\n", 1),
                      ("mode=uncoded\nspeed=11\n", 2),
                      ("mode=uncoded\nframes_per_point=0\n", 2),
                      ("mode=turbo\n", 1),
                      ("mode=uncoded\n\nsnr_list_db = 8, -3100\n", 3),
                      ("mode=trellis\ntrellis_path =\n", 2),
                      ("mode=uncoded\ntrellis_path =\n", 2)):
        cfgf.write_text(bad)
        assert main(["simulate", "--config", str(cfgf)]) == 2
        assert "error: line %d:" % line in capsys.readouterr().err
    # a trellis file in uncoded mode would be ignored: rejected instead
    cfgf.write_text("mode=uncoded\nframes_per_point=1\ntrellis_path=/nonexistent\n")
    assert main(["simulate", "--config", str(cfgf)]) == 2
    assert "trellis_path is only read in trellis mode" in capsys.readouterr().err


def test_simulate_bad_mode_is_exit_2(capsys):
    cfg_err = main(["simulate", "--snr", "oops"])
    assert cfg_err == 2
    for bad in (["--snr", "nan"], ["--snr", "4,inf"], ["--seed", "-1"],
                ["--mode", "uncoded", "--trellis", "t8.txt"], ["--snr", "8,,10"],
                ["--snr", "8,"]):
        assert main(["simulate", "--frames", "1"] + bad) == 2
        assert "error:" in capsys.readouterr().err
    # a bad flag gets the message of its field, as a config line does
    for bad, msg in ((["--frames", "abc"], "bad frames_per_point value"),
                     (["--frames", "0"], "frames_per_point must be positive, got 0"),
                     (["--mode", "turbo"], "mode must be one of"),
                     (["--snr", "8,oops"], "bad snr_list_db value"),
                     # no finite noise sigma: an overflow, sigma = inf or 1 / 0
                     (["--snr", "3100"], "snr_list_db must hold"),
                     (["--snr=-3100"], "snr_list_db must hold"),
                     (["--snr=-3300"], "snr_list_db must hold"),
                     # an empty path would silently run the shipped trellis
                     (["--trellis="], "trellis_path must name a file, got ''"),
                     (["--mode", "trellis", "--trellis="], "trellis_path must name")):
        assert main(["simulate"] + bad) == 2
        assert "error: " + msg in capsys.readouterr().err


def test_simulate_snr_takes_commas_or_spaces(capsys):
    argv = ["simulate", "--frames", "3", "--sections", "4", "--snr"]
    outs = []
    for snr in ("8,10", "8 10", "8, 10"):
        assert main(argv + [snr]) == 0
        outs.append([ln.rsplit(",", 1)[0] for ln in capsys.readouterr().out.splitlines()])
    assert outs[0] == outs[1] == outs[2]


def test_simulate_trellis_file(tmp_path, capsys):
    import importlib.resources
    text = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()
    tf = tmp_path / "t8.txt"
    tf.write_text(text)
    rc = main(["simulate", "--mode", "trellis", "--snr", "30", "--frames", "3",
               "--seed", "1", "--sections", "4", "--trellis", str(tf)])
    out = capsys.readouterr().out
    assert rc == 0
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")][1]
    fields = data.split(",")
    assert fields[3] == "0", "30 dB trellis run must be error free"


def test_spectrum_matches_library(capsys):
    rc = main(["spectrum", "--which", "FULL"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "distance_sq,multiplicity"
    got = {float(a): int(b) for a, b in (ln.split(",") for ln in lines[1:])}
    assert got == distance_spectrum(which="FULL")


def test_show_constellation(capsys):
    rc = main(["show-constellation"])
    out = capsys.readouterr().out
    assert rc == 0
    body = [ln for ln in out.splitlines() if ln and not ln.startswith("idx")]
    assert len(body) == 32
    assert body[0].split()[0] == "0"
    assert "PRIMED" in out and "BASE" in out
