"""Acceptance gate: one verdict line per criterion, collected by the
conftest plugin and replayed in the terminal summary so the lines survive
pytest output capture.

A3b is a faithful implementation of a stated control check that this
design genuinely cannot satisfy; it documents the measured values and is
expected to fail.  Everything else must pass.
"""

import cmath
import sys
import time

import numpy as np

from conftest import record_verdict
from identities import rotated_synthesis_residual

from stclab.channel import channels_from_uniform, shape_invariance_audit
from stclab.cli import main
from stclab.constellation import (
    QPSK,
    build_constellation,
    distance_spectrum,
    matrix_stack,
    table_expansion,
    verify_forms,
)
from stclab.designs import (
    alamouti_generators,
    make_generator_set,
    primed_alamouti_generators,
    radon_hurwitz_check,
    rotate_generators,
)
from stclab.detectors import (
    default_trellis,
    ml_block_decode,
    trellis_encode,
    viterbi_decode,
)
from stclab.expansion import corollary1_audit, theorem1_audit
from stclab.simulate import CSV_HEADER, SimConfig, format_csv, run_simulation


def _verdict(name, ok, detail=""):
    line = "[ACCEPTANCE] %s: %s" % (name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    record_verdict(line)
    print(line, file=sys.__stdout__, flush=True)
    return ok


def _strip_elapsed(csv_text):
    return [ln if (ln.startswith("#") or ln == CSV_HEADER) else ln.rsplit(",", 1)[0]
            for ln in csv_text.splitlines()]


def test_a1_radon_hurwitz_certificates():
    t0 = time.perf_counter()
    base = radon_hurwitz_check(alamouti_generators())
    primed = radon_hurwitz_check(primed_alamouti_generators())
    mixed = radon_hurwitz_check(make_generator_set(
        [alamouti_generators().basis[0], primed_alamouti_generators().basis[0]]))
    elapsed = time.perf_counter() - t0
    ok = (base.passed and base.scale == 0.5 and base.max_residual < 1e-12
          and primed.passed and primed.scale == 0.5 and primed.max_residual < 1e-12
          and not mixed.passed and abs(mixed.max_residual - 1.0) <= 1e-12
          and mixed.worst_pair == (0, 1)
          and elapsed < 1.0)
    detail = ("base=%.2e primed=%.2e mixed=%.10f elapsed=%.3fs"
              % (base.max_residual, primed.max_residual, mixed.max_residual, elapsed))
    assert _verdict("A1 orthogonality certificates", ok, detail)


def test_a2_expansion_reproduces_table():
    t0 = time.perf_counter()
    e = table_expansion()
    table = matrix_stack()
    worst = 0.0
    matched = 0
    for p in e.points:
        errs = np.max(np.abs(table - p.matrix[None]), axis=(1, 2))
        k = int(np.argmin(errs))
        if errs[k] <= 1e-12:
            matched += 1
        worst = max(worst, float(errs[k]))
    forms = verify_forms()
    elapsed = time.perf_counter() - t0
    ok = (len(e.points) == 32 and not e.degenerate and matched == 32
          and worst <= 1e-12 and forms.passed and elapsed < 1.0)
    detail = ("matched=%d/32 worst=%.2e form_violations=%d elapsed=%.3fs"
              % (matched, worst, len(forms.violations), elapsed))
    assert _verdict("A2 expansion reproduces shipped table", ok, detail)


def test_a3a_discernible_expansion_separates():
    e = table_expansion()
    t1 = theorem1_audit(e)
    c1 = corollary1_audit(e)
    gen_dev = float(np.max(np.abs(t1.residuals - 1.0)))
    pt_dev = float(np.max(np.abs(c1.residuals - 2.0)))
    ok = (t1.separated and c1.separated
          and gen_dev <= 1e-10 and pt_dev <= 1e-10)
    detail = "generator_residuals=1%+.1e point_residuals=2%+.1e" % (gen_dev, pt_dev)
    assert _verdict("A3a discernible expansion separates", ok, detail)


def test_a3b_scalar_rotation_control():
    # Control expectation under test: multiplying the constellation by the
    # scalar i*I is a pure symbol rotation, so every rotated generator and
    # point should stay inside the base design span (residuals < 1e-10).
    e = table_expansion(1j * np.eye(2))
    t1 = theorem1_audit(e)
    c1 = corollary1_audit(e)
    gen_worst = float(np.max(t1.residuals))
    pt_worst = float(np.max(c1.residuals))
    ok = gen_worst < 1e-10 and pt_worst < 1e-10
    detail = "generator_residuals=%.6f point_residuals=%.6f" % (gen_worst, pt_worst)
    assert _verdict("A3b scalar rotation stays in span", ok, detail), (
        "the in-span expectation fails for this quadruple: the real span of "
        "{B_0..B_3} is not closed under multiplication by i.  Concretely "
        "i*B_0 = B'_1, i*B_1 = -B'_0, i*B_2 = B'_3, i*B_3 = -B'_2, where "
        "{B'_l} = {B_l @ diag(1,-1)} is the primed quadruple, whose span is "
        "orthogonal to the base span.  The rotated set therefore coincides "
        "with the discernible expansion: measured generator residuals are "
        "%.12f (unit norm, fully out of span) and point residuals %.12f "
        "(squared point norm), not < 1e-10." % (gen_worst, pt_worst))


def test_a4_shape_invariance_under_fading():
    t0 = time.perf_counter()
    e = table_expansion()
    rng = np.random.default_rng(2026)
    gram = dist = angle = 0.0
    trials = 1000
    for _ in range(trials):
        rep = shape_invariance_audit(e, channels_from_uniform(rng.random((1, 4))))
        gram = max(gram, rep.max_gram_error)
        dist = max(dist, rep.max_distance_error)
        angle = max(angle, rep.max_angle_error)
    elapsed = time.perf_counter() - t0
    ok = gram < 1e-12 and dist < 1e-11 and angle < 1e-11 and elapsed < 10.0
    detail = ("trials=%d gram=%.2e dist=%.2e angle=%.2e elapsed=%.2fs"
              % (trials, gram, dist, angle, elapsed))
    assert _verdict("A4 constellation shape survives the fade", ok, detail)


def test_a5_rotation_family():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    g = alamouti_generators()
    worst_synth = 0.0
    worst_rh = 0.0
    trials = 100
    for _ in range(trials):
        zeta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        worst_synth = max(worst_synth, rotated_synthesis_residual(g, z, zeta))
        rep = radon_hurwitz_check(rotate_generators(g, zeta))
        if not rep.passed:
            worst_rh = np.inf
        worst_rh = max(worst_rh, rep.max_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_synth <= 1e-13 and worst_rh < 1e-12 and elapsed < 5.0
    detail = ("trials=%d synth=%.2e rh=%.2e elapsed=%.2fs"
              % (trials, worst_synth, worst_rh, elapsed))
    assert _verdict("A5 rotated designs stay orthogonal", ok, detail)


def test_a6_noiseless_detection_is_exact():
    t0 = time.perf_counter()
    entries = build_constellation()
    mats = matrix_stack()
    rng = np.random.default_rng(66)
    frames = 10_000

    # block ML, fully vectorized: argmin over 32 faded candidates per frame
    hs = np.stack([channels_from_uniform(rng.random(4)) for _ in range(frames)])
    tx = rng.integers(0, 32, size=frames)
    faded = np.einsum("mij,fj->fmi", mats, hs)         # (frames, 32, 2)
    rec = faded[np.arange(frames), tx]
    dists = np.sum(np.abs(rec[:, None, :] - faded) ** 2, axis=2)
    ml_errors = int(np.sum(np.argmin(dists, axis=1) != tx))

    # trellis paths, 4 sections per frame
    spec = default_trellis()
    vit_errors = 0
    for _ in range(frames):
        bits = rng.integers(0, 2, size=16)
        idx = trellis_encode(spec, bits)
        h = channels_from_uniform(rng.random(4))
        blocks = [entries[i].matrix @ h for i in idx]
        res, got_bits = viterbi_decode(spec, blocks, h)
        vit_errors += int(not np.array_equal(got_bits, bits))

    # single-section agreement: trellis metric equals exhaustive ML metric
    reachable = sorted({i for t in spec.transitions if t.from_state == 0 for i in t.labels})
    cand = [entries[i] for i in reachable]
    metric_gap = 0.0
    sigma = 0.5
    for _ in range(200):
        h = channels_from_uniform(rng.random(4))
        k = reachable[int(rng.integers(0, len(reachable)))]
        noise = rng.standard_normal(4)
        r = entries[k].matrix @ h + sigma * (noise[0::2] + 1j * noise[1::2])
        ml = ml_block_decode(r, h, cand)
        vit, _ = viterbi_decode(spec, [r], h)
        metric_gap = max(metric_gap, abs(vit.metric - ml.metric))

    elapsed = time.perf_counter() - t0
    ok = ml_errors == 0 and vit_errors == 0 and metric_gap <= 1e-12 and elapsed < 60.0
    detail = ("frames=%d ml_errors=%d viterbi_errors=%d metric_gap=%.1e elapsed=%.1fs"
              % (frames, ml_errors, vit_errors, metric_gap, elapsed))
    assert _verdict("A6 noiseless detection is exact", ok, detail)


def test_a7_monte_carlo_link():
    t0 = time.perf_counter()
    high = SimConfig(mode="uncoded", snr_list_db=(30.0,), frames_per_point=2000,
                     base_seed=7, max_frame_errors=2000, sections_per_frame=50)
    row_high = run_simulation(high)[0]

    mid_common = dict(snr_list_db=(12.0,), frames_per_point=2000, base_seed=7,
                      max_frame_errors=2000, sections_per_frame=50)
    un_cfg = SimConfig(mode="uncoded", **mid_common)
    tr_cfg = SimConfig(mode="trellis", **mid_common)
    row_un = run_simulation(un_cfg)[0]
    row_tr = run_simulation(tr_cfg)[0]

    # rerun-to-rerun reproducibility, timing column excluded
    again_un = _strip_elapsed(format_csv(un_cfg, run_simulation(un_cfg)))
    first_un = _strip_elapsed(format_csv(un_cfg, [row_un]))
    small_tr = SimConfig(mode="trellis", snr_list_db=(12.0,), frames_per_point=100,
                         base_seed=7, max_frame_errors=2000, sections_per_frame=50)
    tr_a = _strip_elapsed(format_csv(small_tr, run_simulation(small_tr)))
    tr_b = _strip_elapsed(format_csv(small_tr, run_simulation(small_tr)))
    elapsed = time.perf_counter() - t0

    ok = (row_high.bits >= 400_000 and row_high.ber < 1e-3
          and row_tr.fer < row_un.fer
          and again_un == first_un and tr_a == tr_b
          and elapsed < 300.0)
    detail = ("ber30=%.2e uncoded_fer12=%.4f trellis_fer12=%.4f "
              "reproducible=%s elapsed=%.1fs"
              % (row_high.ber, row_un.fer, row_tr.fer,
                 again_un == first_un and tr_a == tr_b, elapsed))
    assert _verdict("A7 fading link performance", ok, detail)


def test_a8_distance_spectrum_triple_agreement(capsys):
    # independent oracle in plain python complex arithmetic
    alphabet = [cmath.exp(1j * (cmath.pi / 4 + k * cmath.pi / 2)) for k in range(4)]
    assert max(abs(alphabet[k] - QPSK[k]) for k in range(4)) < 1e-15
    cells = [[[alphabet[c] for c in row] for row in e.index_matrix]
             for e in build_constellation()]
    oracle = {}
    for i in range(32):
        for j in range(i + 1, 32):
            d2 = sum(abs(cells[i][r][c] - cells[j][r][c]) ** 2
                     for r in range(2) for c in range(2))
            key = round(d2, 9)
            oracle[key] = oracle.get(key, 0) + 1
    lib = {round(k, 9): v for k, v in distance_spectrum(which="FULL").items()}

    rc = main(["spectrum", "--which", "FULL"])
    out = capsys.readouterr().out
    cli = {round(float(a), 9): int(b)
           for a, b in (ln.split(",") for ln in out.strip().splitlines()[1:])}

    ok = (rc == 0 and oracle == lib == cli
          and lib == {4.0: 64, 8.0: 352, 12.0: 64, 16.0: 16})
    detail = "spectrum=%s" % sorted(lib.items())
    assert _verdict("A8 distance spectrum triple agreement", ok, detail)
