"""Analytic oracle for the uncoded link: simulated BER and FER against closed forms.

Uncoded mode sends one 16-point BASE codematrix C = sqrt(c) sum_k chi_k B_k
per section (Alamouti's 2x1 scheme, c = 1/2), chi in {+-1}^4 with one bit
per coordinate (b -> 1 - 2b), over one channel h per frame.  The noise is
sigma^2 = 1 / (2 snr) per real dimension, snr = 10^(snr_db / 10) the
linear Es/N0 (taken from the dB value here, not from sigma_for_snr_db, so
that a wrong sigma shows).

Given h the flattened received block is sqrt(c) ||h|| G chi + w, with G the
4 x 4 orthonormal base frame of the equivalent real model and w white with
variance sigma^2 per dimension.  G^T w is white as well, so ML over the full
cube {+-1}^4 is a sign decision per coordinate, and every bit is in error
independently with probability

    p(g) = Q(sqrt(c g) / sigma) = Q(sqrt(snr g)),   g = ||h||^2.

g = |h_1|^2 + |h_2|^2 is a sum of two unit exponentials, density g e^{-g}.

BER.  With gamma = snr / 2, p(g) = Q(sqrt(2 gamma g)), and
d/dg Q(sqrt(2 gamma g)) = -sqrt(gamma / (4 pi g)) e^{-gamma g}.  Integrating
by parts against the antiderivative -(1 + g) e^{-g} of g e^{-g}:

    P = Q(0) - sqrt(gamma / (4 pi)) int_0^inf (g^{-1/2} + g^{1/2}) e^{-(1+gamma) g} dg
      = 1/2 - sqrt(gamma / (4 pi)) (Gamma(1/2) (1+gamma)^{-1/2} + Gamma(3/2) (1+gamma)^{-3/2})
      = 1/2 - (mu / 2) (1 + (1 - mu^2) / 2),     mu = sqrt(gamma / (1 + gamma)),

since Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi) / 2 and 1 / (1 + gamma) =
1 - mu^2.  That is (2 - 3 mu + mu^3) / 4 = ((1 - mu) / 2)^2 (2 + mu), the
two-branch maximal-ratio-combining BER.

FER.  A frame of S sections carries 4 S bits, all seeing the same g, so

    FER = int_0^inf (1 - (1 - p(g))^{4 S}) g e^{-g} dg,

computed here, as is the BER integral it checks the closed form with, by
the trapezoid rule in t = sqrt(g): g e^{-g} dg = 2 t^3 e^{-t^2} dt, and
p(t^2) = Q(sqrt(snr) t) is smooth at t = 0 where p(g) is not.

The bits of a frame share one h, so bit errors cluster by frame: the
standard error of the BER comes from the spread of per-frame error counts,
not from a binomial over bits (which would be several times too narrow).
Frames are independent, so the FER's is binomial over frames.

Trellis lower bound.  The 4 parallel labels of every branch of the shipped
8-state trellis form a square: given h, each label's faded candidate C h
lies at squared distance 4 g from two of the others, along orthogonal
directions in the real model, and 8 g from the third.  So a section's sent
label loses to one of its parallel labels with probability
1 - (1 - Q(2 sqrt(g) / (2 sigma)))^2 = 1 - (1 - Q(sqrt(2 snr g)))^2, the
sections of a frame independently given h.  Any such loss makes the frame
an error, since swapping the label makes a path with a smaller metric than
the sent one, so

    FER >= 1 - int_0^inf (1 - Q(sqrt(2 snr g)))^{2 S} g e^{-g} dg.

The bound leaves out every error event between different paths, so it can
only catch a link that errs too rarely, such as one with too small a noise
sigma; an upper bound is still missing.
"""

import math

import numpy as np

from stclab import simulate
from stclab.constellation import matrix_stack
from stclab.detectors import default_trellis
from stclab.simulate import SimConfig, run_point

# fixed before the first run: three SNRs, one seed, |z| <= 4 for both rates
CFG = SimConfig(mode="uncoded", snr_list_db=(4.0, 10.0, 16.0), frames_per_point=20_000,
                base_seed=2027, sections_per_frame=20, max_frame_errors=20_000)
Z_BOUND = 4.0
# fixed before the first run, like CFG: the trellis lower bound's points, frames and seed
TRELLIS_CFG = SimConfig(mode="trellis", snr_list_db=(6.0, 8.0, 10.0), frames_per_point=10_000,
                        base_seed=2027, sections_per_frame=20, max_frame_errors=10_000)
ROOTS = np.linspace(0.0, math.sqrt(40.0), 100_001)     # t = sqrt(g); g e^{-g} < 1e-15 beyond


def _snr(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def oracle_ber(snr: float) -> float:
    mu = math.sqrt((snr / 2) / (1 + snr / 2))
    return ((1 - mu) / 2) ** 2 * (2 + mu)


def _bit_error_given_g(snr: float) -> np.ndarray:
    """p(g) = Q(sqrt(snr g)) at g = t^2 for t in ROOTS."""
    return np.array([0.5 * math.erfc(math.sqrt(snr / 2) * t) for t in ROOTS])


def _average_over_g(values: np.ndarray) -> float:
    """int values(g) g e^{-g} dg from values at g = t^2, t in ROOTS."""
    return float(np.trapezoid(values * 2 * ROOTS ** 3 * np.exp(-ROOTS ** 2), ROOTS))


def oracle_fer(snr: float, sections: int) -> float:
    p = _bit_error_given_g(snr)
    return _average_over_g(-np.expm1(4 * sections * np.log1p(-p)))


def test_ber_closed_form_equals_its_integral():
    for snr_db in CFG.snr_list_db:
        snr = _snr(snr_db)
        integral = _average_over_g(_bit_error_given_g(snr))
        assert abs(integral - oracle_ber(snr)) <= 1e-9 * oracle_ber(snr), snr_db


def _per_frame_bit_errors(monkeypatch, point: int):
    """run_point's row and the bit errors of each of its frames, in order."""
    sent, decided = [], []
    encode, decode = simulate.trellis_encode_frames, simulate.viterbi_decode_frames

    def spy_encode(spec, bits, *args):
        sent.append(bits)
        return encode(spec, bits, *args)

    def spy_decode(*args):
        out = decode(*args)
        decided.append(out[0])
        return out

    monkeypatch.setattr(simulate, "trellis_encode_frames", spy_encode)
    monkeypatch.setattr(simulate, "viterbi_decode_frames", spy_decode)
    row = run_point(CFG, point)
    errs = np.count_nonzero(np.concatenate(sent) != np.concatenate(decided), axis=1)
    assert errs.size == row.frames == CFG.frames_per_point
    assert int(errs.sum()) == row.bit_errors
    assert np.count_nonzero(errs) == row.frame_errors
    return row, errs


def test_uncoded_link_matches_the_analytic_oracle(monkeypatch):
    report, worst = [], 0.0
    for point, snr_db in enumerate(CFG.snr_list_db):
        row, errs = _per_frame_bit_errors(monkeypatch, point)
        snr, frames = _snr(snr_db), row.frames
        bits_per_frame = row.bits // frames
        ber, fer = oracle_ber(snr), oracle_fer(snr, CFG.sections_per_frame)
        z_ber = (row.ber - ber) / (errs.std(ddof=1) / math.sqrt(frames) / bits_per_frame)
        z_fer = (row.fer - fer) / math.sqrt(fer * (1 - fer) / frames)
        worst = max(worst, abs(z_ber), abs(z_fer))
        report.append("%g dB: BER %.4e vs %.4e (z=%.2f), FER %.4f vs %.4f (z=%.2f)"
                      % (snr_db, row.ber, ber, z_ber, row.fer, fer, z_fer))
    assert worst <= Z_BOUND, "\n".join(report)


def parallel_error_fer_bound(snr: float, sections: int) -> float:
    """1 - E_g[(1 - Q(sqrt(2 snr g)))^(2 S)], with Q(sqrt(2 snr g)) at g = t^2."""
    q = np.array([0.5 * math.erfc(math.sqrt(snr) * t) for t in ROOTS])
    return _average_over_g(-np.expm1(2 * sections * np.log1p(-q)))


def test_parallel_labels_are_squares_under_every_fade():
    # the premise of the bound, on every label of every branch row
    mats, rng = matrix_stack(), np.random.default_rng(2027)
    for _ in range(20):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = float(np.vdot(h, h).real)
        for row in default_trellis().cosets:
            faded = mats[row] @ h
            for sent in faded:
                d = np.sum(np.abs(faded - sent) ** 2, axis=1) / g
                assert np.allclose(np.sort(d), [0.0, 4.0, 4.0, 8.0], rtol=0, atol=1e-12)
                a, b = faded[np.abs(d - 4.0) < 1e-9] - sent
                assert abs(np.vdot(a, b).real) <= 1e-12 * g


def test_trellis_fer_is_above_the_parallel_error_bound():
    report, worst = [], math.inf
    for point, snr_db in enumerate(TRELLIS_CFG.snr_list_db):
        row = run_point(TRELLIS_CFG, point)
        assert row.frames == TRELLIS_CFG.frames_per_point
        bound = parallel_error_fer_bound(_snr(snr_db), TRELLIS_CFG.sections_per_frame)
        z = (row.fer - bound) / math.sqrt(bound * (1 - bound) / row.frames)
        worst = min(worst, z)
        report.append("%g dB: FER %.4f, lower bound %.4f, ratio %.2f (z=%.2f)"
                      % (snr_db, row.fer, bound, row.fer / bound, z))
    assert worst >= -Z_BOUND, "\n".join(report)
