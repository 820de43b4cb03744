from dataclasses import fields

import numpy as np
import pytest

from stclab.channel import (
    CHUNK_DRAWS,
    ShapeInvarianceReport,
    build_equivalent_real_model,
    channels_from_uniform,
    normals_from_uniform,
    shape_invariance_audit,
    transmit,
)
from stclab.constellation import build_constellation, chi_coordinates, chi_table, matrix_stack
from stclab.designs import alamouti_generators
from stclab.expansion import Subconstellation, expand

# frozen draw: Box-Muller over default_rng(42).random()
NORMALS_SEED42 = np.array([
    1.0875171856576933,
    -1.3384162346977395,
    -0.34905600789477786,
    -1.016757260780131,
])

H_SEED42 = np.array([
    0.7689907766354644 - 0.9464031956049372j,
    -0.24681987019630247 - 0.7189559539182895j,
])


def _re_im(m):
    """Reference real flattening of a matrix: column-major, entry by entry,
    the real part then the imaginary part."""
    return np.array([part for col in np.asarray(m).T for z in col
                     for part in (z.real, z.imag)])


def test_reference_flattening_is_column_major_re_im():
    assert np.array_equal(_re_im(np.array([[1 + 1j], [0 + 0j]])), [1.0, 1.0, 0.0, 0.0])
    # columns first: (0,0), (1,0), (0,1), (1,1)
    assert np.array_equal(_re_im(np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])),
                          [1, 2, 5, 6, 3, 4, 7, 8])


def _grid():
    return [np.array([a, b, c, d], dtype=float)
            for a in (-1, 1) for b in (-1, 1) for c in (-1, 1) for d in (-1, 1)]


def _expanded():
    return expand(alamouti_generators(), _grid(), np.diag([1.0, -1.0]))


def _channel(rng):
    """One Rayleigh draw h (2,) from four uniforms of rng."""
    return channels_from_uniform(rng.random(4))


def test_standard_normal_stream_is_frozen():
    got = normals_from_uniform(np.random.default_rng(42).random(4))
    assert np.array_equal(got, NORMALS_SEED42), "generator recipe must not drift"


def test_standard_normal_moments():
    x = normals_from_uniform(np.random.default_rng(7).random(200_000))
    assert abs(float(x.mean())) < 0.01
    assert abs(float(x.var()) - 1.0) < 0.02
    assert np.all(np.isfinite(x))


def test_channels_from_uniform_frozen_and_normalized():
    assert np.array_equal(_channel(np.random.default_rng(42)), H_SEED42)
    trials = 20_000
    hs = channels_from_uniform(np.random.default_rng(8).random((trials, 4)))
    assert hs.shape == (trials, 2)
    power = np.sum(np.abs(hs) ** 2) / trials
    assert abs(power - 2.0) < 0.05, "E||h||^2 = num_antennas"


def test_transmit_noiseless_and_noise_scaling():
    mats = matrix_stack()
    rng = np.random.default_rng(9)
    frames, blocks = 500, 20
    idx = rng.integers(0, 32, size=(frames, blocks))
    h = np.stack([_channel(rng) for _ in range(frames)])
    noise = normals_from_uniform(rng.random(frames * 4 * blocks)).reshape(frames, 4 * blocks)
    clean = transmit(h, idx, noise.copy(), 0.0)        # transmit takes its noise over
    assert clean.shape == (frames, blocks, 2)
    # the gather is the product C h of every sent codematrix, byte for byte
    assert clean.tobytes() == (mats[idx] @ h[:, None, :, None])[..., 0].tobytes()
    # with noise: residual variance matches 2*sigma^2 per complex sample
    sigma = 0.3
    r = transmit(h, idx, noise, sigma)
    assert r.shape == (frames, blocks, 2)
    per_complex = float(np.mean(np.abs(r - clean) ** 2))
    assert abs(per_complex - 2 * sigma ** 2) < 0.005


def _two_temporary_normals(u):
    """Box-Muller as normals_from_uniform first wrote it: a cos and a sin temporary."""
    m = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log1p(-u[..., :m]))
    ang = 2.0 * np.pi * u[..., m:]
    out = np.empty(r.shape[:-1] + (2 * m,))
    out[..., 0::2] = r * np.cos(ang)
    out[..., 1::2] = r * np.sin(ang)
    return out


@pytest.mark.parametrize("shape, cols", [((8,), slice(None)), ((3, 402), slice(None)),
                                         ((2, 5, 6), slice(None)), ((7, 404), slice(204, None))])
def test_normals_from_uniform_equal_the_two_temporary_formula(shape, cols):
    # the last case reads the noise columns of uniform rows, as the simulator does
    u = np.random.default_rng(13).random(shape)[..., cols]
    got, want = normals_from_uniform(u), _two_temporary_normals(u)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [0.0, 1e-3, 1e3])
def test_transmit_equals_gather_plus_scaled_noise_in_the_noise_buffer(sigma):
    # 37 frames: the candidates are formed for CHUNK_DRAWS frames at a time,
    # the last block short
    rng = np.random.default_rng(17)
    frames, blocks = 37, 11
    h = rng.standard_normal((frames, 2)) + 1j * rng.standard_normal((frames, 2))
    idx = rng.integers(0, 32, size=(frames, blocks))
    noise = rng.standard_normal((frames, 4 * blocks))
    # the gather from a table of each frame's 32 faded candidates C h
    mats = matrix_stack()
    faded = mats[..., 0] * h[:, None, None, 0] + mats[..., 1] * h[:, None, None, 1]
    want = faded[np.arange(frames)[:, None], idx] + sigma * (
        noise[:, 0::2] + 1j * noise[:, 1::2]).reshape(frames, blocks, 2)
    # noise that is not writeable C-contiguous float64 is copied and left as it is
    fortran, frozen = np.asfortranarray(noise), noise.copy()
    frozen.flags.writeable = False
    for kept in (fortran, frozen):
        got = transmit(h, idx, kept, sigma)
        assert kept.tobytes() == noise.tobytes() and not np.shares_memory(got, kept)
        assert got.tobytes() == want.tobytes()
    # indices of any integer dtype gather the same blocks
    for dtype in (np.uint8, np.int16, np.uint64):
        assert transmit(h, idx.astype(dtype), fortran, sigma).tobytes() == want.tobytes()
    # C-contiguous float64 noise is taken over: the blocks are formed in its buffer
    h_bytes, idx_bytes = h.tobytes(), idx.tobytes()
    got = transmit(h, idx, noise, sigma)
    assert h.tobytes() == h_bytes and idx.tobytes() == idx_bytes
    assert np.shares_memory(got, noise)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


#: sigma values that transmit rejects, by case of test_transmit_rejects_malformed_input.
BAD_SIGMAS = {"sigma NaN": np.nan, "sigma inf": np.inf, "sigma -1": -1.0, "sigma 1j": 1j,
              "sigma array": np.array([0.5, 0.5]), "sigma abc": "abc", "sigma None": None}


@pytest.mark.parametrize("case, message", [
    ("index -1", r"^codematrix indices must be integers in 0\.\.31$"),
    ("index 40", r"^codematrix indices must be integers in 0\.\.31$"),
    ("index 1.5", r"^codematrix indices must be integers in 0\.\.31$"),
    ("one channel short", r"^indices of shape \(3, 4\) do not match channels of shape \(2, 2\)$"),
    ("1-D indices", r"^indices of shape \(4,\) do not match channels of shape \(3, 2\)$"),
    ("NaN channel", "^channel coefficients must be finite$"),
    ("three channel columns", "^channel has 3 coefficients, expected 2$"),
    ("noise of 5 columns",
     r"^noise of shape \(2, 5\) does not match the expected shape \(2, 12\)$"),
    ("noise of 16 columns",
     r"^noise of shape \(2, 16\) does not match the expected shape \(2, 12\)$"),
    ("complex noise", "^noise must hold real numbers, got dtype complex128$"),
    ("str noise", "^noise must hold real numbers, got dtype <U32$"),
    ("bool noise", "^noise must hold real numbers, got dtype bool$"),
] + [(case, "^sigma must be a finite real number >= 0, got ") for case in BAD_SIGMAS])
def test_transmit_rejects_malformed_input(case, message):
    # index -1 used to send entry 31; a bad sigma gave plausible or non-finite
    # blocks, and complex, str or bool noise was cast to float64; the others
    # failed inside numpy
    rng = np.random.default_rng(3)
    h = channels_from_uniform(rng.random((3, 4)))
    idx = rng.integers(0, 32, size=(3, 4))
    noise, sigma = np.zeros((3, 16)), 0.5
    if case == "index -1":
        idx[1, 2] = -1
    elif case == "index 40":
        idx[2, 3] = 40
    elif case == "index 1.5":
        idx = idx + 0.5
    elif case == "one channel short":
        h = h[:2]
    elif case == "1-D indices":
        idx = idx[0]
    elif case == "NaN channel":
        h[0, 1] = complex(np.nan, 0.0)
    elif case.startswith("noise"):     # 2 frames of 3 blocks take 12 noise columns
        h, idx, noise = h[:2], idx[:2, :3], np.zeros((2, int(case.split()[2])))
    elif case.endswith("noise"):
        h, idx, noise = h[:2], idx[:2, :3], np.zeros((2, 12)).astype(case.split()[0])
    elif case.startswith("sigma"):
        h, idx, noise, sigma = h[:2], idx[:2, :3], np.zeros((2, 12)), BAD_SIGMAS[case]
    else:
        h = np.column_stack([h, h[:, :1]])
    with pytest.raises(ValueError, match=message):
        transmit(h, idx, noise, sigma)


def test_equivalent_real_model_orthonormal_frames():
    e = _expanded()
    rng = np.random.default_rng(23)
    for _ in range(50):
        h = _channel(rng)
        model = build_equivalent_real_model(e, h)
        assert model.base_frame.shape == (4, 4)
        assert model.stacked_frame.shape == (8, 8)
        for f in (model.base_frame, model.primed_frame, model.stacked_frame):
            gram = f.T @ f
            assert np.max(np.abs(gram - np.eye(f.shape[1]))) < 1e-12
        assert abs(model.gain - np.sqrt(0.5) * np.linalg.norm(h)) < 1e-15
    with pytest.raises(ValueError, match="degenerate"):
        build_equivalent_real_model(e, np.zeros(2, complex))


def test_received_vector_equals_gain_frame_chi():
    e = _expanded()
    entries = build_constellation()
    rng = np.random.default_rng(24)
    for _ in range(20):
        h = _channel(rng)
        model = build_equivalent_real_model(e, h)
        for entry in entries:
            co = chi_coordinates(entry)
            # flattened received block in the half of its tag, zeros elsewhere
            y = np.zeros(8)
            half = 0 if entry.subconstellation is Subconstellation.BASE else 4
            y[half:half + 4] = _re_im((entry.matrix @ h).reshape(-1, 1))
            want = model.gain * (model.stacked_frame @ co)
            assert np.max(np.abs(y - want)) < 1e-12


def test_shape_invariance_audit_errors_near_machine_eps():
    e = _expanded()
    rng = np.random.default_rng(25)
    worst_cross = 0.0
    for _ in range(100):
        rep = shape_invariance_audit(e, _channel(rng)[None])
        assert rep.max_gram_error < 1e-12
        assert rep.max_distance_error < 1e-11
        assert rep.max_angle_error < 1e-11
        worst_cross = max(worst_cross, rep.max_cross_distance_error)
    # cross-subconstellation distances genuinely move with the fade
    assert worst_cross > 0.1


def test_audit_without_primed_points_reports_a_float_zero_cross_error():
    # U = I maps every base point onto itself, so no PRIMED point is kept and
    # there is no cross-subconstellation pair to take a worst value over
    e = expand(alamouti_generators(), list(chi_table()[:16, :4]), np.eye(2))
    assert {p.tag for p in e.points} == {Subconstellation.BASE}
    rep = shape_invariance_audit(e, np.stack([_channel(np.random.default_rng(s))
                                              for s in range(3)]))
    assert rep.max_cross_distance_error == 0.0
    assert [type(getattr(rep, f.name)) for f in fields(rep)] == [float] * 4


@pytest.mark.parametrize("trials", [1, CHUNK_DRAWS - 1, CHUNK_DRAWS + 1, 300])
def test_batched_audit_is_the_worst_one_draw_audit(trials):
    e = _expanded()
    rng = np.random.default_rng(1000 + trials)
    hs = np.stack([_channel(rng) for _ in range(trials)])
    got = shape_invariance_audit(e, hs)
    singles = [shape_invariance_audit(e, h[None]) for h in hs]
    for f in fields(ShapeInvarianceReport):
        assert getattr(got, f.name) == max(getattr(r, f.name) for r in singles), f.name
    assert shape_invariance_audit(e, hs[:1]) == singles[0]


@pytest.mark.parametrize("trials", [1, CHUNK_DRAWS + 1, 40])
def test_audit_of_a_channel_array_equals_the_realizations(trials):
    # one uniform fill for all draws gives the per-draw realizations' audits
    e = _expanded()
    hs = channels_from_uniform(np.random.default_rng(2000 + trials).random(4 * trials)
                               .reshape(trials, 4))
    rng = np.random.default_rng(2000 + trials)
    realizations = [_channel(rng) for _ in range(trials)]
    for k in (0, trials // 2, trials - 1):
        assert (shape_invariance_audit(e, hs[k:k + 1])
                == shape_invariance_audit(e, realizations[k][None]))


def test_audit_rejects_bad_channel_arrays():
    e = _expanded()
    hs = np.stack([_channel(np.random.default_rng(27))] * 3)
    with pytest.raises(ValueError, match="no channel draws"):
        shape_invariance_audit(e, hs[:0])
    with pytest.raises(ValueError, match="3 coefficients"):
        shape_invariance_audit(e, np.ones((2, 3), complex))
    with pytest.raises(ValueError, match="channel array must be"):
        shape_invariance_audit(e, hs[0])
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        worse = hs.copy()
        worse[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            shape_invariance_audit(e, worse)
    worse = hs.copy()
    worse[1] = 0.0
    with pytest.raises(ValueError, match="degenerate"):
        shape_invariance_audit(e, worse)


def test_audit_rejects_a_draw_whose_norm_overflows():
    # ||h||^2 overflows to inf: the relative distance errors would be NaN,
    # which max() drops, so the audit would pass on garbage.  The rejection
    # comes before any overflow warning, which the test run makes an error.
    e = _expanded()
    huge = np.full((1, 2), 1e200)
    normal = _channel(np.random.default_rng(28))[None]
    for hs in (huge, np.concatenate([normal, huge]), np.concatenate([huge, normal])):
        with pytest.raises(ValueError, match="too large"):
            shape_invariance_audit(e, hs)
    with pytest.raises(ValueError, match="too large"):
        build_equivalent_real_model(e, huge[0])


@pytest.mark.parametrize("h", [[1e-160, 1e-160], [1e-154, 1e-154],
                               [np.nextafter(2.0 ** -511, 0.0), 0.0]])
def test_a_subnormal_fade_is_rejected(h):
    # ||h||^2 below the smallest normal float, 2^-1022: frames built from that
    # norm are inexact (a gram error of 1e-5 at 1e-160), so the draw is rejected
    e = _expanded()
    with pytest.raises(ValueError, match="degenerate fade"):
        shape_invariance_audit(e, np.array([h]))
    with pytest.raises(ValueError, match="degenerate fade"):
        build_equivalent_real_model(e, np.array(h))


@pytest.mark.parametrize("h", [[1.5e-154, 1.5e-154], [2.0 ** -511, 0.0]])
def test_the_smallest_normal_fades_still_audit(h):
    e = _expanded()
    assert shape_invariance_audit(e, np.array([h])).max_gram_error < 1e-15
    model = build_equivalent_real_model(e, np.array(h))
    assert np.max(np.abs(model.stacked_frame.T @ model.stacked_frame - np.eye(8))) < 1e-15


def test_audit_rejects_a_draw_whose_received_distances_overflow():
    # ||h||^2 = 5e307 is finite, but the squared distance of two received
    # blocks overflows: a ValueError, not an overflow warning and an inf
    # report, in any chunk; draws of 3e153 still audit cleanly
    e = _expanded()
    rng = np.random.default_rng(29)
    normal = np.stack([_channel(rng) for _ in range(CHUNK_DRAWS + 1)])
    for pos in (0, CHUNK_DRAWS + 1):
        with pytest.raises(ValueError, match="received distances overflow"):
            shape_invariance_audit(e, np.insert(normal, pos, 5e153, axis=0))
    rep = shape_invariance_audit(e, np.concatenate([normal, np.full((1, 2), 3e153)]))
    assert rep.max_distance_error < 1e-11 and np.isfinite(rep.max_cross_distance_error)


def test_batched_audit_rejects_bad_draws_anywhere():
    e = _expanded()
    rng = np.random.default_rng(26)
    hs = np.stack([_channel(rng) for _ in range(2 * CHUNK_DRAWS + 3)])
    for pos in (0, CHUNK_DRAWS + 1, len(hs)):
        with pytest.raises(ValueError, match="degenerate"):
            shape_invariance_audit(e, np.insert(hs, pos, 0.0, axis=0))
    with pytest.raises(ValueError, match="coefficients"):
        shape_invariance_audit(e, np.ones((1, 3), complex))
    with pytest.raises(ValueError, match="no channel draws"):
        shape_invariance_audit(e, np.empty((0, 2), complex))
