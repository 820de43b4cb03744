"""Quasi-static flat-fading channel and the equivalent real signal model.

One receive antenna.  Over a block of T channel uses with codematrix C and
channel vector h (length N, constant over the frame), the received samples
are r = C h + n with circularly symmetric Gaussian noise, variance sigma^2
per real dimension.  A channel is a complex array, (N,) for one draw or
(D, N) for D draws or one per section; channels_from_uniform draws it, and
designs.checked_array checks every channel and received-block input.

Flattening r to real coordinates turns each tagged design into a frame of
orthonormal columns: g_k = flatten(B_k h) / (sqrt(c) ||h||).  Stacking the
base and primed frames block-diagonally gives an orthonormal 4T x 4K matrix
G+, and a noiseless received block equals sqrt(c) ||h|| G+ chi+ with chi+ the
direct-sum coordinates of the transmitted point.  Distances and angles of
coordinate vectors therefore survive the fade up to the single gain
sqrt(c) ||h||: the constellation keeps its shape.

shape_invariance_audit measures that over many channel draws at once, and
build_equivalent_real_model gives the frames of one draw.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .constellation import matrix_stack
from .designs import checked_array
from .expansion import ExpandedConstellation, Subconstellation

#: Channel draws shape_invariance_audit evaluates together.  On 1000-draw
#: audits 16 ran within 7% of 32 or 64 draws, with a third to a half of
#: their added peak memory (about 1 MiB).  transmit forms the faded
#: candidates of as many frames at a time.  No result depends on it.
CHUNK_DRAWS = 16


def normals_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms u in [0, 1) by the Box-Muller transform.

    u has shape (..., 2m): along the last axis the first m uniforms are u1,
    the last m are u2, and pair j gives r cos(a) at slot 2j and r sin(a) at
    slot 2j + 1, with r = sqrt(-2 log(1 - u1_j)) and a = 2 pi u2_j.  Leading
    axes are independent rows.  This is the package's one Gaussian recipe,
    fixed so that seeded streams never drift: do not swap in rng.normal.
    """
    m = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log1p(-u[..., :m]))     # log1p avoids log(0)
    ang = 2.0 * np.pi * u[..., m:]
    out = np.empty(r.shape[:-1] + (2 * m,))
    trig = np.cos(ang)
    np.multiply(r, trig, out=out[..., 0::2])
    np.multiply(r, np.sin(ang, out=trig), out=out[..., 1::2])
    return out


def channels_from_uniform(u: np.ndarray) -> np.ndarray:
    """Rayleigh channel vectors (..., N) from uniforms u of shape (..., 2N).

    h_n = (a + jb)/sqrt(2) with (a, b) the n-th Box-Muller pair of
    normals_from_uniform(u) viewed as complex, as transmit views noise; E||h||^2 = N.
    """
    return normals_from_uniform(u).view(np.complex128) / np.sqrt(2.0)


def transmit(channels: np.ndarray, indices: np.ndarray, noise: np.ndarray,
             sigma: float) -> np.ndarray:
    """Received blocks r = C h + n of F frames, shape (F, blocks, T).

    Block b of frame f sends codematrix indices[f, b], an integer in 0..31,
    over channels[f], one draw h (N,) per frame.  noise (F, 2 * blocks * T),
    integer or float, holds standard normal draws, interleaved re/im per
    channel use, scaled by sigma, a finite real >= 0, per real dimension.
    transmit takes the noise over: a writeable C-contiguous float64 noise
    array is scaled in place and the blocks C h are added into it, so the
    result is a view of its buffer and the noise values are gone (any other
    noise is copied first).  Every input is checked, channels by
    checked_array; noise of another dtype (complex, bool, strings) is
    rejected before any cast, but its values are not scanned:
    viterbi_decode_frames rejects non-finite received blocks.  channels and
    indices are not written to.
    """
    mats = matrix_stack()
    channels = checked_array(channels, "channel", mats.shape[2], ndims=(2,))
    indices = np.asarray(indices)
    if indices.ndim != 2 or len(indices) != len(channels):
        raise ValueError("indices of shape %s do not match channels of shape %s"
                         % (indices.shape, channels.shape))
    if indices.dtype.kind not in "iu" or indices.size and not (
            0 <= indices.min() <= indices.max() < len(mats)):
        raise ValueError("codematrix indices must be integers in 0..%d" % (len(mats) - 1))
    indices = indices.astype(np.intp, copy=False)       # uint64 + intp would be float
    if not isinstance(sigma, numbers.Real) or not 0 <= sigma <= np.finfo(float).max:
        raise ValueError("sigma must be a finite real number >= 0, got %r" % (sigma,))
    noise = np.asarray(noise)
    want = (len(indices), 2 * indices.shape[1] * mats.shape[1])
    if noise.shape != want:
        raise ValueError("noise of shape %s does not match the expected shape %s"
                         % (noise.shape, want))
    if noise.dtype.kind not in "iuf":
        raise ValueError("noise must hold real numbers, got dtype %s" % noise.dtype)
    rec = np.require(noise, np.float64, "CW").view(np.complex128).reshape(
        indices.shape + mats.shape[1:2])
    rec *= float(sigma)
    # C h of each frame's 32 candidates, elementwise (cheaper than 32 matmuls),
    # for CHUNK_DRAWS frames at a time; the sent ones are gathered by one take
    # over the block's flat (frames * 32, T) stack
    for lo in range(0, len(rec), CHUNK_DRAWS):
        h = channels[lo:lo + CHUNK_DRAWS, None, None]
        faded = mats[..., 0] * h[..., 0] + mats[..., 1] * h[..., 1]
        sent = indices[lo:lo + CHUNK_DRAWS] + len(mats) * np.arange(len(faded))[:, None]
        rec[lo:lo + CHUNK_DRAWS] += np.take(faded.reshape(-1, mats.shape[1]), sent, axis=0)
    return rec


@dataclass(frozen=True, eq=False)
class EquivalentRealModel:
    """Orthonormal real frames induced by one channel realization."""

    base_frame: np.ndarray       # 2T x 2K
    primed_frame: np.ndarray     # 2T x 2K
    stacked_frame: np.ndarray    # 4T x 4K, block diagonal
    h_norm: float
    gain: float                  # sqrt(scale) * ||h||


def _frame_bases(e: ExpandedConstellation) -> np.ndarray:
    """The base and primed generator sets as one (2, 2K, T, N) array."""
    return np.stack([e.base_generators.stacked(), e.primed_generators.stacked()])


def _stacked_frames(bases: np.ndarray, scale: float, hs: np.ndarray):
    """Stacked frames (D, 4T, 4K), ||h|| (D,) and gains (D,) of D draws hs.

    Column k of each half is flatten(B_k h) / gain over that half's bases;
    the base and primed halves sit block-diagonally.  Degenerate fades
    (||h||^2 = 0 or subnormal) are rejected, as are draws whose ||h||^2
    overflows; the frames are undefined or inexact there.
    """
    try:
        with np.errstate(over="raise"):
            h_norm = np.sqrt(np.vecdot(hs.real, hs.real) + np.vecdot(hs.imag, hs.imag))
    except FloatingPointError:
        raise ValueError("channel draw too large: ||h||^2 overflows") from None
    if not (h_norm >= np.sqrt(np.finfo(float).tiny)).all():    # 2^-511: iff ||h||^2 normal
        raise ValueError("degenerate fade: ||h||^2 is 0 or subnormal")
    gain = np.sqrt(scale) * h_norm
    v = (bases @ hs[:, None, None, :, None])[..., 0]                 # (D, 2, 2K, T)
    d, _, two_k, t = v.shape
    flat = np.stack([v.real, v.imag], axis=-1).reshape(d, 2, two_k, 2 * t)
    halves = np.swapaxes(flat, 2, 3) / gain[:, None, None, None]     # (D, 2, 2T, 2K)
    stacked = np.zeros((d, 4 * t, 2 * two_k))
    stacked[:, :2 * t, :two_k] = halves[:, 0]
    stacked[:, 2 * t:, two_k:] = halves[:, 1]
    return stacked, h_norm, gain


def build_equivalent_real_model(e: ExpandedConstellation, h) -> EquivalentRealModel:
    """Orthonormal base/primed/stacked frames for one channel draw h (N,).

    Degenerate fades (||h||^2 = 0 or subnormal) and draws whose ||h||^2
    overflows are rejected; the frames are undefined or inexact there.
    """
    h = checked_array(h, "channel", e.base_generators.num_antennas)
    stacked, h_norm, gain = _stacked_frames(_frame_bases(e), e.base_generators.scale,
                                            h[None])
    frame = stacked[0]
    two_t, two_k = frame.shape[0] // 2, frame.shape[1] // 2
    return EquivalentRealModel(base_frame=frame[:two_t, :two_k],
                               primed_frame=frame[two_t:, two_k:],
                               stacked_frame=frame, h_norm=float(h_norm[0]),
                               gain=float(gain[0]))


@dataclass(frozen=True)
class ShapeInvarianceReport:
    """Measured shape-preservation errors, each the worst over the draws.

    max_gram_error: orthonormality defect of the stacked frame.
    max_distance_error: worst relative error of same-subconstellation
        received distances against gain * ||chi_a - chi_b||.
    max_angle_error: worst absolute error of pairwise cosine angles between
        direct-sum coordinates and their stacked-frame images.
    max_cross_distance_error: measured (not asserted) relative deviation of
        cross-subconstellation received distances from the same rule; this
        one depends on the channel draw and is reported for inspection.
    """

    max_gram_error: float
    max_distance_error: float
    max_angle_error: float
    max_cross_distance_error: float


def _worst(values: np.ndarray) -> float:
    return float(np.max(values)) if values.size else 0.0


def shape_invariance_audit(e: ExpandedConstellation, hs) -> ShapeInvarianceReport:
    """Measure how well channel draws preserve the constellation shape.

    hs is a (D, N) array of D channel draws; each field of the report is
    its worst value over all draws.  Draws are evaluated CHUNK_DRAWS at a time, and
    every number is computed exactly as for the draw alone, so the report
    equals the field-wise maximum of one-draw audits.  Any degenerate draw
    (||h||^2 = 0 or subnormal), or draw whose ||h||^2 or received distances
    overflow, raises ValueError.
    """
    hs = checked_array(hs, "channel", e.base_generators.num_antennas, ndims=(2,))
    bases, scale = _frame_bases(e), e.base_generators.scale
    chis = np.column_stack([p.chi_oplus for p in e.points])          # 4K x P
    mats = np.stack([p.matrix for p in e.points])                    # P x T x N
    four_k, n_pts = chis.shape
    # constants of the constellation over the upper-triangle pairs (a, b);
    # same-tag distance pairs come first, so each kind is one slice
    a, b = np.triu_indices(n_pts, k=1)
    d_chi = np.sqrt(np.sum((chis[:, :, None] - chis[:, None, :]) ** 2, axis=0))[a, b]
    is_base = np.array([p.tag is Subconstellation.BASE for p in e.points])
    same = is_base[a] == is_base[b]
    dist = np.flatnonzero(d_chi > 0.0)
    dist = dist[np.argsort(~same[dist], kind="stable")]
    n_same = np.count_nonzero(same[dist])
    a_d, b_d, d_chi = a[dist], b[dist], d_chi[dist]
    norms = np.linalg.norm(chis, axis=0)
    ang = norms[a] * norms[b] > 0.0
    a_c, b_c = a[ang], b[ang]
    cos_src = ((chis.T @ chis) / np.outer(norms, norms).clip(min=1e-300))[a_c, b_c]

    gram_err = dist_err = angle_err = cross_err = 0.0
    # _stacked_frames rejects an ||h||^2 overflow; one left is a squared distance
    try:
        with np.errstate(over="raise"):
            for lo in range(0, hs.shape[0], CHUNK_DRAWS):
                h = hs[lo:lo + CHUNK_DRAWS]
                stacked, _, gain = _stacked_frames(bases, scale, h)
                gram = np.swapaxes(stacked, 1, 2) @ stacked
                gram_err = max(gram_err, float(np.max(np.abs(gram - np.eye(four_k)))))

                # received distances against gain * coordinate distances; squares
                # are summed over the channel uses in order, as for one draw
                received = (mats @ h[:, None, :, None])[..., 0]                    # (D, P, T)
                d_phys = 0.0
                for t in range(received.shape[2]):    # a gather over all uses is 2x slower
                    diff = np.take(received[:, :, t], a_d, axis=1)
                    diff -= np.take(received[:, :, t], b_d, axis=1)
                    d_phys = d_phys + np.abs(diff) ** 2
                d_phys = np.sqrt(d_phys)
                d_coord = gain[:, None] * d_chi
                rel = np.abs(d_phys - d_coord) / d_coord
                dist_err = max(dist_err, _worst(rel[:, :n_same]))
                cross_err = max(cross_err, _worst(rel[:, n_same:]))

                # pairwise cosine angles of the coordinate vectors against their images
                images = stacked @ chis                                           # (D, 4K, P)
                inorms = np.linalg.norm(images, axis=1)
                cos_img = (np.swapaxes(images, 1, 2) @ images)[:, a_c, b_c]
                cos_img /= (inorms[:, a_c] * inorms[:, b_c]).clip(min=1e-300)
                angle_err = max(angle_err, _worst(np.abs(cos_img - cos_src)))
    except FloatingPointError:
        raise ValueError("channel draw too large: received distances overflow") from None

    return ShapeInvarianceReport(max_gram_error=gram_err,
                                 max_distance_error=dist_err,
                                 max_angle_error=angle_err,
                                 max_cross_distance_error=cross_err)
