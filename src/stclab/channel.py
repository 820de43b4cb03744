"""Quasi-static flat-fading channel and the equivalent real signal model.

One receive antenna.  Over a block of T channel uses with codematrix C and
channel vector h (length N, constant over the frame), the received samples
are r = C h + n with circularly symmetric Gaussian noise, variance sigma^2
per real dimension.  transmit applies this to whole frames at once, with
noise drawn beforehand (the simulator draws it from each frame's stream).

Flattening r to real coordinates turns each tagged design into a frame of
orthonormal columns: g_k = flatten(B_k h) / (sqrt(c) ||h||).  Stacking the
base and primed frames block-diagonally gives an orthonormal 4T x 4K matrix
G+, and a noiseless received block equals sqrt(c) ||h|| G+ chi+ with chi+ the
direct-sum coordinates of the transmitted point.  Distances and angles of
coordinate vectors therefore survive the fade up to the single gain
sqrt(c) ||h||: the constellation keeps its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import GeneratorSet
from .expansion import ExpandedConstellation, Subconstellation
from .linalg import matrix_to_real_vector


def standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal draws via the Box-Muller transform.

    Fixed to Box-Muller over rng.random() so that seeded streams stay
    reproducible across library versions; do not swap in rng.normal.
    """
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))     # log1p avoids log(0)
    ang = 2.0 * np.pi * u2
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:n]


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One channel draw: the coefficient vector h."""

    h: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.h, dtype=np.complex128).reshape(-1)
        if v.size < 1:
            raise ValueError("channel vector must be nonempty")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("channel coefficients must be finite")
        object.__setattr__(self, "h", v)

    @property
    def h_norm(self) -> float:
        return float(np.linalg.norm(self.h))


def sample_channel(rng: np.random.Generator, num_antennas: int) -> ChannelRealization:
    """Rayleigh draw: h_n = (a + jb)/sqrt(2), a, b standard normal.

    E||h||^2 = num_antennas.
    """
    if num_antennas < 1:
        raise ValueError("num_antennas must be positive")
    g = standard_normal(rng, 2 * num_antennas)
    h = (g[0::2] + 1j * g[1::2]) / np.sqrt(2.0)
    return ChannelRealization(h=h)


def transmit(codematrices: np.ndarray, h: np.ndarray, noise: np.ndarray,
             sigma: float) -> np.ndarray:
    """Received blocks r = C h + n of F frames, shape (F, blocks, T).

    codematrices (F, blocks, T, N) go over the frame's channel h[f] (h is
    (F, N)); noise (F, 2 * blocks * T) holds standard normal draws,
    interleaved re/im per channel use, scaled by sigma per real dimension.
    """
    clean = (codematrices @ h[:, None, :, None])[..., 0]
    return clean + sigma * (noise[:, 0::2] + 1j * noise[:, 1::2]).reshape(clean.shape)


@dataclass(frozen=True, eq=False)
class EquivalentRealModel:
    """Orthonormal real frames induced by one channel realization."""

    base_frame: np.ndarray       # 2T x 2K
    primed_frame: np.ndarray     # 2T x 2K
    stacked_frame: np.ndarray    # 4T x 4K, block diagonal
    h_norm: float
    gain: float                  # sqrt(scale) * ||h||


def _frame(g: GeneratorSet, ch: ChannelRealization, gain: float) -> np.ndarray:
    cols = [matrix_to_real_vector((b @ ch.h).reshape(-1, 1)) / gain for b in g.basis]
    return np.column_stack(cols)


def build_equivalent_real_model(e: ExpandedConstellation,
                                ch: ChannelRealization) -> EquivalentRealModel:
    """Orthonormal base/primed/stacked frames for one channel draw.

    Degenerate fades (||h|| = 0) are rejected; the frames are undefined there.
    """
    if ch.h.size != e.base_generators.num_antennas:
        raise ValueError("channel has %d coefficients, design expects %d"
                         % (ch.h.size, e.base_generators.num_antennas))
    hn = ch.h_norm
    if hn <= 0.0:
        raise ValueError("degenerate fade: ||h|| = 0 leaves no signal space")
    gain = float(np.sqrt(e.base_generators.scale) * hn)
    gb = _frame(e.base_generators, ch, gain)
    gp = _frame(e.primed_generators, ch, gain)
    two_t, two_k = gb.shape
    stacked = np.zeros((2 * two_t, 2 * two_k))
    stacked[:two_t, :two_k] = gb
    stacked[two_t:, two_k:] = gp
    return EquivalentRealModel(base_frame=gb, primed_frame=gp,
                               stacked_frame=stacked, h_norm=hn, gain=gain)


@dataclass(frozen=True)
class ShapeInvarianceReport:
    """Measured shape-preservation errors for one channel draw.

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


def shape_invariance_audit(e: ExpandedConstellation,
                           ch: ChannelRealization) -> ShapeInvarianceReport:
    """Measure how well one channel draw preserves the constellation shape."""
    model = build_equivalent_real_model(e, ch)
    four_k = e.points[0].chi_oplus.size
    chis = np.column_stack([p.chi_oplus for p in e.points])         # 4K x P
    received = np.column_stack([(p.matrix @ ch.h) for p in e.points])  # T x P
    n_pts = len(e.points)

    gram = model.stacked_frame.T @ model.stacked_frame
    gram_err = float(np.max(np.abs(gram - np.eye(four_k))))

    # pairwise received and coordinate distances, all pairs at once
    d_phys = np.sqrt(np.sum(
        np.abs(received[:, :, None] - received[:, None, :]) ** 2, axis=0))
    d_coord = model.gain * np.sqrt(np.sum(
        (chis[:, :, None] - chis[:, None, :]) ** 2, axis=0))
    upper = np.triu(np.ones((n_pts, n_pts), dtype=bool), k=1)
    nonzero = upper & (d_coord > 0.0)
    rel = np.zeros_like(d_phys)
    rel[nonzero] = np.abs(d_phys[nonzero] - d_coord[nonzero]) / d_coord[nonzero]
    base_mask = np.array([p.tag is Subconstellation.BASE for p in e.points])
    same = base_mask[:, None] == base_mask[None, :]
    dist_err = float(np.max(rel[nonzero & same])) if np.any(nonzero & same) else 0.0
    cross_err = float(np.max(rel[nonzero & ~same])) if np.any(nonzero & ~same) else 0.0

    # pairwise cosine angles of the coordinate vectors against their images
    images = model.stacked_frame @ chis
    norms = np.linalg.norm(chis, axis=0)
    inorms = np.linalg.norm(images, axis=0)
    ok = upper & (norms[:, None] * norms[None, :] > 0.0)
    cos_src = (chis.T @ chis) / np.outer(norms, norms).clip(min=1e-300)
    cos_img = (images.T @ images) / np.outer(inorms, inorms).clip(min=1e-300)
    angle_err = float(np.max(np.abs(cos_img - cos_src)[ok])) if np.any(ok) else 0.0

    return ShapeInvarianceReport(max_gram_error=gram_err,
                                 max_distance_error=dist_err,
                                 max_angle_error=angle_err,
                                 max_cross_distance_error=cross_err)
