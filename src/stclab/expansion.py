"""First-tier constellation expansion and its discernibility audits.

An expansion replaces a design constellation G by G union G*U*zeta, where U
is unitary and zeta unimodular.  Every expanded point is tagged BASE or
PRIMED, and each tag keeps its own generator quadruple: the primed basis is
the base one right-multiplied by U*zeta and satisfies the same Radon-Hurwitz
condition at the same scale.

Two matrices are the same point when they agree entrywise within
SET_MATCH_TOL = 1e-10 (max-abs); expand, decompose_direct_sum and the
classification all use that one rule.

Discernibility is decided from the total multiplier V = U*zeta alone, which
makes the classification invariant under the reparameterization
(U, zeta) -> (U*conj(w), zeta*w):

  * NOT_AN_EXPANSION  -- the expansion adds no point: every image point is
    already a point of G;
  * INDISCERNIBLE     -- V is a scalar w*I (pure symbol rotation);
  * DIRECT_DISCERNIBLE -- V already has an all-real eigenvalue spectrum;
  * INDIRECT_DISCERNIBLE -- some unimodular de-rotation w puts the spectrum
    of V*w on the real axis.

Inputs whose spectrum has two distinct eigenvalues that no scalar rotation
makes real sit outside the discernible taxonomy; they are reported as
INDISCERNIBLE with an explicit borderline note in the witness rather than
being promoted to a class whose separation guarantees they do not carry.
Scalar rotations with a genuinely complex w are flagged the same way: for
bases that do not span a rotation-closed subspace, G*w can leave the design
span entirely (the shipped 2x2 quadruple is such a case), so the in-span
reading of INDISCERNIBLE must not be taken on faith there.  The span audits
below always report measured numbers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .designs import (
    GeneratorSet,
    analyze,
    checked_array,
    checked_coordinates,
    checked_unimodular,
    design_matrix,
    span_residuals,
    synthesize,
)

SET_MATCH_TOL = 1e-10
DEROTATION_TOL = 1e-9
SPAN_SEPARATION_TOL = 1e-6


class Subconstellation(Enum):
    BASE = "BASE"
    PRIMED = "PRIMED"


class ExpansionKind(Enum):
    NOT_AN_EXPANSION = "NOT_AN_EXPANSION"
    INDISCERNIBLE = "INDISCERNIBLE"
    DIRECT_DISCERNIBLE = "DIRECT_DISCERNIBLE"
    INDIRECT_DISCERNIBLE = "INDIRECT_DISCERNIBLE"


@dataclass(frozen=True)
class ExpansionClass:
    kind: ExpansionKind
    witness: str


@dataclass(frozen=True, eq=False)
class TaggedPoint:
    """One expanded-constellation point with its direct-sum coordinates.

    chi_oplus has length 4K: the first 2K slots hold base-design coordinates,
    the last 2K primed-design coordinates, and exactly one half is nonzero.
    """

    matrix: np.ndarray
    tag: Subconstellation
    chi_oplus: np.ndarray


@dataclass(frozen=True, eq=False)
class ExpandedConstellation:
    base_generators: GeneratorSet
    primed_generators: GeneratorSet
    unitary: np.ndarray
    zeta: complex
    points: tuple
    degenerate: bool

    def base_points(self):
        return [p for p in self.points if p.tag is Subconstellation.BASE]

    def primed_points(self):
        return [p for p in self.points if p.tag is Subconstellation.PRIMED]


def _check_multiplier(unitary, zeta) -> tuple[np.ndarray, complex]:
    u = checked_array(unitary, "matrix", None, ndims=(2,))
    if u.shape[0] != u.shape[1]:
        raise ValueError("unitarity is defined for square matrices, got %s"
                         % (u.shape,))
    if not np.max(np.abs(u.conj().T @ u - np.eye(len(u))), initial=0.0) <= 1e-10:
        raise ValueError("expansion matrix must be unitary within 1e-10")
    return u, checked_unimodular(zeta)


def _matches(mats, candidates) -> np.ndarray:
    """Table of agreement: row i, column j is True when mats[i] and
    candidates[j] agree entrywise within SET_MATCH_TOL (max-abs)."""
    gap = np.abs(np.asarray(mats)[:, None] - np.asarray(candidates)[None, :])
    return np.max(gap, axis=(-2, -1)) <= SET_MATCH_TOL


def expand(g: GeneratorSet, point_chis, unitary, zeta=1.0) -> ExpandedConstellation:
    """Expand the constellation {S(chi)} by its image under U*zeta.

    Primed points keep the chi of their pre-image: S(chi)*U*zeta is exactly
    the primed-basis synthesis of the same coordinates.  An image point that
    matches a base point (max-abs within 1e-10) is dropped and the expansion
    is marked degenerate; repeated base points are all kept.
    """
    u, z = _check_multiplier(unitary, zeta)
    if u.shape != (g.num_antennas, g.num_antennas):
        raise ValueError("expansion matrix must be %d x %d" % (g.num_antennas, g.num_antennas))
    chis = [checked_coordinates(c, "point_chis") for c in point_chis]
    if not chis:
        raise ValueError("point_chis must be nonempty")
    gp = GeneratorSet(tuple(b @ u * z for b in g.basis), g.scale)
    base = [synthesize(g, chi) for chi in chis]
    image = [synthesize(gp, chi) for chi in chis]
    collides = _matches(image, base).any(axis=1)
    zeros = np.zeros(2 * g.num_symbols)
    points = [TaggedPoint(s, Subconstellation.BASE, np.concatenate([chi, zeros]))
              for s, chi in zip(base, chis)]
    points += [TaggedPoint(s, Subconstellation.PRIMED, np.concatenate([zeros, chi]))
               for s, chi, hit in zip(image, chis, collides) if not hit]
    return ExpandedConstellation(base_generators=g, primed_generators=gp,
                                 unitary=u, zeta=z, points=tuple(points),
                                 degenerate=bool(collides.any()))


def classify_expansion(unitary, zeta, g: GeneratorSet, point_chis) -> ExpansionClass:
    """Classify the expansion of {S(chi)} by V = U*zeta.

    NOT_AN_EXPANSION exactly when expand(g, point_chis, V) keeps no PRIMED
    point.  Only 2x2 multipliers are supported (closed-form spectrum);
    larger dimensions would also need the more-than-two-distinct-eigenvalues
    clause.
    """
    u, z = _check_multiplier(unitary, zeta)
    if u.shape != (2, 2):
        raise ValueError("classification supports 2x2 multipliers only, got %s" % (u.shape,))
    v = u * z
    if not expand(g, point_chis, v).primed_points():
        return ExpansionClass(ExpansionKind.NOT_AN_EXPANSION,
                              "image set coincides with the base set")
    off = max(abs(v[0, 1]), abs(v[1, 0]), abs(v[0, 0] - v[1, 1]))
    if off <= SET_MATCH_TOL:
        w = complex(v[0, 0])
        note = "total multiplier is scalar w*I, w=%.12g%+.12gj" % (w.real, w.imag)
        if abs(w.imag) > DEROTATION_TOL:
            note += ("; borderline: w is complex, so the rotated set can leave "
                     "the design span unless the span is rotation closed")
        return ExpansionClass(ExpansionKind.INDISCERNIBLE, note)
    # the closed-form quadratic, in descending order of (real, imaginary) part
    tr = complex(v[0, 0] + v[1, 1])
    det = complex(v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0])
    disc = complex(np.sqrt(complex(tr * tr - 4.0 * det)))
    lo, hi = sorted(((tr + disc) / 2.0, (tr - disc) / 2.0),
                    key=lambda z: (z.real, z.imag))
    eigs = (hi, lo)
    if all(abs(lam.imag) <= DEROTATION_TOL for lam in eigs):
        return ExpansionClass(
            ExpansionKind.DIRECT_DISCERNIBLE,
            "eigenvalues of U*zeta are real: %.12g, %.12g" % (eigs[0].real, eigs[1].real))
    # if any unimodular w makes the spectrum real, so does the one taking the
    # leading eigenvalue to +1 (any other is it times -1)
    w = cmath.exp(-1j * cmath.phase(eigs[0]))
    rot = [lam * w for lam in eigs]
    if all(abs(lam.imag) <= DEROTATION_TOL for lam in rot):
        return ExpansionClass(
            ExpansionKind.INDIRECT_DISCERNIBLE,
            "de-rotation w=%.12g%+.12gj makes the spectrum real: %.12g, %.12g"
            % (w.real, w.imag, rot[0].real, rot[1].real))
    return ExpansionClass(
        ExpansionKind.INDISCERNIBLE,
        "borderline: eigenvalues %r admit no scalar de-rotation to a real "
        "spectrum and the multiplier is not scalar; outside the discernible "
        "taxonomy" % (eigs,))


@dataclass(frozen=True)
class SpanAudit:
    """Residuals of a span-separation audit and what they give: min_residual
    and max_residual (inf and 0.0 when there are none), and separated, true
    when there is a residual and every one exceeds SPAN_SEPARATION_TOL."""

    residuals: np.ndarray

    def __post_init__(self):
        res = self.residuals
        lo = float(np.min(res, initial=np.inf))
        derived = dict(min_residual=lo, max_residual=float(np.max(res, initial=0.0)),
                       separated=res.size > 0 and lo > SPAN_SEPARATION_TOL)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def theorem1_audit(e: ExpandedConstellation) -> SpanAudit:
    """Distance of each primed generator from the real span of the base ones.

    For a discernible expansion every residual must be bounded away from
    zero; separated reports min residual > 1e-6.
    """
    return SpanAudit(span_residuals(e.base_generators, e.primed_generators.basis))


def corollary1_audit(e: ExpandedConstellation) -> SpanAudit:
    """Distance of each PRIMED point from the base design, via analyze().

    separated reports that every added point misses the design span by more
    than 1e-6, i.e. (G_e minus G) intersects the design only at 0.
    """
    return SpanAudit(np.array([analyze(e.base_generators, p.matrix)[1]
                               for p in e.primed_points()]))


def decompose_direct_sum(e: ExpandedConstellation, s) -> TaggedPoint:
    """Locate a matrix in the expanded constellation and return its tagged
    direct-sum coordinates: the first point that matches it (max-abs
    within 1e-10).  The matrix must have the design's shape (T, N)."""
    m = design_matrix(e.base_generators, s)
    hit = _matches([m], [p.matrix for p in e.points])[0]
    if not hit.any():
        raise ValueError("matrix does not match any point of the expanded constellation")
    return e.points[int(np.argmax(hit))]
