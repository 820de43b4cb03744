"""The paper's algebraic identities as residual checks that only tests call.

Each function measures one identity of a design or an expansion, so that a
test can hold it to a tolerance: the conjugation split of a symbol slot,
the semiunitary difference of two coordinate vectors and of two like-tagged
points, and the rotation identity.  They check their index and coordinate
arguments with the package's own checks, designs.checked_index and
designs.checked_coordinates; rotated_synthesis_residual checks its complex
symbols itself, with the messages of designs.checked_coordinates.
"""

import numpy as np

from stclab.designs import (
    GeneratorSet,
    checked_coordinates,
    checked_index,
    rotate_generators,
    synthesize,
)
from stclab.expansion import ExpandedConstellation, Subconstellation


def conjugate_basis_pair(g: GeneratorSet, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The conjugation split (B+_l, B-_l) of symbol slot l (1-based).

    B+_l = (B_{2l-2} + i B_{2l-1}) / 2 multiplies the conjugated symbol,
    B-_l = (B_{2l-2} - i B_{2l-1}) / 2 the symbol itself, so that
    S = sum_l z_l B-_l + conj(z_l) B+_l.
    """
    l = checked_index(l, "symbol slot", 1, g.num_symbols)
    be = g.basis[2 * l - 2]
    bo = g.basis[2 * l - 1]
    plus = (be + 1j * bo) / 2.0
    minus = (be - 1j * bo) / 2.0
    return plus, minus


def pairwise_difference_check(g: GeneratorSet, chi_a, chi_b) -> float:
    """Max-abs defect of (S - S')^H (S - S') = c ||chi_a - chi_b||^2 I.

    Returns the residual; values above designs.RH_TOL mean the semiunitary
    difference identity does not hold for this pair.
    """
    xa = checked_coordinates(chi_a, "chi_a", size=2 * g.num_symbols)
    xb = checked_coordinates(chi_b, "chi_b", size=2 * g.num_symbols)
    d = synthesize(g, xa) - synthesize(g, xb)
    lhs = d.conj().T @ d
    expect = g.scale * float(np.sum((xa - xb) ** 2)) * np.eye(g.num_antennas)
    return float(np.max(np.abs(lhs - expect)))


def tagged_difference_residual(e: ExpandedConstellation, i: int, j: int) -> float:
    """Pairwise semiunitary-difference defect for two like-tagged points.

    Mixed-tag pairs are rejected: the identity is a within-subconstellation
    statement, each tag (half 0 or 1 of chi_oplus) carrying its own basis.
    """
    a, b = (e.points[checked_index(k, "point index", 0, len(e.points) - 1)] for k in (i, j))
    if a.tag is not b.tag:
        raise ValueError("pairwise difference identity needs points from the "
                         "same subconstellation, got %s vs %s" % (a.tag.value, b.tag.value))
    half = list(Subconstellation).index(a.tag)
    return pairwise_difference_check((e.base_generators, e.primed_generators)[half],
                                     *(p.chi_oplus.reshape(2, -1)[half] for p in (a, b)))


def rotated_synthesis_residual(g: GeneratorSet, symbols, zeta) -> float:
    """Defect of the rotation identity: rotated-basis synthesis of z*zeta
    versus zeta * S(z).  Zero for every unimodular zeta."""
    z = np.array(symbols, dtype=np.complex128).reshape(-1)
    if not np.isfinite(z).all():
        raise ValueError("symbols entries must be finite")
    if z.size != g.num_symbols:
        raise ValueError("symbols must have length %d, got %d" % (g.num_symbols, z.size))
    rot = rotate_generators(g, zeta)
    lhs = synthesize(rot, (z * complex(zeta)).view(np.float64))
    rhs = complex(zeta) * synthesize(g, z.view(np.float64))
    return float(np.max(np.abs(lhs - rhs)))
