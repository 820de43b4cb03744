"""The 32-point super-orthogonal 4PSK constellation and its coset tables.

The constellation is the first-tier expansion of the 16 codematrices of the
1/sqrt(2)-normalized 2x2 design over 4PSK by the unitary diag(1, -1):
entries 0..15 (BASE) have the form [[A, conj(B)], [B, -conj(A)]] and entries
16..31 (PRIMED) the form [[A, -conj(B)], [B, conj(A)]], with A and B 4PSK
points.  Each entry carries two set-partitioning labelings, one into 8
cosets of 4 (two uncoded bits per branch) and one into 16 cosets of 2 (one
uncoded bit), read from the shipped data table.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .designs import (
    alamouti_generators,
    checked_index,
    content_lines,
    primed_alamouti_generators,
)
from .expansion import ExpandedConstellation, Subconstellation, expand

#: 4PSK alphabet; index k is exp(j*(pi/4 + k*pi/2)).
QPSK = tuple(
    complex((1 if k in (0, 3) else -1), (1 if k in (0, 1) else -1)) / np.sqrt(2.0)
    for k in range(4)
)

DATA_FILE = "constellation32.txt"


@dataclass(frozen=True, eq=False)
class CodematrixEntry:
    """One constellation entry with both set-partitioning labels."""

    index: int
    index_matrix: tuple          # 2x2 nested tuple of 4PSK indices
    matrix: np.ndarray           # 2x2 complex codematrix
    subconstellation: Subconstellation
    q8_coset: int
    q8_bits: str                 # two uncoded bits at partition depth 8
    q16_coset: int
    q16_bit: str                 # one uncoded bit at partition depth 16


def matrix_from_indices(index_matrix) -> np.ndarray:
    """Codematrix from a 2x2 array of 4PSK alphabet indices, integers in 0..3."""
    im = np.asarray(index_matrix)
    if im.shape != (2, 2):
        raise ValueError("index matrix must be 2x2, got %s" % (im.shape,))
    return np.array([[QPSK[checked_index(k, "4PSK index", 0, 3)] for k in row]
                     for row in im.tolist()], dtype=np.complex128)


def _parse_table(text: str):
    rows = []
    for _, line in content_lines(text):
        idx, cells, q8_coset, q8_bits, q16_coset, q16_bit = (f.strip() for f in line.split(","))
        a, b, c, d = map(int, cells.split())
        rows.append((int(idx), ((a, b), (c, d)), int(q8_coset), q8_bits, int(q16_coset), q16_bit))
    if [r[0] for r in rows] != list(range(32)):    # entry i is read from row i
        raise ValueError("table must list indices 0..31 in order")
    return rows


@lru_cache(maxsize=None)
def build_constellation() -> tuple:
    """Load the shipped table and materialize all 32 entries, with read-only matrices.

    No caller supplies another table, so its reader checks only what would
    pass silently: the rows list indices 0..31 in order, and chi_table checks
    that every entry lies in its tagged design.  Any other fault in the file
    raises where the value is used.
    """
    text = importlib.resources.files("stclab.data").joinpath(DATA_FILE).read_text()
    entries = []
    for idx, im, q8c, q8b, q16c, q16b in _parse_table(text):
        tag = Subconstellation.BASE if idx < 16 else Subconstellation.PRIMED
        matrix = matrix_from_indices(im)
        matrix.flags.writeable = False      # shared by every caller
        entries.append(CodematrixEntry(
            index=idx, index_matrix=im, matrix=matrix,
            subconstellation=tag, q8_coset=q8c, q8_bits=q8b,
            q16_coset=q16c, q16_bit=q16b))
    return tuple(entries)


@lru_cache(maxsize=None)
def matrix_stack() -> np.ndarray:
    """All 32 codematrices as a read-only (32, 2, 2) array, index order."""
    mats = np.stack([e.matrix for e in build_constellation()])
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=None)
def chi_table() -> np.ndarray:
    """chi_coordinates of all 32 entries as a read-only (32, 8) array, index order.

    The 8 generators, BASE then PRIMED, are orthonormal under Re tr(A^H B)
    (c N = 1), so one projection gives every coordinate: those on an entry's
    own half are its chi, and the norm of those on the other half is its
    residual off its tagged design.
    """
    gens = np.stack(alamouti_generators().basis + primed_alamouti_generators().basis)
    gens = gens.view(float).reshape(8, -1)
    chi = matrix_stack().view(float).reshape(32, -1) @ gens.T
    primed = [e.subconstellation is Subconstellation.PRIMED for e in build_constellation()]
    own = np.equal.outer(primed, np.arange(8) >= 4)
    resid = np.linalg.norm(np.where(own, 0.0, chi), axis=1)
    if resid.max() > 1e-9:
        raise ValueError("entry %d does not lie in its tagged design (residual %g)"
                         % (resid.argmax(), resid.max()))
    chi = np.where(own, chi, 0.0)
    chi.flags.writeable = False
    return chi


def chi_coordinates(entry: CodematrixEntry) -> np.ndarray:
    """Direct-sum coordinates (length 8) of an entry over its own basis.

    BASE entries occupy the first four slots, PRIMED entries the last four;
    the other half is exactly zero.  A copy of the entry's row of chi_table.
    """
    return chi_table()[entry.index].copy()


def table_expansion(unitary=((1, 0), (0, -1))) -> ExpandedConstellation:
    """expand() of the 16 BASE points by unitary over the base generators.

    The default diag(1, -1) reproduces the 32-entry table.
    """
    return expand(alamouti_generators(), list(chi_table()[:16, :4]), unitary)


@dataclass(frozen=True)
class FormReport:
    """verify_forms outcome; empty violations means every entry checks out."""

    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


#: Tag -> (s, name) of its form [[A, s conj(B)], [B, -s conj(A)]].
_FORMS = {Subconstellation.BASE: (1.0, "[[A, conj(B)], [B, -conj(A)]]"),
          Subconstellation.PRIMED: (-1.0, "[[A, -conj(B)], [B, conj(A)]]")}


def verify_forms() -> FormReport:
    """Check the algebraic form of every build_constellation() entry against its tag.

    Every entry must be [[A, s conj(B)], [B, -s conj(A)]] with A, B 4PSK
    points, s = +1 for BASE and -1 for PRIMED (a PRIMED entry is its BASE
    pre-image times diag(1, -1)), every match to within 1e-12.
    """
    tol = 1e-12
    bad = []
    for e in build_constellation():
        m = e.matrix
        a, b = m[0, 0], m[1, 0]
        if min(abs(a - s) for s in QPSK) > tol or min(abs(b - s) for s in QPSK) > tol:
            bad.append("entry %d: first column not drawn from 4PSK" % e.index)
            continue
        s, form = _FORMS[e.subconstellation]
        if not (abs(m[0, 1] - s * np.conj(b)) <= tol and abs(m[1, 1] + s * np.conj(a)) <= tol):
            bad.append("entry %d: does not match %s form" % (e.index, form))
    return FormReport(violations=tuple(bad))


def _cosets(label, order) -> dict:
    """Map coset id -> member indices in the uncoded-bit order of order, where
    label(entry) gives an entry's (coset id, uncoded bits)."""
    out = {}
    for e in build_constellation():
        coset, bits = label(e)
        out.setdefault(coset, {})[bits] = e.index
    return {c: tuple(members[b] for b in order) for c, members in sorted(out.items())}


def q8_cosets() -> dict:
    """Map q8 coset id -> member indices in uncoded-bit order 00,01,10,11."""
    return _cosets(lambda e: (e.q8_coset, e.q8_bits), ("00", "01", "10", "11"))


def q16_cosets() -> dict:
    """Map q16 coset id -> member indices in uncoded-bit order 0,1."""
    return _cosets(lambda e: (e.q16_coset, e.q16_bit), ("0", "1"))


def distance_spectrum(which: str = "FULL") -> dict:
    """Squared pairwise Frobenius distance -> multiplicity.

    which selects BASE, PRIMED, or FULL (all 32 points).  Distances are
    grouped on a 1e-9 grid; for this constellation they are exact integers.
    """
    if which not in ("BASE", "PRIMED", "FULL"):
        raise ValueError("which must be BASE, PRIMED, or FULL, got %r" % (which,))
    m = np.array([e.matrix for e in build_constellation()
                  if which in ("FULL", e.subconstellation.value)])
    a, b = np.triu_indices(len(m), k=1)
    d2 = np.sum(np.abs(m[a] - m[b]) ** 2, axis=(1, 2))
    keys, counts = np.unique(np.round(d2 / 1e-9) * 1e-9, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))
