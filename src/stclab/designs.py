"""Generator sets for generalized complex orthogonal space-time designs.

A design over T channel uses, N transmit antennas and K complex symbols is
an ordered basis of 2K complex T x N matrices, so a GeneratorSet reads T, N
and K off its basis.  Writing the symbol vector in real coordinates chi
(length 2K, interleaved re/im), a codematrix is the real linear combination

    S(chi) = sum_l chi_l B_l.

The basis must satisfy the scaled Radon-Hurwitz orthogonality condition

    B_l^H B_p + B_p^H B_l = 2 c delta_lp I_N

with a single scale c > 0 shared by all pairs.  c = 1 recovers the
unit-normalized convention; the 1/sqrt(2)-normalized quadruples shipped here
have c = 1/2.  The condition makes every codematrix semiunitary,
S^H S = c * ||chi||^2 * I_N, and makes pairwise codematrix differences
orthogonal with squared gain c * ||chi - chi'||^2 per antenna.
"""

from __future__ import annotations

import io
import numbers
import operator
from dataclasses import dataclass

import numpy as np

RH_TOL = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

#: What checked_array checks -> the name of the entries of one row.
_ENTRIES = {"matrix": "entries", "channel": "coefficients", "received block": "samples"}


def checked_array(values, what: str, width, ndims=(1,), rows: str = "draws"):
    """values as a complex128 array, the one check of complex array input.

    what is "matrix", "channel" or "received block".  Raises ValueError
    unless values has a number of axes in ndims, a finite real and imaginary
    part in every entry and, when width is not None, at least one row of 2-D
    input and width entries per row.  Matrices of any shape pass width=None
    and leave their shape to the caller.
    """
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim not in ndims:
        raise ValueError("%s array must be %s, got shape %s"
                         % (what, " or ".join("%d-D" % d for d in ndims), a.shape))
    if width is not None:
        if a.ndim == 2 and not len(a):
            raise ValueError("no %s %s given" % (what, rows))
        if a.shape[-1] != width:
            raise ValueError("%s has %d %s, expected %d"
                             % (what, a.shape[-1], _ENTRIES[what], width))
    if not np.isfinite(a).all():                 # both parts of every entry
        raise ValueError("%s %s must be finite" % (what, _ENTRIES[what]))
    return a


def content_lines(text: str) -> list:
    """(line number from 1, stripped line) of each line of text that is
    neither blank nor a '#' comment: the line reader of every text format."""
    return [(no, line) for no, line in enumerate(map(str.strip, text.splitlines()), start=1)
            if line and not line.startswith("#")]


def checked_coordinates(values, what: str, size=None) -> np.ndarray:
    """values as a flat contiguous float64 array, the one check of coordinate input.

    Raises ValueError on a complex entry, whose imaginary part a cast would
    drop, on a non-finite entry and, when size is not None, unless there
    are size entries.
    """
    a = np.asarray(values)
    if np.iscomplexobj(a):
        raise ValueError("%s must be real coordinates, got complex entries" % what)
    x = np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
    if not np.isfinite(x).all():
        raise ValueError("%s entries must be finite" % what)
    if size is not None and x.size != size:
        raise ValueError("%s must have length %d, got %d" % (what, size, x.size))
    return x


def real_float(value) -> float:
    """float(value) of a real value, or an infinity of its sign when it is past
    the float range (an int or Fraction), as float("1e400") is."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def checked_index(value, what: str, lo: int = None, hi: int = None) -> int:
    """value as an int, the one check of index input: ValueError unless
    operator.index accepts it (a float or a string it does not) and, when a
    range lo..hi is given, it lies in that range."""
    try:
        k = operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (what, value)) from None
    if lo is not None and not lo <= k <= hi:
        raise ValueError("%s %d out of range %d..%d" % (what, k, lo, hi))
    return k


def checked_unimodular(zeta) -> complex:
    """zeta as a complex number; ValueError unless |zeta| = 1 within 1e-12."""
    z = complex(zeta)
    if not abs(abs(z) - 1.0) <= 1e-12:          # a NaN modulus fails too
        raise ValueError("zeta must be unimodular, got |zeta|=%r" % abs(z))
    return z


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Ordered Radon-Hurwitz basis of a generalized orthogonal design.

    Construction raises ValueError unless the basis is 2K >= 2 matrices of
    one shape, none of them empty, and the scale is a positive, finite real.

    Attributes
    ----------
    basis : tuple of ndarray
        The 2K matrices, order significant: members 2k, 2k+1 carry the real
        and imaginary coordinate of symbol k.
    scale : float
        The Radon-Hurwitz scale c.
    block_len, num_antennas, num_symbols : int
        Derived from the basis: T channel uses and N antennas (the shape of
        each matrix) and K complex symbols per codematrix (half the basis).
    """

    basis: tuple
    scale: float

    def __post_init__(self):
        shaped = tuple(checked_array(b, "matrix", None, ndims=(2,)) for b in self.basis)
        if not shaped or len(shaped) % 2:
            raise ValueError("basis must hold 2K >= 2 matrices, got %d" % len(shaped))
        shape = shaped[0].shape
        if 0 in shape:
            raise ValueError("basis matrices have a zero dimension: %s" % (shape,))
        for k, b in enumerate(shaped):
            if b.shape != shape:
                raise ValueError("basis[%d] has shape %s, expected %s"
                                 % (k, b.shape, shape))
        c = real_float(self.scale) if isinstance(self.scale, numbers.Real) else np.nan
        if not 0.0 < c < np.inf:
            raise ValueError("scale must be positive and finite, got %r" % (self.scale,))
        for name, value in dict(basis=shaped, scale=c, block_len=shape[0],
                                num_antennas=shape[1], num_symbols=len(shaped) // 2).items():
            object.__setattr__(self, name, value)

    def stacked(self) -> np.ndarray:
        """Basis as a (2K, T, N) array."""
        return np.stack(self.basis)


def make_generator_set(basis) -> GeneratorSet:
    """Build a GeneratorSet from matrices, estimating the scale.

    The estimate reads c off the first diagonal Radon-Hurwitz identity,
    c = (1/2N) * trace(B_0^H B_0 + B_0^H B_0).  A missing or empty B_0
    raises ValueError; GeneratorSet checks the rest.
    """
    mats = tuple(checked_array(b, "matrix", None, ndims=(2,)) for b in basis)
    if not mats or not mats[0].size:
        raise ValueError("a generator set needs a nonempty first matrix")
    scale = float(np.real(np.trace(mats[0].conj().T @ mats[0]))) / mats[0].shape[1]
    return GeneratorSet(mats, scale)


def alamouti_generators() -> GeneratorSet:
    """The 1/sqrt(2)-normalized rate-one 2x2 quadruple (scale 1/2)."""
    b0 = _INV_SQRT2 * np.array([[1, 0], [0, -1]], dtype=np.complex128)
    b1 = _INV_SQRT2 * np.array([[1j, 0], [0, 1j]], dtype=np.complex128)
    b2 = _INV_SQRT2 * np.array([[0, 1], [1, 0]], dtype=np.complex128)
    b3 = _INV_SQRT2 * np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    return GeneratorSet((b0, b1, b2, b3), 0.5)


def primed_alamouti_generators() -> GeneratorSet:
    """The companion quadruple, the base one right-multiplied by diag(1, -1)."""
    u = np.array([1.0, -1.0])         # the diagonal: b * u negates column 1 of b
    return GeneratorSet(tuple(b * u for b in alamouti_generators().basis), 0.5)


@dataclass(frozen=True)
class RadonHurwitzReport:
    """Outcome of a Radon-Hurwitz suite run."""

    passed: bool
    scale: float
    max_residual: float
    worst_pair: tuple


def radon_hurwitz_check(g: GeneratorSet) -> RadonHurwitzReport:
    """Check B_l^H B_p + B_p^H B_l = 2 c delta_lp I over all ordered pairs.

    The residual of a pair is the max-abs entry of the defect matrix; the
    report carries the worst pair (the first, in row-major order) so
    failures can be named.  A NaN or inf residual is the worst and fails.
    """
    diag = np.diag_indices(g.num_antennas)
    resid = np.empty((len(g.basis), len(g.basis)))
    for l, bl in enumerate(g.basis):    # a batched product holds (2K N)^2 values
        for p, bp in enumerate(g.basis):
            defect = bl.conj().T @ bp + bp.conj().T @ bl
            if l == p:
                defect[diag] -= 2.0 * g.scale
            resid[l, p] = np.max(np.abs(defect))
    l, p = np.unravel_index(np.argmax(resid), resid.shape)     # argmax finds NaN first
    worst = float(resid[l, p])
    return RadonHurwitzReport(passed=worst <= RH_TOL, scale=g.scale,
                              max_residual=worst, worst_pair=(int(l), int(p)))


def synthesize(g: GeneratorSet, chi) -> np.ndarray:
    """Codematrix S(chi) = sum_l chi_l B_l for real coordinates chi."""
    x = checked_coordinates(chi, "chi", size=2 * g.num_symbols)
    return np.tensordot(x, g.stacked(), axes=1)


def design_matrix(g: GeneratorSet, s) -> np.ndarray:
    """s as a complex matrix checked by checked_array; ValueError naming its
    shape unless that is the design's (T, N)."""
    m = checked_array(s, "matrix", None, ndims=(2,))
    if m.shape != (g.block_len, g.num_antennas):
        raise ValueError("matrix shape %s does not match the design (%d, %d)"
                         % (m.shape, g.block_len, g.num_antennas))
    return m


def analyze(g: GeneratorSet, s) -> tuple[np.ndarray, float]:
    """Recover real coordinates of a matrix and the off-design residual.

    Coordinates come from the orthogonality of the basis,
    chi_l = Re tr(B_l^H S) / (c N); the returned residual is the Frobenius
    norm of S - S(chi), zero exactly when S lies in the design.
    """
    sm = design_matrix(g, s)
    denom = g.scale * g.num_antennas
    chi = np.array([float(np.real(np.sum(b.conj() * sm))) / denom for b in g.basis])
    return chi, float(np.linalg.norm(sm - synthesize(g, chi)))


def rotate_generators(g: GeneratorSet, zeta: complex) -> GeneratorSet:
    """Generator set absorbing a unimodular symbol rotation zeta.

    The rotated basis
        H_{2l-2} = zeta (Re(zeta) B_{2l-2} - Im(zeta) B_{2l-1})
        H_{2l-1} = zeta (Re(zeta) B_{2l-1} + Im(zeta) B_{2l-2})
    satisfies the same Radon-Hurwitz condition at the same scale, and
    synthesizing with the coordinates of z*zeta reproduces zeta * S(z).
    """
    z = checked_unimodular(zeta)
    c, s = z.real, z.imag
    out = []
    for l in range(g.num_symbols):
        be = g.basis[2 * l]
        bo = g.basis[2 * l + 1]
        out.append(z * (c * be - s * bo))
        out.append(z * (c * bo + s * be))
    return GeneratorSet(tuple(out), g.scale)


def span_residuals(g: GeneratorSet, matrices) -> np.ndarray:
    """Frobenius residual of each matrix after projecting onto span_R(basis).

    The projection is a real least-squares fit in flattened coordinates, so
    it stays meaningful even for bases that narrowly miss orthogonality.
    Each matrix must have the design's shape (T, N).
    """
    # the real flattening: column-major, entry k giving (re, im) at positions
    # (2k, 2k + 1); it preserves norms and carries Re tr(A^H B) to the dot product
    flat = [np.ascontiguousarray(m.T).view(np.float64).ravel()
            for m in (*g.basis, *(design_matrix(g, m) for m in matrices))]
    a = np.column_stack(flat[:len(g.basis)])
    out = []
    for v in flat[len(g.basis):]:       # one multi-column lstsq rounds differently
        coef, *_ = np.linalg.lstsq(a, v, rcond=None)
        out.append(float(np.linalg.norm(v - a @ coef)))
    return np.array(out)


def write_generator_file(g: GeneratorSet) -> str:
    """Serialize to the plain text exchange format.

    Header line ``T N K c``, then the 2K matrices in order, each as T lines
    of N whitespace-separated ``re,im`` pairs, blank line between matrices.
    """
    buf = io.StringIO()
    buf.write("%d %d %d %r\n" % (g.block_len, g.num_antennas, g.num_symbols, g.scale))
    for b in g.basis:
        buf.write("\n")
        for row in b:
            buf.write(" ".join("%r,%r" % (float(z.real), float(z.imag)) for z in row))
            buf.write("\n")
    return buf.getvalue()


def read_generator_file(text: str) -> GeneratorSet:
    """Parse the text format produced by write_generator_file.

    Raises ValueError with a line number on malformed input.
    """
    body = content_lines(text)
    if not body:
        raise ValueError("empty generator file")
    head_no, head = body[0]
    parts = head.split()
    if len(parts) != 4:
        raise ValueError("line %d: header must be 'T N K c', got %r" % (head_no, head))
    try:
        t, n, k = int(parts[0]), int(parts[1]), int(parts[2])
        c = float(parts[3])
    except ValueError as exc:
        raise ValueError("line %d: bad header field (%s)" % (head_no, exc)) from None
    if min(t, n, k) < 1:
        raise ValueError("line %d: T, N and K must be positive, got %r" % (head_no, head))
    need = 2 * k * t
    rows = body[1:]
    if len(rows) != need:
        raise ValueError("line %d: T=%d K=%d needs %d matrix rows, found %d"
                         % (head_no, t, k, need, len(rows)))
    entries = []
    for no, ln in rows:       # count a row's cells before storing any of them
        cells = ln.split()
        if len(cells) != n:
            raise ValueError("line %d: expected %d entries, got %d" % (no, n, len(cells)))
        for cell in cells:
            try:
                re_s, im_s = cell.split(",")
                entries.append(complex(float(re_s), float(im_s)))
            except ValueError:
                raise ValueError("line %d: bad entry %r, want 're,im'" % (no, cell)) from None
        if not np.isfinite(entries[-n:]).all():      # both parts of every entry
            raise ValueError("line %d: matrix entries must be finite" % no)
    try:
        return GeneratorSet(np.array(entries).reshape(2 * k, t, n), c)
    except ValueError as exc:    # only the header's scale is left to reject
        raise ValueError("line %d: %s" % (head_no, exc)) from None
