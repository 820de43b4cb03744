"""Small dense complex linear algebra helpers and the complex-to-real isometries.

Matrices are numpy complex128 arrays throughout.  The complex-to-real
flattening convention is frozen: column-major traversal, each complex entry
contributing its (re, im) pair adjacently.  Every consumer of real
coordinates in this package relies on that layout.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-12


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix, got ndim=%d" % a.ndim)
    if not np.isfinite(a).all():                 # both parts of every entry
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm(a) -> float:
    """Frobenius norm, equal to the 2-norm of the real flattening."""
    return float(np.linalg.norm(as_complex_matrix(a)))


def matrix_to_real_vector(m) -> np.ndarray:
    """Flatten a rows x cols complex matrix to a 2*rows*cols real vector.

    Column-major traversal; entry k contributes (re, im) at positions
    (2k, 2k+1).  Norm preserving.
    """
    a = as_complex_matrix(m)
    col_major = a.T.reshape(-1)
    out = np.empty(2 * col_major.size)
    out[0::2] = col_major.real
    out[1::2] = col_major.imag
    return out


def symbols_to_real_vector(symbols) -> np.ndarray:
    """(Re z_1, Im z_1, ..., Re z_K, Im z_K) for a sequence of K symbols."""
    z = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    out = np.empty(2 * z.size)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def is_unitary(u, tol: float = DEFAULT_TOL) -> bool:
    """True iff u^H u = I entrywise within tol.  Square input required."""
    a = as_complex_matrix(u)
    if a.shape[0] != a.shape[1]:
        raise ValueError("unitarity is defined for square matrices, got %s" % (a.shape,))
    resid = a.conj().T @ a - np.eye(a.shape[0])
    return bool(np.max(np.abs(resid)) <= tol)


def eigenvalues_2x2(m) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix by the closed-form quadratic.

    Returned in deterministic order: descending by real part, then by
    imaginary part.
    """
    a = as_complex_matrix(m)
    if a.shape != (2, 2):
        raise ValueError("closed-form eigenvalues support 2x2 only, got %s" % (a.shape,))
    tr = complex(a[0, 0] + a[1, 1])
    det = complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    disc = complex(np.sqrt(complex(tr * tr - 4.0 * det)))
    lo, hi = sorted(((tr + disc) / 2.0, (tr - disc) / 2.0),
                    key=lambda z: (z.real, z.imag))
    return hi, lo
