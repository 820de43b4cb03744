import numpy as np
import pytest

from stclab.linalg import (
    as_complex_matrix,
    eigenvalues_2x2,
    frobenius_norm,
    is_unitary,
    matrix_to_real_vector,
    symbols_to_real_vector,
)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_flattening_layout_is_column_major_re_im():
    m = np.array([[1 + 1j], [0 + 0j]])
    assert np.array_equal(matrix_to_real_vector(m), [1.0, 1.0, 0.0, 0.0])
    m2 = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
    # columns first: (0,0), (1,0), (0,1), (1,1)
    assert np.array_equal(matrix_to_real_vector(m2),
                          [1, 2, 5, 6, 3, 4, 7, 8])


def test_flattening_is_linear_and_norm_preserving():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = _rand_complex(rng, (2, 2))
        b = _rand_complex(rng, (2, 2))
        s, t = rng.standard_normal(2)
        lhs = matrix_to_real_vector(s * a + t * b)
        rhs = s * matrix_to_real_vector(a) + t * matrix_to_real_vector(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-13
        # independent norm oracle: entrywise squared magnitudes
        norm2 = sum(abs(complex(z)) ** 2 for z in a.reshape(-1))
        assert abs(np.linalg.norm(matrix_to_real_vector(a)) - np.sqrt(norm2)) < 1e-12
        assert abs(frobenius_norm(a) - np.sqrt(norm2)) < 1e-12


def test_inner_product_carried_by_flattening():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = _rand_complex(rng, (3, 3))
        b = _rand_complex(rng, (3, 3))
        # Re tr(a^H b) is the Euclidean inner product of the flattenings
        inner = np.real(np.vdot(a, b))
        assert abs(inner - matrix_to_real_vector(a) @ matrix_to_real_vector(b)) < 1e-11
        # Cauchy-Schwarz with slack for rounding
        assert abs(inner) <= frobenius_norm(a) * frobenius_norm(b) + 1e-9


def test_symbol_flattening_round_trip():
    rng = np.random.default_rng(5)
    z = _rand_complex(rng, 4)
    v = symbols_to_real_vector(z)
    assert np.array_equal(v[0::2], z.real) and np.array_equal(v[1::2], z.imag)
    assert np.array_equal(v[0::2] + 1j * v[1::2], z)


def test_is_unitary():
    assert is_unitary(np.eye(3))
    assert is_unitary(np.diag([1j, -1j]))
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert is_unitary(rot)
    assert not is_unitary(1.0001 * np.eye(2))
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)))


def test_unitary_products_stay_unitary():
    rng = np.random.default_rng(6)
    for _ in range(100):
        q1, _ = np.linalg.qr(_rand_complex(rng, (2, 2)))
        q2, _ = np.linalg.qr(_rand_complex(rng, (2, 2)))
        assert is_unitary(q1 @ q2, tol=1e-11)


def test_eigenvalues_2x2_against_trace_det_and_ordering():
    assert eigenvalues_2x2(np.diag([1.0, -1.0])) == (1.0, -1.0)
    assert eigenvalues_2x2(np.array([[0, -1], [1, 0]])) == (1j, -1j)
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = _rand_complex(rng, (2, 2))
        e1, e2 = eigenvalues_2x2(m)
        tr = complex(m[0, 0] + m[1, 1])
        det = complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        assert abs((e1 + e2) - tr) < 1e-9
        assert abs((e1 * e2) - det) < 1e-9
        assert (e1.real, e1.imag) >= (e2.real, e2.imag)


def test_rejects_non_matrix_and_non_finite():
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.nan, 0], [0, 0]]))
    # one check covers both parts of a complex entry
    for bad in (complex(np.inf, 0.0), complex(1.0, np.nan), complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            as_complex_matrix(np.array([[1.0, 0], [0, bad]]))
    with pytest.raises(ValueError):
        eigenvalues_2x2(np.eye(3))
