import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from identities import conjugate_basis_pair, pairwise_difference_check

from stclab.designs import (
    GeneratorSet,
    alamouti_generators,
    analyze,
    checked_array,
    checked_coordinates,
    make_generator_set,
    primed_alamouti_generators,
    radon_hurwitz_check,
    read_generator_file,
    rotate_generators,
    span_residuals,
    synthesize,
    write_generator_file,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _rand_chi(rng, k=2):
    return rng.standard_normal(2 * k)


def test_alamouti_quadruple_matrices():
    g = alamouti_generators()
    assert (g.block_len, g.num_antennas, g.num_symbols, g.scale) == (2, 2, 2, 0.5)
    assert np.allclose(g.basis[0], INV_SQRT2 * np.diag([1, -1]))
    assert np.allclose(g.basis[1], INV_SQRT2 * np.diag([1j, 1j]))
    assert np.allclose(g.basis[2], INV_SQRT2 * np.array([[0, 1], [1, 0]]))
    assert np.allclose(g.basis[3], INV_SQRT2 * np.array([[0, -1j], [1j, 0]]))


def test_primed_quadruple_is_base_times_diag_1_m1():
    u = np.diag([1.0, -1.0])
    for b, bp in zip(alamouti_generators().basis, primed_alamouti_generators().basis):
        assert np.allclose(b @ u, bp)
    gp = primed_alamouti_generators()
    assert np.allclose(gp.basis[0], INV_SQRT2 * np.eye(2))
    assert np.allclose(gp.basis[1], INV_SQRT2 * np.diag([1j, -1j]))


def test_radon_hurwitz_pass_and_scale():
    for g in (alamouti_generators(), primed_alamouti_generators()):
        rep = radon_hurwitz_check(g)
        assert rep.passed and rep.scale == 0.5
        assert rep.max_residual < 1e-12
    # singleton identity basis carries scale 1
    rep = radon_hurwitz_check(make_generator_set([np.eye(2), 1j * np.eye(2)]))
    assert rep.passed and rep.scale == 1.0


def test_radon_hurwitz_nan_or_inf_residual_fails():
    g = alamouti_generators()
    rep = radon_hurwitz_check(GeneratorSet(g.basis, 1e308))
    assert not rep.passed and rep.max_residual == np.inf and rep.worst_pair == (0, 0)
    # inf - inf on the diagonal: a NaN residual is the worst of all
    huge = GeneratorSet(tuple(1e200 * b for b in g.basis), 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = radon_hurwitz_check(huge)
    assert not rep.passed and np.isnan(rep.max_residual) and rep.worst_pair == (0, 0)


def test_radon_hurwitz_mixed_set_fails_with_unit_residual():
    mixed = make_generator_set([alamouti_generators().basis[0],
                                primed_alamouti_generators().basis[0]])
    rep = radon_hurwitz_check(mixed)
    assert not rep.passed
    assert abs(rep.max_residual - 1.0) <= 1e-12
    assert rep.worst_pair == (0, 1)


def test_synthesize_known_point():
    # chi = (-1, 1, 1, 1): A = (-1+j)/sqrt2, B = (1+j)/sqrt2
    s = synthesize(alamouti_generators(), [-1, 1, 1, 1])
    expect = INV_SQRT2 * np.array([[-1 + 1j, 1 - 1j], [1 + 1j, 1 + 1j]])
    assert np.max(np.abs(s - expect)) < 1e-15


def test_semiunitarity_of_synthesized_matrices():
    rng = np.random.default_rng(11)
    g = alamouti_generators()
    for _ in range(500):
        chi = _rand_chi(rng)
        s = synthesize(g, chi)
        expect = g.scale * float(chi @ chi) * np.eye(2)
        assert np.max(np.abs(s.conj().T @ s - expect)) < 1e-12


def test_analyze_round_trip_and_residual():
    rng = np.random.default_rng(12)
    g = alamouti_generators()
    for _ in range(1000):
        chi = _rand_chi(rng)
        got, resid = analyze(g, synthesize(g, chi))
        assert np.max(np.abs(got - chi)) < 1e-12
        assert resid < 1e-12
    # off-design matrix: nonzero residual equal to its out-of-span part
    chi, resid = analyze(g, INV_SQRT2 * np.diag([1j, -1j]))
    assert np.max(np.abs(chi)) < 1e-12 and abs(resid - 1.0) < 1e-12


def test_conjugate_basis_pair():
    g = alamouti_generators()
    plus, minus = conjugate_basis_pair(g, 1)
    assert np.max(np.abs(plus - np.diag([0, -2]) / (2 * np.sqrt(2)))) < 1e-15
    # resynthesize the even/odd members from the split
    for l in (1, 2):
        plus, minus = conjugate_basis_pair(g, l)
        assert np.allclose(plus + minus, g.basis[2 * l - 2])
        assert np.allclose(1j * (minus - plus), g.basis[2 * l - 1])
    with pytest.raises(ValueError):
        conjugate_basis_pair(g, 3)


def test_symbolwise_synthesis_identity():
    # S = sum_l z_l B-_l + conj(z_l) B+_l reproduces coordinate synthesis
    rng = np.random.default_rng(13)
    g = alamouti_generators()
    for _ in range(200):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        chi = np.array([z[0].real, z[0].imag, z[1].real, z[1].imag])
        s = np.zeros((2, 2), dtype=complex)
        for l in (1, 2):
            plus, minus = conjugate_basis_pair(g, l)
            s = s + z[l - 1] * minus + np.conj(z[l - 1]) * plus
        assert np.max(np.abs(s - synthesize(g, chi))) < 1e-13


def test_pairwise_difference_identity():
    rng = np.random.default_rng(14)
    g = alamouti_generators()
    for _ in range(300):
        a, b = _rand_chi(rng), _rand_chi(rng)
        assert pairwise_difference_check(g, a, b) < 1e-12
    # all pairs of the 16 unit-coordinate points
    pts = [np.array([i1, i2, i3, i4])
           for i1 in (-1, 1) for i2 in (-1, 1) for i3 in (-1, 1) for i4 in (-1, 1)]
    for i in range(16):
        for j in range(i + 1, 16):
            assert pairwise_difference_check(g, pts[i], pts[j]) < 1e-12


def test_rotation_closure_and_composition():
    rng = np.random.default_rng(15)
    g = alamouti_generators()
    for _ in range(100):
        z1 = np.exp(1j * rng.uniform(0, 2 * np.pi))
        z2 = np.exp(1j * rng.uniform(0, 2 * np.pi))
        r1 = rotate_generators(g, z1)
        rep = radon_hurwitz_check(r1)
        assert rep.passed and rep.scale == 0.5
        lhs = rotate_generators(r1, z2)
        rhs = rotate_generators(g, z1 * z2)
        for a, b in zip(lhs.basis, rhs.basis):
            assert np.max(np.abs(a - b)) < 1e-12
    # zeta = i sends the even members to -i*odd and odd to i*even
    r = rotate_generators(g, 1j)
    assert np.allclose(r.basis[0], -1j * g.basis[1])
    assert np.allclose(r.basis[1], 1j * g.basis[0])
    with pytest.raises(ValueError):
        rotate_generators(g, 1.5)


def test_span_residuals_basis_members_and_outsider():
    g = alamouti_generators()
    inside = span_residuals(g, g.basis)
    assert np.max(inside) < 1e-12
    outside = span_residuals(g, primed_alamouti_generators().basis)
    assert np.min(np.abs(outside - 1.0)) < 1e-10


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_residuals_are_frobenius_norms_of_the_off_span_part():
    rng = np.random.default_rng(3)
    g = alamouti_generators()
    for _ in range(300):
        m = _rand_complex(rng, (2, 2))
        chi, resid = analyze(g, m)
        # independent norm oracle: entrywise squared magnitudes, split by
        # Pythagoras into the in-span part c N ||chi||^2 and the residual
        norm2 = sum(abs(complex(z)) ** 2 for z in m.reshape(-1))
        assert abs(g.scale * 2 * float(chi @ chi) + resid ** 2 - norm2) < 1e-11
        assert abs(span_residuals(g, [m])[0] - resid) < 1e-12
        # the residual ignores an in-span summand and scales with the matrix
        s, x = rng.standard_normal(), _rand_chi(rng)
        moved = span_residuals(g, [m + synthesize(g, x), s * m])
        assert abs(moved[0] - resid) < 1e-12 and abs(moved[1] - abs(s) * resid) < 1e-12


def test_span_residuals_carry_the_trace_inner_product():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, b, c = (_rand_complex(rng, (3, 3)) for _ in range(3))
        # oracle from Re tr(x^H y) alone: c minus its projection on span_R(a, b)
        gram = np.array([[np.real(np.vdot(x, y)) for y in (a, b)] for x in (a, b)])
        v = np.array([np.real(np.vdot(x, c)) for x in (a, b)])
        want = np.sqrt(np.real(np.vdot(c, c)) - v @ np.linalg.solve(gram, v))
        got = span_residuals(GeneratorSet((a, b), 1.0), [c])[0]
        assert abs(got - want) < 1e-9


def test_checked_array_rejects_non_matrix_and_non_finite():
    for values in (np.zeros(3), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match="^matrix array must be 2-D, got shape"):
            checked_array(values, "matrix", None, ndims=(2,))
    # one check covers both parts of a complex entry
    for bad in (np.nan, complex(np.inf, 0.0), complex(1.0, np.nan),
                complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            checked_array(np.array([[1.0, 0], [0, bad]]), "matrix", None, ndims=(2,))
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            analyze(alamouti_generators(), np.array([[1.0, 0], [0, bad]]))
    # a matrix of any shape passes, empty ones included; its caller judges it
    for shape in ((2, 3), (0, 2), (2, 0)):
        assert checked_array(np.ones(shape), "matrix", None, ndims=(2,)).shape == shape


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_real_coordinates_must_be_finite(bad):
    # each of these returned NaN, or an all-NaN codematrix, before the check
    g = alamouti_generators()
    chi = [0.0, bad, 0.0, 0.0]
    with pytest.raises(ValueError, match="^chi entries must be finite$"):
        synthesize(g, chi)
    with pytest.raises(ValueError, match="^chi_a entries must be finite$"):
        pairwise_difference_check(g, chi, np.zeros(4))
    with pytest.raises(ValueError, match="^chi_b entries must be finite$"):
        pairwise_difference_check(g, np.zeros(4), chi)


def test_real_coordinates_must_not_be_complex():
    # a cast to float64 dropped the imaginary part with only a ComplexWarning
    g = alamouti_generators()
    for chi in (np.array([1 + 1j, 0, 0, 0]), [1.0, 0.0, 0j, 0.0]):
        with pytest.raises(ValueError, match="^chi must be real coordinates, got complex"):
            synthesize(g, chi)
        with pytest.raises(ValueError, match="^chi_b must be real coordinates"):
            pairwise_difference_check(g, np.zeros(4), chi)
    # a length error names the coordinates; entries are flattened as before
    with pytest.raises(ValueError, match="^chi must have length 4, got 3$"):
        synthesize(g, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^chi_b must have length 4, got 5$"):
        pairwise_difference_check(g, np.zeros(4), np.zeros(5))
    assert np.array_equal(synthesize(g, [[1, 0], [0, 1]]), synthesize(g, [1.0, 0, 0, 1.0]))
    x = checked_coordinates(np.arange(8.0)[::2], "chi")
    assert x.flags.c_contiguous and x.tolist() == [0, 2, 4, 6]


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2, 1), (1, 2), (0, 2)])
def test_span_residuals_and_analyze_reject_shapes_off_the_design(shape):
    g = alamouti_generators()
    msg = r"^matrix shape \(%d, %d\) does not match the design \(2, 2\)$" % shape
    for call in (lambda m: span_residuals(g, [np.eye(2), m]), lambda m: analyze(g, m)):
        with pytest.raises(ValueError, match=msg):
            call(np.ones(shape))


def test_generator_file_round_trip_exact():
    g = alamouti_generators()
    text = write_generator_file(g)
    g2 = read_generator_file(text)
    assert (g2.block_len, g2.num_antennas, g2.num_symbols, g2.scale) == (2, 2, 2, 0.5)
    for a, b in zip(g.basis, g2.basis):
        assert np.array_equal(a, b), "serialization must round-trip bit exactly"


FINITE = st.floats(allow_nan=False, allow_infinity=False)     # -0.0 and subnormals too


@settings(max_examples=200, deadline=None)
@given(data=st.data(), t=st.integers(1, 3), n=st.integers(1, 3), k=st.integers(1, 3),
       scale=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(data=None, t=1, n=1, k=1, scale=5e-324)
def test_any_generator_file_round_trips_bit_exactly(data, t, n, k, scale):
    if data is None:        # the explicit example: -0.0 and the smallest subnormal
        parts = np.array([-0.0, 5e-324, -5e-324, -0.0]).reshape(2, 1, 1, 2)
    else:
        parts = data.draw(hnp.arrays(np.float64, (2 * k, t, n, 2), elements=FINITE))
    mats = np.ascontiguousarray(parts).view(np.complex128)[..., 0]      # (re, im) pairs
    g = read_generator_file(write_generator_file(GeneratorSet(tuple(mats), scale)))
    assert (g.block_len, g.num_antennas, g.num_symbols) == (t, n, k)
    assert np.float64(g.scale).tobytes() == np.float64(scale).tobytes()
    assert g.stacked().tobytes() == mats.tobytes()


def test_generator_file_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="header"):
        read_generator_file("1 2\n")
    good = write_generator_file(alamouti_generators())
    lines = good.splitlines()
    lines[2] = lines[2].replace(" ", "", 1).replace(",", ";", 1)
    with pytest.raises(ValueError, match="line"):
        read_generator_file("\n".join(lines))
    with pytest.raises(ValueError):
        read_generator_file("")
    # the header shapes the rows: bad counts or scale name the header line
    for head in ("2 2 -1 0.5", "0 2 2 0.5", "2 0 2 0.5"):
        with pytest.raises(ValueError, match="line 2: T, N and K must be positive"):
            read_generator_file("# header on line 2\n" + good.replace("2 2 2 0.5", head, 1))
    with pytest.raises(ValueError, match="^line 2: bad header field"):
        read_generator_file("# header on line 2\n" + good.replace("2 2 2 0.5", "2 2 two 0.5", 1))
    for scale in ("inf", "nan", "0"):
        with pytest.raises(ValueError, match="line 2: scale must be positive and finite"):
            read_generator_file("# header on line 2\n" + good.replace(" 0.5\n", " %s\n" % scale, 1))
    # a huge N is caught on the first row (line 3), before any matrix is allocated
    with pytest.raises(ValueError, match="line 3: expected 99999999999 entries, got 2"):
        read_generator_file(good.replace("2 2 2 0.5", "2 99999999999 2 0.5", 1))
    # a cell that is no 're,im' pair, in a row of the right length
    with pytest.raises(ValueError, match="^line 3: bad entry '0.7071067811865475;0.0', want"):
        read_generator_file(good.replace("0.7071067811865475,0.0 ", "0.7071067811865475;0.0 ", 1))


def test_generator_set_validation():
    for basis, msg in (((), "2K >= 2 matrices, got 0"),
                       ((np.eye(2),) * 3, "2K >= 2 matrices, got 3"),
                       ((np.zeros((0, 2)),) * 2, r"zero dimension: \(0, 2\)"),
                       ((np.eye(2), np.eye(3)), r"basis\[1\] has shape \(3, 3\), "
                                                r"expected \(2, 2\)")):
        with pytest.raises(ValueError, match=msg):
            GeneratorSet(basis, 0.5)
    for scale in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            GeneratorSet((np.eye(2), np.eye(2)), scale)
    # the sizes are read off the basis
    g = GeneratorSet((np.ones((3, 2)),) * 4, 1.0)
    assert (g.block_len, g.num_antennas, g.num_symbols) == (3, 2, 2)
    # make_generator_set estimates the scale and leaves the rest to GeneratorSet
    for basis in ([], [np.zeros((2, 0))] * 2):
        with pytest.raises(ValueError):
            make_generator_set(basis)
    with pytest.raises(ValueError, match="got 3"):
        make_generator_set([np.eye(2)] * 3)
    with pytest.raises(ValueError):
        synthesize(alamouti_generators(), [1.0, 2.0])   # short chi
