import ast
import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stclab.designs import (
    alamouti_generators,
    conjugate_basis_pair,
    radon_hurwitz_check,
    rotate_generators,
    synthesize,
)
from stclab.expansion import (
    ExpansionKind,
    Subconstellation,
    classify_expansion,
    corollary1_audit,
    decompose_direct_sum,
    expand,
    rotated_synthesis_residual,
    tagged_difference_residual,
    theorem1_audit,
)

U_DIRECT = np.diag([1.0, -1.0])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
NEAR_IDENTITY = np.diag([1.0, np.exp(1j * 3e-11)])      # within 1e-10 of I


def _grid():
    return [np.array([a, b, c, d], dtype=float)
            for a in (-1, 1) for b in (-1, 1) for c in (-1, 1) for d in (-1, 1)]


def _expanded():
    return expand(alamouti_generators(), _grid(), U_DIRECT)


def test_expand_structure_and_tags():
    e = _expanded()
    assert len(e.points) == 32 and not e.degenerate
    assert len(e.base_points()) == 16 and len(e.primed_points()) == 16
    for p in e.base_points():
        assert np.all(p.chi_oplus[4:] == 0) and np.all(np.abs(p.chi_oplus[:4]) == 1)
    for p in e.primed_points():
        assert np.all(p.chi_oplus[:4] == 0) and np.all(np.abs(p.chi_oplus[4:]) == 1)
    # primed basis really is base @ U and still satisfies the design condition
    for b, bp in zip(e.base_generators.basis, e.primed_generators.basis):
        assert np.allclose(b @ U_DIRECT, bp)
    assert radon_hurwitz_check(e.primed_generators).passed


def test_expand_identity_multiplier_is_degenerate():
    for u in (np.eye(2), NEAR_IDENTITY):
        e = expand(alamouti_generators(), _grid(), u)
        assert e.degenerate and len(e.points) == 16
        assert len(e.primed_points()) == 0
        # no added point: no residuals, and nothing is separated
        audit = corollary1_audit(e)
        assert audit.residuals.size == 0 and not audit.separated
        assert audit.min_residual == np.inf and audit.max_residual == 0.0
        assert not theorem1_audit(e).separated


def test_expand_rejects_bad_multipliers():
    g = alamouti_generators()
    with pytest.raises(ValueError):
        expand(g, _grid(), np.diag([1.0, 2.0]))       # not unitary
    with pytest.raises(ValueError):
        expand(g, _grid(), U_DIRECT, zeta=2.0)        # not unimodular
    with pytest.raises(ValueError):
        expand(g, [], U_DIRECT)
    with pytest.raises(ValueError):
        expand(g, _grid(), np.eye(3))                 # wrong size


def test_expand_unitarity_rule():
    g = alamouti_generators()
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    for u in (np.eye(2), np.diag([1j, -1j]), rot):
        assert len(expand(g, _grid(), u).points) >= 16
    with pytest.raises(ValueError,
                       match="^expansion matrix must be unitary within 1e-10$"):
        expand(g, _grid(), 1.0001 * np.eye(2))
    with pytest.raises(ValueError, match=r"^unitarity is defined for square matrices, "
                                         r"got \(2, 3\)$"):
        expand(g, _grid(), np.ones((2, 3)))
    # I_3 and the empty matrix are unitary, so they fail only on the design's size
    for u in (np.eye(3), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="^expansion matrix must be 2 x 2$"):
            expand(g, _grid(), u)


def test_expand_accepts_products_of_unitaries():
    g = alamouti_generators()
    for seed in range(100):
        q1, q2 = _random_unitary(2 * seed), _random_unitary(2 * seed + 1)
        assert np.array_equal(expand(g, _grid()[:1], q1 @ q2).unitary, q1 @ q2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coordinates_and_symbols_must_be_finite(bad):
    # expand made NaN points after a RuntimeWarning, and the residual was NaN
    g = alamouti_generators()
    with pytest.raises(ValueError, match="^point_chis entries must be finite$"):
        expand(g, _grid()[:3] + [np.array([bad, 1.0, 1.0, 1.0])], U_DIRECT)
    with pytest.raises(ValueError, match="^point_chis entries must be finite$"):
        classify_expansion(U_DIRECT, 1.0, g, [np.array([1.0, bad, 1.0, 1.0])])
    for symbols in ([bad, 1.0], [1.0, complex(1.0, bad)]):
        with pytest.raises(ValueError, match="^symbols entries must be finite$"):
            rotated_synthesis_residual(g, symbols, 1j)
    with pytest.raises(ValueError, match="^point_chis must be real coordinates"):
        expand(g, [np.array([1j, 1.0, 1.0, 1.0])], U_DIRECT)


@pytest.mark.parametrize("zeta", [np.nan, complex(1.0, np.nan), np.inf])
def test_non_finite_zeta_is_not_unimodular(zeta):
    g = alamouti_generators()
    calls = (lambda: rotate_generators(g, zeta),
             lambda: expand(g, _grid(), U_DIRECT, zeta),
             lambda: classify_expansion(U_DIRECT, zeta, g, _grid()),
             lambda: rotated_synthesis_residual(g, [1.0, 1j], zeta))
    for call in calls:
        with pytest.raises(ValueError,
                           match=r"^zeta must be unimodular, got \|zeta\|="):
            call()


def test_classify_identity_multipliers():
    g = alamouti_generators()
    for u in (np.eye(2), -np.eye(2), NEAR_IDENTITY):
        r = classify_expansion(u, 1.0, g, _grid())
        assert r.kind is ExpansionKind.NOT_AN_EXPANSION


def test_classify_set_coincidence():
    # diag(i,-i) maps the full 4PSK product set onto itself
    g = alamouti_generators()
    r = classify_expansion(np.diag([1j, -1j]), 1.0, g, _grid())
    assert r.kind is ExpansionKind.NOT_AN_EXPANSION
    assert "coincides" in r.witness


def test_classify_direct():
    g = alamouti_generators()
    r = classify_expansion(U_DIRECT, 1.0, g, _grid())
    assert r.kind is ExpansionKind.DIRECT_DISCERNIBLE
    r = classify_expansion(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, g, _grid())
    assert r.kind is ExpansionKind.DIRECT_DISCERNIBLE


def test_classify_indirect_with_derotation():
    # over an asymmetric point set the quarter turn no longer folds back
    g = alamouti_generators()
    r = classify_expansion(np.diag([1j, -1j]), 1.0, g, _grid()[:5])
    assert r.kind is ExpansionKind.INDIRECT_DISCERNIBLE
    assert "de-rotation" in r.witness and "-1j" in r.witness


def test_classify_scalar_rotations_are_flagged():
    g = alamouti_generators()
    pts = _grid()[:5]
    for w in (1j, np.exp(1j * np.pi / 3)):
        r = classify_expansion(np.eye(2), w, g, pts)
        assert r.kind is ExpansionKind.INDISCERNIBLE
        assert "borderline" in r.witness
    # a real scalar shrug: U=I zeta=-1 means V=-I, still the base set
    r = classify_expansion(np.eye(2), -1.0, g, _grid())
    assert r.kind is ExpansionKind.NOT_AN_EXPANSION
    # V=-I entered either way adds points over a set not closed under
    # negation, and is a real scalar
    for u, zeta in ((-np.eye(2), 1.0), (np.eye(2), -1.0)):
        r = classify_expansion(u, zeta, g, pts)
        assert r.kind is ExpansionKind.INDISCERNIBLE
        assert "borderline" not in r.witness


def test_classify_borderline_non_scalar():
    t = 0.7
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    r = classify_expansion(rot, 1.0, alamouti_generators(), _grid()[:5])
    assert r.kind is ExpansionKind.INDISCERNIBLE
    assert "borderline" in r.witness


def _witness_eigenvalues(witness):
    """The eigenvalue pair a borderline witness prints with %r."""
    return ast.literal_eval(witness[witness.index("("):witness.index(" admit")])


def test_classify_eigenvalues_against_trace_det_and_order():
    g = alamouti_generators()
    # diag(1, -1): real spectrum, larger first
    r = classify_expansion(U_DIRECT, 1.0, g, _grid())
    assert r.witness == "eigenvalues of U*zeta are real: 1, -1"
    # a quarter turn: eigenvalues i and -i, de-rotated from the leading i
    r = classify_expansion(np.array([[0, -1], [1, 0]]), 1.0, g, _grid()[:5])
    assert r.kind is ExpansionKind.INDIRECT_DISCERNIBLE
    assert r.witness.startswith("de-rotation w=")
    assert r.witness.endswith("-1j makes the spectrum real: 1, -1")
    for seed in range(300):
        q = _random_unitary(seed)
        r = classify_expansion(q, 1.0, g, _grid()[:5])
        assert r.kind is ExpansionKind.INDISCERNIBLE and "np." not in r.witness
        e1, e2 = _witness_eigenvalues(r.witness)
        assert type(e1) is complex and type(e2) is complex
        assert abs((e1 + e2) - np.trace(q)) < 1e-9
        assert abs((e1 * e2) - np.linalg.det(q)) < 1e-9
        assert (e1.real, e1.imag) >= (e2.real, e2.imag)
    with pytest.raises(ValueError, match="2x2 multipliers only"):
        classify_expansion(np.eye(3), 1.0, g, _grid())


def test_classify_invariant_under_reparameterization():
    rng = np.random.default_rng(21)
    g = alamouti_generators()
    pts = _grid()[:5]
    cases = [U_DIRECT, np.diag([1j, -1j]), 1j * np.eye(2),
             np.array([[0.0, 1.0], [1.0, 0.0]])]
    for u in cases:
        ref = classify_expansion(u, 1.0, g, pts).kind
        for _ in range(10):
            w = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            got = classify_expansion(u * np.conj(w), w, g, pts).kind
            assert got is ref


def test_theorem1_and_corollary1_separation():
    e = _expanded()
    t1 = theorem1_audit(e)
    assert t1.separated
    assert np.max(np.abs(t1.residuals - 1.0)) < 1e-10
    c1 = corollary1_audit(e)
    assert c1.separated and len(c1.residuals) == 16
    assert np.max(np.abs(c1.residuals - 2.0)) < 1e-10


def test_scalar_rotation_still_leaves_this_span():
    # i*B_l is orthogonal to the base span for this quadruple: the scalar
    # multiplier iI produces exactly the same separation numbers as U_DIRECT
    e = expand(alamouti_generators(), _grid(), 1j * np.eye(2))
    assert not e.degenerate
    t1 = theorem1_audit(e)
    assert np.max(np.abs(t1.residuals - 1.0)) < 1e-10
    c1 = corollary1_audit(e)
    assert np.max(np.abs(c1.residuals - 2.0)) < 1e-10


def test_decompose_direct_sum_round_trip():
    e = _expanded()
    for p in e.points:
        q = decompose_direct_sum(e, p.matrix.copy())
        assert q.tag is p.tag
        assert np.array_equal(q.chi_oplus, p.chi_oplus)
    with pytest.raises(ValueError):
        decompose_direct_sum(e, np.zeros((2, 2)))


@pytest.mark.parametrize("shape", [(2, 3), (0, 2), (2, 1), (1, 2)])
def test_decompose_direct_sum_rejects_shapes_off_the_design(shape):
    # (2, 1) and (1, 2) would broadcast against the 2 x 2 points
    msg = r"^matrix shape \(%d, %d\) does not match the design \(2, 2\)$" % shape
    with pytest.raises(ValueError, match=msg):
        decompose_direct_sum(_expanded(), np.ones(shape))


def test_tagged_difference_identity_and_mixed_rejection():
    e = _expanded()
    base_idx = [i for i, p in enumerate(e.points) if p.tag is Subconstellation.BASE]
    primed_idx = [i for i, p in enumerate(e.points) if p.tag is Subconstellation.PRIMED]
    for ids in (base_idx, primed_idx):
        for a in ids[:6]:
            for b in ids[:6]:
                if a != b:
                    assert tagged_difference_residual(e, a, b) < 1e-12
    with pytest.raises(ValueError, match="same subconstellation"):
        tagged_difference_residual(e, base_idx[0], primed_idx[0])


def test_symbol_coordinates_interleave_re_im():
    rng = np.random.default_rng(5)
    g = alamouti_generators()
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    chi = [z[0].real, z[0].imag, z[1].real, z[1].imag]
    pairs = [conjugate_basis_pair(g, l) for l in (1, 2)]
    want = sum(zl * minus + np.conj(zl) * plus for zl, (plus, minus) in zip(z, pairs))
    assert np.max(np.abs(synthesize(g, chi) - want)) < 1e-15
    # a strided symbol array gives the residual of its contiguous copy
    spaced = np.zeros(4, complex)
    spaced[::2] = z
    zeta = np.exp(0.4j)
    assert (rotated_synthesis_residual(g, spaced[::2], zeta)
            == rotated_synthesis_residual(g, z, zeta))


def test_rotated_synthesis_residual_vanishes():
    rng = np.random.default_rng(22)
    g = alamouti_generators()
    for _ in range(100):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zeta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        assert rotated_synthesis_residual(g, z, zeta) < 1e-13


def test_classify_matches_repeated_points_as_expand_collapses_them():
    # every image of [a, a, -a] under -I is a point of the set
    g = alamouti_generators()
    a = np.ones(4)
    r = classify_expansion(np.eye(2), -1.0, g, [a, a, -a])
    assert r.kind is ExpansionKind.NOT_AN_EXPANSION
    with pytest.raises(ValueError, match="nonempty"):
        classify_expansion(U_DIRECT, 1.0, g, [])


def _random_unitary(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q


UNITARIES = st.one_of(
    st.sampled_from([np.eye(2), -np.eye(2), U_DIRECT, np.diag([1j, -1j]), SWAP]),
    st.integers(0, 2**32 - 1).map(_random_unitary))
PHASES = st.one_of(st.sampled_from([1.0, -1.0, 1j, -1j]),
                   st.floats(0.0, 2.0 * np.pi).map(lambda t: cmath.exp(1j * t)))
SUBSETS = st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True)


@settings(max_examples=300, deadline=None)
@given(u=UNITARIES, zeta=PHASES, w=PHASES, subset=SUBSETS)
@example(u=-np.eye(2), zeta=1.0, w=1j, subset=list(range(9)))
def test_classification_depends_on_u_times_zeta_only(u, zeta, w, subset):
    g = alamouti_generators()
    pts = [_grid()[i] for i in subset]
    kind = classify_expansion(u, zeta, g, pts).kind
    assert classify_expansion(u * np.conj(w), zeta * w, g, pts).kind is kind
    assert classify_expansion(u * zeta, 1.0, g, pts).kind is kind


@settings(max_examples=200, deadline=None)
@given(u=UNITARIES, zeta=PHASES, subset=SUBSETS)
@example(u=NEAR_IDENTITY, zeta=1.0, subset=list(range(16)))
def test_not_an_expansion_exactly_when_expand_adds_no_point(u, zeta, subset):
    g = alamouti_generators()
    pts = [_grid()[i] for i in subset]
    kind = classify_expansion(u, zeta, g, pts).kind
    adds_none = not expand(g, pts, u * zeta).primed_points()
    assert (kind is ExpansionKind.NOT_AN_EXPANSION) == adds_none
