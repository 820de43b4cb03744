from dataclasses import replace

import numpy as np
import pytest

from stclab import constellation
from stclab.constellation import (
    QPSK,
    _parse_table,
    build_constellation,
    chi_coordinates,
    chi_table,
    distance_spectrum,
    matrix_from_indices,
    matrix_stack,
    q8_cosets,
    q16_cosets,
    table_expansion,
    verify_forms,
)
from stclab.designs import alamouti_generators, analyze, primed_alamouti_generators, synthesize
from stclab.expansion import Subconstellation


def test_qpsk_alphabet():
    for k in range(4):
        assert abs(QPSK[k] - np.exp(1j * (np.pi / 4 + k * np.pi / 2))) < 1e-15
        assert abs(abs(QPSK[k]) - 1.0) < 1e-15


def test_table_loads_32_entries_with_tags():
    entries = build_constellation()
    assert len(entries) == 32
    assert [e.index for e in entries] == list(range(32))
    for e in entries:
        want = Subconstellation.BASE if e.index < 16 else Subconstellation.PRIMED
        assert e.subconstellation is want
    assert matrix_stack().shape == (32, 2, 2)


def test_every_entry_matches_its_form():
    rep = verify_forms()
    assert rep.passed, rep.violations


def test_verify_forms_flags_a_broken_entry(monkeypatch):
    entries = list(build_constellation())
    bad = entries[3]
    entries[3] = replace(bad, matrix=bad.matrix + 0.5)
    monkeypatch.setattr(constellation, "build_constellation", lambda: entries)
    rep = verify_forms()
    assert not rep.passed
    assert any("entry 3" in v for v in rep.violations)
    # each half's matrix under the other half's tag: 4PSK first columns, wrong form
    entries = list(build_constellation())
    entries[3], entries[19] = (replace(entries[3], matrix=entries[19].matrix),
                               replace(entries[19], matrix=entries[3].matrix))
    monkeypatch.setattr(constellation, "build_constellation", lambda: entries)
    assert verify_forms().violations == (
        "entry 3: does not match [[A, conj(B)], [B, -conj(A)]] form",
        "entry 19: does not match [[A, -conj(B)], [B, conj(A)]] form")


def test_index_matrix_round_trip():
    for e in build_constellation():
        assert np.allclose(matrix_from_indices(e.index_matrix), e.matrix)
    with pytest.raises(ValueError):
        matrix_from_indices(np.zeros((3, 2)))


def test_constellation_is_the_diag_expansion_of_the_base_half():
    # the 32 table matrices coincide with expand(base chis, diag(1,-1))
    e = table_expansion()
    assert not e.degenerate
    table = {np.round(m, 12).tobytes() for m in matrix_stack()}
    got = {np.round(p.matrix, 12).tobytes() for p in e.points}
    assert table == got


def test_chi_coordinates_resynthesize_each_entry():
    base = alamouti_generators()
    primed = primed_alamouti_generators()
    for e in build_constellation():
        co = chi_coordinates(e)
        assert np.all(np.abs(np.abs(co[co != 0]) - 1.0) < 1e-12)
        if e.subconstellation is Subconstellation.BASE:
            assert np.all(co[4:] == 0)
            g, own = base, co[:4]
        else:
            assert np.all(co[:4] == 0)
            g, own = primed, co[4:]
        assert np.max(np.abs(synthesize(g, own) - e.matrix)) < 1e-12
        # the table's one projection gives analyze's coordinates bit for bit
        assert own.tobytes() == analyze(g, e.matrix)[0].tobytes()


def test_chi_table_rejects_an_entry_off_its_tagged_design(monkeypatch):
    # a PRIMED generator component takes BASE entry 5 off the BASE design
    mats = matrix_stack().copy()
    mats[5] += 1e-6 * primed_alamouti_generators().basis[0]
    monkeypatch.setattr(constellation, "matrix_stack", lambda: mats)
    chi_table.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"^entry 5 does not lie in its tagged design "
                                             r"\(residual 1e-06\)"):
            chi_table()
    finally:
        chi_table.cache_clear()


def test_q8_cosets_partition():
    cosets = q8_cosets()
    assert sorted(cosets) == list(range(8))
    flat = [i for members in cosets.values() for i in members]
    assert sorted(flat) == list(range(32))
    entries = build_constellation()
    for cid, members in cosets.items():
        # coset stays inside one subconstellation
        tags = {entries[i].subconstellation for i in members}
        assert len(tags) == 1
        # members are mutually far: within-coset squared distance is 8 or 16
        for a in range(4):
            for b in range(a + 1, 4):
                d2 = float(np.sum(np.abs(entries[members[a]].matrix
                                         - entries[members[b]].matrix) ** 2))
                assert d2 in (8.0, 16.0)


def test_q16_cosets_partition():
    cosets = q16_cosets()
    assert sorted(cosets) == list(range(16))
    flat = [i for members in cosets.values() for i in members]
    assert sorted(flat) == list(range(32))
    entries = build_constellation()
    for cid, members in cosets.items():
        assert len(members) == 2
        d2 = float(np.sum(np.abs(entries[members[0]].matrix
                                 - entries[members[1]].matrix) ** 2))
        assert d2 == 16.0, "depth-16 pairs sit at the maximum distance"


def test_distance_spectra_frozen():
    assert distance_spectrum(which="BASE") == {4.0: 32, 8.0: 48, 12.0: 32, 16.0: 8}
    assert distance_spectrum(which="PRIMED") == {4.0: 32, 8.0: 48, 12.0: 32, 16.0: 8}
    assert distance_spectrum(which="FULL") == {4.0: 64, 8.0: 352, 12.0: 64, 16.0: 16}
    with pytest.raises(ValueError):
        distance_spectrum(which="ALL")


def test_cross_subconstellation_distance_is_flat():
    entries = build_constellation()
    for eb in entries[:16]:
        for ep in entries[16:]:
            d2 = float(np.sum(np.abs(eb.matrix - ep.matrix) ** 2))
            assert abs(d2 - 8.0) < 1e-9


def test_parse_table_error_lines():
    with pytest.raises(ValueError, match="0..31"):
        _parse_table("0, 0 0 0 0, 0, 00, 0, 0\n")     # only one row
