import importlib.resources
import re
from dataclasses import replace

import numpy as np
import pytest
from golden.record import irregular_trellis_text
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stclab import detectors
from stclab.channel import channels_from_uniform, normals_from_uniform
from stclab.constellation import (
    build_constellation,
    chi_coordinates,
    matrix_stack,
    q8_cosets,
    q16_cosets,
)
from stclab.designs import alamouti_generators, primed_alamouti_generators
from stclab.detectors import (
    Transition,
    TrellisSpec,
    default_trellis,
    load_trellis,
    ml_block_decode,
    squared_distances,
    trellis_encode,
    trellis_encode_frames,
    uncoded_trellis,
    viterbi_decode,
    viterbi_decode_frames,
)
from stclab.expansion import Subconstellation


def _noisy(clean, sigma, rng):
    g = normals_from_uniform(rng.random(2 * clean.size))
    return clean + sigma * (g[0::2] + 1j * g[1::2])


def _channel(rng):
    """One Rayleigh draw h (2,) from four uniforms of rng."""
    return channels_from_uniform(rng.random(4))


def test_default_trellis_shape():
    spec = default_trellis()
    assert spec.num_states == 8
    assert spec.bits_per_section == 4
    assert spec.coded_bits == 2 and spec.uncoded_bits == 2
    assert len(spec.transitions) == 32
    for st in range(8):
        outs = [t for t in spec.transitions if t.from_state == st]
        assert len(outs) == 4
        assert len({t.to_state for t in outs}) == 4
    # branch labels are exactly the q8 cosets in uncoded-bit order
    cosets = q8_cosets()
    for t in spec.transitions:
        assert t.labels == cosets[t.coset]


def test_default_trellis_known_branches():
    spec = default_trellis()
    outs = [t for t in spec.transitions if t.from_state == 0]
    assert [t.to_state for t in outs] == [0, 1, 2, 3]
    assert outs[0].labels == (0, 8, 2, 10)
    assert outs[1].labels == (4, 12, 6, 14)
    entries = build_constellation()
    # even states depart on BASE labels, odd on PRIMED
    for st in range(8):
        tags = {entries[i].subconstellation.value
                for t in spec.transitions if t.from_state == st for i in t.labels}
        assert tags == ({"BASE"} if st % 2 == 0 else {"PRIMED"})


def test_load_trellis_error_lines(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        load_trellis("# nothing here\n")
    with pytest.raises(ValueError, match="header"):
        load_trellis("states=8\n0 0 0 0 8 2 10\n")
    # unknown and repeated header keys name the header line
    for head in ("states=8 bits_per_section=4 labels=99",
                 "states=16 states=8 bits_per_section=4",
                 "states=8 bits_per_secton=4 bits_per_section=4"):
        with pytest.raises(ValueError, match="line 2: header key"):
            load_trellis("# header below\n%s\n0 0 0 0 8 2 10\n" % head)
    with pytest.raises(ValueError, match="line 2"):
        load_trellis("states=8 bits_per_section=4\n0 0 zero 0 8 2 10\n")
    with pytest.raises(ValueError, match="out of range"):
        load_trellis("states=8 bits_per_section=4\n0 9 0 0 8 2 10\n")
    # structurally wrong: swap the label pairs of one coset at every
    # occurrence, so the row stays a sign-flip coset but its uncoded-bit
    # order breaks
    good = (tmp_path / "t.txt")
    import importlib.resources
    text = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()
    with pytest.raises(ValueError,
                       match="^line 8: transition 0->0 label 8 out of uncoded-bit order$"):
        load_trellis(text.replace(" 0 8 2 10", " 8 0 10 2"))
    # dropping a line leaves a state with out-degree 3
    lines = text.splitlines()
    kept = [ln for ln in lines if not ln.strip().startswith("0 1 ")]
    with pytest.raises(ValueError, match="outgoing"):
        load_trellis("\n".join(kept))
    with pytest.raises(ValueError, match="^line 7: trellis has no transitions"):
        load_trellis("\n".join(lines[:7]))
    with pytest.raises(ValueError, match="^line 3: label count must be a power of two$"):
        load_trellis("states=1 bits_per_section=2\n# three labels\n0 0 0 0 8 2\n")
    with pytest.raises(ValueError, match="^line 3: expected 4 labels$"):
        load_trellis("states=1 bits_per_section=2\n0 0 0 0 8 2 10\n0 0 1 1 9\n")


def test_load_trellis_rejects_header_counts_the_listing_cannot_serve():
    text = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    assert body.startswith("states=8 bits_per_section=4\n")
    for head, why in (("states=2000000 bits_per_section=4", "need more than the 32 listed"),
                      ("states=8 bits_per_section=64", "need more than the 32 listed"),
                      ("states=8 bits_per_section=1000000000", "need more than the 32 listed"),
                      ("states=33 bits_per_section=4", "need more than the 32 listed"),
                      ("states=0 bits_per_section=4", "states must be at least 1"),
                      ("states=8 bits_per_section=1", "more parallel labels")):
        with pytest.raises(ValueError, match="line 1: .*" + why):
            load_trellis(body.replace("states=8 bits_per_section=4", head, 1))
    with pytest.raises(ValueError, match="line 1: states=30000000"):
        load_trellis("states=30000000 bits_per_section=4\n0 0 0 0 8 2 10\n")


def test_load_trellis_checks_the_partition_of_its_state_count():
    import importlib.resources
    text = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()
    with pytest.raises(ValueError, match="coset 5 but label 0 sits in q8 coset 0"):
        load_trellis(text.replace("\n0 0 0 0 8 2 10", "\n0 0 5 0 8 2 10"))
    # 16 states, one coded and one uncoded bit: state s goes to s and s^1 on
    # two q16 cosets of its half (BASE below 8, PRIMED from 8)
    entries = build_constellation()
    cosets = q16_cosets()
    halves = [[c for c in sorted(cosets)
               if entries[cosets[c][0]].subconstellation.value == tag]
              for tag in ("BASE", "PRIMED")]
    lines = ["states=16 bits_per_section=2"]
    for st in range(16):
        half = halves[st // 8]
        for to, c in ((st, half[st % 8]), (st ^ 1, half[(st + 1) % 8])):
            lines.append("%d %d %d %d %d" % ((st, to, c) + cosets[c]))
    spec = load_trellis("\n".join(lines))
    assert (spec.num_states, spec.coded_bits, spec.uncoded_bits) == (16, 1, 1)
    c = halves[0][0]
    first = "0 0 %d %d %d" % ((c,) + cosets[c])
    # swapped on both lines of coset c, so that the row stays a sign-flip
    # coset that shares no label with another row
    listing = "\n".join(lines) + "\n"
    row = " %d %d %d\n" % ((c,) + cosets[c])
    assert listing.count(row) == 2
    with pytest.raises(ValueError, match="uncoded-bit order"):
        load_trellis(listing.replace(row, " %d %d %d\n" % (c, cosets[c][1], cosets[c][0])))
    with pytest.raises(ValueError, match="sits in q16 coset %d" % c):
        load_trellis("\n".join(lines).replace(
            first, "0 0 %d %d %d" % ((halves[0][1],) + cosets[c])))


SHIPPED = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()


# the shipped listing has its header on line 7 and transition k on line 8 + k
@pytest.mark.parametrize("old, new, error", [
    ("0 1 3 4 12 6 14\n", "", "line 7: state 0 has 3 outgoing transitions, expected 4"),
    ("0 0 0 0 8 2 10", "0 0 0 0 8 2 26",
     "line 8: transition 0->0 labels are not a sign-flip coset$"),
    ("0 2 2 5 13 7 15", "0 2 5 16 24 18 26", "line 10: state 0 departs on a mix"),
    ("2 1 0 0 8 2 10", "2 4 0 0 8 2 10", "line 17: state 4 is entered on a mix"),
    ("0 0 0 0 8 2 10", "0 0 5 0 8 2 10",
     "line 8: transition 0->0 declares coset 5 but label 0 sits in q8 coset 0"),
    (" 0 8 2 10", " 8 0 10 2", "line 8: transition 0->0 label 8 out of uncoded-bit"),
    (" 3 4 12 6 14", " 0 0 8 2 10", "line 7: branch labels cover 28 of 32 codematrix"),
], ids=["out-degree", "transition-mix", "departs-mix", "entered-mix", "coset", "order",
        "coverage"])
def test_structural_errors_name_the_offending_line(old, new, error):
    assert SHIPPED.splitlines()[6:8] == ["states=8 bits_per_section=4", "0 0 0 0 8 2 10"]
    assert old in SHIPPED
    with pytest.raises(ValueError, match="^" + error):
        load_trellis(SHIPPED.replace(old, new))


def test_spec_rejects_unequal_out_degree():
    labels = uncoded_trellis().transitions[0].labels
    with pytest.raises(ValueError, match="^state 0 has 2 outgoing transitions, expected 1"):
        TrellisSpec(num_states=2, bits_per_section=4, transitions=(
            Transition(0, 0, 0, labels), Transition(0, 1, 0, labels),
            Transition(1, 1, 0, labels)))


@pytest.mark.parametrize("label", [-28, 40])
def test_spec_rejects_a_label_out_of_range(label):
    # -28 used to read chi_table()[4] and decode to -28; 40 failed inside numpy
    spec = default_trellis()
    first = next(t for t in spec.transitions if 4 in t.labels)
    trans = tuple(replace(t, labels=tuple(label if i == 4 else i for i in t.labels))
                  for t in spec.transitions)
    with pytest.raises(ValueError, match=r"^transition %d->%d has a label out of range 0\.\.31$"
                       % (first.from_state, first.to_state)):
        TrellisSpec(num_states=8, bits_per_section=4, transitions=trans)


@pytest.mark.parametrize("frm, to", [(0, 3), (-1, 0)])
def test_spec_rejects_a_state_out_of_range(frm, to):
    labels = uncoded_trellis().transitions[0].labels
    with pytest.raises(ValueError, match=r"^transition %d->%d has a state out of range 0\.\.0$"
                       % (frm, to)):
        TrellisSpec(num_states=1, bits_per_section=4, transitions=(Transition(frm, to, 0, labels),))


def test_spec_rejects_a_section_of_no_bits():
    # one label per row and no coded bit used to pass, and the encoder divided by 0
    with pytest.raises(ValueError, match="^bits_per_section must be at least 1, got 0$"):
        TrellisSpec(num_states=1, bits_per_section=0, transitions=(Transition(0, 0, 0, (5,)),))


#: A 4-state, 1 coded + 2 uncoded bit listing over the 8 q8 cosets: even
#: states depart on BASE, odd ones on PRIMED; the transition from 2 to 0 is
#: on line 6.
FOUR_STATE = """states=4 bits_per_section=3
0 0 0 0 8 2 10
0 1 1 1 9 3 11
1 2 4 17 25 19 27
1 3 5 16 24 18 26
2 0 2 5 13 7 15
2 1 3 4 12 6 14
3 2 6 20 28 22 30
3 3 7 21 29 23 31
"""


def test_a_row_that_is_no_sign_flip_coset_is_rejected():
    assert load_trellis(FOUR_STATE).num_states == 4
    # 13 and 15 differ from 5 in overlapping coordinates, so no disjoint
    # masks give the row; no partition check covers 4 states, and the error
    # still names the line
    with pytest.raises(ValueError, match="^line 6: transition 2->0 labels are not a sign-flip"):
        load_trellis(FOUR_STATE.replace("2 0 2 5 13 7 15", "2 0 2 5 13 15 7"))
    for row in ((5, 13, 15, 7), (0, 8, 2, 26)):          # overlapping masks; mixed halves
        with pytest.raises(ValueError, match="^transition 0->0 labels are not a sign-flip coset$"):
            TrellisSpec(num_states=1, bits_per_section=2, transitions=(Transition(0, 0, 0, row),))
    # 0 8 1 9 is a sign-flip coset, but it shares 0 and 8 with the row of line 2
    with pytest.raises(ValueError, match="^line 3: transition 0->1 shares a label with an earlier"):
        load_trellis(FOUR_STATE.replace("0 1 1 1 9 3 11", "0 1 1 0 8 1 9"))
    with pytest.raises(ValueError,
                       match="^transition 0->0 shares a label with an earlier label row$"):
        TrellisSpec(num_states=1, bits_per_section=3, transitions=(
            Transition(0, 0, 0, (0, 8, 2, 10)), Transition(0, 0, 1, (0, 8, 1, 9))))


def test_the_coset_column_names_each_label_row_once_at_any_state_count():
    clash = "^line %d: transition %s declares coset 0, but an earlier line gives that coset"
    # one name for two rows, on either edited line alone
    for line, old, new in ((3, "0 1 1 1 9 3 11", "0 1 0 1 9 3 11"),
                           (4, "1 2 4 17 25 19 27", "1 2 0 17 25 19 27")):
        with pytest.raises(ValueError, match=clash % (line, new[:3].replace(" ", "->"))):
            load_trellis(FOUR_STATE.replace(old, new))
    # a consistent renaming is free outside the 8- and 16-state rules
    renamed = load_trellis(FOUR_STATE.replace("0 1 1 1 9 3 11", "0 1 99 1 9 3 11"))
    assert renamed.transitions[1].coset == 99
    # two names for one row: a 4-state listing that repeats each q8 row on two states
    cosets = q8_cosets()
    lines = ["states=4 bits_per_section=4"]
    for st in range(4):
        for j, c in enumerate(range(4 * (st // 2), 4 * (st // 2) + 4)):
            row = " ".join(map(str, cosets[c]))
            lines.append("%d %d %d %s" % (st, 2 * (st // 2) + j % 2, c, row))
    listing = "\n".join(lines) + "\n"
    assert len(load_trellis(listing).cosets) == 8
    with pytest.raises(ValueError, match="^line 6: transition 1->0 declares coset 9, but an"):
        load_trellis(listing.replace("\n1 0 0 ", "\n1 0 9 "))
    for text in (SHIPPED, irregular_trellis_text()):
        assert load_trellis(text).num_states == 8


def _spec_args(listing: str) -> dict:
    """TrellisSpec's arguments for a listing of a header and transition lines."""
    head, *rows = listing.splitlines()
    fields = dict(tok.split("=") for tok in head.split())
    return dict(num_states=int(fields["states"]),
                bits_per_section=int(fields["bits_per_section"]),
                transitions=tuple(Transition(*map(int, r.split()[:3]),
                                             tuple(map(int, r.split()[3:]))) for r in rows))


#: The 16 BASE labels of the one-state trellis, as a listing spells them.
BASE_ROW = " ".join(map(str, uncoded_trellis().transitions[0].labels))


# (a listing, or the spec's arguments where the format cannot spell the
# fault, the line that load_trellis names, the message)
@pytest.mark.parametrize("source, line, message", [
    pytest.param("states=1 bits_per_section=4", 1, "trellis has no transitions",
                 id="no-transitions"),
    pytest.param("states=1 bits_per_section=1\n0 0 0 0 8 2", 2,
                 "label count must be a power of two", id="three-labels"),
    pytest.param("states=1 bits_per_section=3\n0 0 0 0 8 2 10\n0 0 1 1 9", 3,
                 "expected 4 labels", id="ragged"),
    pytest.param("states=1 bits_per_section=2\n0 %d 0 0 8 2 10" % 2**63, 2,
                 "transition 0->%d has a state out of range 0..0" % 2**63, id="state-2**63"),
    pytest.param("states=1 bits_per_section=2\n0 0 0 0 8 2 %d" % 2**63, 2,
                 "transition 0->0 has a label out of range 0..31", id="label-2**63"),
    pytest.param(dict(num_states=1, bits_per_section=2,
                      transitions=(Transition(0, 0, 0, (0, 8, 0.7, 10)),)), None,
                 "transition 0->0 label must be an integer, got 0.7", id="label-0.7"),
    pytest.param(dict(num_states=1, bits_per_section=4.0,
                      transitions=uncoded_trellis().transitions), None,
                 "bits_per_section must be an integer, got 4.0", id="bits-4.0"),
    pytest.param(dict(num_states="1", bits_per_section=4,
                      transitions=uncoded_trellis().transitions), None,
                 "states must be an integer, got '1'", id="states-str"),
    pytest.param("states=0 bits_per_section=3\n0 0 0 0 8 2 10", 1,
                 "states must be at least 1, got 0", id="states-0"),
    pytest.param("states=1 bits_per_section=-2\n0 0 0 0 8 2 10", 1,
                 "bits_per_section must be at least 1, got -2", id="bits-negative"),
    pytest.param("states=1 bits_per_section=1\n0 0 0 " + BASE_ROW, 1,
                 "more parallel labels than bits_per_section allows", id="sixteen-labels-one-bit"),
    pytest.param("states=1 bits_per_section=1000000\n0 0 0 " + BASE_ROW, 1,
                 "states=1 bits_per_section=1000000 need more than the 1 listed transitions",
                 id="bits-10**6"),
    pytest.param(FOUR_STATE.replace("states=4", "states=9"), 1,
                 "states=9 bits_per_section=3 need more than the 8 listed transitions",
                 id="states-beyond-listing"),
    pytest.param(FOUR_STATE.replace("0 1 1 1 9 3 11\n", ""), 1,
                 "state 0 has 1 outgoing transitions, expected 2", id="out-degree"),
    pytest.param(FOUR_STATE.replace("2 0 2 5 13 7 15", "2 0 2 5 13 15 7"), 6,
                 "transition 2->0 labels are not a sign-flip coset", id="sign-flip"),
    pytest.param(FOUR_STATE.replace("0 0 0 0 8 2 10", "0 0 0 0 8 2 26"), 2,
                 "transition 0->0 labels are not a sign-flip coset", id="mixed-halves"),
    pytest.param(FOUR_STATE.replace("0 1 1 1 9 3 11", "0 1 1 0 8 1 9"), 3,
                 "transition 0->1 shares a label with an earlier label row", id="shared-label"),
])
def test_spec_and_loader_reject_a_fault_alike(source, line, message):
    args = source if isinstance(source, dict) else _spec_args(source)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        TrellisSpec(**args)
    if line is not None:
        with pytest.raises(ValueError, match="^line %d: %s$" % (line, re.escape(message))):
            load_trellis(source)


def test_a_row_that_mixes_halves_is_no_sign_flip_coset():
    # why load_trellis checks no row for a mix of BASE and PRIMED labels:
    # every 2-label mixed row, and every row that puts one label of the other
    # half into a q8 coset or the 16 BASE labels, fails _sign_flips
    primed = np.array([e.subconstellation is Subconstellation.PRIMED
                       for e in build_constellation()])
    rows = {2: [(a, b) for a in range(32) for b in range(32) if primed[a] != primed[b]]}
    for coset in (*q8_cosets().values(), uncoded_trellis().transitions[0].labels):
        assert detectors._sign_flips(np.array([coset])).all()
        rows.setdefault(len(coset), []).extend(
            coset[:p] + (label,) + coset[p + 1:] for p in range(len(coset))
            for label in np.flatnonzero(primed != primed[coset[0]]))
    for width, mixed in rows.items():
        mixed = np.array(mixed)
        assert (primed[mixed].any(axis=1) & ~primed[mixed].all(axis=1)).all()
        assert not detectors._sign_flips(mixed).any(), width


#: Every array a TrellisSpec derives from its transitions.
DERIVED = ("uncoded_bits", "coded_bits", "from_state", "to_state", "coded", "labels",
           "cosets", "coset_of", "coset_count", "groups", "key_next", "key_label")


def _assert_same_tables(got, want):
    for name in DERIVED:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("spec", [default_trellis(), load_trellis(irregular_trellis_text())],
                         ids=["regular", "irregular"])
def test_trellis_text_round_trips(spec):
    lines = ["states=%d bits_per_section=%d" % (spec.num_states, spec.bits_per_section)]
    lines += ["%d %d %d %s" % (t.from_state, t.to_state, t.coset, " ".join(map(str, t.labels)))
              for t in spec.transitions]
    again = load_trellis("\n".join(lines) + "\n")
    assert again.transitions == spec.transitions
    _assert_same_tables(again, spec)


def test_a_list_label_row_builds_the_tables_of_its_tuple():
    # a list row used to raise TypeError: unhashable type: 'list'
    got, want = (TrellisSpec(num_states=1, bits_per_section=2,
                             transitions=(Transition(0, 0, 0, row),))
                 for row in ([0, 8, 2, 10], (0, 8, 2, 10)))
    _assert_same_tables(got, want)


def test_block_metrics_against_direct_formula():
    # ml_block_decode over one candidate returns that candidate's metric
    rng = np.random.default_rng(31)
    entries = build_constellation()
    for _ in range(20):
        h = _channel(rng)
        r = _noisy(entries[5].matrix @ h, 0.2, rng)
        for i in (0, 5, 17, 31):
            want = float(np.sum(np.abs(r - entries[i].matrix @ h) ** 2))
            assert abs(ml_block_decode(r, h, [entries[i]]).metric - want) < 1e-12


def test_ml_block_decode_noiseless_exact():
    rng = np.random.default_rng(32)
    entries = build_constellation()
    for _ in range(200):
        h = _channel(rng)
        k = int(rng.integers(0, 32))
        r = entries[k].matrix @ h
        res = ml_block_decode(r, h, entries)
        assert res.decided_indices == (k,)
        assert res.metric < 1e-20
        assert res.ties_broken == 0


def test_ml_block_decode_tie_goes_to_lowest_index():
    entries = build_constellation()
    # zero received vector over a zero channel: every candidate ties
    res = ml_block_decode(np.zeros(2, complex), np.zeros(2, complex), entries)
    assert res.decided_indices == (0,)
    assert res.ties_broken == 31
    with pytest.raises(ValueError):
        ml_block_decode(np.zeros(2, complex), np.array([1.0, 0.0]), [])


def test_ml_small_noise_error_rate_bounded():
    # sigma = 0.05 over all 32 candidates: error rate stays below 1e-2
    rng = np.random.default_rng(2024)
    entries = build_constellation()
    trials = 4000
    errors = 0
    for _ in range(trials):
        h = _channel(rng)
        k = int(rng.integers(0, 32))
        r = _noisy(entries[k].matrix @ h, 0.05, rng)
        res = ml_block_decode(r, h, entries)
        errors += res.decided_indices[0] != k
    assert errors / trials < 0.01


def test_trellis_encode_known_paths():
    spec = default_trellis()
    assert trellis_encode(spec, [0] * 12) == [0, 0, 0]
    # coded 01 -> second transition from state 0, label position 0 -> index 4
    assert trellis_encode(spec, [0, 1, 0, 0]) == [4]
    # coded 00 keeps the first transition, uncoded 11 -> label position 3 -> 10
    assert trellis_encode(spec, [0, 0, 1, 1]) == [10]
    # two sections: 0100 moves to state 1, then 0000 departs its first coset
    out = trellis_encode(spec, [0, 1, 0, 0, 0, 0, 0, 0])
    first_from_1 = next(t for t in spec.transitions if t.from_state == 1)
    assert out[0] == 4 and out[1] == first_from_1.labels[0]
    with pytest.raises(ValueError):
        trellis_encode(spec, [0, 1, 1])
    with pytest.raises(ValueError):
        trellis_encode(spec, [0, 2, 1, 0])
    with pytest.raises(ValueError):
        trellis_encode(spec, [0, 0, 0, 0], initial_state=8)


@pytest.mark.parametrize("bits", [[0.5, 0.9, 1.7, 0], ["1", "0", "1", "1"]],
                         ids=["fractions", "strings"])
def test_bits_are_checked_before_the_integer_cast(bits):
    # an int64 cast would read them as 0010 and 1011, and encode [2] and [15]
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        trellis_encode(default_trellis(), bits)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        trellis_encode_frames(default_trellis(), [bits])


def test_encoders_take_bits_of_their_own_shape():
    spec = default_trellis()
    # a reshape would read [[1, 0], [1, 1]] as the frame 1011 and encode [15]
    with pytest.raises(ValueError, match="rows of a multiple of 4"):
        trellis_encode(spec, [[1, 0], [1, 1]])
    with pytest.raises(ValueError, match="rows of a multiple of 4"):
        trellis_encode_frames(spec, [1, 0, 1, 1])
    bits = np.random.default_rng(5).integers(0, 2, size=(3, 4 * 6))
    want = trellis_encode_frames(spec, bits).tolist()
    for same in (bits.astype(float), bits.astype(bool), bits.astype(np.uint8)):
        assert trellis_encode_frames(spec, same).tolist() == want


def test_viterbi_noiseless_recovers_paths_and_bits():
    spec = default_trellis()
    entries = build_constellation()
    rng = np.random.default_rng(33)
    for _ in range(100):
        bits = rng.integers(0, 2, size=4 * 6)
        indices = trellis_encode(spec, bits)
        h = _channel(rng)
        blocks = [entries[i].matrix @ h for i in indices]
        res, got_bits = viterbi_decode(spec, blocks, h)
        assert list(res.decided_indices) == indices
        assert np.array_equal(got_bits, bits)
        assert res.metric < 1e-18


def test_viterbi_round_trip_from_every_initial_state():
    spec = default_trellis()
    entries = build_constellation()
    rng = np.random.default_rng(38)
    for start in range(spec.num_states):
        for _ in range(10):
            bits = rng.integers(0, 2, size=4 * 5)
            indices = trellis_encode(spec, bits, initial_state=start)
            h = _channel(rng)
            blocks = [entries[i].matrix @ h for i in indices]
            res, got_bits = viterbi_decode(spec, blocks, h,
                                           initial_state=start)
            assert list(res.decided_indices) == indices
            assert np.array_equal(got_bits, bits)


def test_viterbi_per_section_channels():
    spec = default_trellis()
    entries = build_constellation()
    rng = np.random.default_rng(34)
    bits = rng.integers(0, 2, size=4 * 5)
    indices = trellis_encode(spec, bits)
    hs = np.stack([_channel(rng) for _ in indices])
    blocks = [entries[i].matrix @ h for i, h in zip(indices, hs)]
    res, got_bits = viterbi_decode(spec, blocks, hs)
    assert list(res.decided_indices) == indices
    assert np.array_equal(got_bits, bits)


def test_viterbi_single_section_matches_exhaustive_ml():
    # over the start-state-0 reachable labels the two detectors agree exactly
    spec = default_trellis()
    entries = build_constellation()
    reachable = sorted({i for t in spec.transitions if t.from_state == 0 for i in t.labels})
    cand = [entries[i] for i in reachable]
    rng = np.random.default_rng(35)
    for _ in range(300):
        h = _channel(rng)
        k = reachable[int(rng.integers(0, len(reachable)))]
        r = _noisy(entries[k].matrix @ h, 0.5, rng)
        ml = ml_block_decode(r, h, cand)
        vit, _ = viterbi_decode(spec, [r], h)
        assert vit.decided_indices[0] == ml.decided_indices[0]
        assert abs(vit.metric - ml.metric) < 1e-12


def test_viterbi_metric_equals_path_block_metrics():
    spec = default_trellis()
    entries = build_constellation()
    rng = np.random.default_rng(36)
    for _ in range(50):
        bits = rng.integers(0, 2, size=4 * 4)
        indices = trellis_encode(spec, bits)
        h = _channel(rng)
        blocks = [_noisy(entries[i].matrix @ h, 0.4, rng) for i in indices]
        res, _ = viterbi_decode(spec, blocks, h)
        total = sum(float(np.sum(np.abs(b - entries[i].matrix @ h) ** 2))
                    for b, i in zip(blocks, res.decided_indices))
        assert abs(res.metric - total) < 1e-9


def test_viterbi_beats_or_matches_any_single_path():
    # optimality spot check: decided metric never exceeds a random path metric
    spec = default_trellis()
    entries = build_constellation()
    rng = np.random.default_rng(37)
    for _ in range(50):
        bits = rng.integers(0, 2, size=4 * 4)
        indices = trellis_encode(spec, bits)
        h = _channel(rng)
        blocks = [_noisy(entries[i].matrix @ h, 1.0, rng) for i in indices]
        res, _ = viterbi_decode(spec, blocks, h)
        other_bits = rng.integers(0, 2, size=4 * 4)
        other = trellis_encode(spec, other_bits)
        other_metric = sum(float(np.sum(np.abs(b - entries[i].matrix @ h) ** 2))
                           for b, i in zip(blocks, other))
        assert res.metric <= other_metric + 1e-12


@pytest.mark.parametrize("spec", [default_trellis(),
                                  load_trellis(irregular_trellis_text()),
                                  uncoded_trellis()],
                         ids=["regular", "irregular", "one-state"])
@pytest.mark.parametrize("per_section", [False, True])
def test_frame_batch_matches_single_frame_decodes(spec, per_section):
    # noisy frames plus all-tie frames (zero channel, zero received) in one
    # batch: every frame's result equals its own F=1 viterbi_decode
    mats = matrix_stack()
    rng = np.random.default_rng(39)
    frames, sections, start = 9, 7, min(2, spec.num_states - 1)
    bits = rng.integers(0, 2, size=(frames, 4 * sections))
    idx = trellis_encode_frames(spec, bits, initial_state=start)
    shape = (frames, sections) if per_section else (frames, 1)
    h = (rng.standard_normal(shape + (2,)) + 1j * rng.standard_normal(shape + (2,)))
    h[-2:] = 0.0
    rec = (mats[idx] @ h[..., None])[..., 0]
    rec = rec + 0.6 * (rng.standard_normal(rec.shape) + 1j * rng.standard_normal(rec.shape))
    rec[-2:] = 0.0
    got_bits, ties = viterbi_decode_frames(
        spec, rec, h if per_section else h[:, 0], initial_state=start, count_ties=True)
    decided = trellis_encode_frames(spec, got_bits, initial_state=start)
    assert ties[-1] > 0 and ties[-2] == ties[-1]
    for f in range(frames):
        hs = h[f] if per_section else h[f, 0]
        res, one_bits = viterbi_decode(spec, rec[f], hs, initial_state=start)
        assert list(res.decided_indices) == decided[f].tolist()
        assert one_bits.tolist() == got_bits[f].tolist()
        assert res.ties_broken == ties[f]
        assert trellis_encode(spec, bits[f], initial_state=start) == idx[f].tolist()


def _exact_distance_decode(spec, received, faded, initial_state):
    """Reference kernel: add-compare-select on the exact ||r - C h||^2 of each section.

    The per-section loop that viterbi_decode_frames ran before it scored by
    correlation, with its tie-break and tie-count rules; it reads the faded
    candidates C h, (F, 32, T) or (F, S, 32, T).  The one-state
    trellis runs through it too: its one-candidate compares never tie.
    """
    frames, sections = received.shape[:2]
    per_frame = faded[:, None] if faded.ndim == 3 else faded
    cand_t = np.swapaxes(np.broadcast_to(per_frame, (frames, sections) + faded.shape[-2:]),
                         -1, -2)[..., spec.cosets.ravel()]
    states = np.arange(spec.num_states)
    n_trans = len(spec.transitions)
    cand = np.full((frames, n_trans + 1), np.inf)      # last column: padding
    pm = np.full((frames, spec.num_states), np.inf)
    pm[:, initial_state] = 0.0
    back = np.empty((sections, frames, spec.num_states), dtype=np.intp)
    best_pos = np.empty((sections, frames, len(spec.cosets)), dtype=np.intp)
    ties = np.zeros(frames, dtype=np.int64)
    for s in range(sections):
        dists = squared_distances(received[:, s], cand_t[:, s])
        dists = dists.reshape((frames,) + spec.cosets.shape)
        best_pos[s] = np.argmin(dists, axis=-1)
        branch = np.min(dists, axis=-1)
        ties += (np.sum(dists == branch[..., None], axis=-1) > 1) @ spec.coset_count
        cand[:, :n_trans] = pm[:, spec.from_state] + branch[:, spec.coset_of]
        vals = cand[:, spec.groups]
        back[s] = spec.groups[states, np.argmin(vals, axis=2)]
        pm = np.min(vals, axis=2)
        ties += np.sum((np.sum(vals == pm[..., None], axis=2) - 1) * np.isfinite(pm), axis=1)
    state = np.argmin(pm, axis=1)
    metric = np.min(pm, axis=1)
    ties += (np.sum(pm == metric[:, None], axis=1) - 1) * np.isfinite(metric)
    index = np.arange(frames)
    decided = np.empty((frames, sections), dtype=np.intp)
    value = np.empty((frames, sections), dtype=np.intp)
    for s in range(sections - 1, -1, -1):
        k = back[s, index, state]
        pos = best_pos[s, index, spec.coset_of[k]]
        decided[:, s] = spec.labels[k, pos]
        value[:, s] = (spec.coded[k] << spec.uncoded_bits) | pos
        state = spec.from_state[k]
    shifts = np.arange(spec.bits_per_section - 1, -1, -1)
    bits = ((value[..., None] >> shifts) & 1).astype(np.uint8).reshape(frames, -1)
    return decided, bits, metric, ties


#: Entry index by its chi_coordinates, rounded to their exact 0 and +-1.
CHI_INDEX = {tuple(np.rint(chi_coordinates(e))): e.index for e in build_constellation()}


def _random_coset(rng, width) -> tuple:
    """A sign-flip coset of 2**width labels: a random half, chi0 and masks,
    coordinate l flipped by bit owner[l] (by none where it is width), so
    some masks may be empty (a bit that flips nothing repeats labels)."""
    owner = rng.integers(0, width + 1, size=8)
    chi0 = rng.choice([-1.0, 1.0], 8) * np.repeat(np.arange(2) == rng.integers(0, 2), 4)
    return tuple(CHI_INDEX[tuple(chi0 * (1 - 2 * (p >> owner & 1)))] for p in range(2 ** width))


def _random_trellis(rng) -> TrellisSpec:
    """Up to 6 states and 4 transitions per state over a few label rows.

    Each row is a random sign-flip coset with masks of its own.  A row that
    shares a label with an earlier one is dropped: a TrellisSpec takes only
    rows that repeat each other or share no label.  Transitions pick their
    rows at random, so rows repeat.
    """
    states, coded = int(rng.integers(1, 7)), int(rng.integers(0, 3))
    width = int(rng.integers(0 if coded else 1, 3))      # at least one bit per section
    rows = []
    for _ in range(int(rng.integers(1, 5))):
        row = _random_coset(rng, width)
        if all(set(row).isdisjoint(other) for other in rows):
            rows.append(row)
    return TrellisSpec(num_states=states, bits_per_section=coded + width, transitions=tuple(
        Transition(frm, int(rng.integers(0, states)), 0, rows[int(rng.integers(0, len(rows)))])
        for frm in range(states) for _ in range(2 ** coded)))


def _noisy_batch(spec, rng, frames, sections, start, sigma, per_section, all_tie):
    """Received blocks, faded candidates and channels of encoded random frames.

    The channels are (F, sections, N) or (F, N).  The last all_tie frames
    have a zero channel and zero received blocks.
    """
    mats = matrix_stack()
    bits = rng.integers(0, 2, size=(frames, spec.bits_per_section * sections))
    idx = trellis_encode_frames(spec, bits, initial_state=start)
    shape = (frames, sections if per_section else 1, 2)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h[frames - all_tie:] = 0.0
    faded = (mats @ h[..., None, :, None])[..., 0]
    rec = (mats[idx] @ np.broadcast_to(h, (frames, sections, 2))[..., None])[..., 0]
    rec = rec + sigma * (rng.standard_normal(rec.shape) + 1j * rng.standard_normal(rec.shape))
    rec[frames - all_tie:] = 0.0
    if per_section:
        return rec, faded, h
    return rec, faded[:, 0], h[:, 0]


NAMED_TRELLISES = {"regular": default_trellis(), "irregular": load_trellis(irregular_trellis_text()),
                   "one-state": uncoded_trellis()}


def _generator_filters(spec):
    """The decoder's filters by generator algebra, (terms, C, T, N).

    Per label row, chi0 is the chi signs of position 0, mask i the coordinates
    where position 2**i differs from it, and the rest those no mask holds;
    a filter is the chi0-signed sum of the generators over a mask, the
    rest's only when some row has one.
    """
    gens = np.stack(alamouti_generators().basis + primed_alamouti_generators().basis)
    chi = np.sign([[chi_coordinates(build_constellation()[i]) for i in row]
                   for row in spec.cosets])                          # (C, L, 8), 0 or +-1
    flips = chi[:, 1 << np.arange(spec.uncoded_bits)] != chi[:, :1]
    masks = np.concatenate([flips, ~flips.any(axis=1, keepdims=True)], axis=1)
    weights = np.moveaxis(chi[:, :1] * masks, 1, 0)                          # (bits + 1, C, 8)
    terms = spec.uncoded_bits + weights[-1].any()
    return np.tensordot(weights[:terms], gens.view(float), 1).view(np.complex128)


def test_filters_equal_the_generator_algebra_byte_for_byte():
    # the codematrix identities give the very bytes of the chi0-signed generator sums
    rng = np.random.default_rng(24)
    specs = list(NAMED_TRELLISES.values()) + [_random_trellis(rng) for _ in range(300)]
    rests = 0
    for spec in specs:
        want, got = _generator_filters(spec), detectors._filters(spec)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        rests += len(got) > spec.uncoded_bits
    assert 0 < rests < len(specs)       # specs with a rest's filter and specs without


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       trellis=st.sampled_from(sorted(NAMED_TRELLISES) + ["random"]),
       frames=st.integers(1, 8), sections=st.integers(1, 12), sigma=st.floats(0.01, 3.0),
       per_section=st.booleans(), all_tie=st.integers(0, 2))
def test_correlation_kernel_equals_exact_distance_reference(seed, trellis, frames, sections,
                                                            sigma, per_section, all_tie):
    # decisions by matched-filter signs, and the exact metric that viterbi_decode
    # re-sums along them, are the bytes that the ACS over exact distances
    # gives, tie counts included; noisy blocks only, since the two can part
    # on a sum that is a tie in exact arithmetic but not in rounding
    # (noiseless repeated blocks)
    rng = np.random.default_rng(seed)
    spec = _random_trellis(rng) if trellis == "random" else NAMED_TRELLISES[trellis]
    start = int(rng.integers(0, spec.num_states))
    rec, faded, h = _noisy_batch(spec, rng, frames, sections, start, sigma, per_section,
                                 min(all_tie, frames))
    got_bits, got_ties = viterbi_decode_frames(spec, rec, h, initial_state=start,
                                               count_ties=True)
    got = (trellis_encode_frames(spec, got_bits, initial_state=start), got_bits, got_ties)
    decided, bits, metric, ties = _exact_distance_decode(spec, rec, faded, start)
    for name, g, w in zip(("decided", "bits", "ties"), got, (decided, bits, ties)):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    for f in range(frames):
        res, _ = viterbi_decode(spec, rec[f], h[f], initial_state=start)
        assert np.float64(res.metric).tobytes() == metric[f].tobytes()


#: Family -> its label rows: the q8 and q16 cosets, and the uncoded row.
ROWS = {"q8": tuple(q8_cosets().values()), "q16": tuple(q16_cosets().values()),
        "uncoded": (uncoded_trellis().transitions[0].labels,)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(sorted(ROWS)),
       sigma=st.floats(0.05, 3.0))
def test_sign_decisions_equal_exhaustive_ml_over_each_row(seed, family, sigma):
    # each row, decoded as a one-state trellis by its matched-filter signs,
    # decides every noisy block as exhaustive ML over the row's entries does
    rng = np.random.default_rng(seed)
    entries = build_constellation()
    for row in ROWS[family]:
        spec = TrellisSpec(num_states=1, bits_per_section=len(row).bit_length() - 1,
                           transitions=(Transition(0, 0, 0, row),))
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        sent = np.array(row)[rng.integers(0, len(row), size=(3, 5))]
        rec = (matrix_stack()[sent] @ h[:, None, :, None])[..., 0]
        rec += sigma * (rng.standard_normal(rec.shape) + 1j * rng.standard_normal(rec.shape))
        decided = trellis_encode_frames(spec, viterbi_decode_frames(spec, rec, h)[0])
        for f, s in np.ndindex(decided.shape):
            ml = ml_block_decode(rec[f, s], h[f], [entries[i] for i in row])
            assert decided[f, s] == ml.decided_indices[0]


@pytest.mark.parametrize("trellis", sorted(NAMED_TRELLISES))
@pytest.mark.parametrize("per_section", [False, True])
def test_count_ties_false_changes_nothing_else(trellis, per_section):
    spec = NAMED_TRELLISES[trellis]
    rec, _, h = _noisy_batch(spec, np.random.default_rng(41), 9, 7, 0, 0.6, per_section, 2)
    counted = viterbi_decode_frames(spec, rec, h, count_ties=True)
    uncounted = viterbi_decode_frames(spec, rec, h)
    encoded = [trellis_encode_frames(spec, out[0]) for out in (counted, uncounted)]
    for c, u in (encoded, (counted[0], uncounted[0])):
        assert c.dtype == u.dtype and c.tobytes() == u.tobytes()
    assert counted[1][-1] > 0
    assert uncounted[1].dtype == np.int64 and uncounted[1].shape == (9,)
    assert not uncounted[1].any()


@pytest.fixture
def block_widths(monkeypatch):
    """The length hi - lo of each block that _blocks bounds, in order: of
    sections for _acs, or of frames for _matched (a one-state trellis)."""
    widths = []
    blocks = detectors._blocks

    def spied(*args):
        for lo, hi in blocks(*args):
            widths.append(hi - lo)
            yield lo, hi
    monkeypatch.setattr(detectors, "_blocks", spied)
    return widths


#: Filter outputs that a block holds per section of a frame, by named
#: trellis: 16 (2 x 8 label rows) in a block of sections of _acs, or,
#: one-state, one per bit (4) in a block of frames of _matched.
SCORES_PER_SECTION = {"regular": 16, "irregular": 16, "one-state": 4}


@pytest.mark.parametrize("trellis", sorted(NAMED_TRELLISES))
@pytest.mark.parametrize("per_section", [False, True])
def test_decisions_do_not_depend_on_the_branch_block(monkeypatch, block_widths, trellis,
                                                     per_section):
    # _acs scores blocks of sections of up to _BRANCH_SCORES values and
    # runs the ACS over each block as it is scored; the one-state trellis
    # takes the signs of _matched's blocks of whole frames of up to as many
    # values instead.
    # Blocks of 1, 2 and 7 sections (frames), the default and all 50
    # sections (45 frames) must give the same bytes, with zero-channel and
    # all-tie frames among the 45
    spec = NAMED_TRELLISES[trellis]
    frames, sections = 45, 50
    blocked, other = (frames, sections) if spec.num_states == 1 else (sections, frames)
    rec, _, h = _noisy_batch(spec, np.random.default_rng(43), frames, sections, 0, 0.6,
                             per_section, 2)
    h[0] = 0.0                  # a zero channel under noise
    rec[1] = 0.0                # nothing received over a fading channel
    runs = []
    default = detectors._BRANCH_SCORES
    for width in (1, 2, 7, None, blocked):
        scores = default if width is None else width * other * SCORES_PER_SECTION[trellis]
        monkeypatch.setattr(detectors, "_BRANCH_SCORES", scores)
        block_widths.clear()
        bits, ties = viterbi_decode_frames(spec, rec, h, count_ties=True)
        runs.append((trellis_encode_frames(spec, bits), bits, ties))
        want = width or default // (other * SCORES_PER_SECTION[trellis])
        assert block_widths == [want] * (blocked // want) + [blocked % want] * (
            blocked % want > 0)
    for got in runs[1:]:
        for name, g, w in zip(("decided", "bits", "ties"), got, runs[0]):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name
    ties = runs[0][2]
    assert ties[0] > 0 and ties[1] > 0 and ties[-1] > 0       # the tie frames count them


@pytest.mark.parametrize("per_section", [False, True])
def test_one_state_decoding_takes_no_branch_scores(monkeypatch, per_section):
    # the one-state trellis is decided by the filters' signs alone: the
    # branch scores with the ACS, the traceback and the path's decisions never run
    spec = uncoded_trellis()
    rec, _, h = _noisy_batch(spec, np.random.default_rng(44), 5, 6, 0, 0.6, per_section, 1)
    want = viterbi_decode_frames(spec, rec, h, count_ties=True)

    def called(*args):
        raise AssertionError("the one-state decoder called the trellis machinery")
    for name in ("_acs", "_traceback", "_decisions"):
        monkeypatch.setattr(detectors, name, called)
    for count_ties in (False, True):
        bits, ties = viterbi_decode_frames(spec, rec, h, count_ties=count_ties)
        assert bits.tobytes() == want[0].tobytes()
        assert ties.tolist() == (want[1].tolist() if count_ties else [0] * 5)
    assert want[1][-1] == 6
    assert viterbi_decode(spec, rec[0], h[0])[1].tolist() == want[0][0].tolist()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
def test_faded_candidates_share_one_energy(seed, scale):
    # the precondition of the correlation score: ||C h||^2 is one value for
    # all 32 codematrices, the only labels load_trellis accepts
    rng = np.random.default_rng(seed)
    h = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    energy = np.sum(np.abs(matrix_stack() @ h) ** 2, axis=-1)
    assert energy.shape == (32,)
    assert np.max(energy) - np.min(energy) <= 1e-14 * np.max(energy)


@pytest.mark.parametrize("spec, index", [(default_trellis(), 0), (uncoded_trellis(), 4)],
                         ids=["regular", "one-state"])
def test_all_tie_frame_prefers_smaller_state_and_label(spec, index):
    # every candidate ties: the decoder takes coded 00, label position 0
    # from state 0 at every section, so it decides label 0 of the first
    # branch and all-zero bits (index 0 on the 8-state trellis, BASE 4 when
    # uncoded, where exhaustive ML would take index 0)
    res, bits = viterbi_decode(spec, np.zeros((3, 2), complex), np.zeros(2, complex))
    assert res.decided_indices == (index,) * 3
    assert not bits.any()
    assert res.metric == 0.0
    assert res.ties_broken > 0


def test_trellis_tables_are_freed_with_the_spec():
    import gc
    import weakref
    text = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()
    spec = load_trellis(text)
    want = trellis_encode(default_trellis(), [1, 0, 1, 1] * 3)
    assert trellis_encode(spec, [1, 0, 1, 1] * 3) == want     # builds the tables
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("coder", ["encoder", "decoder"])
def test_a_fractional_initial_state_is_rejected(coder):
    # the encoder used to start from a state between 1 and 2, the decoder in an IndexError
    spec = default_trellis()
    with pytest.raises(ValueError, match="^initial_state must be an integer, got 1.5$"):
        if coder == "encoder":
            trellis_encode_frames(spec, np.zeros((1, 8), dtype=np.uint8), initial_state=1.5)
        else:
            viterbi_decode(spec, np.zeros((2, 2), complex), np.ones(2, complex), initial_state=1.5)


@pytest.mark.parametrize("start", [True, np.int64(1)], ids=["True", "int64"])
def test_an_integer_like_initial_state_is_that_state(start):
    # True used to zero every start metric through pm[True] and decode from any state
    spec, rng = default_trellis(), np.random.default_rng(8)
    bits = rng.integers(0, 2, size=(1, 24))
    h = _channel(rng)
    rec = matrix_stack()[trellis_encode_frames(spec, bits)[0]] @ h         # sent from state 0
    from_one, _ = viterbi_decode(spec, rec, h, initial_state=1)
    assert viterbi_decode(spec, rec, h, initial_state=start)[0] == from_one
    assert viterbi_decode(spec, rec, h)[0] != from_one
    assert np.array_equal(trellis_encode_frames(spec, bits, initial_state=start),
                          trellis_encode_frames(spec, bits, initial_state=1))


def test_viterbi_input_validation():
    spec = default_trellis()
    h = _channel(np.random.default_rng(0))
    with pytest.raises(ValueError):
        viterbi_decode(spec, [], [])
    with pytest.raises(ValueError):
        viterbi_decode(spec, [np.zeros(2, complex)], [h, h])
    with pytest.raises(ValueError):
        viterbi_decode(spec, [np.zeros(2, complex)], h, initial_state=-1)


def _frames_batch(frames=4, sections=3):
    """Received blocks (F, S, 2) and per-frame channels (F, 2) of noise."""
    rng = np.random.default_rng(5)
    g = rng.standard_normal((frames, sections + 1, 2, 2))
    return g[:, 1:, :, 0] + 1j * g[:, 1:, :, 1], g[:, 0, :, 0] + 1j * g[:, 0, :, 1]


@pytest.mark.parametrize("case, message", [
    ("three channel columns", "channel has 3 coefficients, expected 2"),
    ("NaN channel", "channel coefficients must be finite"),
    ("two extra channel rows", "channels of shape \\(6, 2\\) do not match"),
    ("per-section channels of other sections", "channels of shape \\(4, 2, 2\\) do not match"),
    ("infinite received sample", "received block samples must be finite"),
    ("2-D received blocks", "received block array must be 3-D"),
    ("three samples per block", "received block has 3 samples, expected 2"),
    ("no frames", "no channel draws given"),
    ("no sections", "no received blocks given"),
    ("1-D channel", "channel array must be 2-D or 3-D"),
])
def test_viterbi_decode_frames_rejects_malformed_input(case, message):
    # each used to decode to silent garbage or fail inside numpy
    rec, h = _frames_batch()
    if case == "three channel columns":
        h = np.column_stack([h, h[:, :1]])
    elif case == "NaN channel":
        h[2, 1] = complex(np.nan, 0.0)
    elif case == "two extra channel rows":
        h = np.concatenate([h, h[:2]])
    elif case == "per-section channels of other sections":
        h = np.repeat(h[:, None], 2, axis=1)
    elif case == "infinite received sample":
        rec[0, 1, 0] = complex(0.0, np.inf)
    elif case == "2-D received blocks":
        rec = rec[0]
    elif case == "three samples per block":
        rec = np.concatenate([rec, rec[..., :1]], axis=-1)
    elif case == "no frames":
        rec, h = rec[:0], h[:0]
    elif case == "no sections":
        rec = rec[:, :0]
    else:
        h = h[0]
    with pytest.raises(ValueError, match=message):
        viterbi_decode_frames(default_trellis(), rec, h)


def test_uncoded_trellis_gray_structure():
    spec = uncoded_trellis()
    assert (spec.num_states, spec.bits_per_section, spec.coded_bits) == (1, 4, 0)
    (t,) = spec.transitions
    # the labels are the 16 BASE entries, and position v spells the Gray
    # bits (chi = 1 - 2b) of its entry
    entries = build_constellation()
    assert sorted(t.labels) == [e.index for e in entries if e.subconstellation.value == "BASE"]
    chi = np.array([chi_coordinates(entries[i])[:4] for i in t.labels])
    bits = np.round((1 - chi) / 2).astype(int)
    assert np.allclose(chi, 1 - 2 * bits)
    assert np.array_equal(bits @ [8, 4, 2, 1], np.arange(16))
    assert trellis_encode(spec, bits.ravel()) == list(t.labels)
    # one coordinate flip moves the matrix by the minimum distance
    mats = matrix_stack()[list(t.labels)]
    for i in range(16):
        for j in range(16):
            if bin(i ^ j).count("1") == 1:
                d2 = float(np.sum(np.abs(mats[i] - mats[j]) ** 2))
                assert abs(d2 - 4.0) < 1e-9, "adjacent bit patterns sit at d^2 = 4"


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(1, 6),
       sections=st.integers(1, 20), sigma=st.floats(0.05, 2.0),
       per_section=st.booleans(), tie_frame=st.booleans())
@example(seed=5, frames=4, sections=1, sigma=0.7, per_section=False, tie_frame=False)
@example(seed=6, frames=3, sections=1500, sigma=0.7, per_section=False, tie_frame=False)
@example(seed=7, frames=3, sections=5, sigma=0.7, per_section=False, tie_frame=True)
@example(seed=8, frames=2, sections=5, sigma=0.7, per_section=True, tie_frame=True)
def test_one_state_decisions_equal_block_ml(seed, frames, sections, sigma, per_section,
                                            tie_frame):
    # the batched one-state decoder decides every block as exhaustive ML over
    # the 16 BASE entries does, and equals the full ACS recursion run on a
    # two-state twin whose second state is never reached, metric bit for bit.
    # The examples: one section per frame (a matrix-vector product per
    # frame), 3 frames of 1500 sections (frame blocks of 2, so one block of
    # 1), and a first frame with a zero channel, where every section ties
    spec = uncoded_trellis()
    labels = spec.transitions[0].labels
    twin = TrellisSpec(num_states=2, bits_per_section=4, transitions=(
        Transition(0, 0, 0, labels), Transition(1, 1, 0, labels)))
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(frames, 4 * sections))
    idx = trellis_encode_frames(spec, bits)
    assert idx.tolist() == trellis_encode_frames(twin, bits).tolist()
    shape = (frames, sections if per_section else 1, 2)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if tie_frame:
        h[0] = 0.0              # every section of frame 0 ties
    rec = (matrix_stack()[idx] @ np.broadcast_to(h, (frames, sections, 2))[..., None])[..., 0]
    rec = rec + sigma * (rng.standard_normal(rec.shape) + 1j * rng.standard_normal(rec.shape))
    channels = h if per_section else h[:, 0]
    got_bits, ties = viterbi_decode_frames(spec, rec, channels)
    counted_bits, counted = viterbi_decode_frames(spec, rec, channels, count_ties=True)
    assert counted_bits.tobytes() == got_bits.tobytes()
    assert counted.tolist() == [sections * tie_frame] + [0] * (frames - 1)
    twin_bits, twin_ties = viterbi_decode_frames(twin, rec, channels)
    decided = trellis_encode_frames(spec, got_bits)
    for got, want in zip((decided, got_bits, ties),
                         (trellis_encode_frames(twin, twin_bits), twin_bits, twin_ties)):
        assert got.tobytes() == want.tobytes()
    base = [build_constellation()[i] for i in labels]
    for f in range(frames):
        hs = h[f] if per_section else h[f, 0]
        metric = viterbi_decode(spec, rec[f], hs)[0].metric
        assert metric == viterbi_decode(twin, rec[f], hs)[0].metric
        total = 0.0
        for s in range(sections):
            ml = ml_block_decode(rec[f, s], h[f, s if per_section else 0], base)
            if tie_frame and f == 0:      # all 16 tie: the lowest position, not the lowest index
                assert decided[f, s] == labels[0] and ml.ties_broken == 15
            else:
                assert decided[f, s] == ml.decided_indices[0]
            total += ml.metric
        assert abs(metric - total) <= 1e-12 * max(1.0, total)
        assert ties[f] == 0
