import importlib.resources

import numpy as np
import pytest
from golden.record import irregular_trellis_text
from hypothesis import given, settings
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
from stclab.detectors import (
    Transition,
    TrellisSpec,
    base_subconstellation_entries,
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
    # structurally wrong: swap two labels so the uncoded-bit order breaks
    good = (tmp_path / "t.txt")
    import importlib.resources
    text = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.strip().startswith("0 0 "):
            parts = ln.split()
            parts[3], parts[4] = parts[4], parts[3]
            lines[i] = " ".join(parts)
            break
    with pytest.raises(ValueError, match="uncoded-bit order"):
        load_trellis("\n".join(lines))
    # dropping a line leaves a state with out-degree 3
    lines = text.splitlines()
    kept = [ln for ln in lines if not ln.strip().startswith("0 1 ")]
    with pytest.raises(ValueError, match="outgoing"):
        load_trellis("\n".join(kept))
    with pytest.raises(ValueError, match="^line 7: trellis has no transitions"):
        load_trellis("\n".join(lines[:7]))


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
    with pytest.raises(ValueError, match="uncoded-bit order"):
        load_trellis("\n".join(lines).replace(
            first, "0 0 %d %d %d" % (c, cosets[c][1], cosets[c][0])))
    with pytest.raises(ValueError, match="sits in q16 coset %d" % c):
        load_trellis("\n".join(lines).replace(
            first, "0 0 %d %d %d" % ((halves[0][1],) + cosets[c])))


SHIPPED = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()


# the shipped listing has its header on line 7 and transition k on line 8 + k
@pytest.mark.parametrize("old, new, error", [
    ("0 1 3 4 12 6 14\n", "", "line 7: state 0 has 3 outgoing transitions, expected 4"),
    ("0 0 0 0 8 2 10", "0 0 0 0 8 2 26", "line 8: transition 0->0 mixes subconstellations"),
    ("0 2 2 5 13 7 15", "0 2 5 16 24 18 26", "line 10: state 0 departs on a mix"),
    ("2 1 0 0 8 2 10", "2 4 0 0 8 2 10", "line 17: state 4 is entered on a mix"),
    ("0 0 0 0 8 2 10", "0 0 5 0 8 2 10",
     "line 8: transition 0->0 declares coset 5 but label 0 sits in q8 coset 0"),
    ("0 0 0 0 8 2 10", "0 0 0 8 0 2 10", "line 8: transition 0->0 label 8 out of uncoded-bit"),
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


#: Every array a TrellisSpec derives from its transitions.
DERIVED = ("labels_per_branch", "uncoded_bits", "coded_bits", "from_state", "to_state",
           "coded", "labels", "cosets", "coset_of", "coset_count", "groups", "next_state",
           "branch_labels")


@pytest.mark.parametrize("spec", [default_trellis(), load_trellis(irregular_trellis_text())],
                         ids=["regular", "irregular"])
def test_trellis_text_round_trips(spec):
    lines = ["states=%d bits_per_section=%d" % (spec.num_states, spec.bits_per_section)]
    lines += ["%d %d %d %s" % (t.from_state, t.to_state, t.coset, " ".join(map(str, t.labels)))
              for t in spec.transitions]
    again = load_trellis("\n".join(lines) + "\n")
    assert again.transitions == spec.transitions
    for name in DERIVED:
        want, got = np.asarray(getattr(spec, name)), np.asarray(getattr(again, name))
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name


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
    faded = (mats @ h[..., None, :, None])[..., 0]          # (F, 1|n, 32, 2)
    rec = (mats[idx] @ h[..., None])[..., 0]
    rec = rec + 0.6 * (rng.standard_normal(rec.shape) + 1j * rng.standard_normal(rec.shape))
    rec[-2:] = 0.0
    decided, got_bits, ties = viterbi_decode_frames(
        spec, rec, faded if per_section else faded[:, 0], initial_state=start,
        count_ties=True)
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
    correlation, with its tie-break and tie-count rules.  The one-state
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


def _random_trellis(rng) -> TrellisSpec:
    """Up to 6 states and 4 transitions per state over a few shared label rows."""
    states, coded = int(rng.integers(1, 7)), int(rng.integers(0, 3))
    width = int(rng.integers(0 if coded else 1, 3))      # at least one bit per section
    rows = [tuple(int(i) for i in rng.permutation(32)[:2 ** width])
            for _ in range(int(rng.integers(1, 5)))]
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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       trellis=st.sampled_from(sorted(NAMED_TRELLISES) + ["random"]),
       frames=st.integers(1, 8), sections=st.integers(1, 12), sigma=st.floats(0.01, 3.0),
       per_section=st.booleans(), all_tie=st.integers(0, 2))
def test_correlation_kernel_equals_exact_distance_reference(seed, trellis, frames, sections,
                                                            sigma, per_section, all_tie):
    # decisions by -Re<r, C h>, and the exact metric that viterbi_decode
    # re-sums along them, are the bytes that the ACS over exact distances
    # gives, tie counts included; noisy blocks only, since the two can part
    # on a sum that is a tie in exact arithmetic but not in rounding
    # (noiseless repeated blocks)
    rng = np.random.default_rng(seed)
    spec = _random_trellis(rng) if trellis == "random" else NAMED_TRELLISES[trellis]
    start = int(rng.integers(0, spec.num_states))
    rec, faded, h = _noisy_batch(spec, rng, frames, sections, start, sigma, per_section,
                                 min(all_tie, frames))
    got = viterbi_decode_frames(spec, rec, faded, initial_state=start, count_ties=True)
    decided, bits, metric, ties = _exact_distance_decode(spec, rec, faded, start)
    for name, g, w in zip(("decided", "bits", "ties"), got, (decided, bits, ties)):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    for f in range(frames):
        res, _ = viterbi_decode(spec, rec[f], h[f], initial_state=start)
        assert np.float64(res.metric).tobytes() == metric[f].tobytes()


@pytest.mark.parametrize("trellis", sorted(NAMED_TRELLISES))
@pytest.mark.parametrize("per_section", [False, True])
def test_count_ties_false_changes_nothing_else(trellis, per_section):
    spec = NAMED_TRELLISES[trellis]
    rec, faded, _ = _noisy_batch(spec, np.random.default_rng(41), 9, 7, 0, 0.6, per_section, 2)
    counted = viterbi_decode_frames(spec, rec, faded, count_ties=True)
    uncounted = viterbi_decode_frames(spec, rec, faded)
    for c, u in zip(counted[:2], uncounted[:2]):
        assert c.dtype == u.dtype and c.tobytes() == u.tobytes()
    assert counted[2][-1] > 0
    assert uncounted[2].dtype == np.int64 and uncounted[2].shape == (9,)
    assert not uncounted[2].any()


@pytest.mark.parametrize("trellis", sorted(NAMED_TRELLISES))
@pytest.mark.parametrize("per_section", [False, True])
def test_decisions_do_not_depend_on_the_branch_block(monkeypatch, trellis, per_section):
    # _branches scores blocks of frames of up to _BRANCH_SCORES scores: one
    # frame per block, the default's few frames (its last block short) and
    # all 45 frames in one block must give the same bytes
    spec = NAMED_TRELLISES[trellis]
    rec, faded, _ = _noisy_batch(spec, np.random.default_rng(43), 45, 50, 0, 0.6,
                                 per_section, 2)
    runs = []
    for scores in (1, detectors._BRANCH_SCORES, 10**9):
        monkeypatch.setattr(detectors, "_BRANCH_SCORES", scores)
        runs.append(viterbi_decode_frames(spec, rec, faded, count_ties=True))
    for got in runs[1:]:
        for name, g, w in zip(("decided", "bits", "ties"), got, runs[0]):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name
    assert runs[0][2][-1] > 0          # the all-tie frames count their ties


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


def test_viterbi_input_validation():
    spec = default_trellis()
    h = _channel(np.random.default_rng(0))
    with pytest.raises(ValueError):
        viterbi_decode(spec, [], [])
    with pytest.raises(ValueError):
        viterbi_decode(spec, [np.zeros(2, complex)], [h, h])
    with pytest.raises(ValueError):
        viterbi_decode(spec, [np.zeros(2, complex)], h, initial_state=-1)


def test_base_subconstellation_entries():
    ents = base_subconstellation_entries()
    assert [e.index for e in ents] == list(range(16))


def test_uncoded_trellis_gray_structure():
    spec = uncoded_trellis()
    assert (spec.num_states, spec.bits_per_section, spec.coded_bits) == (1, 4, 0)
    (t,) = spec.transitions
    assert sorted(t.labels) == [e.index for e in base_subconstellation_entries()]
    # label position v spells the Gray bits (chi = 1 - 2b) of its entry
    entries = build_constellation()
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
       per_section=st.booleans())
def test_one_state_decisions_equal_block_ml(seed, frames, sections, sigma, per_section):
    # the batched one-state decoder decides every block as exhaustive ML over
    # the 16 BASE entries does, and equals the full ACS recursion run on a
    # two-state twin whose second state is never reached, metric bit for bit
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
    faded = (matrix_stack() @ h[..., None, :, None])[..., 0]
    rec = (matrix_stack()[idx] @ np.broadcast_to(h, (frames, sections, 2))[..., None])[..., 0]
    rec = rec + sigma * (rng.standard_normal(rec.shape) + 1j * rng.standard_normal(rec.shape))
    faded = faded if per_section else faded[:, 0]
    decided, got_bits, ties = viterbi_decode_frames(spec, rec, faded)
    for got, want in zip((decided, got_bits, ties), viterbi_decode_frames(twin, rec, faded)):
        assert got.tobytes() == want.tobytes()
    base = base_subconstellation_entries()
    for f in range(frames):
        hs = h[f] if per_section else h[f, 0]
        metric = viterbi_decode(spec, rec[f], hs)[0].metric
        assert metric == viterbi_decode(twin, rec[f], hs)[0].metric
        total = 0.0
        for s in range(sections):
            ml = ml_block_decode(rec[f, s], h[f, s if per_section else 0], base)
            assert decided[f, s] == ml.decided_indices[0]
            total += ml.metric
        assert abs(metric - total) <= 1e-12 * max(1.0, total)
        assert ties[f] == 0
    assert trellis_encode_frames(spec, got_bits).tolist() == decided.tolist()
