import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from golden.record import irregular_trellis_text
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stclab import detectors, simulate
from stclab.constellation import build_constellation, matrix_stack
from stclab.detectors import default_trellis, load_trellis, uncoded_trellis
from stclab.simulate import (
    CSV_HEADER,
    FIELDS,
    SimConfig,
    SimResultRow,
    _draw_frames,
    _frame_states,
    format_csv,
    parse_config_file,
    run_point,
    run_simulation,
    sigma_for_snr_db,
)


def _strip_elapsed(csv_text):
    out = []
    for ln in csv_text.splitlines():
        if ln.startswith("#") or ln == CSV_HEADER:
            out.append(ln)
        else:
            out.append(ln.rsplit(",", 1)[0])
    return "\n".join(out)


def test_sigma_for_snr_db():
    assert abs(sigma_for_snr_db(0.0) - np.sqrt(0.5)) < 1e-15
    assert abs(sigma_for_snr_db(10.0) - np.sqrt(0.05)) < 1e-15
    assert sigma_for_snr_db(30.0) < sigma_for_snr_db(10.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mode="turbo")
    with pytest.raises(ValueError):
        SimConfig(frames_per_point=0)
    with pytest.raises(ValueError):
        SimConfig(max_frame_errors=0)
    with pytest.raises(ValueError):
        SimConfig(sections_per_frame=0)
    # 10 ** (snr / 10) overflows past about +3082.5 dB and sigma below -3085.5
    # dB; below about -3240 dB, 10 ** (snr / 10) is 0
    for bad in ((float("nan"),), (0.0, float("inf")), (-float("inf"),), (),
                (3100.0,), (8.0, -3100.0), (-3300.0,), (1e308,), (-1e308,)):
        with pytest.raises(ValueError, match="snr_list_db"):
            SimConfig(snr_list_db=bad)
    assert SimConfig(snr_list_db=(-3085.5, 3082.5)).snr_list_db == (-3085.5, 3082.5)
    with pytest.raises(ValueError, match="base_seed"):
        SimConfig(base_seed=-1)
    with pytest.raises(ValueError, match="trellis_path is only read in trellis mode"):
        SimConfig(mode="uncoded", trellis_path="/nonexistent")
    assert SimConfig(mode="trellis", trellis_path="t.txt").trellis_path == "t.txt"
    with pytest.raises(ValueError, match="trellis_path must name a file, got ''"):
        SimConfig(mode="trellis", trellis_path="")
    assert SimConfig(base_seed=0).base_seed == 0
    cfg = SimConfig(snr_list_db=[0, 4])
    assert cfg.snr_list_db == (0.0, 4.0)


#: what snr_list_db's rule asks: an SNR past the float range is an infinity
_SNR_RULE = FIELDS["snr_list_db"][3]


@pytest.mark.parametrize("field, value, kind", [
    ("snr_list_db", "12", "a sequence of real numbers"),      # ran SNRs 1 and 2
    ("snr_list_db", b"12", "a sequence of real numbers"),
    ("snr_list_db", [4.0, "8"], "a sequence of real numbers"),
    ("snr_list_db", [1j], "a sequence of real numbers"),
    ("snr_list_db", 8.0, "a sequence of real numbers"),
    ("snr_list_db", (10**400,), _SNR_RULE),                   # raised OverflowError
    ("snr_list_db", (-10**400,), _SNR_RULE),
    ("snr_list_db", (Fraction(10**400),), _SNR_RULE),
    ("frames_per_point", 2.5, "an integer"),                   # failed later in run_point
    ("base_seed", 1.5, "an integer"),
    ("max_frame_errors", "3", "an integer"),
    ("sections_per_frame", None, "an integer"),
    ("mode", 3, "a string"),
    ("trellis_path", 3, "a string"),                           # opened file descriptor 3
])
def test_config_rejects_values_of_the_wrong_type(field, value, kind):
    kwargs = {field: value, "mode": "trellis"} if field == "trellis_path" else {field: value}
    says = kind if kind == _SNR_RULE else "must be " + kind
    with pytest.raises(ValueError, match=r"^%s %s, got " % (field, says)):
        SimConfig(**kwargs)


def test_config_takes_numpy_numbers_as_python_ones():
    cfg = SimConfig(snr_list_db=np.array([4, 8.5]), frames_per_point=np.int32(3),
                    base_seed=np.uint64(2**63), max_frame_errors=np.int64(2),
                    sections_per_frame=np.uint8(5))
    assert cfg == SimConfig(snr_list_db=(4.0, 8.5), frames_per_point=3, base_seed=2**63,
                            max_frame_errors=2, sections_per_frame=5)
    for name in ("frames_per_point", "base_seed", "max_frame_errors", "sections_per_frame"):
        assert type(getattr(cfg, name)) is int
    assert all(type(s) is float for s in cfg.snr_list_db)


def test_frame_rng_streams_are_decoupled():
    cfg = SimConfig(base_seed=1, sections_per_frame=1)
    a, b = _draw_frames(cfg, 0, 0, 2, 4)[2]
    c = _draw_frames(cfg, 1, 0, 1, 4)[2][0]
    a2 = _draw_frames(cfg, 0, 0, 1, 4)[2][0]
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _reference_rng(base_seed, point_index, frame_index):
    """numpy's own generator for a frame's stream: the spec of _draw_frames."""
    return np.random.default_rng(np.random.SeedSequence(
        base_seed, spawn_key=(point_index, frame_index)))


#: 0, one 32-bit word, and two or more words
WORD_COUNTS = (st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(*WORD_COUNTS, st.integers(2**128, 2**256)),
       point=st.one_of(*WORD_COUNTS[:2], st.integers(2**32, 2**96)),
       frame=st.one_of(*WORD_COUNTS))
@example(seed=2**128, point=2**32, frame=2**32)
def test_frame_states_equal_pcg64_state(seed, point, frame):
    want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(point, frame))).state
    assert list(_frame_states(seed, point, frame, 1)) == [want]


def _two_call_normals(rng, n):
    """Box-Muller with u1 and u2 read by separate rng.random calls."""
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = 2.0 * np.pi * u2
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:n]


def _per_call_frames(cfg, point_index, first, count, bits_per_frame):
    """Frames drawn one call per item: the bits, the channel, the noise."""
    sections = cfg.sections_per_frame
    tx_bits = np.empty((count, bits_per_frame), dtype=np.uint8)
    h = np.empty((count, 2), dtype=np.complex128)
    noise = np.empty((count, 4 * sections))
    for f in range(count):
        rng = _reference_rng(cfg.base_seed, point_index, first + f)
        tx_bits[f] = rng.random(bits_per_frame) < 0.5
        g = _two_call_normals(rng, 4)
        h[f] = (g[0::2] + 1j * g[1::2]) / np.sqrt(2.0)
        noise[f] = _two_call_normals(rng, 4 * sections)
    return tx_bits, h, noise


@settings(max_examples=200, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**63), st.integers(2**128, 2**160)),
       point=st.integers(0, 40),
       first=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 70, 2**32 + 10**6)),
       count=st.integers(1, 70),
       sections=st.integers(1, 60))
@example(seed=7, point=3, first=2**32 - 3, count=6, sections=2)   # crosses frame 2^32
def test_batched_draws_equal_per_call_draws(seed, point, first, count, sections):
    cfg = SimConfig(base_seed=seed, sections_per_frame=sections)
    got = _draw_frames(cfg, point, first, count, 4 * sections)
    want = _per_call_frames(cfg, point, first, count, 4 * sections)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("sections", [1, 7, 50])
@pytest.mark.parametrize("count", [1, 40])
def test_draws_do_not_depend_on_where_their_arrays_are_placed(monkeypatch, sections, count):
    # call i of np.empty, in _draw_frames, normals_from_uniform or numpy
    # itself, starts at offset + 8 * i mod 64, so each array takes each
    # offset once over the 8 runs; 40 frames refill the 32-row buffer and
    # cross frame 2^32
    cfg = SimConfig(base_seed=4, sections_per_frame=sections)
    want = _draw_frames(cfg, 3, 2**32 - 20, count, 4 * sections)
    empty = np.empty
    for offset in range(0, 64, 8):
        starts = []

        def placed(shape, dtype=float):
            dtype = np.dtype(dtype)
            nbytes = int(np.prod(shape)) * dtype.itemsize
            raw = empty(nbytes + 64, dtype=np.uint8)
            skip = (offset + 8 * len(starts) - raw.ctypes.data) % 64
            out = raw[skip:skip + nbytes].view(dtype).reshape(shape)
            starts.append(out.ctypes.data)
            return out

        monkeypatch.setattr(np, "empty", placed)
        got = _draw_frames(cfg, 3, 2**32 - 20, count, 4 * sections)
        monkeypatch.setattr(np, "empty", empty)
        # 4 arrays of _draw_frames, Box-Muller's output per refill and once more
        assert len(starts) >= 5 + -(-count // 32)
        assert [a % 64 for a in starts] == [(offset + 8 * i) % 64 for i in range(len(starts))]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


@pytest.fixture
def spawn_keys(monkeypatch):
    """The spawn key of each SeedSequence that simulate builds, in order.

    No point of these tests has 1000 frames, and every chunk holds one, so
    a run_point that never stops fails here rather than hanging.
    """
    seed_sequence = np.random.SeedSequence
    keys = []

    def point_sequence(*args, spawn_key=(), **kwargs):
        keys.append(spawn_key)
        assert len(keys) <= 1000, "run_point does not stop"
        return seed_sequence(*args, spawn_key=spawn_key, **kwargs)

    monkeypatch.setattr(simulate.np.random, "SeedSequence", point_sequence)
    return keys


def test_run_point_builds_no_per_frame_generator(monkeypatch, spawn_keys):
    # numpy hashes the seed and point once per chunk, and each chunk's draw
    # call builds one PCG64 of its own; no frame gets a SeedSequence or a
    # generator of its own
    cfg = SimConfig(snr_list_db=(6.0,), frames_per_point=70, base_seed=5,
                    sections_per_frame=50)
    want = run_point(cfg, 0)
    pcg64, built = np.random.PCG64, []

    def counted(*args, **kwargs):
        built.append(args)
        return pcg64(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("run_point built a default_rng")

    monkeypatch.setattr(simulate.np.random, "PCG64", counted)
    monkeypatch.setattr(simulate.np.random, "default_rng", forbidden)
    # the default chunk holds all 70 frames; chunks of 500 sections hold 10
    for chunk_sections, chunks in ((simulate.CHUNK_SECTIONS, 1), (500, 7)):
        monkeypatch.setattr(simulate, "CHUNK_SECTIONS", chunk_sections)
        spawn_keys.clear()
        built.clear()
        got = run_point(cfg, 0)
        assert spawn_keys == [(0,)] * chunks
        assert len(built) == chunks
        assert (got.frames, got.bit_errors, got.frame_errors) == (
            want.frames, want.bit_errors, want.frame_errors)


def _counts(row):
    return row.frames, row.bits, row.bit_errors, row.frame_errors


def test_run_point_may_be_called_from_several_threads():
    # each draw call owns its generator, so two points decoded at once give
    # the rows of a sequential run; a shared generator reseeded per frame
    # interleaves the two points' streams under frequent thread switches
    cfg = SimConfig(snr_list_db=(4.0, 8.0), frames_per_point=300, base_seed=11,
                    max_frame_errors=300, sections_per_frame=20)
    want = [_counts(run_point(cfg, i)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(6):
                start = threading.Barrier(2, timeout=60)

                def point(i):
                    start.wait()
                    return _counts(run_point(cfg, i))

                assert list(pool.map(point, range(2), timeout=60)) == want
    finally:
        sys.setswitchinterval(interval)


def test_cached_tables_are_read_only():
    # the tables cached for the whole process are shared by every caller:
    # a write into one would change every later run_point
    cfg = SimConfig(snr_list_db=(6.0,), frames_per_point=50, base_seed=3)
    want = _counts(run_point(cfg, 0))
    arrays = [matrix_stack()] + [e.matrix for e in build_constellation()]
    for spec in (uncoded_trellis(), default_trellis()):
        arrays += [v for v in vars(spec).values() if isinstance(v, np.ndarray)]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] *= 2
    assert _counts(run_point(cfg, 0)) == want


def test_uncoded_high_snr_is_error_free():
    cfg = SimConfig(mode="uncoded", snr_list_db=(30.0,), frames_per_point=20,
                    base_seed=3, sections_per_frame=50)
    row = run_point(cfg, 0)
    assert row.frames == 20
    assert row.bits == 20 * 50 * 4
    assert row.bit_errors == 0 and row.frame_errors == 0
    assert row.ber == 0.0 and row.fer == 0.0


def test_uncoded_low_snr_sees_errors_and_early_stop():
    cfg = SimConfig(mode="uncoded", snr_list_db=(0.0,), frames_per_point=500,
                    base_seed=3, max_frame_errors=10, sections_per_frame=10)
    row = run_point(cfg, 0)
    assert row.frame_errors == 10
    assert row.frames < 500, "early stop must trigger at 0 dB"
    assert 0.0 < row.ber < 0.5


def test_trellis_mode_runs_and_beats_uncoded_at_matched_load():
    common = dict(snr_list_db=(12.0,), frames_per_point=300, base_seed=7,
                  sections_per_frame=50, max_frame_errors=300)
    un = run_point(SimConfig(mode="uncoded", **common), 0)
    tr = run_point(SimConfig(mode="trellis", **common), 0)
    assert tr.bits == un.bits == 300 * 50 * 4
    assert tr.fer < un.fer, "coding gain must show at 12 dB"


def test_run_point_defaults_to_the_config_trellis(tmp_path):
    # without a spec, run_point transmits over the trellis file the config names
    tf = tmp_path / "irregular.txt"
    tf.write_text(irregular_trellis_text())
    cfg = SimConfig(mode="trellis", snr_list_db=(4.0,), frames_per_point=30, base_seed=2,
                    sections_per_frame=8, trellis_path=str(tf))
    counts = [(r.bit_errors, r.frame_errors) for r in (
        run_point(cfg, 0), run_point(cfg, 0, spec=load_trellis(irregular_trellis_text())),
        run_simulation(cfg)[0], run_point(cfg, 0, spec=default_trellis()))]
    assert counts[0] == counts[1] == counts[2] != counts[3]


def test_run_simulation_is_reproducible():
    cfg = SimConfig(mode="uncoded", snr_list_db=(4.0, 8.0), frames_per_point=40,
                    base_seed=11, sections_per_frame=10)
    rows1 = run_simulation(cfg)
    rows2 = run_simulation(cfg)
    csv1 = _strip_elapsed(format_csv(cfg, rows1))
    csv2 = _strip_elapsed(format_csv(cfg, rows2))
    assert csv1 == csv2
    # different seed moves the counters
    rows3 = run_simulation(SimConfig(mode="uncoded", snr_list_db=(4.0, 8.0),
                                     frames_per_point=40, base_seed=12,
                                     sections_per_frame=10))
    assert [r.bit_errors for r in rows3] != [r.bit_errors for r in rows1]


@pytest.mark.parametrize("mode", ["uncoded", "trellis"])
def test_counts_do_not_depend_on_chunk_size(mode, monkeypatch, spawn_keys):
    # a chunk of one frame is the frame-by-frame run; 0 dB spends the error
    # budget on frame `stop` (counted from 1), 10 dB runs all its frames
    cfg = SimConfig(mode=mode, snr_list_db=(0.0, 10.0), frames_per_point=45,
                    base_seed=9, max_frame_errors=20, sections_per_frame=6)

    def counts(cfg, chunk):
        monkeypatch.setattr(simulate, "CHUNK_SECTIONS", chunk * cfg.sections_per_frame)
        spawn_keys.clear()
        return [(r.frames, r.bits, r.bit_errors, r.frame_errors)
                for r in run_simulation(cfg)]

    want = counts(cfg, 1)
    stop = want[0][0]
    assert 3 <= stop < 45 and want[0][3] == 20 and want[1][0] == 45
    # frame `stop` is the first of a chunk, the last of one, and inside one
    for chunk in (stop - 1, stop, stop + 1, 7, 45):
        assert counts(cfg, chunk) == want, chunk
    # frame `stop` is the last of frames_per_point
    last = replace(cfg, frames_per_point=stop)
    want = counts(last, 1)
    assert want[0] == (stop, stop * 24, want[0][2], 20)
    for chunk in (stop - 1, stop, 7, 45):
        assert counts(last, chunk) == want, chunk


def test_an_early_stop_sizes_its_last_chunks_by_the_error_rate(monkeypatch, spawn_keys):
    # once a point has frame errors, a chunk holds at most need + need // 4 + 8
    # frames, need being the frames the error budget still needs at the FER
    # seen so far; this point runs at a steady FER and stops in the fourth
    # 32-frame chunk, which the rule cuts to 28 frames
    cfg = SimConfig(snr_list_db=(6.0,), frames_per_point=500, base_seed=3,
                    max_frame_errors=40, sections_per_frame=10)
    monkeypatch.setattr(simulate, "CHUNK_SECTIONS", cfg.sections_per_frame)
    want = run_point(cfg, 0)
    chunk, drawn, draw = 32, [], simulate._draw_frames
    monkeypatch.setattr(simulate, "CHUNK_SECTIONS", chunk * cfg.sections_per_frame)
    monkeypatch.setattr(simulate, "_draw_frames", lambda cfg, point, first, count, bits: (
        drawn.append((first, count)) or draw(cfg, point, first, count, bits)))
    spawn_keys.clear()
    row = run_point(cfg, 0)
    stop, chunks, sequences = row.frames, drawn[:], len(spawn_keys)
    # the counts are the frame-by-frame run's
    assert row == replace(want, elapsed_seconds=row.elapsed_seconds)
    assert (stop, row.frame_errors) == (120, 40)
    # no more chunks than whole chunks would take
    assert sequences <= -(-stop // chunk)
    # each chunk's size follows the rule from the frame errors before it
    assert [first for first, _ in chunks] == list(np.cumsum([0] + [n for _, n in chunks[:-1]]))
    for first, count in chunks:
        errors = run_point(replace(cfg, frames_per_point=first), 0).frame_errors if first else 0
        size = chunk
        if errors:
            need = (cfg.max_frame_errors - errors) * first // errors
            size = min(size, need + need // 4 + 8)
        assert count == size, (first, errors)
    assert [count for _, count in chunks] == [32, 32, 32, 28]
    # the last chunk draws no more than its margin past the stop
    assert first + count - stop <= need // 4 + 8


@pytest.mark.parametrize("mode", ["uncoded", "trellis"])
def test_counts_do_not_depend_on_the_section_block(monkeypatch, mode):
    # the decoder scores and runs the ACS by blocks of sections of up to
    # detectors._BRANCH_SCORES values: one section at a time, 7 of the 20,
    # the default and whole frames count the same frames and errors
    cfg = SimConfig(mode=mode, snr_list_db=(2.0, 6.0), frames_per_point=70, base_seed=9,
                    max_frame_errors=25, sections_per_frame=20)
    rows = []
    for scores in (1, 7 * 70 * 16, detectors._BRANCH_SCORES, 10**9):
        monkeypatch.setattr(detectors, "_BRANCH_SCORES", scores)
        rows.append([replace(r, elapsed_seconds=0.0) for r in run_simulation(cfg)])
    assert rows[0][0].frames < 70            # the first point stops early
    assert all(r == rows[0] for r in rows[1:])


#: tracemalloc peak in KiB of run_point over one full chunk of 50-section
#: frames: set at 811 (uncoded) and 1017 (trellis), measured with numpy 2.4
#: at CHUNK_SECTIONS = 6400, plus a margin of 5%; measured 784 and 987 at
#: CHUNK_SECTIONS = 12800, the uncoded decoder taking the filters' signs
#: alone.  A chunk size or a chunk array that grows past it fails here.
CHUNK_PEAK_KIB = {"uncoded": 852, "trellis": 1068}


@pytest.mark.parametrize("mode", ["uncoded", "trellis"])
def test_one_chunk_stays_under_its_memory_ceiling(mode):
    frames = simulate.CHUNK_SECTIONS // 50
    cfg = SimConfig(mode=mode, snr_list_db=(8.0,), frames_per_point=frames, base_seed=3,
                    max_frame_errors=frames, sections_per_frame=50)
    spec = simulate._trellis_for(cfg)
    run_point(cfg, 0, spec)       # cached tables and the generator exist before tracing
    tracemalloc.start()
    try:
        row = run_point(cfg, 0, spec)
        peak_kib = tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()
    assert row.frames == frames
    assert peak_kib <= CHUNK_PEAK_KIB[mode], "peak %.1f KiB" % peak_kib


def test_points_are_decoupled():
    # frame rngs are keyed by (point, frame): a point's outcome is the same
    # run standalone or inside a sweep, whatever the other points look like
    a = SimConfig(mode="uncoded", snr_list_db=(0.0, 8.0), frames_per_point=60,
                  base_seed=5, max_frame_errors=1000, sections_per_frame=10)
    b = SimConfig(mode="uncoded", snr_list_db=(30.0, 8.0), frames_per_point=60,
                  base_seed=5, max_frame_errors=1000, sections_per_frame=10)
    row_a = run_simulation(a)[1]
    row_b = run_simulation(b)[1]
    row_alone = run_point(a, 1)
    for field in ("frames", "bits", "bit_errors", "frame_errors"):
        assert getattr(row_a, field) == getattr(row_b, field)
        assert getattr(row_a, field) == getattr(row_alone, field)


def test_format_csv_layout():
    cfg = SimConfig(mode="uncoded", snr_list_db=(4.0,), frames_per_point=5,
                    base_seed=2, sections_per_frame=10)
    text = format_csv(cfg, run_simulation(cfg))
    lines = text.splitlines()
    assert lines[0].startswith("# stc-lab simulate mode=uncoded seed=2")
    assert lines[3] == CSV_HEADER
    fields = lines[4].split(",")
    assert len(fields) == 8
    assert fields[0] == "4" and fields[1] == "5"
    row = SimResultRow(snr_db=4.0, frames=5, bits=200, bit_errors=3,
                       frame_errors=2, elapsed_seconds=0.1)
    assert abs(row.ber - 0.015) < 1e-15 and abs(row.fer - 0.4) < 1e-15


def test_format_csv_snr_reads_back_exactly():
    cfg = SimConfig(snr_list_db=(12.3456789, 0.1, 30.0), frames_per_point=1)
    rows = [SimResultRow(snr_db=s, frames=1, bits=200, bit_errors=0,
                         frame_errors=0, elapsed_seconds=0.0)
            for s in cfg.snr_list_db]
    data = format_csv(cfg, rows).splitlines()[4:]
    snrs = [ln.split(",")[0] for ln in data]
    assert [float(s) for s in snrs] == [12.3456789, 0.1, 30.0]
    assert snrs[1:] == ["0.1", "30"], "%.6g stays where it is exact"


def test_parse_config_file():
    text = """
    # comment
    mode = trellis
    snr_list_db = 0, 4, 8
    frames_per_point = 100
    base_seed = 9
    sections_per_frame = 25
    """
    kw = parse_config_file(text)
    cfg = SimConfig(**kw)
    assert cfg.mode == "trellis"
    assert cfg.snr_list_db == (0.0, 4.0, 8.0)
    assert cfg.frames_per_point == 100 and cfg.base_seed == 9
    with pytest.raises(ValueError, match="line 1"):
        parse_config_file("just words\n")
    with pytest.raises(ValueError, match="line 2: unknown key 'speed'"):
        parse_config_file("mode=uncoded\nspeed=11\n")
    with pytest.raises(ValueError, match="line 3: key 'mode' already set on line 1"):
        parse_config_file("mode=uncoded\n# comment\nmode=trellis\n")
    with pytest.raises(ValueError, match="line 2: bad frames_per_point value"):
        parse_config_file("mode=uncoded\nframes_per_point=abc\n")
    with pytest.raises(ValueError, match="line 1: bad snr_list_db value"):
        parse_config_file("snr_list_db=0, four\n")
    with pytest.raises(ValueError, match="line 1: bad snr_list_db value: empty item"):
        parse_config_file("snr_list_db=0,,4\n")
    # converted values that break SimConfig's rules name their line too
    for text, msg in (("# c\nframes_per_point=0\n", "line 2: frames_per_point must be positive"),
                      ("mode=turbo\n", "line 1: mode must be one of"),
                      ("mode=trellis\nbase_seed=-1\n", "line 2: base_seed must be nonnegative"),
                      ("snr_list_db=0 nan\n", "line 1: snr_list_db must hold"),
                      ("mode=uncoded\n\nsnr_list_db = 8, 3100\n",
                       "line 3: snr_list_db must hold"),
                      ("mode=trellis\ntrellis_path =\n", "line 2: trellis_path must name"),
                      ("\n\nmax_frame_errors=0\n", "line 3: max_frame_errors"),
                      ("sections_per_frame=-2\n", "line 1: sections_per_frame")):
        with pytest.raises(ValueError, match=msg):
            parse_config_file(text)


def test_each_simconfig_field_has_one_fields_entry_and_one_flag():
    from stclab.cli import build_parser
    names = [f.name for f in fields(SimConfig)]
    assert sorted(FIELDS) == sorted(names)
    sim = build_parser()._subparsers._group_actions[0].choices["simulate"]
    dests = [a.dest for a in sim._actions]
    assert all(dests.count(name) == 1 for name in names)
