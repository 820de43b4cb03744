"""Malformed config, trellis and generator texts, matrices, channels,
received blocks and coordinates end in ValueError, never in another
exception (or in an allocation sized by a header field)."""

import importlib.resources
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stclab.channel import (
    build_equivalent_real_model,
    channels_from_uniform,
    shape_invariance_audit,
)
from stclab.cli import main
from stclab.constellation import table_expansion
from stclab.designs import (
    alamouti_generators,
    analyze,
    make_generator_set,
    pairwise_difference_check,
    read_generator_file,
    span_residuals,
    synthesize,
    write_generator_file,
)
from stclab.detectors import (
    base_subconstellation_entries,
    default_trellis,
    load_trellis,
    ml_block_decode,
    viterbi_decode,
)
from stclab.expansion import decompose_direct_sum, expand, rotated_synthesis_residual
from stclab.simulate import SimConfig, parse_config_file

CONFIG = """# a valid trellis run
mode=trellis
snr_list_db=4, 8
frames_per_point=20
base_seed=3
max_frame_errors=5
sections_per_frame=10
"""
TRELLIS = importlib.resources.files("stclab.data").joinpath("trellis8.txt").read_text()
GENERATORS = write_generator_file(alamouti_generators())

PARSERS = {
    "config": (CONFIG, lambda text: SimConfig(**parse_config_file(text))),
    "trellis": (TRELLIS, load_trellis),
    "generators": (GENERATORS, read_generator_file),
}

LARGE = st.one_of(st.integers(10**9, 10**30), st.sampled_from([2**63, 2**64 + 1, 99999999999]))
TOKENS = st.one_of(
    LARGE.map(str),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e999", "x", "", "1,2", "=", "#",
                     "9" * 5000, "0.5", "1,0", "re,im"]))
EDITS = st.lists(st.tuples(st.sampled_from(["token", "drop", "repeat", "cut"]),
                           st.integers(0, 400), st.integers(0, 40), TOKENS),
                 min_size=1, max_size=4)


def _mutate(text: str, edits) -> str:
    """Apply edits: replace one token of a line, drop or repeat a line, or
    cut the text short."""
    lines = text.splitlines()
    for op, i, j, token in edits:
        if not lines:
            break
        i %= len(lines)
        if op == "token":
            parts = re.split(r"([\s=,]+)", lines[i])     # separators kept at odd positions
            parts[2 * (j % ((len(parts) + 1) // 2))] = token
            lines[i] = "".join(parts)
        elif op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            lines = lines[:i]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_valid_texts_parse(name):
    text, parse = PARSERS[name]
    parse(text)


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=150, deadline=None)
@given(edits=EDITS)
def test_mutated_texts_raise_only_value_error(name, edits):
    text, parse = PARSERS[name]
    try:
        parse(_mutate(text, edits))
    except ValueError:
        pass


# the shipped listing: 6 comment lines, the header on line 7, transitions from line 8
@settings(max_examples=300, deadline=None)
@given(edits=EDITS)
@example(edits=[("drop", 8, 0, "")])          # state 0 keeps 3 of its 4 transitions
@example(edits=[("cut", 7, 0, "")])           # the header alone
@example(edits=[("token", 6, 3, "5")])        # bits_per_section=5: 8 out per state
def test_mutated_trellis_errors_name_a_line(edits):
    text = _mutate(TRELLIS, edits)
    try:
        load_trellis(text)
    except ValueError as exc:
        if any(ln.strip() and not ln.strip().startswith("#") for ln in text.splitlines()):
            assert re.match(r"line \d+: ", str(exc)), str(exc)
        else:
            assert str(exc) == "empty trellis file"


def test_zero_bits_per_section_exits_2_at_the_header(tmp_path, capsys):
    # one self-loop per state, labelled by the state: 2**0 transitions out of each
    text = "states=32 bits_per_section=0\n" + "".join(
        "%d %d 0 %d\n" % (s, s, s) for s in range(32))
    with pytest.raises(ValueError, match="^line 1: bits_per_section must be at least 1"):
        load_trellis(text)
    path = tmp_path / "zero.txt"
    path.write_text(text)
    assert main(["simulate", "--mode", "trellis", "--trellis", str(path),
                 "--frames", "1"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: line 1: ") and "Traceback" not in out.err + out.out


@pytest.mark.parametrize("cell", ["nan,0.0", "inf,1e400", "0.0,1e400", "0.0,-inf"])
def test_non_finite_generator_entry_names_its_line(cell):
    # the header is line 1 and the first matrix row line 3; put the entry on
    # the second row of the second matrix, line 7
    lines = GENERATORS.splitlines()
    assert lines[0] == "2 2 2 0.5" and lines[2] and not lines[4]
    cells = lines[6].split()
    cells[1] = cell
    lines[6] = " ".join(cells)
    with pytest.raises(ValueError, match="^line 7: matrix entries must be finite$"):
        read_generator_file("\n".join(lines))


#: Integer header field -> (valid text, its header, the header with that
#: field as %d, parser)
HEADER_FIELDS = {
    "states": (TRELLIS, "states=8 bits_per_section=4", "states=%d bits_per_section=4",
               load_trellis),
    "bits_per_section": (TRELLIS, "states=8 bits_per_section=4",
                         "states=8 bits_per_section=%d", load_trellis),
    "T": (GENERATORS, "2 2 2 0.5", "%d 2 2 0.5", read_generator_file),
    "N": (GENERATORS, "2 2 2 0.5", "2 %d 2 0.5", read_generator_file),
    "K": (GENERATORS, "2 2 2 0.5", "2 2 %d 0.5", read_generator_file),
}


@settings(max_examples=100, deadline=None)
@given(big=LARGE, field=st.sampled_from(sorted(HEADER_FIELDS)))
def test_large_header_counts_raise_value_error(big, field):
    text, head, template, parse = HEADER_FIELDS[field]
    with pytest.raises(ValueError, match="line"):
        parse(text.replace(head, template % big, 1))


EXPANDED = table_expansion()
DESIGN = EXPANDED.base_generators


def _decode(inputs):
    return viterbi_decode(default_trellis(), inputs["received"], inputs["channel"])


#: Entry point -> (call on its inputs, the shape of each well-formed input):
#: T = 2 samples per received block, N = 2 antennas, 3 sections or draws,
#: a T x N matrix, 2K = 4 real coordinates and K = 2 symbols.
ENTRY_POINTS = {
    "synthesize": (lambda a: synthesize(DESIGN, a["chi"]), {"chi": (4,)}),
    "pairwise_difference_check": (
        lambda a: pairwise_difference_check(DESIGN, np.ones(4), a["chi"]), {"chi": (4,)}),
    "expand point_chis": (
        lambda a: expand(DESIGN, [np.ones(4), a["chi"]], np.eye(2)), {"chi": (4,)}),
    "rotated_synthesis_residual": (
        lambda a: rotated_synthesis_residual(DESIGN, a["symbols"], 1j), {"symbols": (2,)}),
    "analyze": (lambda a: analyze(DESIGN, a["matrix"]), {"matrix": (2, 2)}),
    "span_residuals": (
        lambda a: span_residuals(DESIGN, [a["matrix"]]), {"matrix": (2, 2)}),
    "decompose_direct_sum": (
        lambda a: decompose_direct_sum(EXPANDED, a["matrix"]), {"matrix": (2, 2)}),
    "expand": (
        lambda a: expand(DESIGN, [np.ones(4)], a["unitary"]), {"unitary": (2, 2)}),
    "make_generator_set": (
        lambda a: make_generator_set(DESIGN.basis[:3] + (a["matrix"],)),
        {"matrix": (2, 2)}),
    "ml_block_decode": (
        lambda a: ml_block_decode(a["received"], a["channel"], base_subconstellation_entries()),
        {"received": (2,), "channel": (2,)}),
    "viterbi_decode": (_decode, {"received": (3, 2), "channel": (2,)}),
    "viterbi_decode per section": (_decode, {"received": (3, 2), "channel": (3, 2)}),
    "build_equivalent_real_model": (
        lambda a: build_equivalent_real_model(EXPANDED, a["channel"]), {"channel": (2,)}),
    "shape_invariance_audit": (
        lambda a: shape_invariance_audit(EXPANDED, a["channel"]), {"channel": (3, 2)}),
}

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
MALFORMATIONS = st.one_of(
    st.tuples(st.just("axis"), st.sampled_from(["add", "drop"])),
    st.tuples(st.just("no rows"), st.none()),
    st.tuples(st.just("width"), st.sampled_from([1, 3])),       # antennas or samples
    st.tuples(st.just("non-finite"), st.tuples(st.integers(0, 5), NON_FINITE, st.booleans())))


def _inputs(entry, seed, level):
    """Well-formed inputs: every channel row is the one draw of seed, every
    received sample is level, the matrix is point seed (mod 32) of the
    expanded constellation, the unitary is that point over sqrt(2) (every
    point S has S^H S = 2I), the coordinates are the point's own and the
    symbols are the draw."""
    h = channels_from_uniform(np.random.default_rng(seed).random(4))
    chosen = EXPANDED.points[seed % len(EXPANDED.points)]
    point = chosen.matrix
    made = {"channel": lambda shape: np.array(np.broadcast_to(h, shape)),
            "received": lambda shape: np.full(shape, complex(level)),
            "matrix": lambda shape: point.copy(),
            "unitary": lambda shape: point / np.sqrt(2.0),
            "chi": lambda shape: chosen.chi_oplus[:4] + chosen.chi_oplus[4:],
            "symbols": lambda shape: h.copy()}
    return {name: made[name](shape) for name, shape in ENTRY_POINTS[entry][1].items()}


def _malform(x, kind, arg):
    if kind == "axis":         # (w,) -> (1, w) or (); (rows, w) -> (1, rows, w) or (rows * w,)
        return x[None] if arg == "add" else x.reshape(-1) if x.ndim == 2 else x[0]
    if kind == "no rows":
        return x[:0]
    if kind == "width":
        return np.concatenate([x, x], axis=-1)[..., :arg]
    pos, bad, imaginary = arg
    # a C-ordered copy, so that reshape gives a view; real input turns complex
    x = x.astype(np.complex128 if imaginary else x.dtype, order="C")
    part = x.reshape(-1).imag if imaginary else x.reshape(-1).real
    part[pos % part.size] = bad
    return x


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_well_formed_arrays_pass(entry):
    ENTRY_POINTS[entry][0](_inputs(entry, 0, 0.3))


# the first four @examples decoded without an error before the inputs were
# checked; the next four are the checks of the one-draw channel class it
# replaced; the next three gave a LinAlgError, a broadcast error or "no
# match" before matrices were held to the design's shape; the last three
# returned NaN, or dropped an imaginary part, before coordinates were checked
@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(sorted(ENTRY_POINTS)),
       target=st.sampled_from(["received", "channel", "matrix"]), how=MALFORMATIONS,
       seed=st.integers(0, 2**32 - 1), level=st.floats(-2.0, 2.0))
# a 1-sample block broadcast against T = 2: index 11, metric 1.79
@example(entry="ml_block_decode", target="received", how=("width", 1), seed=0, level=0.3)
# three 1-sample blocks over one channel per section: a decoded path
@example(entry="viterbi_decode per section", target="received", how=("width", 1), seed=0,
         level=0.3)
# a NaN block: decisions (0, 0, 0) with metric nan
@example(entry="viterbi_decode", target="received", how=("non-finite", (0, np.nan, False)),
         seed=0, level=0.3)
# an inf block: metric inf with 15 ties
@example(entry="ml_block_decode", target="received", how=("non-finite", (0, np.inf, False)),
         seed=0, level=0.3)
# one channel draw: empty, and an inf real or a NaN or -inf imaginary part
@example(entry="build_equivalent_real_model", target="channel", how=("no rows", None),
         seed=0, level=0.0)
@example(entry="build_equivalent_real_model", target="channel",
         how=("non-finite", (1, np.inf, False)), seed=0, level=0.0)
@example(entry="build_equivalent_real_model", target="channel",
         how=("non-finite", (1, np.nan, True)), seed=0, level=0.0)
@example(entry="build_equivalent_real_model", target="channel",
         how=("non-finite", (1, -np.inf, True)), seed=0, level=0.0)
@example(entry="span_residuals", target="matrix", how=("width", 3), seed=0, level=0.0)
@example(entry="decompose_direct_sum", target="matrix", how=("width", 1), seed=0,
         level=0.0)
@example(entry="decompose_direct_sum", target="matrix", how=("no rows", None), seed=0,
         level=0.0)
@example(entry="synthesize", target="matrix", how=("non-finite", (0, np.nan, False)),
         seed=0, level=0.0)
@example(entry="rotated_synthesis_residual", target="matrix",
         how=("non-finite", (1, np.inf, False)), seed=0, level=0.0)
@example(entry="pairwise_difference_check", target="matrix",
         how=("non-finite", (2, 1.0, True)), seed=0, level=0.0)
def test_malformed_arrays_raise_only_value_error(entry, target, how, seed, level):
    call, shapes = ENTRY_POINTS[entry]
    inputs = _inputs(entry, seed, level)
    name = target if target in shapes else min(shapes)      # the first input by name
    # coordinates and symbols are flattened, so an added unit axis is well formed
    assume(not (name in ("chi", "symbols") and how == ("axis", "add")))
    inputs[name] = _malform(inputs[name], *how)
    with pytest.raises(ValueError) as caught:
        call(inputs)
    assert caught.type is ValueError          # not a subclass such as LinAlgError
