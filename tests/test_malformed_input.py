"""Malformed config, trellis and generator texts end in ValueError, never
in another exception (or in an allocation sized by a header field)."""

import importlib.resources
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stclab.designs import alamouti_generators, read_generator_file, write_generator_file
from stclab.detectors import load_trellis
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
