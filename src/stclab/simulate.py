"""Monte Carlo link simulation over the quasi-static Rayleigh channel.

Two modes at 2 bits per channel use, both Viterbi-decoded from known start
state 0 to a free end state:

* ``uncoded``: the one-state trellis (detectors.uncoded_trellis), i.e. ML
  block detection over the 16 BASE points, 4 Gray-mapped bits per two-use
  block (bit b -> chi = 1 - 2b); an exact tie takes the lowest label position.
* ``trellis``: a trellis over all 32 points, 2 coded + 2 uncoded bits per section.

SNR is Es/N0 per receive antenna with the total transmit energy per channel
use fixed to 1 (codematrix rows have unit energy), so the noise variance per
real dimension is sigma^2 = 1 / (2 * 10^(snr_db/10)).

Determinism: every frame draws from the stream of
default_rng(SeedSequence(base_seed, spawn_key=(point_index, frame_index))),
with the frozen in-frame draw order (payload bits, then channel, then
noise).  Runs are therefore reproducible for a given config regardless of
how frames are scheduled.  One channel draw per frame, held constant across
the frame's blocks, independent across frames.

The stream is realised without building those objects per frame: numpy
hashes the seed and point once per chunk, _seed_words continues the hash
over the chunk's frame words, and one reused PCG64 is loaded with each
frame's seeded state.  Both algorithms are frozen by numpy's
stream-compatibility policy, and the tests compare the hash and the draws
with numpy's own objects, so the draws are bit-identical and the contract
carries no version.

Each frame's stream is read with one rng.random call that fills the frame's
row of uniforms in that order: the payload bits (u < 0.5), then the 4
uniforms of the channel, then the 4 * sections of the noise.  On PCG64 one
call of length a + b returns the same doubles as a call of length a
followed by one of length b, since each double consumes one 64-bit output,
so this equals drawing the bits, the channel and the noise with separate
calls.  The rows of a quarter of a chunk's frames share one buffer;
Box-Muller (channel.normals_from_uniform) runs once per quarter over its
channel columns and once over its noise columns.

Frames are decoded in chunks of whole frames, up to CHUNK_SECTIONS
sections and at least one frame.  A chunk's faded candidates C h are formed
once: channel.transmit gathers the sent blocks from them and one
viterbi_decode_frames call decides against them.  Chunks keep their size
to the end of a point: the chunk in which the frame errors reach
max_frame_errors is decoded whole and cut after that frame, the frame where
a frame-by-frame run stops.  Results therefore do not depend on the chunk
size; the frames past the stop (at most one chunk less one frame per
point) are drawn and decoded but not counted, and elapsed_seconds includes
that work.  A chunk's memory does depend on its size: for 128 frames of 50
sections the tracemalloc peak is about 0.8 MiB uncoded and 1.0 MiB in
trellis mode, where the decoder's branch scores (400 KiB) and the received
blocks (200 KiB) are alive together; tests/test_simulate.py holds both to
a ceiling.
"""

from __future__ import annotations

import functools
import io
import numbers
import operator
import time
from dataclasses import dataclass

import numpy as np

from .channel import channels_from_uniform, normals_from_uniform, transmit
from .constellation import matrix_stack
from .detectors import (
    TrellisSpec,
    default_trellis,
    load_trellis,
    trellis_encode_frames,
    uncoded_trellis,
    viterbi_decode_frames,
)

#: Sections drawn and decoded together by run_point, in whole frames (128
#: frames of 50 sections): enough frames that the decoder's per-section
#: loops cost little per frame, and a bound on the chunk's memory for any
#: frame length.  Every chunk of a point has this size but the last of
#: frames_per_point, including the one an early stop cuts.  Results do not
#: depend on it.
CHUNK_SECTIONS = 6400

CSV_HEADER = "snr_db,frames,bits,bit_errors,frame_errors,ber,fer,elapsed_seconds"

MODES = ("uncoded", "trellis")


def _snr_list(text: str) -> tuple:
    """SNRs separated by commas or spaces; an empty item between commas is an error."""
    items = [item.split() for item in text.split(",")]
    if len(items) > 1 and not all(items):
        raise ValueError("empty item in %r" % (text,))
    return tuple(float(x) for item in items for x in item)


def _string(value) -> str:
    """value if it is a str; TypeError otherwise."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _real(value) -> float:
    """float(value), or an infinity of its sign when it is past the float range
    (an int or Fraction), as float("1e400") is."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def _reals(values) -> tuple:
    """values as a tuple of floats; TypeError for text or a non-real entry."""
    if isinstance(values, (str, bytes)):
        raise TypeError(values)
    values = tuple(values)
    if not all(isinstance(v, numbers.Real) for v in values):
        raise TypeError(values)
    return tuple(map(_real, values))


_INTEGER = (operator.index, "an integer")
_STRING = (_string, "a string")
_POSITIVE = (int, _INTEGER, lambda v: v >= 1, "must be positive")

#: SimConfig field -> (converter of its text, (converter of its Python
#: value, the type that takes), rule the value meets, what the rule asks).
#: A value converter raises TypeError on any other type.  SimConfig converts
#: and checks values by it, and config lines and simulate flags both read
#: their text through field_value.
FIELDS = {
    "mode": (str, _STRING, lambda v: v in MODES, "must be one of %s" % (MODES,)),
    "snr_list_db": (_snr_list, (_reals, "a sequence of real numbers"),
                    lambda v: len(v) > 0 and all(map(_finite_sigma, v)),
                    "must hold at least one SNR, each with a finite noise sigma"),
    "frames_per_point": _POSITIVE,
    "base_seed": (int, _INTEGER, lambda v: v >= 0, "must be nonnegative"),
    "max_frame_errors": _POSITIVE,
    "sections_per_frame": _POSITIVE,
    "trellis_path": (str, _STRING, lambda v: v != "", "must name a file"),
}


def _check_field(name: str, value) -> None:
    """Raise ValueError when value breaks the FIELDS rule of field name."""
    _, _, rule, asks = FIELDS[name]
    if not rule(value):
        raise ValueError("%s %s, got %r" % (name, asks, value))


def field_value(name: str, text: str):
    """The value of field name that text gives, converted and checked by FIELDS."""
    try:
        value = FIELDS[name][0](text)
    except ValueError as exc:
        raise ValueError("bad %s value: %s" % (name, exc)) from None
    _check_field(name, value)
    return value


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; defaults give a small reproducible run."""

    mode: str = "uncoded"
    snr_list_db: tuple = (0.0, 4.0, 8.0)
    frames_per_point: int = 1000
    base_seed: int = 1
    max_frame_errors: int = 200
    sections_per_frame: int = 50
    trellis_path: str | None = None

    def __post_init__(self):
        for name, (_, (convert, kind), _, _) in FIELDS.items():
            value = getattr(self, name)
            if value is None and name == "trellis_path":
                continue
            try:
                value = convert(value)
            except TypeError:
                raise ValueError("%s must be %s, got %r" % (name, kind, value)) from None
            object.__setattr__(self, name, value)
            _check_field(name, value)
        if self.trellis_path is not None and self.mode != "trellis":
            raise ValueError("trellis_path is only read in trellis mode, got mode %r"
                             % self.mode)


@dataclass(frozen=True)
class SimResultRow:
    snr_db: float
    frames: int
    bits: int
    bit_errors: int
    frame_errors: int
    elapsed_seconds: float

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else 0.0

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0


def sigma_for_snr_db(snr_db: float) -> float:
    """Noise sigma per real dimension at Es = 1 per channel use."""
    return float(np.sqrt(1.0 / (2.0 * 10.0 ** (snr_db / 10.0))))


def _finite_sigma(snr_db: float) -> bool:
    """Whether snr_db is finite and sigma_for_snr_db makes it a finite float."""
    try:
        return bool(np.isfinite(snr_db) and np.isfinite(sigma_for_snr_db(snr_db)))
    except (OverflowError, ZeroDivisionError):   # 10 ** (snr_db / 10) overflows or is 0
        return False


# numpy's SeedSequence hash (O'Neill's seed_seq mix over a pool of 4 uint32
# words) and PCG64's seeding, as numpy documents and freezes them (NEP 19).
# _seed_words continues numpy's hash of the seed and point words over the
# frame words, as uint32 array operations.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(start: int, mult: int, n: int) -> list:
    """start, start * mult, ... mod 2^32: the n + 1 constants of n hash steps."""
    out = [start]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hash(value, xor, mult):
    """One hash step on uint32 arrays (mod 2^32)."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    """Mix hashed word y into pool word x, on uint32 arrays (mod 2^32)."""
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ value >> 16


# generate_state's 8 uint32 output words (4 uint64) hash pool word i % 4 in turn
_OUT = _hash_constants(_INIT_B, _MULT_B, 8)
_OUT_XOR = np.array(_OUT[:8], dtype=np.uint32)[:, None]
_OUT_MULT = np.array(_OUT[1:], dtype=np.uint32)[:, None]


def _seed_words(base_seed: int, point_index: int, first: int, count: int) -> np.ndarray:
    """SeedSequence(base_seed, spawn_key=(point_index, f)).generate_state(4, np.uint64)
    for frames f = first, ..., first + count - 1 (below 2^64), as rows (count, 4).

    The frame words continue the hash from the pool of
    SeedSequence(base_seed, spawn_key=(point_index,)), which took 4 steps per
    32-bit word (at least one per integer, the seed's padded to the pool
    size).  A frame index of 2^32 or more is two words; the second is mixed
    in only for those frames.
    """
    seq = np.random.SeedSequence(base_seed, spawn_key=(point_index,))
    seed_words, point_words = (max(1, -(-n.bit_length() // 32))
                               for n in (base_seed, point_index))
    steps = 4 * (max(seq.pool_size, seed_words) + point_words)
    c = np.array(_hash_constants(_INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32,
                                 _MULT_A, 8), dtype=np.uint32)[:, None]
    frames = np.arange(first, first + count, dtype=np.uint64)
    high = (frames >> 32).astype(np.uint32)
    pool = _mix(seq.pool[:, None], _hash(frames.astype(np.uint32), c[:4], c[1:5]))
    if high.any():
        pool = np.where(high != 0, _mix(pool, _hash(high, c[4:8], c[5:9])), pool)
    out = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_XOR, _OUT_MULT).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T


@functools.cache
def _generator() -> np.random.Generator:
    """The one PCG64 generator that _draw_frames reseeds before every frame.

    Built on first use, which keeps numpy.random out of the import.  No
    call sees another's state; calls from concurrent threads would race.
    """
    return np.random.Generator(np.random.PCG64(0))


def _draw_frames(cfg: SimConfig, point_index: int, first: int, count: int,
                 bits_per_frame: int):
    """Payload bits (F, bits) as uint8, channels (F, 2) and noise (F, 4 * sections).

    Row f of a uniform buffer is filled by one random call on frame
    first + f's stream and read in the frozen order: bits_per_frame uniforms
    for the payload bits, 4 for the channel, 4 * sections for the noise.
    The buffer holds a quarter of the frames (rounded up) and is refilled
    for each quarter in turn; Box-Muller runs once over each part of a
    quarter, and the results land in arrays sized for all count frames.
    """
    ch_end = bits_per_frame + 4
    u = np.empty((-(-count // 4), ch_end + 4 * cfg.sections_per_frame))
    tx_bits = np.empty((count, bits_per_frame), dtype=np.uint8)
    h = np.empty((count, 2), dtype=np.complex128)
    noise = np.empty((count, 4 * cfg.sections_per_frame))
    gen = _generator()
    bit_generator = gen.bit_generator
    words = _seed_words(cfg.base_seed, point_index, first, count).tolist()
    for lo in range(0, count, len(u)):
        part = u[:count - lo]
        for row, (seed_hi, seed_lo, inc_hi, inc_lo) in zip(part, words[lo:lo + len(u)]):
            # PCG64's seeding: inc = 2 * seq + 1, then two steps from state 0
            # with the seed added in between
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            gen.random(out=row)
        rows = slice(lo, lo + len(part))
        tx_bits[rows] = part[:, :bits_per_frame] < 0.5
        h[rows] = channels_from_uniform(part[:, bits_per_frame:ch_end])
        noise[rows] = normals_from_uniform(part[:, ch_end:])
    return tx_bits, h, noise


def _trellis_for(cfg: SimConfig) -> TrellisSpec:
    """The trellis that a config's mode and trellis_path select."""
    if cfg.trellis_path is None:
        return uncoded_trellis() if cfg.mode == "uncoded" else default_trellis()
    with open(cfg.trellis_path) as fh:
        return load_trellis(fh.read())


def run_point(cfg: SimConfig, point_index: int,
              spec: TrellisSpec | None = None) -> SimResultRow:
    """One SNR point over spec (default: the config's), stopping at max_frame_errors.

    Chunks are sized by CHUNK_SECTIONS and the frames left only.  The chunk
    that reaches max_frame_errors is decoded whole and counted up to the
    frame that reaches it, so the counts equal a frame-by-frame run's.  The
    frames decoded past that one, at most one chunk less one frame, are not
    counted but are timed in elapsed_seconds.  Each chunk is decoded without
    counting ties, since the row does not report them.
    """
    snr_db = cfg.snr_list_db[point_index]
    sigma = sigma_for_snr_db(snr_db)
    spec = spec or _trellis_for(cfg)
    mats = matrix_stack()
    sections = cfg.sections_per_frame
    bits_per_frame = sections * spec.bits_per_section
    t0 = time.perf_counter()
    frames = bit_errors = frame_errors = 0
    while frames < cfg.frames_per_point and frame_errors < cfg.max_frame_errors:
        count = min(max(1, CHUNK_SECTIONS // sections), cfg.frames_per_point - frames)
        tx_bits, h, noise = _draw_frames(cfg, point_index, frames, count,
                                         bits_per_frame)
        # C h for all 32 candidates (F, 32, 2), elementwise: cheaper than F * 32 matmuls
        faded = mats[..., 0] * h[:, None, None, 0] + mats[..., 1] * h[:, None, None, 1]
        rec = transmit(faded, trellis_encode_frames(spec, tx_bits), noise, sigma)
        del h, noise
        rx_bits = viterbi_decode_frames(spec, rec, faded)[1]
        errs = np.count_nonzero(rx_bits != tx_bits, axis=1)
        # keep the frames up to the one that spends the error budget, where a
        # frame-by-frame run stops (all of them if none does)
        stop = np.cumsum(errs != 0).searchsorted(cfg.max_frame_errors - frame_errors)
        errs = errs[:stop + 1]
        frames += len(errs)
        bit_errors += int(np.sum(errs))
        frame_errors += int(np.count_nonzero(errs))
        # free this chunk's arrays before the next chunk is drawn
        del tx_bits, rec, faded, rx_bits, errs
    elapsed = time.perf_counter() - t0
    return SimResultRow(snr_db=snr_db, frames=frames, bits=frames * bits_per_frame,
                        bit_errors=bit_errors, frame_errors=frame_errors,
                        elapsed_seconds=elapsed)


def run_simulation(cfg: SimConfig) -> list:
    """All SNR points of a config, in order."""
    spec = _trellis_for(cfg)
    return [run_point(cfg, i, spec=spec) for i in range(len(cfg.snr_list_db))]


def format_csv(cfg: SimConfig, rows) -> str:
    """Render result rows to CSV with the normalization documented up front.

    Every column except elapsed_seconds is a deterministic function of the
    config; the timing column is wall clock and varies run to run.
    """
    buf = io.StringIO()
    buf.write("# stc-lab simulate mode=%s seed=%d sections_per_frame=%d "
              "max_frame_errors=%d\n"
              % (cfg.mode, cfg.base_seed, cfg.sections_per_frame,
                 cfg.max_frame_errors))
    buf.write("# snr_db is Es/N0 per receive antenna; total transmit energy "
              "per channel use = 1\n")
    buf.write("# noise variance per real dimension: sigma^2 = 1/(2*10^(snr_db/10))\n")
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        snr = "%.6g" % r.snr_db
        if float(snr) != r.snr_db:       # keep the row's SNR exact
            snr = repr(r.snr_db)
        buf.write("%s,%d,%d,%d,%d,%.12e,%.12e,%.3f\n"
                  % (snr, r.frames, r.bits, r.bit_errors, r.frame_errors,
                     r.ber, r.fer, r.elapsed_seconds))
    return buf.getvalue()


def parse_config_file(text: str) -> dict:
    """key=value per line; '#' comments; keys from FIELDS, each once.

    Malformed lines, unknown or repeated keys, and values that field_value
    rejects raise ValueError naming the line.
    """
    out, first_line = {}, {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key=value, got %r" % (no, line))
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in FIELDS:
            raise ValueError("line %d: unknown key %r" % (no, key))
        if key in first_line:
            raise ValueError("line %d: key %r already set on line %d"
                             % (no, key, first_line[key]))
        try:
            out[key] = field_value(key, val)
        except ValueError as exc:
            raise ValueError("line %d: %s" % (no, exc)) from None
        first_line[key] = no
    return out
