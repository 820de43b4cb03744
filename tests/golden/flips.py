"""Compare the draws and decisions in this tree with those of another checkout.

    python tests/golden/flips.py --against DIR [--seeds 7,2026]

DIR is the root of another checkout of the repository, for example the
parent commit extracted with ``git archive``.  For each seed and in both
modes, each tree draws 5,120 frames of 50 sections at each of 15 SNRs from
-10 to 40 dB with the simulator's own draws (``simulate._draw_frames``, the
trellis encoder and ``channel.transmit``) and decodes them with
``viterbi_decode_frames(..., count_ties=True)``, which returns the decided
bits and tie counts; the decided indices are the tree's own
``trellis_encode_frames`` of those bits.  Each frame's payload bits,
channel, noise and received blocks are kept as a digest of their bytes.
Each tree runs in a process of its own, with its own ``src`` first on
``sys.path``.

The script prints, per seed and mode, the blocks whose decided index
differs, the decided bits that differ and the frames whose tie counts
differ, with the first few differing blocks, and beside them the draws
(a frame's payload bits, channel or noise) and the frames' received blocks
whose bytes differ, so that a change to the draw path can show byte
identity and unchanged decisions in one run.  Each tree also decodes the
same frames in chunks of 37 frames, and the script prints the same
differences between that decode and the tree's own 256-frame decode, so
that a decoder whose blocks follow the chunk shows it.  It exits 1 on any
difference (0 when there is none).  A decoder change that only reorders
rounding should flip nothing; a flip at a near-tie is reported here, not
hidden.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[2]
MODES = ("uncoded", "trellis")
SNRS_DB = np.linspace(-10.0, 40.0, 15)
FRAMES, SECTIONS = 5120, 50
CHUNKS = {"": 256, "_odd": 37}       # array-name suffix -> frames per decode call
SHOWN = 5           # differing blocks listed per seed and mode


def _digests(a: np.ndarray) -> np.ndarray:
    """A 16-byte digest of the bytes of each row of a, as a (rows, 16) uint8 array."""
    rows = np.ascontiguousarray(a).reshape(len(a), -1)
    return np.frombuffer(b"".join(hashlib.blake2b(row, digest_size=16).digest()
                                  for row in rows), np.uint8).reshape(len(a), 16)


def _dump(src: str, seed: int, out: str) -> None:
    """Decode every point of both modes in the tree at src, in chunks of each
    width in CHUNKS; save to out (.npz)."""
    sys.path.insert(0, str(Path(src) / "src"))
    from stclab.channel import transmit
    from stclab.detectors import trellis_encode_frames, viterbi_decode_frames
    from stclab.simulate import SimConfig, _draw_frames, _trellis_for, sigma_for_snr_db

    arrays = {}
    for mode in MODES:
        cfg = SimConfig(mode=mode, snr_list_db=tuple(SNRS_DB), frames_per_point=FRAMES,
                        base_seed=seed, max_frame_errors=FRAMES, sections_per_frame=SECTIONS)
        spec = _trellis_for(cfg)
        for suffix, chunk in CHUNKS.items():
            decided, bits, ties, draws, received = [], [], [], [], []
            for point, snr_db in enumerate(cfg.snr_list_db):
                sigma = sigma_for_snr_db(snr_db)
                for first in range(0, FRAMES, chunk):
                    tx_bits, h, noise = _draw_frames(cfg, point, first,
                                                     min(chunk, FRAMES - first),
                                                     SECTIONS * spec.bits_per_section)
                    draws.append(np.stack([_digests(a) for a in (tx_bits, h, noise)], 1))
                    rec = transmit(h, trellis_encode_frames(spec, tx_bits), noise, sigma)
                    received.append(_digests(rec))
                    b, t = viterbi_decode_frames(spec, rec, h, count_ties=True)
                    decided.append(trellis_encode_frames(spec, b).astype(np.uint8))
                    bits.append(np.packbits(b, axis=1))
                    ties.append(t)
            arrays.update({mode + "_decided" + suffix: np.concatenate(decided),
                           mode + "_bits" + suffix: np.concatenate(bits),
                           mode + "_ties" + suffix: np.concatenate(ties),
                           mode + "_draws" + suffix: np.concatenate(draws),
                           mode + "_received" + suffix: np.concatenate(received)})
    np.savez(out, **arrays)


def _decode(tree: Path, seed: int, out: Path) -> dict:
    """The arrays _dump saves for the tree at tree, run in a process of its own."""
    subprocess.run([sys.executable, __file__, "--dump", str(tree), str(seed), str(out)],
                   check=True)
    with np.load(out) as data:
        return dict(data)


def _report(label: str, ours: dict, theirs: dict, mode: str, suffix: str = "") -> int:
    """Print, under label, the differences of mode's arrays named with suffix
    in ours from those without in theirs; the number of differing items."""
    here, there = ours[mode + "_decided" + suffix], theirs[mode + "_decided"]
    dec = here != there
    bits = np.unpackbits(ours[mode + "_bits" + suffix] ^ theirs[mode + "_bits"], axis=1)
    ties = ours[mode + "_ties" + suffix] != theirs[mode + "_ties"]
    draws, received = ((ours[mode + name + suffix] != theirs[mode + name]).any(axis=-1)
                       for name in ("_draws", "_received"))
    counts = (np.count_nonzero(dec), int(bits.sum()), np.count_nonzero(ties),
              np.count_nonzero(draws), np.count_nonzero(received))
    print("%s: %d blocks, %d differing blocks, %d differing bits, %d differing tie counts, "
          "%d differing draws, %d frames with differing received blocks"
          % ((label, dec.size) + counts))
    for row, section in np.argwhere(dec)[:SHOWN]:
        point, frame = divmod(int(row), FRAMES)
        print("  snr %g dB frame %d section %d: %d, against %d"
              % (SNRS_DB[point], frame, section, here[row, section], there[row, section]))
    return sum(counts)


def compare(against: Path, seeds) -> int:
    """Print the differences per seed and mode; the number of differing items."""
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            trees = {side: _decode(tree, seed, Path(tmp) / ("%s-%d.npz" % (side, seed)))
                     for side, tree in (("here", REPO), ("there", against))}
            for mode in MODES:
                total += _report("seed %d %s" % (seed, mode), trees["here"], trees["there"],
                                 mode)
                for side, arrays in trees.items():
                    total += _report("  %d-frame chunks %s against %d-frame chunks"
                                     % (CHUNKS["_odd"], side, CHUNKS[""]),
                                     arrays, arrays, mode, "_odd")
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", type=Path, help="root of the other checkout")
    p.add_argument("--seeds", default="7,2026", help="comma-separated base seeds")
    p.add_argument("--dump", nargs=3, metavar=("TREE", "SEED", "OUT"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.dump:
        _dump(args.dump[0], int(args.dump[1]), args.dump[2])
        return 0
    if args.against is None:
        p.error("--against is required")
    return 1 if compare(args.against.resolve(), [int(s) for s in args.seeds.split(",")]) else 0


if __name__ == "__main__":
    sys.exit(main())
