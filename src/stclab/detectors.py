"""Maximum-likelihood block detection, trellis encoding and Viterbi decoding.

Both detectors assume receiver-side channel knowledge.  ml_block_decode
scores candidates by the squared Euclidean distance ||r - C h||^2 of the
received block from the faded codematrix.  The trellis decoder,
viterbi_decode_frames, scores them by the correlation -Re<r, C h> instead:
every codematrix C has C^H C = c ||chi||^2 I with the same ||chi||^2, so
all 32 faded candidates C h have one energy and both scores rank them
alike, up to rounding-level near-ties.  TrellisSpec holds a trellis and is
its one structural check, load_trellis adds the rules of the file format,
and uncoded_trellis is uncoded BASE transmission as a one-state trellis.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constellation import chi_table, matrix_stack, q8_cosets, q16_cosets
from .designs import checked_array, checked_index, content_lines

TRELLIS_FILE = "trellis8.txt"


@dataclass(frozen=True)
class DecodeResult:
    """Decided codematrix indices, accumulated metric, tie count."""

    decided_indices: tuple
    metric: float
    ties_broken: int


@dataclass(frozen=True)
class Transition:
    from_state: int
    to_state: int
    coset: int
    labels: tuple      # codematrix indices, uncoded-bit order


class TrellisError(ValueError):
    """A fault of a trellis; transition indexes the offending transition, or is None."""

    def __init__(self, message: str, transition=None):
        super().__init__(message)
        self.transition = transition


def _first(bad, message):
    """Raise TrellisError(message(k, ...)) at the first index (k, ...) where bad
    holds, k naming the offending transition."""
    hits = np.argwhere(bad)
    if len(hits):
        k = hits[0].tolist()
        raise TrellisError(message(*k), k[0])


def _integer(value, name: str, transition=None) -> int:
    """value as an int by checked_index, its ValueError raised as a TrellisError."""
    try:
        return checked_index(value, name)
    except ValueError as exc:
        raise TrellisError(str(exc), transition) from None


@dataclass(frozen=True, eq=False)
class TrellisSpec:
    """Section trellis and the arrays that encode and decode it.

    bits_per_section splits into coded bits (selecting the transition, in
    listing order per from-state) and uncoded bits (selecting the parallel
    label within the branch).  Construction is the one structural check of
    a trellis: it raises TrellisError, naming the first offending transition
    if there is one, and reads the Python values before any cast, so that
    none wraps or is truncated.  A label row must be a sign-flip coset
    (_sign_flips), so that _filters can take its filters from its own
    codematrices, and share no label with an earlier row it does not repeat:
    each row sums a label's correlation in its own order, so a tie of that
    label would go by rounding, not by the smaller from-state.
    Then it derives every table once:

    * per transition k: from_state, to_state, coded (its coded value, the
      rank of k among the transitions of its from-state) and labels;
    * the distinct label rows are cosets: coset_of[k] is the row of
      transition k and coset_count[c] the number of transitions on row c;
    * groups[s] lists the transitions into state s by from-state, padded
      with the index len(transitions), whose candidate metric is +inf;
    * the encoder's flat tables over the key (state << bits_per_section) + value:
      key_label, the label sent, and key_next, the key of the next state;
    * value_dtype, the smallest dtype that holds a section's bits as one value.

    The derived arrays are read-only, since cached specs are shared.
    """

    num_states: int
    bits_per_section: int
    transitions: tuple

    def __post_init__(self):
        trans = self.transitions
        states = _integer(self.num_states, "states")
        bits = _integer(self.bits_per_section, "bits_per_section")
        for value, name in ((states, "states"), (bits, "bits_per_section")):
            if value < 1:
                raise TrellisError("%s must be at least 1, got %d" % (name, value))
        if not trans:
            raise TrellisError("trellis has no transitions")
        width = len(trans[0].labels)
        for k, t in enumerate(trans):
            edge = "transition %s->%s" % (t.from_state, t.to_state)
            for values, last, what in (((t.from_state, t.to_state), states - 1, "state"),
                                       (t.labels, 31, "label")):
                if not all(0 <= _integer(v, "%s %s" % (edge, what), k) <= last for v in values):
                    raise TrellisError("%s has a %s out of range 0..%d" % (edge, what, last), k)
            if width & (width - 1) or not width:
                raise TrellisError("label count must be a power of two", k)
            if len(t.labels) != width:
                raise TrellisError("expected %d labels" % width, k)
        uncoded_bits = width.bit_length() - 1
        coded_bits = bits - uncoded_bits                # 2**coded_bits transitions per state
        if coded_bits < 0:
            raise TrellisError("more parallel labels than bits_per_section allows")
        if states > len(trans) or coded_bits >= len(trans).bit_length():
            raise TrellisError("states=%d bits_per_section=%d need more than the %d listed "
                               "transitions" % (states, bits, len(trans)))
        labels = np.array([t.labels for t in trans], dtype=np.intp)
        from_state = np.array([t.from_state for t in trans], dtype=np.intp)
        to_state = np.array([t.to_state for t in trans], dtype=np.intp)
        degree = np.bincount(from_state, minlength=states)
        wrong = np.flatnonzero(degree != 2 ** coded_bits)
        if wrong.size:
            raise TrellisError("state %d has %d outgoing transitions, expected %d"
                               % (wrong[0], degree[wrong[0]], 2 ** coded_bits))
        # one pass numbers the distinct rows and gives each label the row that holds it first
        distinct, holder, coset_of, shares = {}, {}, [], []
        for row in map(tuple, labels.tolist()):
            coset_of.append(distinct.setdefault(row, len(distinct)))
            shares.append(any([holder.setdefault(v, coset_of[-1]) != coset_of[-1] for v in row]))
        for bad, what in ((~_sign_flips(labels), "labels are not a sign-flip coset"),
                          (shares, "shares a label with an earlier label row")):
            _first(bad, lambda k: "transition %d->%d %s" % (from_state[k], to_state[k], what))
        branch = np.argsort(from_state, kind="stable").reshape(states, -1)
        coded = np.empty(len(trans), dtype=np.intp)
        coded[branch] = np.arange(branch.shape[1])
        coset_of = np.array(coset_of, dtype=np.intp)
        cosets = np.array(list(distinct), dtype=np.intp)
        into = np.argsort(to_state * states + from_state, kind="stable")
        enters = to_state[into]
        groups = np.full((states, np.bincount(to_state).max()), len(trans), dtype=np.intp)
        groups[enters, np.arange(len(trans)) - np.searchsorted(enters, enters)] = into
        key = branch.repeat(width, axis=1).ravel()         # the transition of each key
        for name, value in dict(
                uncoded_bits=uncoded_bits, coded_bits=coded_bits, from_state=from_state,
                to_state=to_state, coded=coded, labels=labels, cosets=cosets,
                coset_of=coset_of, coset_count=np.bincount(coset_of), groups=groups,
                key_next=to_state[key] << bits, key_label=labels[branch].ravel(),
                value_dtype=np.min_scalar_type((1 << bits) - 1)).items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)


def _sign_flips(rows) -> np.ndarray:
    """Whether each label row (R, 2**bits) is a sign-flip coset: the chi signs
    of position p are those of position 0, negated for each set bit i of p
    where position 2**i differs from position 0, and no two bits negate one
    coordinate."""
    chi = np.sign(chi_table())[rows]                    # (R, L, 8), exactly 0 or +-1
    bits = rows.shape[1].bit_length() - 1
    flips = chi[:, 1 << np.arange(bits)] != chi[:, :1]              # (R, bits, 8)
    set_bits = np.arange(rows.shape[1])[:, None] >> np.arange(bits) & 1
    return np.all(chi == chi[:, :1] * (1 - 2 * (set_bits @ flips)), axis=(1, 2))


def load_trellis(text: str) -> TrellisSpec:
    """Parse the trellis text format; TrellisSpec checks the structure.

    Header ``states=<n> bits_per_section=<k>``, then one line per transition
    ``from to coset idx...``.  The format adds that 8- and 16-state
    trellises follow the q8 or q16 cosets in uncoded-bit order, as
    constellation's q8_cosets and q16_cosets list them, that each state
    departs and is entered on one subconstellation, that the labels
    cover all 32 codematrices, and that the coset column names each distinct
    label row once, at any state count.  Every error but an empty text's
    names a line: the offending transition's, or else the header's.
    """
    body = content_lines(text)
    if not body:
        raise ValueError("empty trellis file")
    head_no, head = body[0]
    fields = dict()
    for tok in head.split():
        if "=" not in tok:
            raise ValueError("line %d: header token %r is not key=value" % (head_no, tok))
        k, v = tok.split("=", 1)
        if k in fields or k not in ("states", "bits_per_section"):
            raise ValueError("line %d: header key %r unknown or repeated" % (head_no, k))
        fields[k] = v
    try:
        num_states = int(fields["states"])
        bits = int(fields["bits_per_section"])
    except (KeyError, ValueError):
        raise ValueError("line %d: header must carry states=<n> "
                         "bits_per_section=<k>" % head_no) from None
    transitions = []
    for no, ln in body[1:]:
        parts = ln.split()
        if len(parts) < 4:
            raise ValueError("line %d: need 'from to coset idx...'" % no)
        try:
            frm, to, coset = int(parts[0]), int(parts[1]), int(parts[2])
            labels = tuple(int(x) for x in parts[3:])
        except ValueError:
            raise ValueError("line %d: non-integer field" % no) from None
        transitions.append(Transition(frm, to, coset, labels))
    try:
        spec = TrellisSpec(num_states=num_states, bits_per_section=bits,
                           transitions=tuple(transitions))
        labels = spec.labels
        if num_states in (8, 16):
            cosets = (q8_cosets if num_states == 8 else q16_cosets)()
            members = np.array(list(cosets.values()))       # (cosets, labels), uncoded-bit order
            sits_in, position = np.zeros((2, 32), dtype=np.intp)
            sits_in[members] = np.array(list(cosets))[:, None]
            position[members] = np.arange(members.shape[1])
            declared = np.array([t.coset for t in transitions], dtype=object)    # any int
            _first(sits_in[labels] != declared[:, None],
                   lambda k, pos: "transition %d->%d declares coset %d but label %d sits in "
                   "q%d coset %d" % (spec.from_state[k], spec.to_state[k], declared[k],
                                     labels[k, pos], num_states, sits_in[labels[k, pos]]))
            _first(position[labels] != np.arange(labels.shape[1]),
                   lambda k, pos: "transition %d->%d label %d out of uncoded-bit order"
                   % (spec.from_state[k], spec.to_state[k], labels[k, pos]))
        # a sign-flip row keeps to its first label's half; checked against
        # the first transition listed out of, then into, a state
        primed_of = chi_table()[:, 4:].any(axis=1)
        tag = primed_of[labels[:, 0]]
        _first(tag != primed_of[spec.key_label[spec.from_state << bits]],
               lambda k: "state %d departs on a mix of subconstellations" % spec.from_state[k])
        _first(tag != tag[spec.groups.min(axis=1)[spec.to_state]],
               lambda k: "state %d is entered on a mix of subconstellations" % spec.to_state[k])
        covered = np.count_nonzero(np.bincount(labels.ravel(), minlength=32))
        if covered != 32:
            raise TrellisError("branch labels cover %d of 32 codematrix indices" % covered)
        row_of, name_of = {}, {}                # declared coset -> row, and row -> coset
        _first([row_of.setdefault(t.coset, c) != c or name_of.setdefault(c, t.coset) != t.coset
                for t, c in zip(transitions, spec.coset_of.tolist())],
               lambda k: "transition %d->%d declares coset %d, but an earlier line gives that "
               "coset other labels or these labels another coset"
               % (spec.from_state[k], spec.to_state[k], transitions[k].coset))
    except TrellisError as exc:
        no = head_no if exc.transition is None else body[1 + exc.transition][0]
        raise ValueError("line %d: %s" % (no, exc)) from None
    return spec


@lru_cache(maxsize=None)
def default_trellis() -> TrellisSpec:
    """The shipped 8-state trellis (4 bits per section, q8 partition)."""
    text = importlib.resources.files("stclab.data").joinpath(TRELLIS_FILE).read_text()
    return load_trellis(text)


@lru_cache(maxsize=None)
def uncoded_trellis() -> TrellisSpec:
    """One state, one branch: label v is the BASE entry whose Gray bits spell v."""
    spelled = (1 - np.sign(chi_table()[:16, :4])) / 2 @ [8, 4, 2, 1]
    return TrellisSpec(num_states=1, bits_per_section=4, transitions=(
        Transition(0, 0, 0, tuple(np.argsort(spelled).tolist())),))


def squared_distances(received, faded_t) -> np.ndarray:
    """||r - C h||^2 of received blocks from faded candidates.

    received (..., T) against faded_t (..., T, M), the candidates C h laid
    out channel use first so that the inner loops run over the M
    candidates, gives (..., M).  The one distance computation behind
    ml_block_decode and the metric that the Viterbi decoder returns.
    """
    return np.sum(np.abs(received[..., :, None] - faded_t) ** 2, axis=-2)


def ml_block_decode(received, h, candidates) -> DecodeResult:
    """Exhaustive ML decision min ||r - C h||^2 over a candidate entry list.

    received is one block (T,) and h one channel draw (N,), both checked by
    checked_array.  Ties go to the lowest codematrix index and are counted.
    """
    cand = list(candidates)
    if not cand:
        raise ValueError("candidate list must be nonempty")
    mats = np.stack([e.matrix for e in cand])
    t, n = mats.shape[1:]
    metrics = squared_distances(checked_array(received, "received block", t),
                                (mats @ checked_array(h, "channel", n)).T)
    best = float(np.min(metrics))
    hits = [cand[i].index for i in np.flatnonzero(metrics <= best)]
    ties = len(hits) - 1
    return DecodeResult(decided_indices=(min(hits),), metric=best,
                        ties_broken=ties)


def trellis_encode_frames(spec: TrellisSpec, bits, initial_state: int = 0) -> np.ndarray:
    """Codematrix indices (F, sections) for the bit rows (F, bits) of F frames.

    Each section consumes bits_per_section bits, most significant first: the
    coded bits pick the outgoing transition in listing order, the uncoded
    bits pick the parallel label.  Every frame starts in initial_state.
    """
    b = np.asarray(bits)
    if b.ndim != 2 or b.shape[1] % spec.bits_per_section:
        raise ValueError("bits must be rows of a multiple of %d, got shape %s"
                         % (spec.bits_per_section, b.shape))
    initial_state = checked_index(initial_state, "initial_state", 0, spec.num_states - 1)
    if not np.all((b == 0) | (b == 1)):         # before the values are read as integers
        raise ValueError("bits must be 0 or 1")
    dtype = spec.value_dtype
    b = b.astype(dtype, copy=False)
    frames, sections = b.shape[0], b.shape[1] // spec.bits_per_section
    weights = (1 << np.arange(spec.bits_per_section - 1, -1, -1)).astype(dtype)
    value = b.reshape(frames, sections, spec.bits_per_section) @ weights
    if spec.num_states == 1:        # no state to track: the value is the key
        return spec.key_label[value]
    key = np.empty((sections, frames), dtype=np.intp)
    state = np.full(frames, initial_state << spec.bits_per_section, dtype=np.intp)
    for s, v in enumerate(value.T):
        np.add(state, v, out=key[s])
        state = spec.key_next[key[s]]
    return spec.key_label[key.T]


def trellis_encode(spec: TrellisSpec, bits, initial_state: int = 0) -> list:
    """Map a bit sequence to codematrix indices along the trellis.

    One frame of trellis_encode_frames, returned as a list: bits is 1-D.
    """
    return trellis_encode_frames(spec, [bits], initial_state)[0].tolist()


#: Filter outputs that a block of _acs or _matched holds at once, 128 KiB of
#: floats, unless one section of every frame or one frame has more.
_BRANCH_SCORES = 16384


def _blocks(count: int, size: int):
    """Bounds (lo, hi) of consecutive blocks of count items of size filter outputs
    each: as many items as _BRANCH_SCORES outputs hold, and at least one."""
    step = max(1, _BRANCH_SCORES // size)
    for lo in range(0, count, step):
        yield lo, min(lo + step, count)


def _filters(spec: TrellisSpec) -> np.ndarray:
    """Matched filters (terms, C, T, N) of the label rows: M_i = (C_0 - C_2**i) / 2 per
    uncoded bit i, then (C_0 + C_last) / 2, what no bit flips, if some row has any."""
    c = matrix_stack()[spec.cosets]                                    # (C, L, T, N)
    m = np.moveaxis(np.concatenate([c[:, :1] - c[:, 1 << np.arange(spec.uncoded_bits)],
                                    c[:, :1] + c[:, -1:]], axis=1) / 2, 1, 0)
    return m[:spec.uncoded_bits + m[-1].any()]


def _acs(spec: TrellisSpec, received, channels, initial_state: int, ties):
    """Score every label row of a block of sections, then add-compare-select over it.

    received (F, S, T) is scored with channels (F, N), one per frame, or
    (F, S, N), one per section.  Position p of row c correlates
    sum_i +-a_i + a_rest, with a_i = Re<r, M_i h> for the row's filters M_i
    (_filters), negated when bit i of p is set, and a_rest that of the
    coordinates no bit flips.  So the best position sets bit i exactly when
    a_i < 0 (an exact 0 keeps the lower position) and correlates
    sum_i |a_i| + a_rest: Alamouti's linear ML, decoupled over parallel
    transitions as in Jafarkhani and Seshadri (2003).  Each
    a_i = sum_{t,n} Re(M_i[t, n] conj(r_t) h_n) is one real matmul row: the
    parts of M_i against the 4 T N products of a part of r_t with a part of
    h_n, formed for a block of sections of all frames at once (_blocks).  So
    every output is rounded alike whatever the block (one frame alone goes
    through BLAS's matrix-vector path).

    Each section then adds to the metric of every from-state in spec.groups
    the score of its transition's label row (subtracts its correlation: the
    same float operation) and keeps the first minimum per state, the
    smaller from-state, by a chain of compares, several times cheaper than
    argmin over so short an axis.  Padding reads a last, +inf path metric.
    Returns best_pos (S, C, F), the best position in each label row; back
    (S, states, F), the survivor's position in spec.groups in the smallest
    dtype that holds one; and the final path metrics (states, F).  Adds to
    ties (F,), unless it is None, each transition whose label row has more
    than one best label (some a_i is 0), each extra equal candidate of a
    finite compare and each extra equal final metric.
    """
    frames, sections, t = received.shape
    rows, bits, states = len(spec.cosets), spec.uncoded_bits, spec.num_states
    m = _filters(spec)
    terms = len(m)
    # Re(M conj(r) h) = r_re (h_re M_re - h_im M_im) + r_im (h_re M_im + h_im M_re)
    coef = np.stack([np.stack([m.real, -m.imag], -1), np.stack([m.imag, m.real], -1)], -3)
    coef = coef.reshape(terms * rows, -1)                              # (K, T * 2 * N * 2)
    r = np.moveaxis(received.view(np.float64).reshape(frames, sections, t, 2), 0, -1)
    h = np.moveaxis(channels.view(np.float64).reshape(frames, -1, channels.shape[-1], 2), 0, -1)
    h = np.broadcast_to(np.ascontiguousarray(h)[:, None, None],
                        (sections, 1, 1) + h.shape[1:])                # (S, 1, 1, N, 2, F)
    best_pos = np.empty((sections, rows, frames), dtype=np.min_scalar_type(2 ** bits - 1))
    place = (1 << np.arange(bits)).astype(best_pos.dtype)     # the position's bit values
    from_g = np.append(spec.from_state, states)[spec.groups.T]        # (indeg, states)
    coset_g = np.append(spec.coset_of, 0)[spec.groups.T]
    metrics = np.full((states + 1, frames), np.inf)
    pm = metrics[:states]
    pm[initial_state] = 0.0
    back = np.empty((sections,) + pm.shape, dtype=np.min_scalar_type(len(from_g) - 1))
    for lo, hi in _blocks(sections, frames * max(coef.shape)):
        products = np.ascontiguousarray(r[lo:hi])[:, :, :, None, None] * h[lo:hi]
        a = coef @ products.reshape(hi - lo, coef.shape[1], frames)    # (w, K, F)
        del products
        a = a.reshape(hi - lo, terms, rows, frames)
        np.einsum("wicf,i->wcf", (a[:, :bits] < 0).view(np.uint8), place, out=best_pos[lo:hi])
        if ties is not None:
            ties += np.sum(spec.coset_count @ np.any(a[:, :bits] == 0, axis=1), axis=0)
        np.abs(a[:, :bits], out=a[:, :bits])
        branch = np.sum(a, axis=1)     # (w, C, F): one block of filter outputs alive at a time
        del a
        for s in range(lo, hi):
            vals = metrics[from_g]                                    # (indeg, states, F)
            vals -= branch[s - lo, coset_g]
            np.minimum.reduce(vals, out=pm)
            above = vals[0] > pm
            back[s] = above
            for k in range(1, len(vals) - 1):
                above &= vals[k] > pm
                back[s] += above.view(np.uint8)
            if ties is not None:
                ties += np.sum((np.sum(vals == pm, axis=0) - 1) * np.isfinite(pm), axis=0)
        del branch, vals, above         # nor a block of scores while the next is formed
    if ties is not None:
        final = np.min(pm, axis=0)
        ties += (np.sum(pm == final, axis=0) - 1) * np.isfinite(final)
    return best_pos, back, pm


def _traceback(spec: TrellisSpec, back, state) -> np.ndarray:
    """Transitions (F, S) of the survivors that end in state (F,)."""
    sections, _, frames = back.shape
    path = np.empty((frames, sections), dtype=np.intp)
    index = np.arange(frames)
    for s in range(sections - 1, -1, -1):
        path[:, s] = spec.groups[state, back[s, state, index]]
        state = spec.from_state[path[:, s]]
    return path


def _decisions(spec: TrellisSpec, path, best_pos) -> np.ndarray:
    """Decided bits (F, S * bits_per_section), uint8, along path (F, S) of transitions:
    per section the transition's coded value, then its label row's best position."""
    frames, sections = path.shape
    flat = spec.coset_of[path]   # flat index into best_pos, in place: beats a fancy index
    flat *= frames
    flat += np.arange(sections) * best_pos[0].size
    flat += np.arange(frames)[:, None]
    pos = best_pos.ravel()[flat]
    del flat
    dtype = spec.value_dtype
    value = (spec.coded << spec.uncoded_bits).astype(dtype)[path]
    value |= pos
    bits = value[..., None] >> np.arange(spec.bits_per_section - 1, -1, -1, dtype=dtype)
    bits &= 1
    return bits.astype(np.uint8, copy=False).reshape(frames, -1)


def _matched(spec: TrellisSpec, received, channels, ties):
    """Filter outputs a_i = Re<r, g_i> (w, S, bits) of a one-transition trellis per block
    of w whole frames (_blocks); adds to ties (F,), unless None, each section where some
    a_i is 0.  g_i = M_i h (_filters, most significant bit first) is formed once per
    channel draw; a block is then (S, 2T) @ (2T, bits) per frame or (1, 2T) @ (2T, bits)
    per section, shapes (and so rounding) that no chunk or block changes."""
    (frames, sections, t), bits = received.shape, spec.uncoded_bits
    m = _filters(spec)[bits - 1::-1, 0].reshape(bits * t, -1)             # (bits T, N)
    g = (m @ channels.reshape(frames, -1, m.shape[1], 1)).view(np.float64)
    g = np.ascontiguousarray(g.reshape(frames, -1, bits, 2 * t).swapaxes(-1, -2))
    r = received.view(np.float64).reshape(g.shape[:2] + (-1, 2 * t))
    for lo, hi in _blocks(frames, sections * bits):
        a = (r[lo:hi] @ g[lo:hi]).reshape(-1, sections, bits)
        if ties is not None:
            ties[lo:hi] += np.count_nonzero(np.any(a == 0, axis=-1), axis=1)
        yield a                  # a preallocated output raises the peak memory


def viterbi_decode_frames(spec: TrellisSpec, received, channels, initial_state: int = 0,
                          count_ties: bool = False):
    """ML sequence decisions for F frames at once.

    received is (F, sections, T); channels is (F, N), one draw per frame,
    or (F, sections, N), one per section.  Every frame starts in the known
    initial_state and ends in a free state (best final metric).

    Returns (bits (F, sections * bits_per_section) as uint8, ties_broken
    (F,)); trellis_encode_frames maps the bits to the decided codematrix
    indices.  Ties go to the first minimum: the smaller label position
    within a branch, the smaller from-state within a compare, the smaller
    state at the end.  With count_ties a tie counts each branch whose best
    label is not unique, each extra equal candidate of a finite compare,
    and each extra equal final metric; +inf candidates never tie.  Without
    it ties_broken is all zero.  A one-state, one-transition trellis
    (uncoded_trellis) has no path: its bits are _matched's signs.  Both arrays
    are checked by checked_array, and ValueError is raised unless they hold at
    least one block and agree in frames (and in sections, for per-section channels).
    """
    initial_state = checked_index(initial_state, "initial_state", 0, spec.num_states - 1)
    t, n = matrix_stack().shape[1:]
    received = np.ascontiguousarray(checked_array(received, "received block", t, ndims=(3,)))
    channels = np.ascontiguousarray(checked_array(channels, "channel", n, ndims=(2, 3)))
    if not received.size:
        raise ValueError("no received blocks given, shape %s" % (received.shape,))
    if channels.shape[:-1] != received.shape[:channels.ndim - 1]:
        raise ValueError("channels of shape %s do not match received blocks of shape %s"
                         % (channels.shape, received.shape))
    frames = len(received)
    ties = np.zeros(frames, dtype=np.int64)
    counted = ties if count_ties else None
    if spec.num_states == len(spec.transitions) == 1:
        bits = np.concatenate([a < 0 for a in _matched(spec, received, channels, counted)])
        return bits.view(np.uint8).reshape(frames, -1), ties
    best_pos, back, pm = _acs(spec, received, channels, initial_state, counted)
    path = _traceback(spec, back, np.argmin(pm, axis=0))
    del back
    return _decisions(spec, path, best_pos), ties


def viterbi_decode(spec: TrellisSpec, received_blocks, channels,
                   initial_state: int = 0):
    """ML sequence decision over the trellis; returns (DecodeResult, bits).

    received_blocks is (sections, T), one block per section; channels is
    one draw (N,) for the frame or one per section (sections, N).  Both are
    checked by checked_array.  The start state is known to the decoder; the
    end state is free (best final metric).  One frame of
    viterbi_decode_frames; trellis_encode_frames maps its bits to the
    decided indices, whose exact ||r - C h||^2 is the metric, summed in
    section order (0.0 + b0 + b1 + ...) as an ACS over exact distances.
    Ties are counted (count_ties).
    """
    mats = matrix_stack()
    rec = checked_array(received_blocks, "received block", mats.shape[1], ndims=(2,),
                        rows="sections")
    hs = checked_array(channels, "channel", mats.shape[2], ndims=(1, 2), rows="sections")
    if hs.ndim == 2 and len(hs) != len(rec):
        raise ValueError("got %d received blocks but %d channels" % (len(rec), len(hs)))
    bits, ties = viterbi_decode_frames(spec, rec[None], hs[None], initial_state, count_ties=True)
    decided = trellis_encode_frames(spec, bits, initial_state)[0]
    chosen = mats[decided] @ hs[..., None]                 # (sections, T, 1)
    metric = np.cumsum(squared_distances(rec, chosen)[..., 0])[-1]
    return DecodeResult(decided_indices=tuple(decided.tolist()), metric=float(metric),
                        ties_broken=int(ties[0])), bits[0].astype(np.int64)
