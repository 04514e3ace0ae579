"""Core domain types: alphabets, distributions, codewords and scheme tables.

Everything here is immutable after construction and safe to share across
threads.  Symbols are opaque hashable tokens; states are dense indices
0..N-1 with optional display names.  A table is three integer arrays (see
``AedsTable``); ``Codeword`` objects appear only in its views.
"""

import gc
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetMismatch,
    DegenerateAlphabet,
    InconsistentTables,
    InvalidWeight,
    MissingSymbol,
    PrefixViolation,
    TableError,
)

PROB_SUM_TOL = 1e-12

# Decoder index (AedsTable.decoding_tries): the widest window a state's
# table reads; the most slots that full-width windows of every state may
# hold, which gives them to tables of up to RUN_SLOTS >> LOOKUP_BITS = 8
# states; and the most codewords one slot decodes, which bounds runs
# through zero-bit cycles.
LOOKUP_BITS = 12
RUN_SLOTS = 1 << 15
RUN_CAP = 16

# Longest codeword whose value an int64 table cell holds.
INT_BITS = 63


@dataclass(frozen=True, slots=True)
class Codeword:
    """A finite bit string, possibly empty, stored as (value, length).

    Bits are MSB first: Codeword(0b110, 3) is the string "110".  The empty
    codeword has length 0 and is a legal emission (zero bits on the wire).
    """

    value: int = 0
    length: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative codeword length")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value {self.value} does not fit in "
                             f"{self.length} bits")

    @classmethod
    def from_bits(cls, bits):
        """Build from a string like "0110" (empty string allowed)."""
        if bits and set(bits) - {"0", "1"}:
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(int(bits, 2) if bits else 0, len(bits))

    @property
    def bits(self):
        return format(self.value, f"0{self.length}b") if self.length else ""

    def concat(self, other):
        return Codeword((self.value << other.length) | other.value,
                        self.length + other.length)

    def is_prefix_of(self, other):
        if self.length > other.length:
            return False
        return (other.value >> (other.length - self.length)) == self.value

    def bit_at(self, i):
        return (self.value >> (self.length - 1 - i)) & 1

    def __len__(self):
        return self.length

    def __lt__(self, other):
        return (self.length, self.value) < (other.length, other.value)

    def __repr__(self):
        return f"Codeword({self.bits!r})" if self.length else "Codeword('')"


EMPTY_WORD = Codeword(0, 0)


class SourceDistribution:
    """Finite alphabet with strictly positive probabilities summing to 1."""

    __slots__ = ("symbols", "probs", "_index")

    def __init__(self, symbols, probs):
        symbols = tuple(symbols)
        probs = tuple(float(q) for q in probs)
        if len(symbols) != len(probs):
            raise InvalidWeight("symbols and probabilities differ in length")
        if len(symbols) < 2:
            raise DegenerateAlphabet("need at least two symbols")
        if len(set(symbols)) != len(symbols):
            raise InvalidWeight("duplicate symbol identifiers")
        for q in probs:
            if not q > 0.0 or not math.isfinite(q):
                raise InvalidWeight(f"probability {q} is not strictly positive")
        if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            raise InvalidWeight(f"probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

    def __setattr__(self, *_):
        raise AttributeError("SourceDistribution is immutable")

    def __len__(self):
        return len(self.symbols)

    def index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetMismatch(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol):
        return symbol in self._index

    def prob(self, symbol):
        return self.probs[self.index(symbol)]

    def items(self):
        return zip(self.symbols, self.probs)

    @classmethod
    def from_byte_histogram(cls, counts):
        """Distribution over the byte values 0..255 that actually occur."""
        pairs = [(b, counts[b]) for b in range(min(len(counts), 256))]
        return validate_distribution(pairs)

    def __repr__(self):
        body = ", ".join(f"{s!r}: {q:.6g}" for s, q in self.items())
        return f"SourceDistribution({{{body}}})"


def validate_distribution(raw_symbol_weights):
    """Normalize (symbol, weight) pairs into a SourceDistribution.

    Zero-weight symbols are dropped, order is preserved, and the surviving
    weights are rescaled to sum to one.
    """
    symbols, weights = [], []
    for symbol, w in raw_symbol_weights:
        w = float(w)
        if w < 0 or not math.isfinite(w):
            raise InvalidWeight(f"weight {w} for symbol {symbol!r}")
        if w == 0:
            continue
        symbols.append(symbol)
        weights.append(w)
    if len(symbols) < 2:
        raise DegenerateAlphabet("need at least two positive-weight symbols")
    total = math.fsum(weights)
    return SourceDistribution(symbols, [w / total for w in weights])


def entropy(p):
    """Shannon entropy of the source, in bits per symbol."""
    return -math.fsum(q * math.log2(q) for q in p.probs)


def relative_entropy(p, q):
    """D(p||q) in bits; both distributions must share the alphabet."""
    if p.symbols != q.symbols:
        raise AlphabetMismatch("relative entropy needs identical alphabets")
    return math.fsum(a * math.log2(a / b) for a, b in zip(p.probs, q.probs))


@dataclass(frozen=True)
class ErgodicityReport:
    irreducible: bool
    aperiodic: bool
    period: int | None = None

    @property
    def ergodic(self):
        return self.irreducible and self.aperiodic


def value_dtype(lengths):
    """int64 for codewords of at most ``INT_BITS`` bits, else object."""
    return object if np.max(lengths, initial=0) > INT_BITS else np.int64


def incoming(nexts):
    """The cells x|A| + s of a next-state array grouped by the state they
    lead to, in x-major order within a group, and the group bounds: the
    cells entering state x are ``order[bounds[x]:bounds[x + 1]]``."""
    flat = nexts.ravel()
    counts = np.bincount(flat, minlength=len(nexts))
    return (np.argsort(flat, kind="stable"),
            np.concatenate(([0], np.cumsum(counts))))


def prefix_clash(words):
    """The first pair (word, longer) of Codewords, in descending bit-string
    order, in which ``word`` repeats or is a prefix of ``longer``, or None
    for a prefix-free collection.  Sorted, a word follows any word it is a
    prefix of, so comparing neighbours finds every clash."""
    order = sorted(words, key=lambda w: w.bits, reverse=True)
    return next(((word, longer) for longer, word in zip(order, order[1:])
                 if word.is_prefix_of(longer)), None)


def check_prefixes(x, k, cells):
    """Raise PrefixViolation unless the codewords of the cells entering x,
    the (value, length, symbol index, origin) of ``AedsTable._cells``, are
    prefix-free, naming the first clash as the index fills x's k-bit
    windows: each word of at most k bits after the shorter ones, then the
    longer words among themselves, then each of them."""
    cut = sum(length <= k for _, length, _, _ in cells)
    seen = set()
    for i, (value, length, _, _) in enumerate(cells):
        if i == cut and len(cells) > cut + 1:
            clash = prefix_clash(Codeword(v, n) for v, n, _, _ in cells[cut:])
            if clash is not None:
                raise PrefixViolation(x, *(w.bits for w in clash))
        for depth in range(min(length, k) + 1):
            if (head := (value >> (length - depth), depth)) in seen:
                raise PrefixViolation(x, Codeword(*head).bits,
                                      Codeword(value, length).bits)
        seen.add((value, length))


def ranges(start, size):
    """The integers of the ranges [start, start + size), one after the
    other, as one array."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(
        size.sum())


def _bfs_depths(starts, adj, n):
    """Breadth-first depth of every state from state 0 in the graph whose
    successors of u are ``adj[starts[u]:starts[u+1]]`` (-1: not reached)."""
    depth = np.full(n, -1, dtype=np.int64)
    depth[0] = 0
    frontier, d = np.zeros(1, dtype=np.int64), 0
    while frontier.size:
        d += 1
        first = starts[frontier]
        sizes = starts[frontier + 1] - first
        edges = ranges(first, sizes)
        hit = np.zeros(n, dtype=bool)  # marks drop repeats without a sort
        hit[adj[edges]] = True
        frontier = np.flatnonzero(hit & (depth < 0))
        depth[frontier] = d
    return depth


def ergodicity(nexts, grouping):
    """Irreducibility and period of the chain x -> F(x, s) over all
    symbols of a next-state array, given its ``incoming`` grouping.  The
    period is the gcd, over edges u -> v, of BFS depth(u) + 1 - depth(v)."""
    n, m = nexts.shape
    flat = nexts.ravel()
    depth = _bfs_depths(np.arange(n + 1) * m, flat, n)
    order, bounds = grouping
    if (depth < 0).any() or (_bfs_depths(bounds, order // m, n) < 0).any():
        return ErgodicityReport(False, False, None)
    period = int(np.gcd.reduce(np.abs(np.repeat(depth, m) + 1 - depth[flat])))
    return ErgodicityReport(True, period == 1, period)


def zero_bit_cycle(nexts, lengths):
    """The decoder states, ascending, that lie on a cycle of zero-length
    codewords, for a table whose decoder sets are prefix-free.

    A zero-length codeword in cell (x, s) moves the decoder from state
    ``nexts[x, s]`` to x without reading a bit, and is then that state's
    only codeword, so each state has at most one such move.  Following
    the moves at least N times from any state ends on a cycle, if at all.
    """
    n = len(nexts)
    zero = lengths == 0
    step = np.full(n + 1, n)  # state n: no zero-bit move
    step[nexts[zero]] = np.nonzero(zero)[0]
    for _ in range((n - 1).bit_length()):
        step = step[step]
    on = np.zeros(n + 1, dtype=bool)  # not np.unique, which imports numpy.ma
    on[step] = True
    return tuple(np.flatnonzero(on[:n]).tolist())


def _first_cell(mask):
    """``np.argwhere(mask)[:1]``, skipped when ``any()`` finds nothing."""
    return np.argwhere(mask)[:1] if mask.any() else ()


class AedsTable:
    """A complete encoding/decoding scheme over N states, stored as three
    read-only (N, |A|) integer arrays.

    Consuming symbol index ``s`` at state ``x`` in the backward pass moves
    to ``nexts[x, s]`` and emits the ``lengths[x, s]``-bit codeword
    ``values[x, s]`` (MSB first; int64, or Python ints in an object array
    when a codeword exceeds ``INT_BITS`` bits).  The decoder is derived:
    each cell (x, s) -> x' makes state x' parse that codeword as (s, x).
    Construction checks shapes, next-state range and that values fit
    their lengths; ``codec.validate_aeds`` adds the prefix check.
    Hand-built tables come in through ``from_rows``; ``encoder`` and
    ``decoder_entries`` are ``Codeword`` views built on first use.
    """

    __slots__ = ("symbols", "n_states", "nexts", "lengths", "values",
                 "state_names", "_index", "_lookup", "_tries", "_ergodicity",
                 "_encoder", "_entries", "_incoming", "_pairs", "_packed")

    def __init__(self, symbols, nexts, lengths, values, state_names=None):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise TableError("duplicate symbols in alphabet")
        try:
            # int64 inputs are checked in place and narrowed by one copy
            nexts, lengths = (np.asarray(a, dtype=np.int64)
                              for a in (nexts, lengths))
            values = np.array(values, dtype=value_dtype(lengths))
        except (OverflowError, TypeError, ValueError) as exc:
            raise TableError(f"table arrays: {exc}") from None
        if nexts.ndim != 2 or len(nexts) < 1:
            raise TableError("a table needs at least one state")
        n, m = nexts.shape
        if m != len(symbols):
            raise MissingSymbol(f"the states define {m} of "
                                f"{len(symbols)} symbols")
        if not nexts.shape == lengths.shape == values.shape:
            raise TableError("the table arrays differ in shape")
        for x, s in _first_cell((nexts < 0) | (nexts >= n)):
            raise TableError(f"state {x}: next state {nexts[x, s]} "
                             f"out of range")
        for x, s in _first_cell((lengths < 0) | (values < 0) | (
                (values >> np.maximum(lengths, 0)) != 0)):
            raise TableError(f"state {x}: value {values[x, s]} does not "
                             f"fit in {lengths[x, s]} bits")
        if state_names is not None:
            state_names = tuple(state_names)
            if len(state_names) != n:
                raise TableError("state_names length mismatch")
        nexts, lengths = nexts.astype(np.int32), lengths.astype(np.int32)
        for a in (nexts, lengths, values):
            a.flags.writeable = False
        fields = dict(symbols=symbols, n_states=n, nexts=nexts,
                      lengths=lengths, values=values, state_names=state_names,
                      _index={s: i for i, s in enumerate(symbols)}, _tries={})
        for name in self.__slots__:
            object.__setattr__(self, name, fields.get(name))

    @classmethod
    def from_rows(cls, symbols, rows, state_names=None):
        """A table from rows of (Codeword, next state) pairs, one row per
        state and one pair per symbol, as hand-built tables are written."""
        symbols, rows = tuple(symbols), [tuple(row) for row in rows]
        for x, row in enumerate(rows):
            if len(row) != len(symbols):
                raise MissingSymbol(f"state {x} defines {len(row)} of "
                                    f"{len(symbols)} symbols")
            if not all(isinstance(word, Codeword) for word, _ in row):
                raise TableError(f"state {x}: codeword of wrong type")
        grid = np.array([[(nxt, w.length, w.value) for w, nxt in row]
                         for row in rows], dtype=object)
        grid = grid.reshape(len(rows), len(symbols), 3)
        return cls(symbols, grid[..., 0], grid[..., 1], grid[..., 2],
                   state_names=state_names)

    def __setattr__(self, *_):
        raise AttributeError("AedsTable is immutable")

    def symbol_index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetMismatch(f"symbol {symbol!r} not in alphabet") from None

    @property
    def encoder(self):
        """``encoder[x][s]``: the pair (codeword, next state) of cell
        (x, s), as nested tuples."""
        if self._encoder is None:
            object.__setattr__(self, "_encoder", tuple(
                tuple((Codeword(v, n), x) for v, n, x in zip(*row))
                for row in zip(self.values.tolist(), self.lengths.tolist(),
                               self.nexts.tolist())))
        return self._encoder

    @property
    def decoder_entries(self):
        """``decoder_entries[x]``: the (codeword, symbol index, origin
        state) triples of the cells leading to x, in the order of
        ``_cells(x)``."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(
                tuple((Codeword(v, n), s, x) for v, n, s, x in self._cells(y))
                for y in range(self.n_states)))
        return self._entries

    def _cells(self, x):
        """The (value, length, symbol index, origin) of every cell leading
        to state x, by ascending length and then in x-major order."""
        order, bounds = self._grouping()
        order, m = order[bounds[x]:bounds[x + 1]], len(self.symbols)
        return sorted(zip(self.values.ravel()[order].tolist(),
                          self.lengths.ravel()[order].tolist(),
                          (order % m).tolist(), (order // m).tolist()),
                      key=lambda cell: cell[1])  # stable: x-major in a length

    def _grouping(self):
        """``incoming(nexts)``, computed once: every reader of the cells
        entering a state, from the decoder sets to ergodicity, takes it."""
        if self._incoming is None:
            object.__setattr__(self, "_incoming", incoming(self.nexts))
        return self._incoming

    def decoder_set(self, state):
        """The codeword set parsed at ``state`` during decoding, read from
        that state's cells alone."""
        return frozenset(Codeword(v, n) for v, n, _, _ in self._cells(state))

    def state_name(self, x):
        return self.state_names[x] if self.state_names else f"state{x}"

    def ergodicity(self):
        """The ``ErgodicityReport`` of the encoding chain, computed once."""
        if self._ergodicity is None:
            object.__setattr__(self, "_ergodicity",
                               ergodicity(self.nexts, self._grouping()))
        return self._ergodicity

    # -- decoder index -----------------------------------------------------

    def decoding_tries(self):
        """Per-state window tables over the decoder codeword sets.

        Returns one ``(k, mask, runs, moves)`` per state: ``mask = 2^k - 1``
        and two lists of 2^k entries.  The run of whole codewords that a
        k-bit window w starts with, at most ``RUN_CAP``, decodes to the
        tuple ``runs[w]``, and ``moves[w] = (state, used)``: the decoder
        goes to ``state`` after ``used`` bits.  An empty run (the move
        (x, 0) of state x) means that no codeword of at most k bits starts
        w; the decoder then reads one codeword bit by bit with
        ``codeword_trie``.  One-symbol runs and moves are shared tuples.
        The widths k are those of ``_window_fill``, so the index is linear
        in the number of cells.  Raises PrefixViolation if some state's
        codewords are not prefix-free.

        numpy places every codeword of at most k bits in the windows it
        starts and flags the states whose codewords may clash, which are
        checked word by word (``_window_fill``); then runs grow one
        codeword a round for all windows at once.  On a shared 2-CPU host
        the large-n index of 512 states over 256 bytes builds in 0.02 s,
        that of 4096 in 0.2-0.3 s.
        """
        if self._lookup is None:
            enabled = gc.isenabled()
            gc.disable()  # it would only rescan the tuples the index keeps
            try:
                object.__setattr__(self, "_lookup", self._build_index())
            finally:
                if enabled:
                    gc.enable()
        return self._lookup

    def _build_index(self):
        n, m = self.nexts.shape
        lengths = self.lengths.ravel()
        k, ends, cells, span, start, slot = self._window_fill()
        shortest = np.full(n, LOOKUP_BITS + 1, dtype=lengths.dtype)
        np.minimum.at(shortest, self.nexts.ravel(), lengths)
        into = self.nexts.ravel()[cells]
        room = k[into] - lengths[cells]
        # every window: its first codeword, else the empty run (symbol m)
        # and the move (x, 0) that keeps state x; a move (y, used) is
        # numbered y * width + used
        symbol = np.full(ends[-1], m)
        symbol[slot] = np.repeat(cells % m, span)
        width = int(k.max()) + 1
        move = np.repeat(np.arange(n) * width, 1 << k)
        move[slot] = np.repeat(cells // m * width + lengths[cells], span)
        singles = np.fromiter([(s,) for s in self.symbols] + [()], object,
                              m + 1)
        runs = singles[symbol]
        go = shortest[cells // m] <= room
        if go.any():
            self._extend_runs(runs, move, width, singles, k[into[go]],
                              start[go], room[go], cells[go], shortest)
        moves = np.fromiter([(x, u) for x in range(n) for u in range(width)],
                            object, n * width)[move]
        bounds = [0] + ends.tolist()
        return tuple((kx, (1 << kx) - 1, runs[a:b].tolist(),
                      moves[a:b].tolist())
                     for kx, a, b in zip(k.tolist(), bounds, bounds[1:]))

    def _window_fill(self):
        """The window layout both decoder indexes share, after the prefix
        check: the window width k of every state, the end of each state's
        2^k slots in one array, and the codewords of at most k bits (cells
        x|A| + s) with the slots they span, ``span`` of them from
        ``start``, listed whole in ``slot``.  Raises PrefixViolation.

        k is ``LOOKUP_BITS`` for tables of at most ``RUN_SLOTS >>
        LOOKUP_BITS`` states.  Larger tables take the smallest of the
        longest codeword, ``LOOKUP_BITS`` and the widest table with at most
        two slots per codeword, so the layout is linear in the number of
        cells."""
        n, m = self.nexts.shape
        nexts, lengths = self.nexts.ravel(), self.lengths.ravel()
        if n << LOOKUP_BITS <= RUN_SLOTS:
            k = np.full(n, LOOKUP_BITS)
        else:  # frexp gives the bit length of the count of cells
            longest = np.zeros(n, dtype=lengths.dtype)  # one dtype: fast .at
            np.maximum.at(longest, nexts, lengths)
            k = np.minimum(np.minimum(longest, LOOKUP_BITS),
                           np.frexp(np.bincount(nexts, minlength=n))[1])
        size = 1 << k
        ends = np.cumsum(size)
        room = k[nexts] - lengths  # the window bits a codeword leaves
        cells = np.flatnonzero(room >= 0)
        span, into = 1 << room[cells], nexts[cells]
        # a state whose codewords of at most k bits span more windows than
        # it has (left unfilled), or one window twice, or that has longer
        # codewords, is checked word by word
        over = np.bincount(into, weights=span, minlength=n) > size
        fill = ~over[into]
        cells, span, into = cells[fill], span[fill], into[fill]
        value = self.values.ravel()[cells].astype(np.int64)
        start = ends[into] - size[into] + (value << room[cells])
        slot = ranges(start, span)
        twice = np.bincount(slot, minlength=ends[-1]) > 1
        flagged = over | (np.bincount(nexts[room < 0], minlength=n) > 0)
        flagged[np.searchsorted(ends, np.flatnonzero(twice), "right")] = True
        self._check_states(np.flatnonzero(flagged), k)
        return k, ends, cells, span, start, slot

    def _check_states(self, states, k):
        """``check_prefixes`` on each of ``states`` (ascending) in turn,
        from one word list of the cells entering them, sorted by state,
        then length, then x-major, and cut per state."""
        if not states.size:
            return
        m = len(self.symbols)
        nexts, lengths = self.nexts.ravel(), self.lengths.ravel()
        mark = np.zeros(self.n_states, bool)
        mark[states] = True
        cells = np.flatnonzero(mark[nexts])
        key = (nexts[cells].astype(np.int64) * (int(lengths.max()) + 1)
               + lengths[cells])
        cells = cells[np.argsort(key, kind="stable")]
        words = list(zip(self.values.ravel()[cells].tolist(),
                         lengths[cells].tolist(), (cells % m).tolist(),
                         (cells // m).tolist()))
        cut = np.cumsum(np.bincount(nexts[cells], minlength=self.n_states)
                        [states]).tolist()
        for x, kx, a, b in zip(states.tolist(), k[states].tolist(),
                               [0] + cut, cut):
            check_prefixes(x, kx, words[a:b])

    def lockstep_index(self):
        """The packed window array of the lockstep decode, built once, or
        None for a table with a zero-bit cycle or a codeword of more than
        ``INT_BITS`` bits, which decode serially.

        Returns ``(entries, symbol, windows, zeros, step)``.  A window is
        a table of 2^w slots read with the next w bits (w <=
        ``LOOKUP_BITS``), named by ``base << 11 | (64 - w) << 4``;
        ``windows[x]`` names state x's window of ``_window_fill``, and the
        sub-windows of the codewords longer than it follow all of those.
        Slot i holds the entry ``next window | used`` and the symbol index
        ``symbol[i]``: a codeword that ends in the window uses its
        remaining bits and names the window of the state it leads to; a
        slot that starts longer codewords uses the whole window and names
        their sub-window, with symbol m ("none"); a slot that starts no
        codeword uses one bit, keeps its window and has symbol m + 1
        ("dead").
        ``zeros`` counts the zero-bit codewords, so no path stays at one
        bit position for more than ``zeros`` + 1 points, and every
        codeword length is a multiple of ``step``."""
        if self._packed is None:
            lengths = self.lengths
            ok = (lengths.max() <= INT_BITS
                  and not zero_bit_cycle(self.nexts, lengths))
            object.__setattr__(self, "_packed",
                               self._build_packed() if ok else False)
        return self._packed or None

    def _build_packed(self):
        n, m = self.nexts.shape
        nexts, lengths = self.nexts.ravel(), self.lengths.ravel()
        values = self.values.ravel().astype(np.int64)
        k, ends, cells, span, _, slot = self._window_fill()
        base, total = ends - (1 << k), int(ends[-1])
        named = [(base, k)]  # every window, in slot order
        ends_at = [(cells, lengths[cells], slot, span)]  # codewords placed
        starts_at = []  # slots that start sub-windows, and their entries
        at = np.flatnonzero(lengths > k[nexts])
        into = nexts[at]
        under, width = base[into], k[into]
        rest, value = lengths[at].astype(np.int64), values[at]
        while at.size:  # one level of sub-windows a round
            head = under + (value >> (rest - width))
            rest -= width
            value &= (1 << rest) - 1
            # the groups of np.unique, which would import numpy.ma
            order = np.argsort(head, kind="stable")
            new = np.diff(head[order], prepend=-1) != 0
            heads, first = head[order][new], order[new]
            group = np.empty_like(order)
            group[order] = np.cumsum(new) - 1
            sub = np.zeros(len(heads), np.int64)
            np.maximum.at(sub, group, np.minimum(rest, LOOKUP_BITS))
            sub_base = total + np.cumsum(1 << sub) - (1 << sub)
            total += int((1 << sub).sum())
            named.append((sub_base, sub))
            starts_at.append((heads, sub_base << 11 | (64 - sub) << 4
                              | width[first]))
            under, width = sub_base[group], sub[group]
            fits = rest <= width
            room = width[fits] - rest[fits]
            ends_at.append((at[fits], rest[fits], ranges(
                under[fits] + (value[fits] << room), 1 << room), 1 << room))
            at, under, width, rest, value = (
                a[~fits] for a in (at, under, width, rest, value))
        windows = [(b << 11 | (64 - w) << 4).astype(np.uint64)
                   for b, w in named]
        entries = np.repeat(np.concatenate(windows), np.concatenate(
            [1 << w for _, w in named])) | np.uint64(1)
        symbol = np.full(total, m + 1, np.min_scalar_type(m + 1))
        for cell, used, slots, count in ends_at:
            entries[slots] = np.repeat(windows[0][cell // m]
                                       | used.astype(np.uint64), count)
            symbol[slots] = np.repeat(cell % m, count)
        for heads, entry in starts_at:
            entries[heads] = entry
            symbol[heads] = m
        return (entries, symbol, windows[0], int((lengths == 0).sum()),
                int(np.gcd.reduce(lengths)))

    def _extend_runs(self, runs, move, width, singles, k, start, rest,
                     cells, shortest):
        """Parse on, one codeword a round for all runs at once, after the
        first codewords ``cells`` that start at ``start`` in the windows
        ``runs`` and ``move`` of k-bit states and leave ``rest`` bits: each
        run goes on with every codeword of its last state that fits, over
        the windows that codeword starts, so the longest run of a window
        is written last.  The runs of one round cover disjoint windows, as
        every state's codewords were checked before."""
        n, m = self.nexts.shape
        lengths, values = self.lengths.ravel(), self.values.ravel()
        # fits[x, r]: the codewords of x of at most r bits, first in its
        # group in key order (longer words share a key but never fit)
        key = (self.nexts.ravel() * (LOOKUP_BITS + 2)
               + np.minimum(lengths, LOOKUP_BITS + 1))
        fits = np.bincount(key, minlength=n * (LOOKUP_BITS + 2))
        fits = fits.reshape(n, LOOKUP_BITS + 2).cumsum(axis=1)
        order, bounds = np.argsort(key, kind="stable"), self._grouping()[1]
        state, run = cells // m, singles[cells % m]
        for _ in range(RUN_CAP - 1):
            count = fits[state, rest]
            parent = np.repeat(np.arange(len(count)), count)
            cell = order[ranges(bounds[state], count)]
            rest = rest[parent] - lengths[cell]
            start = start[parent] + (values[cell].astype(np.int64) << rest)
            state, k = cell // m, k[parent]
            run = np.fromiter(map(tuple.__add__, run[parent].tolist(),
                                  singles[cell % m].tolist()), object,
                              len(cell))
            span = 1 << rest
            at = ranges(start, span)
            runs[at] = np.repeat(run, span)
            move[at] = np.repeat(state * width + k - rest, span)
            go = shortest[state] <= rest
            if not go.any():
                break
            state, run, k, start, rest = (
                a[go] for a in (state, run, k, start, rest))

    def codeword_trie(self, state):
        """The bit-serial parse of ``state``: a binary trie over its
        codewords as a map (node, bit) -> child, with node 0 the root, and
        the map from each node that ends a codeword to its (symbol index,
        origin).  Its size is linear in the total codeword length.  Built
        on first use from ``_cells(state)`` and kept, as is the grouping of
        cells by state."""
        if state not in self._tries:
            trie, leaves = {}, {}
            for value, length, s, origin in self._cells(state):
                node = 0  # the slice drops the "0" that formats length 0
                for bit in map(int, format(value, f"0{length}b")[:length]):
                    node = trie.setdefault((node, bit), len(trie) + 1)
                leaves[node] = s, origin
            self._tries[state] = trie, leaves
        return self._tries[state]

    # -- structure queries -------------------------------------------------

    def saeds_partition(self):
        """Derive the per-symbol state partition, or None if not
        state-divided: every state must be entered, and only ever on one
        symbol.  The forward set of x lists the states entering it."""
        n, m = self.nexts.shape
        order, bounds = self._grouping()
        sizes = np.diff(bounds)
        if not sizes.all():
            return None
        owner = order[bounds[:-1]] % m
        if ((order % m) != np.repeat(owner, sizes)).any():
            return None
        by_symbol = np.argsort(owner, kind="stable").tolist()
        cut = np.cumsum(np.bincount(owner, minlength=m)).tolist()
        subsets = tuple(tuple(by_symbol[a:b]) for a, b in zip([0] + cut, cut))
        shared = np.arange(n).astype(object)  # one int object per state
        origins, bounds = shared[order // m].tolist(), bounds.tolist()
        fplus = {x: tuple(origins[bounds[x]:bounds[x + 1]]) for x in range(n)}
        return SAedsPartition(self.symbols, subsets, fplus)

    def __repr__(self):
        return (f"AedsTable({self.n_states} states, "
                f"{len(self.symbols)} symbols)")


@dataclass(frozen=True, eq=False)
class SAedsPartition:
    """State-divided view of a table: per-symbol subsets (tuples of
    states) and the forward set of every state (a dict of tuples)."""

    symbols: tuple
    subsets: tuple
    forward_sets: dict

    @property
    def counts(self):
        return tuple(len(b) for b in self.subsets)

    def check(self, n_states):
        """Raise InconsistentTables unless the partition laws hold: the
        subsets partition the states, and the forward sets of each
        symbol's states are nonempty and tile the states."""
        every = list(range(n_states))
        if (not all(self.subsets)
                or sorted(x for b in self.subsets for x in b) != every):
            raise InconsistentTables("per-symbol subsets do not partition "
                                     "the state set")
        for s, block in enumerate(self.subsets):
            sets = [self.forward_sets[x] for x in block]
            if not all(sets) or sorted(y for f in sets for y in f) != every:
                raise InconsistentTables(
                    f"forward sets of symbol {self.symbols[s]!r} do not tile")
        return True


def demo_table():
    """Hand-built five-state scheme over {'a','b','c'} used in docs and tests.

    Encoding the word "cbba" from state alpha1 emits the payload 111 10 0
    and parks the chain back at alpha1.
    """
    w = Codeword.from_bits
    rows = [
        # (codeword, next_state) for symbols a, b, c
        ((w("0"), 3), (w("111"), 1), (w("110"), 0)),    # alpha1
        ((w("111"), 3), (w(""), 2), (w("10"), 0)),      # alpha2
        ((w("110"), 3), (w("110"), 1), (w("111"), 0)),  # alpha3
        ((w(""), 4), (w("10"), 1), (w("01"), 0)),       # alpha4
        ((w("10"), 3), (w("0"), 1), (w("00"), 0)),      # alpha5
    ]
    names = tuple(f"alpha{i}" for i in range(1, 6))
    return AedsTable.from_rows(("a", "b", "c"), rows, state_names=names)
