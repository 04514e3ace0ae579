"""Core domain types: alphabets, distributions, codewords and scheme tables.

Everything here is immutable after construction and safe to share across
threads.  Symbols are opaque hashable tokens; states are dense indices
0..N-1 with optional display names.  A table is three integer arrays (see
``AedsTable``); ``Codeword`` objects appear only in its views.
"""

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

# Decoder index (AedsTable.decoding_tries): the widest window a lookup
# reads, and the most slots that full-width windows of every state may
# hold, which gives them to tables of up to WINDOW_SLOTS >> LOOKUP_BITS = 8
# states.
LOOKUP_BITS = 12
WINDOW_SLOTS = 1 << 15

# Longest codeword whose value an int64 table cell holds.
INT_BITS = 63

# Cells (or codewords) that a pass over a whole table or block handles at a
# time: ``BitWriter.write_words``, the grid writer and reader in ``codec``,
# and the checks and walks over a table's cells here.  At 64 KB per int64
# array the temporaries stay below the 128 KB from which glibc's malloc
# maps fresh pages for each array and faults them in every time (a 2 MiB
# type2 compress took 29,000 minor faults with 2^16-word slices and 2,100
# with these; a 2^20-symbol block encoded in 19-21 ms as one slice, 15-16
# ms in these), and freed ones do not stay resident under a table's arrays.
PACK_SLICE = 1 << 13


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


def row_slices(n, m):
    """Slices of the rows of an (n, m) array, each of about ``PACK_SLICE``
    cells and at least one row."""
    step = max(PACK_SLICE // max(m, 1), 1)
    return [slice(a, a + step) for a in range(0, n, step)]


def incoming(nexts):
    """The cells x|A| + s of a next-state array grouped by the state they
    lead to, in x-major order within a group, and the group bounds: the
    cells entering state x are ``order[bounds[x]:bounds[x + 1]]``.  The
    cells are int32 when they fit, as a table's next states are.  Up to
    2^16 states the keys are uint16, which numpy's stable sort radix-sorts."""
    flat = nexts.ravel()
    counts = np.bincount(flat, minlength=len(nexts))
    order = np.argsort(flat.astype(np.uint16) if len(nexts) <= 1 << 16
                       else flat, kind="stable")
    if flat.size <= np.iinfo(np.int32).max:
        order = order.astype(np.int32)
    return order, np.concatenate(([0], np.cumsum(counts)))


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


def _bfs_depths(starts, adj, n, div=1):
    """Breadth-first depth of every state from state 0 in the graph whose
    successors of u are ``adj[starts[u]:starts[u+1]] // div`` (-1: not
    reached).  A level reads the edges of as many states at a time as
    hold about ``PACK_SLICE`` edges on average."""
    step = max(PACK_SLICE * n // max(len(adj), 1), 1)
    depth = np.full(n, -1, dtype=np.int64)
    depth[0] = 0
    frontier, d = np.zeros(1, dtype=np.int64), 0
    while frontier.size:
        d += 1
        hit = np.zeros(n, dtype=bool)  # marks drop repeats without a sort
        for a in range(0, len(frontier), step):
            first = starts[frontier[a:a + step]]
            sizes = starts[frontier[a:a + step] + 1] - first
            hit[adj[ranges(first, sizes)] // div] = True
        frontier = np.flatnonzero(hit & (depth < 0))
        depth[frontier] = d
    return depth


def ergodicity(nexts, grouping):
    """Irreducibility and period of the chain x -> F(x, s) over all
    symbols of a next-state array, given its ``incoming`` grouping.  The
    period is the gcd, over edges u -> v, of BFS depth(u) + 1 - depth(v),
    taken over the rows a slice at a time until it reaches one."""
    n, m = nexts.shape
    depth = _bfs_depths(np.arange(n + 1) * m, nexts.ravel(), n)
    order, bounds = grouping
    if (depth < 0).any() or (_bfs_depths(bounds, order, n, m) < 0).any():
        return ErgodicityReport(False, False, None)
    period = 0
    for rows in row_slices(n, m):
        if period == 1:
            break
        gap = depth[rows, None] + 1 - depth[nexts[rows]]
        period = math.gcd(period, int(np.gcd.reduce(np.abs(gap).ravel())))
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


def _kept(a, dtype):
    """Whether ``AedsTable`` keeps ``a`` as it is: a read-only C array of
    ``dtype``, which no one writes to any more."""
    return (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.c_contiguous and not a.flags.writeable)


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
    their lengths; ``codec.validate_aeds`` adds the prefix check.  It
    keeps read-only C arrays of the table's dtypes (int32 next states and
    lengths) as they are, as builders pass them, and copies the rest.
    Hand-built tables come in through ``from_rows``; ``encoder`` and
    ``decoder_entries`` are ``Codeword`` views built on first use.
    """

    __slots__ = ("symbols", "n_states", "nexts", "lengths", "values",
                 "state_names", "_index", "_ergodicity",
                 "_encoder", "_entries", "_incoming", "_pairs", "_packed")

    def __init__(self, symbols, nexts, lengths, values, state_names=None):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise TableError("duplicate symbols in alphabet")
        try:
            # read-only C arrays of the table's dtypes are kept as they
            # are; other int64 inputs are checked in place and copied once
            nexts, lengths = (a if _kept(a, np.int32)
                              else np.asarray(a, dtype=np.int64)
                              for a in (nexts, lengths))
            dtype = value_dtype(lengths)
            if not _kept(values, dtype):
                values = np.array(values, dtype=dtype)
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
        if np.min(nexts, initial=0) < 0 or np.max(nexts, initial=0) >= n:
            for x, s in _first_cell((nexts < 0) | (nexts >= n)):
                raise TableError(f"state {x}: next state {nexts[x, s]} "
                                 f"out of range")
        for rows in row_slices(n, m):
            v, k = values[rows], lengths[rows]
            for x, s in _first_cell((k < 0) | (v < 0) | (
                    (v >> np.maximum(k, 0)) != 0)):
                x += rows.start
                raise TableError(f"state {x}: value {values[x, s]} does "
                                 f"not fit in {lengths[x, s]} bits")
        if state_names is not None:
            state_names = tuple(state_names)
            if len(state_names) != n:
                raise TableError("state_names length mismatch")
        nexts, lengths = (a.astype(np.int32, copy=False)
                          for a in (nexts, lengths))
        for a in (nexts, lengths, values):
            a.flags.writeable = False
        fields = dict(symbols=symbols, n_states=n, nexts=nexts,
                      lengths=lengths, values=values, state_names=state_names,
                      _index={s: i for i, s in enumerate(symbols)})
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

    def matched_prefix(self, x, bits, n):
        """The length of the longest prefix that the n-bit string ``bits``
        shares with a codeword of state x, or -1 if x has none."""
        cells = self._cells(x)
        need = min(max((k for _, k, _, _ in cells), default=0), n)
        bits >>= n - need
        return max((d - ((bits >> need - d) ^ (v >> k - d)).bit_length()
                    for v, k, _, _ in cells for d in [min(k, need)]),
                   default=-1)

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
        """The decoder index of every table, built once: one packed array
        of window slots that the serial loop and the lockstep decode both
        read, a slot a lookup.  Raises PrefixViolation if some state's
        codewords are not prefix-free.

        Returns ``(entries, symbol, windows, zeros, step)``.  A window is
        a table of 2^w slots read with the next w bits (w <=
        ``LOOKUP_BITS``), named by ``base << 11 | (64 - w) << 4``;
        ``windows[x]`` names state x's window of ``_window_fill``, and the
        sub-windows of the codewords longer than it follow all of those.
        A sub-window is as wide as the smallest of the longest remainder
        of the codewords that go on into it, ``LOOKUP_BITS`` and the bit
        length of their count: it has at most two slots per codeword, and
        each codeword reads at least one bit of it, so the sub-windows
        hold at most two slots per codeword bit.
        Slot i holds the entry ``next window | used`` and the symbol code
        ``symbol[i]``: a codeword that ends in the window uses its
        remaining bits, names the window of the state it leads to and has
        its symbol index; a slot that starts longer codewords uses the
        whole window and names their sub-window, with symbol m ("none"); a
        slot that starts no codeword uses one bit, keeps its window and has
        symbol m + 1 ("dead").
        ``zeros`` counts the zero-bit codewords, so that a path off a
        zero-bit cycle stays at one bit position for at most ``zeros`` + 1
        points, and every codeword length is a multiple of ``step``.  On a
        shared 2-CPU host the large-n index of 512 states over 256 bytes
        builds in 0.011 s, that of 4096 states in 0.10 s."""
        if self._packed is None:
            object.__setattr__(self, "_packed",
                               self._build_packed(*self._window_fill()))
        return self._packed

    def _window_fill(self):
        """The first level of the decoder index, after the prefix check:
        the window width k of every state, the end of each state's 2^k
        slots in one array, and the codewords of at most k bits (cells
        x|A| + s) with the slots they span, ``span`` of them each, listed
        whole in ``slot``.  Raises PrefixViolation.

        k is ``LOOKUP_BITS`` for tables of at most ``WINDOW_SLOTS >>
        LOOKUP_BITS`` states.  Larger tables take the smallest of the
        longest codeword, ``LOOKUP_BITS`` and the widest table with at most
        two slots per codeword, so the index is linear in the number of
        cells."""
        n, m = self.nexts.shape
        nexts, lengths = self.nexts.ravel(), self.lengths.ravel()
        if n << LOOKUP_BITS <= WINDOW_SLOTS:
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
        slot = ranges(ends[into] - size[into] + (value << room[cells]), span)
        twice = np.bincount(slot, minlength=ends[-1]) > 1
        flagged = over | (np.bincount(nexts[room < 0], minlength=n) > 0)
        flagged[np.searchsorted(ends, np.flatnonzero(twice), "right")] = True
        self._check_states(np.flatnonzero(flagged), k)
        return k, ends, cells, span, slot

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

    def _build_packed(self, k, ends, cells, span, slot):
        m = len(self.symbols)
        nexts, lengths = self.nexts.ravel(), self.lengths.ravel()
        base, total, none = ends - (1 << k), int(ends[-1]), np.zeros(0, int)
        # per level: the slots that step into its windows, the bits they
        # use, and the windows' bases and widths
        levels = [(none, none, base, k)]
        ends_at = [(cells, lengths[cells], slot, span)]  # codewords placed
        at = np.flatnonzero(lengths > k[nexts])
        # values of more than INT_BITS bits stay Python ints
        rest, value = lengths[at].astype(np.int64), self.values.ravel()[at]
        under, width = base[nexts[at]], k[nexts[at]]
        while at.size:  # one level of sub-windows a round
            rest -= width
            digit = value >> rest
            value = value ^ digit << rest
            head = under + digit.astype(np.int64, copy=False)
            order = np.argsort(head)  # heads in order, grouped by neighbours
            at, head, width, rest, value = (
                a[order] for a in (at, head, width, rest, value))
            new = np.append(True, head[1:] != head[:-1])
            first, group = np.flatnonzero(new), new.cumsum() - 1
            sub = np.minimum(np.maximum.reduceat(np.minimum(
                rest, LOOKUP_BITS), first), np.frexp(np.bincount(group))[1])
            sub_base = np.cumsum(1 << sub) + (total - (1 << sub))
            total = int(sub_base[-1] + (1 << sub[-1]))
            levels.append((head[first], width[first], sub_base, sub))
            under, width = sub_base[group], sub[group]
            if (fits := rest <= width).any():
                room = width[fits] - rest[fits]
                ends_at.append((at[fits], rest[fits], ranges(
                    under[fits] + (value[fits].astype(np.int64) << room),
                    1 << room), 1 << room))
                at, under, width, rest, value = (
                    a[~fits] for a in (at, under, width, rest, value))
        heads, used, bases, widths = map(np.concatenate, zip(*levels))
        del levels  # copied whole: free each level's own arrays
        names = (bases << 11 | (64 - widths) << 4).astype(np.uint64)
        entries = np.repeat(names, 1 << widths)
        entries |= np.uint64(1)
        symbol = np.full(total, m + 1, np.min_scalar_type(m + 1))
        for cell, bits, slots, count in ends_at:
            entries[slots] = np.repeat(names[cell // m]
                                       | bits.astype(np.uint64), count)
            symbol[slots] = np.repeat(cell % m, count)
        entries[heads] = names[len(k):] | used.astype(np.uint64)
        symbol[heads] = m
        return (entries, symbol, names[:len(k)], int((lengths == 0).sum()),
                int(np.gcd.reduce(lengths)))

    # -- structure queries -------------------------------------------------

    def state_symbols(self):
        """The symbol index of the cells entering each state, as an array,
        or None if the table is not state-divided: every state must be
        entered, and only ever on one symbol."""
        n, m = self.nexts.shape
        order, bounds = self._grouping()
        if not np.diff(bounds).all():
            return None
        owner = order[bounds[:-1]] % m
        for rows in row_slices(n, m):
            if (owner[self.nexts[rows]] != np.arange(m)).any():
                return None
        return owner

    def saeds_partition(self):
        """Derive the per-symbol state partition, or None if not
        state-divided (``state_symbols``).  The forward set of x lists the
        states entering it."""
        owner = self.state_symbols()
        if owner is None:
            return None
        n, m = self.nexts.shape
        order, bounds = self._grouping()
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
