"""Core domain types: alphabets, distributions, codewords and scheme tables.

Everything here is immutable after construction and safe to share across
threads.  Symbols are opaque hashable tokens; states are dense indices
0..N-1 with optional display names.  A table is three integer arrays (see
``AedsTable``); ``Codeword`` objects appear only in its views.
"""

import bisect
import gc
import math
from dataclasses import dataclass
from operator import itemgetter

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


def incoming(nexts, lengths=None):
    """The cells x|A| + s of a next-state array grouped by the state they
    lead to, in x-major order within a group (by ascending ``lengths``
    first, if given), and the group bounds: the cells entering state x are
    ``order[bounds[x]:bounds[x + 1]]``."""
    flat = nexts.ravel()
    counts = np.bincount(flat, minlength=len(nexts))
    return (np.argsort(flat, kind="stable") if lengths is None
            else np.lexsort((lengths.ravel(), flat)),
            np.concatenate(([0], np.cumsum(counts))))


def prefix_clash(words):
    """The first pair (word, longer) of Codewords, in descending bit-string
    order, in which ``word`` repeats or is a prefix of ``longer``, or None
    for a prefix-free collection.  Sorted, a word follows any word it is a
    prefix of, so comparing neighbours finds every clash."""
    order = sorted(words, key=lambda w: w.bits, reverse=True)
    return next(((word, longer) for longer, word in zip(order, order[1:])
                 if word.is_prefix_of(longer)), None)


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
        edges = (np.repeat(first - np.cumsum(sizes) + sizes, sizes)
                 + np.arange(sizes.sum()))
        reached = np.unique(adj[edges])
        frontier = reached[depth[reached] < 0]
        depth[frontier] = d
    return depth


def ergodicity(nexts):
    """Irreducibility and period of the chain x -> F(x, s) over all
    symbols of a next-state array.  The period is the gcd, over all
    edges u -> v, of depth(u) + 1 - depth(v) for breadth-first depths."""
    n, m = nexts.shape
    flat = nexts.ravel()
    depth = _bfs_depths(np.arange(n + 1) * m, flat, n)
    order, bounds = incoming(nexts)
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
    return tuple(np.unique(step[step < n]).tolist())


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
                 "_encoder", "_entries", "_incoming")

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
        for x, s in np.argwhere((nexts < 0) | (nexts >= n))[:1]:
            raise TableError(f"state {x}: next state {nexts[x, s]} "
                             f"out of range")
        for x, s in np.argwhere((lengths < 0) | (values < 0)
                                | ((values >> np.maximum(lengths, 0)) != 0))[:1]:
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
        state) triples of the cells leading to x, by ascending codeword
        length and then in x-major order."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(
                tuple((Codeword(v, n), s, x) for v, n, s, x in group)
                for group in self._incoming_cells()))
        return self._entries

    def _incoming_cells(self):
        """Per state, the (value, length, symbol index, origin) of every
        cell leading to it, by ascending length and then in x-major
        order."""
        order, bounds = incoming(self.nexts, self.lengths)
        cells = self._cells(order, list(range(self.n_states)))  # shared ints
        bounds = bounds.tolist()
        return [cells[a:b] for a, b in zip(bounds, bounds[1:])]

    def _cells(self, order, states):
        """(value, length, symbol index, states[origin]) of flat cells."""
        m = len(self.symbols)
        return list(zip(self.values.ravel()[order].tolist(),
                        self.lengths.ravel()[order].tolist(),
                        (order % m).tolist(),
                        map(states.__getitem__, (order // m).tolist())))

    def decoder_set(self, state):
        """The codeword set parsed at ``state`` during decoding."""
        return frozenset(w for w, _, _ in self.decoder_entries[state])

    def state_name(self, x):
        return self.state_names[x] if self.state_names else f"state{x}"

    def ergodicity(self):
        """The ``ErgodicityReport`` of the encoding chain, computed once."""
        if self._ergodicity is None:
            object.__setattr__(self, "_ergodicity", ergodicity(self.nexts))
        return self._ergodicity

    # -- decoder index -----------------------------------------------------

    def decoding_tries(self):
        """Per-state window tables over the decoder codeword sets.

        Returns one ``(k, mask, slots)`` per state, with ``mask = 2^k - 1``.
        The decoder peeks the next k bits w and reads ``slots[w]``, which is
        ``(symbols, state, used)``: the run of whole codewords that w starts
        with, at most ``RUN_CAP``, decodes to the tuple ``symbols`` in
        ``used`` bits and leaves the decoder in ``state``.  An empty run
        (state unchanged, 0 bits) means that no codeword of at most k bits
        starts w; the decoder then reads one codeword bit by bit with
        ``codeword_trie``.

        k is ``LOOKUP_BITS`` for tables of at most ``RUN_SLOTS >>
        LOOKUP_BITS`` states.  Larger tables take the smallest of the
        longest codeword, ``LOOKUP_BITS`` and the widest table with at most
        two slots per codeword, so the index is linear in the number of
        cells.  Raises PrefixViolation if some state's codewords are not
        prefix-free.
        """
        if self._lookup is None:
            enabled = gc.isenabled()
            gc.disable()  # the build frees none of the tuples it makes
            try:
                object.__setattr__(self, "_lookup", self._build_index())
            finally:
                if enabled:
                    gc.enable()
        return self._lookup

    def _build_index(self):
        groups = self._incoming_cells()
        singles = [(s,) for s in self.symbols]
        shortest = [g[0][1] if g else LOOKUP_BITS + 1 for g in groups]
        # the symbol and origin of each state's empty codeword, if any
        zero = [g and not g[0][1] and (singles[g[0][2]], g[0][3])
                for g in groups]
        wide = self.n_states << LOOKUP_BITS <= RUN_SLOTS
        # every state's own codewords first, so that each set is known to
        # be prefix-free before runs are parsed through it
        tables = []
        for x, group in enumerate(groups):
            k = LOOKUP_BITS if wide else min(group[-1][1] if group else 0,
                                             LOOKUP_BITS,
                                             len(group).bit_length())
            empty = ((), x, 0)
            slots = [empty] * (1 << k)
            cut = bisect.bisect_right(group, k, key=itemgetter(1))
            # runs that may go on: (state, bits used, their value, symbols)
            work = []
            for value, length, s, origin in group[:cut]:
                base, span = value << (k - length), 1 << (k - length)
                slot = (singles[s], origin, length)
                if span == 1 and slots[base] is empty:  # the common case
                    slots[base] = slot
                else:
                    for taken in slots[base:base + span]:
                        if taken is not empty:
                            self._collision(x, taken, value, length)
                    slots[base:base + span] = [slot] * span
                if shortest[origin] <= k - length:
                    work.append((origin, length, value, slot[0]))
            long = group[cut:]  # codewords longer than k bits
            clash = prefix_clash(Codeword(v, n) for v, n, _, _ in long)
            if clash is not None:
                raise PrefixViolation(x, *(w.bits for w in clash))
            for value, length, _, _ in long:
                taken = slots[value >> (length - k)]
                if taken[0]:  # a shorter word's run starts there
                    self._collision(x, taken, value, length)
            # no run of this state goes on: make its tuple while in cache
            tables.append((k, slots if work else tuple(slots), work))
        # a longer run overwrites its share of the windows its prefix filled
        for x, (k, slots, work) in enumerate(tables):
            while work:
                y, used, bits, run = work.pop()
                room = k - used
                for value, length, s, origin in groups[y]:
                    if length > room:
                        break
                    rest = room - length
                    more, at = run + singles[s], (bits << length) | value
                    # a state's empty codeword is its only one, so its run
                    # would overwrite every window of this one: follow it
                    while zero[origin] and len(more) < RUN_CAP:
                        single, origin = zero[origin]
                        more += single
                    slot = (more, origin, k - rest)
                    if rest:
                        span = 1 << rest
                        slots[at * span:(at + 1) * span] = [slot] * span
                    else:
                        slots[at] = slot
                    if len(more) < RUN_CAP and shortest[origin] <= rest:
                        work.append((origin, k - rest, at, more))
            tables[x] = k, (1 << k) - 1, tuple(slots)  # frees the list
        return tuple(tables)

    def _collision(self, state, slot, value, length):
        (symbol,), origin, _ = slot
        s = self._index[symbol]
        words = sorted((Codeword(value, length), Codeword(
            int(self.values[origin, s]), int(self.lengths[origin, s]))))
        raise PrefixViolation(state, *(w.bits for w in words))

    def codeword_trie(self, state):
        """The bit-serial parse of ``state``: a binary trie over its
        codewords as a map (node, bit) -> child, with node 0 the root, and
        the map from each node that ends a codeword to its (symbol index,
        origin).  Its size is linear in the total codeword length.  Built
        on first use and kept, as is the grouping of cells by state."""
        if state not in self._tries:
            if self._incoming is None:
                object.__setattr__(self, "_incoming",
                                   incoming(self.nexts, self.lengths))
            order, bounds = self._incoming
            cells = order[bounds[state]:bounds[state + 1]]
            trie, leaves = {}, {}
            for value, length, s, origin in self._cells(
                    cells, range(self.n_states)):
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
        order, bounds = incoming(self.nexts)
        sizes = np.diff(bounds)
        if not sizes.all():
            return None
        owner = order[bounds[:-1]] % m
        if ((order % m) != np.repeat(owner, sizes)).any():
            return None
        by_symbol = np.argsort(owner, kind="stable").tolist()
        cut = np.cumsum(np.bincount(owner, minlength=m)).tolist()
        subsets = tuple(tuple(by_symbol[a:b]) for a, b in zip([0] + cut, cut))
        origins, bounds = (order // m).tolist(), bounds.tolist()
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
