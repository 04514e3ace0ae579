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

# Decoder index (AedsTable.decoding_tries): widest lookup table per node,
# and the markers of the two non-leaf slot kinds.
LOOKUP_BITS = 12
SUBTABLE = -1
UNMATCHED = -2

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
                 "state_names", "_index", "_lookup", "_ergodicity",
                 "_encoder", "_entries")

    def __init__(self, symbols, nexts, lengths, values, state_names=None):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise TableError("duplicate symbols in alphabet")
        try:
            nexts, lengths = (np.array(a, dtype=np.int64)
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
        state) triples of the cells leading to x, in x-major order."""
        if self._entries is None:
            cells, bounds = self._incoming_cells()
            flat = [(Codeword(v, n), s, x) for v, n, s, x in cells]
            object.__setattr__(self, "_entries", tuple(
                tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])))
        return self._entries

    def _incoming_cells(self):
        """(value, length, symbol index, origin) of every cell, grouped by
        the state it leads to as in ``incoming``, and the group bounds."""
        m = len(self.symbols)
        order, bounds = incoming(self.nexts)
        states = list(range(self.n_states))  # one int object per state
        cells = zip(self.values.ravel()[order].tolist(),
                    self.lengths.ravel()[order].tolist(), (order % m).tolist(),
                    map(states.__getitem__, (order // m).tolist()))
        return list(cells), bounds.tolist()

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
        """Per-state lookup tables over the decoder codeword sets.

        Returns a tuple of nodes ``(k, mask, slots)`` with ``mask = 2^k - 1``.
        Node x < n_states is the first-level table of state x; the nodes
        after them are subtables.  The decoder peeks the next k bits and
        reads ``slots[bits]``, which is one of

        * ``(symbol_index, origin_state, n)``: a codeword ends within these
          k bits after ``n`` of them (n may be 0 for a zero-bit codeword);
        * ``(SUBTABLE, node, k)``: the codewords continue in ``node`` after
          all k bits are consumed;
        * ``(UNMATCHED, (state, offset, depth), 0)``: no codeword of
          ``state`` starts with the first ``depth`` bits of the symbol,
          whose first ``offset`` bits were consumed by earlier levels.

        k is the smallest of the longest codeword, ``LOOKUP_BITS`` and the
        widest table with at most two slots per codeword, so the index is
        linear in the total codeword length.  Raises PrefixViolation if
        some state's codewords are not prefix-free.
        """
        if self._lookup is None:
            object.__setattr__(self, "_lookup", self._build_index())
        return self._lookup

    def _build_index(self):
        entries, bounds = self._incoming_cells()
        nodes = [None] * self.n_states
        work = [(x, x, 0, entries[bounds[x]:bounds[x + 1]])
                for x in range(self.n_states)]
        while work:  # a worklist, not recursion: codewords can be very long
            at, state, offset, group = work.pop()
            k = min(max((n for _, n, _, _ in group), default=offset)
                    - offset, LOOKUP_BITS, len(group).bit_length())
            mask = (1 << k) - 1
            slots = [None] * (1 << k)
            groups = {}
            for entry in group:
                value, length, s, origin = entry
                rest = length - offset
                if rest > k:
                    groups.setdefault((value >> (rest - k)) & mask,
                                      []).append(entry)
                    continue
                base = (value & ((1 << rest) - 1)) << (k - rest)
                span = 1 << (k - rest)
                if span == 1 and slots[base] is None:  # the common case
                    slots[base] = (s, origin, rest)
                    continue
                taken = next(filter(None, slots[base:base + span]), None)
                if taken is not None:
                    self._collision(state, taken, value, length)
                slots[base:base + span] = [(s, origin, rest)] * span
            for bits, members in groups.items():
                if slots[bits] is not None:
                    self._collision(state, slots[bits], *members[0][:2])
                slots[bits] = (SUBTABLE, len(nodes), k)
                work.append((len(nodes), state, offset + k, members))
                nodes.append(None)
            if None in slots:
                _fill_unmatched(slots, k, state, offset, group)
            nodes[at] = (k, mask, tuple(slots))
        return tuple(nodes)

    def _collision(self, state, leaf, value, length):
        s, origin, _ = leaf
        first, second = sorted((
            Codeword(int(self.values[origin, s]), int(self.lengths[origin, s])),
            Codeword(value, length)))
        raise PrefixViolation(state, first.bits, second.bits)

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


def _fill_unmatched(slots, k, state, offset, entries):
    """Mark the empty slots of one lookup node with the depth at which a
    bit-by-bit parse finds no codeword left to follow."""
    prefixes = set()
    for value, length, _, _ in entries:
        rest = min(length - offset, k)
        bits = (value >> (length - offset - rest)) & ((1 << rest) - 1)
        for d in range(rest + 1):
            prefixes.add((d, bits >> (rest - d)))
    for i, slot in enumerate(slots):
        if slot is None:
            depth = next(d for d in range(k + 1)
                         if (d, i >> (k - d)) not in prefixes)
            slots[i] = (UNMATCHED, (state, offset, offset + depth), 0)


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
