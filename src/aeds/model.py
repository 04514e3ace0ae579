"""Core domain types: alphabets, distributions, codewords and scheme tables.

Everything here is immutable after construction and safe to share across
threads.  Symbols are opaque hashable tokens; states are dense indices
0..N-1 with optional display names.
"""

import math

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


class Codeword:
    """A finite bit string, possibly empty, stored as (value, length).

    Bits are MSB first: Codeword(0b110, 3) is the string "110".  The empty
    codeword has length 0 and is a legal emission (zero bits on the wire).
    """

    __slots__ = ("value", "length")

    def __init__(self, value=0, length=0):
        if length < 0:
            raise ValueError("negative codeword length")
        if not 0 <= value < (1 << length):
            raise ValueError(f"value {value} does not fit in {length} bits")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", length)

    def __setattr__(self, *_):
        raise AttributeError("Codeword is immutable")

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

    def __eq__(self, other):
        return (isinstance(other, Codeword)
                and self.value == other.value and self.length == other.length)

    def __hash__(self):
        return hash((self.value, self.length))

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


class AedsTable:
    """A complete encoding/decoding scheme over N states.

    ``encoder[x][s]`` holds the pair (codeword, next_state) used when symbol
    index ``s`` is consumed at state ``x`` during the backward encoding pass.
    The decoder side is derived: every encoder entry (x, s) -> (w, x') makes
    the decoder at x' map w back to (s, x).  Construction checks shape and
    next-state range; ``codec.validate_aeds`` adds the prefix check.
    """

    __slots__ = ("symbols", "n_states", "encoder", "decoder_entries",
                 "state_names", "_index", "_lookup")

    def __init__(self, symbols, encoder, state_names=None):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise TableError("duplicate symbols in alphabet")
        n = len(encoder)
        if n < 1:
            raise TableError("a table needs at least one state")
        grid = []
        for x, row in enumerate(encoder):
            row = tuple(row)
            if len(row) != len(symbols):
                raise MissingSymbol(f"state {x} defines {len(row)} of "
                                    f"{len(symbols)} symbols")
            for word, nxt in row:
                if not isinstance(word, Codeword):
                    raise TableError(f"state {x}: codeword of wrong type")
                if not 0 <= nxt < n:
                    raise TableError(f"state {x}: next state {nxt} out of range")
            grid.append(row)
        if state_names is not None:
            state_names = tuple(state_names)
            if len(state_names) != n:
                raise TableError("state_names length mismatch")
        entries = [[] for _ in range(n)]
        for x, row in enumerate(grid):
            for s, (word, nxt) in enumerate(row):
                entries[nxt].append((word, s, x))
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "n_states", n)
        object.__setattr__(self, "encoder", tuple(grid))
        object.__setattr__(self, "decoder_entries",
                           tuple(tuple(e) for e in entries))
        object.__setattr__(self, "state_names", state_names)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})
        object.__setattr__(self, "_lookup", None)

    def __setattr__(self, *_):
        raise AttributeError("AedsTable is immutable")

    def symbol_index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetMismatch(f"symbol {symbol!r} not in alphabet") from None

    def decoder_set(self, state):
        """The codeword set parsed at ``state`` during decoding."""
        return frozenset(w for w, _, _ in self.decoder_entries[state])

    def state_name(self, x):
        return self.state_names[x] if self.state_names else f"state{x}"

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
        nodes = [None] * self.n_states
        work = [(x, x, 0, self.decoder_entries[x])
                for x in range(self.n_states)]
        while work:  # a worklist, not recursion: codewords can be very long
            at, state, offset, entries = work.pop()
            k = min(max((w.length for w, _, _ in entries), default=offset)
                    - offset, LOOKUP_BITS, len(entries).bit_length())
            mask = (1 << k) - 1
            slots = [None] * (1 << k)
            groups = {}
            for entry in entries:
                word, s, origin = entry
                rest = word.length - offset
                if rest > k:
                    groups.setdefault((word.value >> (rest - k)) & mask,
                                      []).append(entry)
                    continue
                base = (word.value & ((1 << rest) - 1)) << (k - rest)
                span = 1 << (k - rest)
                taken = next(filter(None, slots[base:base + span]), None)
                if taken is not None:
                    self._collision(state, taken, word)
                slots[base:base + span] = [(s, origin, rest)] * span
            for bits, group in groups.items():
                if slots[bits] is not None:
                    self._collision(state, slots[bits], group[0][0])
                slots[bits] = (SUBTABLE, len(nodes), k)
                work.append((len(nodes), state, offset + k, group))
                nodes.append(None)
            if None in slots:
                _fill_unmatched(slots, k, state, offset, entries)
            nodes[at] = (k, mask, tuple(slots))
        return tuple(nodes)

    def _collision(self, state, leaf, word):
        s, origin, _ = leaf
        first, second = sorted((self.encoder[origin][s][0], word))
        raise PrefixViolation(state, first.bits, second.bits)

    # -- structure queries -------------------------------------------------

    def saeds_partition(self):
        """Derive the per-symbol state partition, or None if not state-divided."""
        n, ns = self.n_states, len(self.symbols)
        reached = [set() for _ in range(ns)]
        for row in self.encoder:
            for s, (_, nxt) in enumerate(row):
                reached[s].add(nxt)
        seen = {}
        for s, states in enumerate(reached):
            for x in states:
                if x in seen:
                    return None
                seen[x] = s
        if len(seen) != n:
            return None
        forward = [dict() for _ in range(ns)]
        for x_hat, row in enumerate(self.encoder):
            for s, (_, nxt) in enumerate(row):
                forward[s].setdefault(nxt, []).append(x_hat)
        subsets = tuple(tuple(sorted(reached[s])) for s in range(ns))
        fplus = {x: tuple(sorted(forward[seen[x]][x])) for x in seen}
        return SAedsPartition(self.symbols, subsets, fplus)

    def __repr__(self):
        return (f"AedsTable({self.n_states} states, "
                f"{len(self.symbols)} symbols)")


def _fill_unmatched(slots, k, state, offset, entries):
    """Mark the empty slots of one lookup node with the depth at which a
    bit-by-bit parse finds no codeword left to follow."""
    prefixes = set()
    for word, _, _ in entries:
        rest = min(word.length - offset, k)
        bits = (word.value >> (word.length - offset - rest)) & ((1 << rest) - 1)
        for d in range(rest + 1):
            prefixes.add((d, bits >> (rest - d)))
    for i, slot in enumerate(slots):
        if slot is None:
            depth = next(d for d in range(k + 1)
                         if (d, i >> (k - d)) not in prefixes)
            slots[i] = (UNMATCHED, (state, offset, offset + depth), 0)


class SAedsPartition:
    """State-divided view of a table: per-symbol subsets and forward sets."""

    __slots__ = ("symbols", "subsets", "forward_sets")

    def __init__(self, symbols, subsets, forward_sets):
        object.__setattr__(self, "symbols", tuple(symbols))
        object.__setattr__(self, "subsets", tuple(tuple(b) for b in subsets))
        object.__setattr__(self, "forward_sets", dict(forward_sets))

    def __setattr__(self, *_):
        raise AttributeError("SAedsPartition is immutable")

    @property
    def counts(self):
        return tuple(len(b) for b in self.subsets)

    def check(self, n_states):
        """Raise InconsistentTables unless the partition laws hold."""
        all_states = set()
        for block in self.subsets:
            if not block:
                raise InconsistentTables("empty per-symbol subset")
            if all_states & set(block):
                raise InconsistentTables("per-symbol subsets overlap")
            all_states |= set(block)
        if all_states != set(range(n_states)):
            raise InconsistentTables("subsets do not cover the state set")
        for s, block in enumerate(self.subsets):
            union, total = set(), 0
            for x in block:
                fw = set(self.forward_sets[x])
                if not fw:
                    raise InconsistentTables(f"empty forward set at {x}")
                if union & fw:
                    raise InconsistentTables(
                        f"forward sets overlap inside symbol {self.symbols[s]!r}")
                union |= fw
                total += len(fw)
            if union != set(range(n_states)) or total != n_states:
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
    return AedsTable(("a", "b", "c"), rows, state_names=names)
