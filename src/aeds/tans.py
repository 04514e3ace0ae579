"""Tabled ANS: integer states N..2N-1, correspondence tables C and D, the
arithmetic encode/decode recursion, and the lossless embedding into an
AedsTable.

State counts must be powers of two here; the table constructors in
``constructors`` cover general N.
"""

import numpy as np

from .codec import Bitstream, symbol_indices
from .errors import NotPowerOfTwo, TableError, TooFewStates
from .model import AedsTable, Codeword

SPREAD_SORTED = "sorted-interval"
SPREAD_STRIDE = "stride"


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def quantize_counts(p, n_states):
    """Integer per-symbol state counts with sum N and every count >= 1.

    Largest-remainder apportionment of p(s)*N, ties broken by symbol index;
    zero counts are repaired by borrowing from the most over-allocated
    symbol.
    """
    m = len(p.symbols)
    if n_states < m:
        raise TooFewStates(f"{n_states} states cannot cover {m} symbols")
    targets = [q * n_states for q in p.probs]
    counts = [int(t) for t in targets]
    leftovers = sorted(range(m), key=lambda i: (-(targets[i] - counts[i]), i))
    for i in leftovers[:n_states - sum(counts)]:
        counts[i] += 1
    while any(c == 0 for c in counts):
        needy = counts.index(0)
        donor = max((i for i in range(m) if counts[i] > 1),
                    key=lambda i: (counts[i] - targets[i], -i))
        counts[needy] += 1
        counts[donor] -= 1
    return counts


class TansTable:
    """A tANS instance: N, per-symbol counts, and the C/D correspondence.

    ``C[s][y - counts[s]]`` is the state x reached by pushing symbol s at
    slot y, and ``D[x - N]`` is the inverse pair (s, y), derived from C.
    N is the sum of the counts.
    """

    __slots__ = ("symbols", "n_states", "counts", "C", "D", "_index")

    def __init__(self, symbols, counts, C):
        symbols = tuple(symbols)
        counts = tuple(counts)
        n = sum(counts)
        if not _is_pow2(n):
            raise NotPowerOfTwo(f"state count {n} is not a power of two")
        if any(c < 1 for c in counts):
            raise TableError("counts must be positive")
        if len(C) != len(counts):
            raise TableError("C needs one block per count")
        # the blocks hold sum(counts) = N states, so placing each state of
        # N..2N-1 at most once places every one of them exactly once
        D = [None] * n
        for s, block in enumerate(C):
            if len(block) != counts[s]:
                raise TableError("C block size mismatch")
            for y, x in enumerate(block, counts[s]):
                if not n <= x < 2 * n:
                    raise TableError(f"state {x} outside N..2N-1")
                if D[x - n] is not None:
                    raise TableError(f"state {x} placed twice")
                D[x - n] = (s, y)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "n_states", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "C", tuple(tuple(b) for b in C))
        object.__setattr__(self, "D", tuple(D))
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

    def __setattr__(self, *_):
        raise AttributeError("TansTable is immutable")

    def push(self, s, x):
        """One backward encoding step: (symbol, state) -> (codeword, state)."""
        ns = self.counts[s]
        k = (x // ns).bit_length() - 1
        word = Codeword(x & ((1 << k) - 1), k)
        return word, self.C[s][(x >> k) - ns]


def _spread_sorted(counts, n):
    """Consecutive symbol blocks; within a block the slots y are rotated so
    short-codeword slots come first, mirroring the power-of-two layout used
    by the state-divided builders."""
    C = []
    base = n
    for ns in counts:
        # the short-codeword slots y >= 2^ceil(lg ns) get the first states
        small = 2 * ns - (1 << (ns - 1).bit_length())
        C.append(list(range(base + small, base + ns))
                 + list(range(base, base + small)))
        base += ns
    return C


def _spread_stride(counts, n):
    """Classic odd-stride spread: slot sequence (i*step mod N)."""
    step = (n >> 1) + (n >> 3) + 3
    if step % 2 == 0:
        step += 1
    slots = [None] * n
    pos = 0
    for s, ns in enumerate(counts):
        for _ in range(ns):
            slots[pos] = s
            pos = (pos + step) % n
    C = [[] for _ in counts]
    for i, s in enumerate(slots):
        C[s].append(n + i)
    return C


def build_tans(p, n_states, spread_policy=SPREAD_SORTED):
    """Quantize ``p`` onto ``n_states`` slots and lay out the C/D tables."""
    if not _is_pow2(n_states):
        raise NotPowerOfTwo(f"{n_states} is not a power of two")
    counts = quantize_counts(p, n_states)
    if spread_policy == SPREAD_SORTED:
        C = _spread_sorted(counts, n_states)
    elif spread_policy == SPREAD_STRIDE:
        C = _spread_stride(counts, n_states)
    else:
        raise ValueError(f"unknown spread policy {spread_policy!r}")
    return TansTable(p.symbols, counts, C)


def tans_encode(table, sequence, initial_state=None):
    """Backward arithmetic encoding; shares the AEDS stream framing, with
    the initial decoder state stored as x - N."""
    n = table.n_states
    x = n if initial_state is None else initial_state
    if not n <= x < 2 * n:
        raise TableError(f"initial state {x} outside N..2N-1")
    indices = symbol_indices(table, sequence)
    values, lengths = [], []
    for s in reversed(indices):
        word, x = table.push(s, x)
        values.append(word.value)
        lengths.append(word.length)
    return Bitstream.assemble(n, x - n, len(indices), values[::-1],
                              lengths[::-1])


def tans_decode(table, stream):
    n = table.n_states
    stream.check_states(n)
    reader = stream.payload_reader()
    x = n + stream.initial_state
    out = []
    for _ in range(stream.length):
        s, y = table.D[x - n]
        # bits needed to lift y back into N..2N-1; exact inverse of push()
        k = 0
        while (y << k) < n:
            k += 1
        x = (y << k) | reader.read(k)
        out.append(table.symbols[s])
    reader.check_padding()
    return out


def tans_to_aeds(table):
    """Rewrite the arithmetic recursion as an explicit state table.

    The resulting AedsTable indexes states densely (state i is x = N + i)
    and produces bit-identical streams for identical initial states.
    """
    n = table.n_states
    x = np.arange(n, 2 * n)[:, None]
    counts = np.array(table.counts)
    k = np.frexp(x // counts)[1] - 1  # floor(lg(x // count))
    first = np.cumsum(counts) - counts  # where each C block starts
    nexts = np.concatenate(table.C)[first + (x >> k) - counts] - n
    return AedsTable(table.symbols, nexts, k, x & ((1 << k) - 1))
