"""Tabled ANS: integer states N..2N-1, the correspondence table C, and the
lossless embedding into an AedsTable.

``build_tans`` lays out the sorted spread, whose embedding is the case-3
state-divided table; ``constructors.build_saeds_case3`` builds that table
through ``tans_to_aeds``.  ``TansTable`` and ``build_tans`` take powers of
two only; the embedding, ``_spread_table``, takes any N and reads no
float, and assembles ``constructors.build_large_n``'s ranked spreads too.
"""

import heapq

import numpy as np

from .errors import NotPowerOfTwo, TableError, TooFewStates
from .model import AedsTable, row_slices


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def quantize_counts(p, n_states):
    """Integer per-symbol state counts with sum N and every count >= 1.

    Largest-remainder apportionment of p(s)*N, ties broken by symbol index;
    zero counts, lowest index first, each borrow from the most over-allocated
    symbol with more than one state, which a heap keeps at hand.
    """
    m = len(p.symbols)
    if n_states < m:
        raise TooFewStates(f"{n_states} states cannot cover {m} symbols")
    targets = [q * n_states for q in p.probs]
    counts = [int(t) for t in targets]
    leftovers = sorted(range(m), key=lambda i: (-(targets[i] - counts[i]), i))
    for i in leftovers[:n_states - sum(counts)]:
        counts[i] += 1
    donors = [(targets[i] - c, i) for i, c in enumerate(counts) if c > 1]
    heapq.heapify(donors)
    for needy in [i for i, c in enumerate(counts) if c == 0]:
        donor = heapq.heappop(donors)[1]
        counts[needy], counts[donor] = 1, counts[donor] - 1
        if counts[donor] > 1:
            heapq.heappush(donors, (targets[donor] - counts[donor], donor))
    return counts


class TansTable:
    """A tANS instance: N, per-symbol counts, and the C correspondence.

    ``C[s][y - counts[s]]`` is the state x reached by pushing symbol s at
    slot y; every state of N..2N-1 appears exactly once.  N is the sum of
    the counts.
    """

    __slots__ = ("symbols", "n_states", "counts", "C")

    def __init__(self, symbols, counts, C):
        symbols = tuple(symbols)
        counts = tuple(counts)
        n = sum(counts)
        if len(symbols) != len(counts):
            raise TableError(f"{len(symbols)} symbols but "
                             f"{len(counts)} counts")
        if not _is_pow2(n):
            raise NotPowerOfTwo(f"state count {n} is not a power of two")
        if any(c < 1 for c in counts):
            raise TableError("counts must be positive")
        if len(C) != len(counts):
            raise TableError("C needs one block per count")
        # the blocks hold sum(counts) = N states, so placing each state of
        # N..2N-1 at most once places every one of them exactly once
        placed = bytearray(n)
        for s, block in enumerate(C):
            if len(block) != counts[s]:
                raise TableError("C block size mismatch")
            for x in block:
                if not n <= x < 2 * n:
                    raise TableError(f"state {x} outside N..2N-1")
                if placed[x - n]:
                    raise TableError(f"state {x} placed twice")
                placed[x - n] = 1
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "n_states", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "C", tuple(tuple(b) for b in C))

    def __setattr__(self, *_):
        raise AttributeError("TansTable is immutable")


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


def build_tans(p, n_states):
    """Quantize ``p`` onto ``n_states`` slots and lay out the sorted
    spread."""
    if not _is_pow2(n_states):
        raise NotPowerOfTwo(f"{n_states} is not a power of two")
    counts = quantize_counts(p, n_states)
    return TansTable(p.symbols, counts, _spread_sorted(counts, n_states))


def tans_to_aeds(table):
    """Rewrite the arithmetic recursion as an explicit state table.

    Pushing symbol s at state x emits the low k bits of x, where
    k = floor(lg(x // counts[s])), and moves to C[s][(x >> k) - counts[s]].
    Its AedsTable (state i is x = N + i) gives that recursion's streams bit
    for bit; ``_spread_table`` assembles it, and large-n's, from integers.
    """
    return _spread_table(table.symbols, table.counts,
                         np.concatenate(table.C) - table.n_states)


def _spread_table(symbols, counts, targets):
    """The table of the tANS recursion on N = sum(counts) states, any N,
    from integers alone: pushing symbol s at slot y moves to the dense
    state ``targets[first[s] + y - counts[s]]``, first[s] the counts before
    s.  With K = floor(lg(N // counts[s])), state x takes k = K + [x >=
    counts[s] << (K + 1)] bits and emits x & (2^k - 1), except when 2^K
    does not divide N: then the slot N >> K also holds the top states,
    reached through 2N, and emits its phased-in code, words x - N first."""
    counts = np.asarray(counts, dtype=np.int32)  # x < 2N fits int32 too
    n, m = int(counts.sum()), len(counts)
    K = np.frexp(n // counts)[1] - 1
    base = np.cumsum(counts) - 2 * counts  # targets index of slot y: base + y
    nexts = np.empty((n, m), dtype=np.int32)
    lengths, values = np.empty_like(nexts), np.empty(nexts.shape, np.int64)
    for rows in row_slices(n, m):
        x = np.arange(n + rows.start, n + min(rows.stop, n),
                      dtype=np.int32)[:, None]
        k = K + (x >= counts << (K + 1))
        nexts[rows], lengths[rows] = targets[base + (x >> k)], k
        values[rows] = x & ((1 << k) - 1)
    for s in np.flatnonzero(n % (1 << K)).tolist():
        short, top = (((n >> K[s]) + 1) << K[s]) - n, 2 << K[s]
        values[:short, s] = np.arange(short)
        values[n - top + 2 * short:, s] = np.arange(2 * short, top)
    for a in (nexts, lengths, values):
        a.flags.writeable = False  # the table keeps them as they are
    return AedsTable(symbols, nexts, lengths, values)
