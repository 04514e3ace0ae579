"""Tabled ANS: integer states N..2N-1, the correspondence table C, and the
lossless embedding into an AedsTable.

``build_tans`` lays out the sorted spread, whose embedding is the case-3
state-divided table; ``constructors.build_saeds_case3`` builds that table
through ``tans_to_aeds``.  State counts must be powers of two here; the
table constructors in ``constructors`` cover general N.
"""

import numpy as np

from .errors import NotPowerOfTwo, TableError, TooFewStates
from .model import AedsTable


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
    For N = 2^R and a j-bit count, k = R - j + [x >= count << (R - j + 1)].
    The resulting AedsTable indexes states densely (state i is x = N + i)
    and produces the streams of that recursion bit for bit.
    """
    n = table.n_states
    x = np.arange(n, 2 * n)[:, None]
    counts = np.array(table.counts)
    k = n.bit_length() - 1 - np.frexp(counts)[1]  # R - j
    k = k + (x >= counts << (k + 1))
    first = np.cumsum(counts) - counts  # where each C block starts
    nexts = np.concatenate(table.C)[first + (x >> k) - counts] - n
    return AedsTable(table.symbols, nexts, k, x & ((1 << k) - 1))
