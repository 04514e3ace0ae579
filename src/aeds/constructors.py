"""Builders for every table layout in the toolkit.

Two families:

* tree-based tables: an N-state chain layout and a five-state layout, both
  driven by an arbitrary prefix code tree normalized so the right subtree
  carries at least half the probability mass;
* state-divided tables: per-symbol state blocks whose forward sets tile the
  state space, with phased-in or fixed-length codeword sets per state.

Builders return plain AedsTable objects (plus a layout record for the
large-N variant); ``codec.validate_aeds`` accepts everything built here.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import (DIRECT_SOLVE_LIMIT, _solve_chain, q_star,
                       stationary_distribution)
from .errors import (
    DegenerateSingleSymbol,
    InvalidWeight,
    NonIntegerRatio,
    StateBudgetExceeded,
    TableError,
    TooFewStates,
)
from .model import (
    EMPTY_WORD,
    AedsTable,
    Codeword,
    ergodicity,
    incoming,
    validate_distribution,
    value_dtype,
)
from .prefix_codes import build_huffman, phased_in_cells, phased_in_words
from .tans import TansTable, _spread_sorted, _spread_table, tans_to_aeds

_ZERO = Codeword(0, 1)
_ONE = Codeword(1, 1)


# ---------------------------------------------------------------------------
# tree-based layouts


def _tree_layout(tree, p, plan):
    """Table of a tree-based layout.  At state x a symbol of the right
    (left) root subtree emits the prefix of ``plan[x][0]`` (``plan[x][1]``)
    followed by its codeword inside that subtree, and moves to that pair's
    next state."""
    tree = tree.normalized(p)
    right = set(tree.right_symbols())
    side = [0 if s in right else 1 for s in p.symbols]
    subs = [tree.subtree_codeword(s) for s in p.symbols]
    sub_lengths = np.array([w.length for w in subs])
    lengths = np.array([[w.length for w, _ in pair] for pair in plan])[:, side]
    lengths += sub_lengths
    dtype = value_dtype(lengths)
    prefixes = np.array([[w.value for w, _ in pair] for pair in plan],
                        dtype=dtype)[:, side]
    values = ((prefixes << sub_lengths)
              | np.array([w.value for w in subs], dtype=dtype))
    nexts = np.array([[x for _, x in pair] for pair in plan])[:, side]
    return AedsTable(p.symbols, nexts, lengths, values)


def build_prefix_table(tree, p):
    """Plain prefix coding with ``tree.normalized(p)`` as a one-state table."""
    return _tree_layout(tree, p, (((_ONE, 0), (_ZERO, 0)),))


def build_type1(tree, p, n_states):
    """N-state chain: right-subtree symbols walk the chain forward one state
    per symbol (wrapping at the end with one extra bit), left-subtree
    symbols jump home with a phased-in record of the state they left.
    """
    if n_states < 2:
        raise TooFewStates("the chain layout needs at least two states")
    contexts = phased_in_words(n_states)
    plan = [((EMPTY_WORD, j + 1) if j < n_states - 1 else (_ONE, 0),
             (_ZERO.concat(contexts[j]), 0)) for j in range(n_states)]
    return _tree_layout(tree, p, plan)


def build_type2(tree, p):
    """Five-state layout: two left-leaning states and a three-state right
    run, beating the two-state chain for moderately skewed trees."""
    w = Codeword.from_bits
    # (right-prefix, right-target), (left-prefix, left-target) per state
    plan = (
        ((w("1"), 2), (w(""), 1)),
        ((w("00"), 2), (w("110"), 0)),
        ((w(""), 3), (w("0"), 0)),
        ((w(""), 4), (w("10"), 0)),
        ((w("01"), 2), (w("111"), 0)),
    )
    return _tree_layout(tree, p, plan)


# ---------------------------------------------------------------------------
# state-divided scaffolding


def _check_counts(p, counts):
    counts = [int(c) for c in counts]
    if len(counts) != len(p.symbols):
        raise InvalidWeight("need one state count per symbol")
    if any(c < 1 for c in counts):
        raise InvalidWeight("every state count must be at least one")
    return counts


def _consecutive_positions(counts, order=None):
    """Block of states for each symbol, blocks laid out in ``order``
    (symbol order by default)."""
    positions = [None] * len(counts)
    base = 0
    for s in (order if order is not None else range(len(counts))):
        positions[s] = list(range(base, base + counts[s]))
        base += counts[s]
    return positions


def _assemble(p, n_states, positions, sizes):
    """The table of a state-divided layout whose forward sets are runs.

    For each symbol s the states 0..N-1 are cut into runs of the sizes
    ``sizes[s]``; the symbol-s transition of the j-th run lands on state
    positions[s][j], and its members emit the phased-in code of its size,
    shortest words first, in state order; if the chain is ergodic, the
    short words go to the heaviest members by its solved weights (ties by
    state id), which depend on the forward sets alone.
    """
    if any(sum(runs) != n_states for runs in sizes):
        raise TableError("the runs of a symbol do not tile the states")
    m = len(p.symbols)
    nexts = np.empty((n_states, m), dtype=np.int32)
    lengths, values = np.empty_like(nexts), np.empty(nexts.shape, np.int64)
    for s in range(m):
        nexts[:, s] = np.repeat(positions[s], sizes[s])
    q = None
    if ergodicity(nexts, incoming(nexts)).ergodic:
        # Solver rounding breaks ties between near-equal members, so the
        # ranking solver is part of the table's bits: the dense solve up
        # to DIRECT_SOLVE_LIMIT and power iteration above, whatever
        # "auto" takes.
        method = ("direct-solve" if n_states <= DIRECT_SOLVE_LIMIT
                  else "power-iteration")
        q = _solve_chain(nexts, p, method)[0]
    for s in range(m):
        rows = np.arange(n_states)
        if q is not None:
            runs = np.repeat(np.arange(len(sizes[s])), sizes[s])
            rows = np.lexsort((rows, -q, runs))
        values[rows, s], lengths[rows, s] = phased_in_cells(sizes[s])
    for a in (nexts, lengths, values):
        a.flags.writeable = False  # the table keeps them as they are
    return AedsTable(p.symbols, nexts, lengths, values)


# ---------------------------------------------------------------------------
# state-divided layouts


def build_huffman_matching_saeds(p, max_states=1 << 16):
    """State-divided table whose average length equals the Huffman code's.

    Uses 2^lmax states, fixed-length codeword sets of the Huffman lengths;
    every codeword of symbol s costs exactly its Huffman length, so the
    average cannot exceed the Huffman average.  It is the tANS table of
    the spread that gives each symbol a block of consecutive states.
    """
    tree = build_huffman(p)
    lengths = [tree.length_of(s) for s in p.symbols]
    lmax = max(lengths)
    n = 1 << lmax
    if n > max_states:
        raise StateBudgetExceeded(f"{n} states exceed the cap {max_states}")
    counts = [1 << (lmax - l) for l in lengths]
    return _spread_table(p.symbols, counts, np.arange(n))


def build_saeds_case1(p, counts):
    """Equal-ratio layout: every forward set of symbol s holds N/N_s states
    and carries a phased-in code."""
    counts = _check_counts(p, counts)
    n = sum(counts)
    for s, c in enumerate(counts):
        if n % c:
            raise NonIntegerRatio(p.symbols[s], n / c)
    sizes = [[n // c] * c for c in counts]
    return _assemble(p, n, _consecutive_positions(counts), sizes)


def build_saeds_case2(p, counts):
    """General-ratio layout: forward sets of floor(N/N_s) states, plus
    N mod N_s enlarged ones parked on the tail of the state order.

    A symbol owning more than half the states gets its own block moved to
    the end: its one-state forward sets then cover other symbols' states,
    which keeps those states reachable from the rest of the chain.
    """
    counts = _check_counts(p, counts)
    n = sum(counts)
    sizes = []
    for c in counts:
        m, r = divmod(n, c)
        sizes.append([m] * (c - r) + [m + 1] * r)
    order = sorted(range(len(counts)), key=lambda s: (counts[s] > n // 2, s))
    return _assemble(p, n, _consecutive_positions(counts, order), sizes)


def build_saeds_case3(p, counts):
    """Power-of-two layout: every forward set takes a fixed-length code.

    This is the tANS table of the sorted spread (Duda, arXiv:1311.2540),
    so it is built by that closed form: a block of N_s consecutive states
    per symbol, whose forward sets are runs of 2^k states with k-bit
    codes, the narrow runs on the block's first states.  ``TansTable``
    raises NotPowerOfTwo unless the counts sum to a power of two.
    """
    counts = _check_counts(p, counts)
    return tans_to_aeds(TansTable(p.symbols, counts,
                                  _spread_sorted(counts, sum(counts))))


# ---------------------------------------------------------------------------
# large-N layout


@dataclass(frozen=True)
class SymbolLayout:
    """Interval plan of one symbol in the large-N layout.

    ``head_size`` is the number of leading (heavy) states reached with the
    short width; the remaining states take one bit more.  The group sizes
    satisfy 2*short_sets + long_words = 2^kappa and
    narrow + wide + 1 = state count.
    """
    kappa: int
    narrow_sets: int      # forward sets of 2^(kappa-1) states
    short_words: int      # short codewords of the mixed final set
    wide_sets: int        # forward sets of 2^kappa states
    long_words: int       # long codewords of the mixed final set
    head_size: int


@dataclass(frozen=True)
class LargeNLayout:
    n_states: int
    per_symbol: tuple


def _symbol_layout(n, ns):
    kappa = ((n - 1) // ns).bit_length()  # least with ns << kappa >= n
    if kappa == 0:
        raise DegenerateSingleSymbol("one symbol would own every state")
    head = (ns << kappa) - n
    narrow, short = divmod(head, 1 << (kappa - 1))
    return SymbolLayout(kappa, narrow, short, ns - narrow - 1,
                        (1 << kappa) - 2 * short, head)


def _large_n_spread(p, counts):
    """The rank of each tANS slot (s, y), in ``tans._spread_table``'s
    order, by (-mass, s, j): p_s times the ``q_star(N)`` weights of its
    states x = N + i in [y << k, (y + 1) << k), and in the slot y0 = N >> K
    also from y0 << (K + 1) to 2N, summed exactly and rounded once, as
    ``math.fsum`` does; j counts the slots of s from y0 on, cyclically."""
    counts = np.asarray(counts, dtype=np.int64)
    n, m = int(counts.sum()), len(counts)
    frac, exp = np.frexp(q_star(n))  # weight i is v[i] * 2^scale exactly
    scale = int(exp.min()) - 53
    v = np.ldexp(frac, exp - scale).astype(np.int64)  # summed in 32-bit limbs
    sums = [np.concatenate(([0], np.cumsum(a))) for a in (v >> 32, v % 2**32)]
    s = np.repeat(np.arange(m), counts)
    K = (np.frexp(n // counts)[1] - 1)[s]
    c, y0 = counts[s], n >> K
    y = np.arange(n) - (np.cumsum(counts) - counts)[s] + c
    k = K + (y < y0)
    ends = (((y + 1) << k) - n, np.maximum(y << k, n) - n, n,
            np.where(y == y0, (y0 << (K + 1)) - n, n))
    hi, lo = (a[ends[0]] - a[ends[1]] + a[ends[2]] - a[ends[3]] for a in sums)
    # carried, both limbs are exact floats (N < 2^30): the sum rounds once
    hi, lo = hi + (lo >> 32), lo % 2**32
    mass = np.asarray(p.probs)[s] * np.ldexp(hi * 2.0**32 + lo, scale)
    j = (y - y0 - (n % (1 << K) > 0)) % c
    return np.argsort(np.lexsort((j, s, -mass)))  # the inverse order


def build_large_n(p, counts):
    """Interval layout whose average length approaches the entropy like 1/N.

    This is the tANS table of a ranked spread: states are ranked by the
    mass their forward set would carry under the telescoping target
    weights, which is the descending-probability order the layout aims
    for, and the table is assembled from that spread with integers alone
    (``tans._spread_table``).  The solved chain is checked against the
    target a posteriori by ``analysis.check_bound``.
    """
    counts = _check_counts(p, counts)
    if len(counts) < 2:
        raise DegenerateSingleSymbol("need at least two symbols")
    n = sum(counts)
    layout = LargeNLayout(n, tuple(_symbol_layout(n, c) for c in counts))
    return _spread_table(p.symbols, counts, _large_n_spread(p, counts)), layout


# ---------------------------------------------------------------------------
# per-state code rebalancing (space-for-rate trade)


def optimize_decoder_codes(table, p):
    """Replace every per-state codeword set by the optimal code for the
    conditional weights the chain actually feeds it.

    The transition structure (and therefore the stationary weights) is
    untouched, so one pass suffices; average length can only shrink, at
    the cost of one bespoke code table per state.
    """
    q = stationary_distribution(table, p).probs
    m = len(table.symbols)
    order, bounds = table._grouping()
    lengths = np.zeros(table.nexts.size, dtype=np.int64)
    values = np.zeros(table.nexts.size, dtype=object)
    for a, b in zip(bounds.tolist(), bounds[1:].tolist()):
        cells = order[a:b].tolist()
        if len(cells) > 1:  # a lone entry needs no bits
            code = build_huffman(validate_distribution(
                (i, p.probs[c % m] * q[c // m])
                for i, c in enumerate(cells))).codewords()
            for i, c in enumerate(cells):
                lengths[c], values[c] = code[i].length, code[i].value
    shape = table.nexts.shape
    return AedsTable(table.symbols, table.nexts, lengths.reshape(shape),
                     values.reshape(shape))
