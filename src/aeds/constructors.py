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

import math
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
    PACK_SLICE,
    AedsTable,
    Codeword,
    ergodicity,
    incoming,
    validate_distribution,
    value_dtype,
)
from .prefix_codes import build_huffman, phased_in_cells, phased_in_words
from .tans import TansTable, _spread_sorted, tans_to_aeds

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


def _runs(sizes, start=0):
    """Forward sets of consecutive states, of the given sizes."""
    bounds = np.cumsum([start] + list(sizes)).tolist()
    return [np.arange(a, b) for a, b in zip(bounds, bounds[1:])]


def _assemble(p, n_states, positions, forward, rank=False):
    """The table of a state-divided layout.

    forward[s][j] is the array of states whose symbol-s transition lands
    on state positions[s][j]; they emit the words of the phased-in code of
    the set's size, shortest first, in member order.  With ``rank`` the
    chain is solved first and, if it is ergodic, the short words go to the
    heaviest members (ties by state id); the stationary weights depend on
    the forward sets alone, so ranking never moves them.  The table's
    three arrays are written a group of symbols at a time, about
    ``PACK_SLICE`` cells a group, so nothing else of the size of the
    table is held.
    """
    m = len(p.symbols)
    nexts = np.empty((n_states, m), dtype=np.int32)
    lengths, values = np.empty_like(nexts), np.empty(nexts.shape, np.int64)
    step = max(PACK_SLICE // n_states, 1)
    groups = [range(a, min(a + step, m)) for a in range(0, m, step)]

    def sets_of(group):
        sets = [(x, s, f) for s in group for x, f in zip(positions[s],
                                                         forward[s])]
        sizes = np.array([len(f) for _, _, f in sets])
        return (sets, sizes, np.concatenate([f for _, _, f in sets]),
                np.repeat([s for _, s, _ in sets], sizes))

    for group in groups:
        sets, sizes, members, symbol = sets_of(group)
        cells = members * len(group) + symbol - group.start
        if not np.array_equal(np.sort(cells),
                              np.arange(n_states * len(group))):
            raise TableError("the forward sets of a symbol do not tile "
                             "the states")
        nexts[members, symbol] = np.repeat([x for x, _, _ in sets], sizes)
    q = None
    if rank and ergodicity(nexts, incoming(nexts)).ergodic:
        # Solver rounding breaks ties between near-equal members, so the
        # ranking solver is part of the table's bits: the dense solve up
        # to DIRECT_SOLVE_LIMIT and power iteration above, whatever
        # "auto" takes.
        method = ("direct-solve" if n_states <= DIRECT_SOLVE_LIMIT
                  else "power-iteration")
        q = _solve_chain(nexts, p, method)[0]
    for group in groups:
        sets, sizes, members, symbol = sets_of(group)
        if q is not None:
            set_ids = np.repeat(np.arange(len(sets)), sizes)
            order = np.lexsort((members, -q[members], set_ids))
            members, symbol = members[order], symbol[order]
        values[members, symbol], lengths[members, symbol] = \
            phased_in_cells(sizes)
    for a in (nexts, lengths, values):
        a.flags.writeable = False  # the table keeps them as they are
    return AedsTable(p.symbols, nexts, lengths, values)


# ---------------------------------------------------------------------------
# state-divided layouts


def build_huffman_matching_saeds(p, max_states=1 << 16):
    """State-divided table whose average length equals the Huffman code's.

    Uses 2^lmax states, fixed-length codeword sets of the Huffman lengths;
    every codeword of symbol s costs exactly its Huffman length, so the
    average cannot exceed the Huffman average.
    """
    tree = build_huffman(p)
    lengths = [tree.length_of(s) for s in p.symbols]
    lmax = max(lengths)
    n = 1 << lmax
    if n > max_states:
        raise StateBudgetExceeded(f"{n} states exceed the cap {max_states}")
    counts = [1 << (lmax - l) for l in lengths]
    forward = [_runs([1 << l] * c) for l, c in zip(lengths, counts)]
    return _assemble(p, n, _consecutive_positions(counts), forward)


def build_saeds_case1(p, counts):
    """Equal-ratio layout: every forward set of symbol s holds N/N_s states
    and carries a phased-in code."""
    counts = _check_counts(p, counts)
    n = sum(counts)
    for s, c in enumerate(counts):
        if n % c:
            raise NonIntegerRatio(p.symbols[s], n / c)
    forward = [_runs([n // c] * c) for c in counts]
    return _assemble(p, n, _consecutive_positions(counts), forward, rank=True)


def build_saeds_case2(p, counts):
    """General-ratio layout: forward sets of floor(N/N_s) states, plus
    N mod N_s enlarged ones parked on the tail of the state order.

    A symbol owning more than half the states gets its own block moved to
    the end: its one-state forward sets then cover other symbols' states,
    which keeps those states reachable from the rest of the chain.
    """
    counts = _check_counts(p, counts)
    n = sum(counts)
    forward = []
    for c in counts:
        m, r = divmod(n, c)
        forward.append(_runs([m] * (c - r) + [m + 1] * r))
    order = sorted(range(len(counts)), key=lambda s: (counts[s] > n // 2, s))
    return _assemble(p, n, _consecutive_positions(counts, order), forward,
                     rank=True)


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
    kappa = 0
    while (ns << kappa) < n:
        kappa += 1
    if kappa == 0:
        raise DegenerateSingleSymbol("one symbol would own every state")
    head = (ns << kappa) - n
    narrow, short = divmod(head, 1 << (kappa - 1))
    wide = ns - narrow - 1
    long_words = (1 << kappa) - 2 * short
    return SymbolLayout(kappa, narrow, short, wide, long_words, head)


def _large_n_plan(n, sym):
    """Forward sets of one symbol, in state order: the narrow group, the
    wide group, then the mixed set.  Each set takes the phased-in code of
    its size; the mixed set's short words go to its leading states."""
    half = 1 << (sym.kappa - 1)
    forward = _runs([half] * sym.narrow_sets, sym.short_words)
    forward += _runs([2 * half] * sym.wide_sets, sym.head_size)
    forward.append(np.concatenate((np.arange(sym.short_words),
                                   np.arange(n - sym.long_words, n))))
    return forward


def build_large_n(p, counts):
    """Interval layout whose average length approaches the entropy like 1/N.

    States are ranked by the mass their forward set would carry under the
    telescoping target weights, which is the descending-probability order
    the layout aims for; the solved chain is checked against that target
    a posteriori by ``analysis.check_bound``.
    """
    counts = _check_counts(p, counts)
    if len(counts) < 2:
        raise DegenerateSingleSymbol("need at least two symbols")
    n = sum(counts)
    specs = [_symbol_layout(n, c) for c in counts]
    forward = [_large_n_plan(n, sym) for sym in specs]
    target = np.array(q_star(n))

    scored = []
    for s, sets in enumerate(forward):
        for j, members in enumerate(sets):
            mass = p.probs[s] * math.fsum(target[members].tolist())
            scored.append((-mass, s, j))
    scored.sort()
    positions = [[None] * len(sets) for sets in forward]
    for rank, (_, s, j) in enumerate(scored):
        positions[s][j] = rank

    table = _assemble(p, n, positions, forward)
    return table, LargeNLayout(n, tuple(specs))


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
