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

from .analysis import q_star, stationary_distribution
from .errors import (
    DegenerateSingleSymbol,
    InvalidWeight,
    NonIntegerRatio,
    NotErgodic,
    NotPowerOfTwo,
    StateBudgetExceeded,
    TableError,
    TooFewStates,
)
from .model import EMPTY_WORD, AedsTable, Codeword, validate_distribution
from .prefix_codes import build_huffman, phased_in_words

_ZERO = Codeword(0, 1)
_ONE = Codeword(1, 1)


# ---------------------------------------------------------------------------
# tree-based layouts


def build_type1(tree, p, n_states):
    """N-state chain: right-subtree symbols walk the chain forward one state
    per symbol (wrapping at the end with one extra bit), left-subtree
    symbols jump home with a phased-in record of the state they left.
    """
    if n_states < 2:
        raise TooFewStates("the chain layout needs at least two states")
    tree = tree.normalized(p)
    right = set(tree.right_symbols())
    contexts = phased_in_words(n_states)
    rows = []
    for j in range(n_states):
        row = []
        for s in p.symbols:
            sub = tree.subtree_codeword(s)
            if s in right:
                if j < n_states - 1:
                    row.append((sub, j + 1))
                else:
                    row.append((_ONE.concat(sub), 0))
            else:
                row.append((_ZERO.concat(contexts[j]).concat(sub), 0))
        rows.append(row)
    return AedsTable(p.symbols, rows)


def build_type2(tree, p):
    """Five-state layout: two left-leaning states and a three-state right
    run, beating the two-state chain for moderately skewed trees."""
    tree = tree.normalized(p)
    right = set(tree.right_symbols())
    w = Codeword.from_bits
    # (right-prefix, right-target), (left-prefix, left-target) per state
    plan = (
        ((w("1"), 2), (w(""), 1)),
        ((w("00"), 2), (w("110"), 0)),
        ((w(""), 3), (w("0"), 0)),
        ((w(""), 4), (w("10"), 0)),
        ((w("01"), 2), (w("111"), 0)),
    )
    rows = []
    for (r_prefix, r_next), (l_prefix, l_next) in plan:
        row = []
        for s in p.symbols:
            sub = tree.subtree_codeword(s)
            if s in right:
                row.append((r_prefix.concat(sub), r_next))
            else:
                row.append((l_prefix.concat(sub), l_next))
        rows.append(row)
    return AedsTable(p.symbols, rows)


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


def _assemble(symbols, n_states, positions, forward, codes):
    """Build the encoder grid from per-state forward sets and codeword lists.

    positions[s][j] is the global id of the j-th state of symbol s;
    forward[s][j] lists the states whose symbol-s transition lands there,
    and codes[s][j] the codeword each of them emits.
    """
    grid = [[None] * len(symbols) for _ in range(n_states)]
    for s in range(len(symbols)):
        for j, x in enumerate(positions[s]):
            if len(forward[s][j]) != len(codes[s][j]):
                raise TableError("forward set and code size differ")
            for x_hat, word in zip(forward[s][j], codes[s][j]):
                if grid[x_hat][s] is not None:
                    raise TableError("forward sets overlap")
                grid[x_hat][s] = (word, x)
    for x, row in enumerate(grid):
        if any(cell is None for cell in row):
            raise TableError(f"state {x} unreachable for some symbol")
    return AedsTable(symbols, grid)


def _rank_codes_by_mass(forward, codes, q):
    """Give the short codewords of every set to its heaviest members.

    The stationary weights depend only on the forward-set structure, so
    re-handing codewords never moves ``q``; this is a single well-defined
    pass.  Ties break on state id.
    """
    out = []
    for fw_s, words_s in zip(forward, codes):
        new = []
        for members, words in zip(fw_s, words_s):
            order = sorted(range(len(members)),
                           key=lambda i: (-q[members[i]], members[i]))
            ranked = sorted(words, key=lambda w: (w.length, w.value))
            assigned = [None] * len(members)
            for rank, i in enumerate(order):
                assigned[i] = ranked[rank]
            new.append(assigned)
        out.append(new)
    return out


def _build_with_mass_ranked_codes(p, counts, forward, codes, order=None):
    """Assemble, solve the chain, then re-hand codewords inside every
    forward set so the short ones sit on the heaviest members."""
    positions = _consecutive_positions(counts, order)
    table = _assemble(p.symbols, sum(counts), positions, forward, codes)
    try:
        report = stationary_distribution(table, p)
    except NotErgodic:
        return table
    codes = _rank_codes_by_mass(forward, codes, report.probs)
    return _assemble(p.symbols, sum(counts), positions, forward, codes)


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
    forward, codes = [], []
    for s, l in enumerate(lengths):
        size = 1 << l
        forward.append([list(range(j * size, (j + 1) * size))
                        for j in range(counts[s])])
        codes.append([[Codeword(i, l) for i in range(size)]
                      for _ in range(counts[s])])
    positions = _consecutive_positions(counts)
    return _assemble(p.symbols, n, positions, forward, codes)


def build_saeds_case1(p, counts):
    """Equal-ratio layout: every forward set of symbol s holds N/N_s states
    and carries a phased-in code."""
    counts = _check_counts(p, counts)
    n = sum(counts)
    for s, c in enumerate(counts):
        if n % c:
            raise NonIntegerRatio(p.symbols[s], n / c)
    forward, codes = [], []
    for s, c in enumerate(counts):
        m = n // c
        words = phased_in_words(m)
        forward.append([list(range(j * m, (j + 1) * m)) for j in range(c)])
        codes.append([list(words) for _ in range(c)])
    return _build_with_mass_ranked_codes(p, counts, forward, codes)


def build_saeds_case2(p, counts):
    """General-ratio layout: forward sets of floor(N/N_s) states, plus
    N mod N_s enlarged ones parked on the tail of the state order.

    A symbol owning more than half the states gets its own block moved to
    the end: its one-state forward sets then cover other symbols' states,
    which keeps those states reachable from the rest of the chain.
    """
    counts = _check_counts(p, counts)
    n = sum(counts)
    forward, codes = [], []
    for s, c in enumerate(counts):
        m, r = divmod(n, c)
        sizes = [m] * (c - r) + [m + 1] * r
        fw, cs, base = [], [], 0
        for size in sizes:
            fw.append(list(range(base, base + size)))
            cs.append(phased_in_words(size))
            base += size
        forward.append(fw)
        codes.append(cs)
    order = sorted(range(len(counts)), key=lambda s: (counts[s] > n // 2, s))
    return _build_with_mass_ranked_codes(p, counts, forward, codes, order)


def _case3_prefix_plan(ns, total_bits):
    """Forward intervals and codeword widths for one symbol of a
    power-of-two layout: carving a phased-in tree of ns leaves out of the
    root of the depth-k complete tree leaves ns fixed-length subtrees.

    Returns [(start, width_bits)] with the narrow forward sets first.
    """
    if ns == 1:
        return [(0, total_bits)]
    ks = (ns - 1).bit_length()
    plan = []
    for v in range(2 * ns - (1 << ks)):          # ks-bit carve: small sets
        plan.append((v << (total_bits - ks), total_bits - ks))
    for v in range(ns - (1 << (ks - 1)), 1 << (ks - 1)):  # (ks-1)-bit carve
        plan.append((v << (total_bits - ks + 1), total_bits - ks + 1))
    return plan


def build_saeds_case3(p, counts):
    """Power-of-two layout: every forward set takes a fixed-length code.

    Mirrors the sorted-interval tANS spread exactly, so converting the
    matching tANS table yields an identical AedsTable.
    """
    counts = _check_counts(p, counts)
    n = sum(counts)
    if n & (n - 1):
        raise NotPowerOfTwo(f"state count {n} is not a power of two")
    k = n.bit_length() - 1
    forward, codes = [], []
    for c in counts:
        fw, cs = [], []
        for start, width in _case3_prefix_plan(c, k):
            size = 1 << width
            fw.append(list(range(start, start + size)))
            cs.append([Codeword(i, width) for i in range(size)])
        forward.append(fw)
        codes.append(cs)
    positions = _consecutive_positions(counts)
    return _assemble(p.symbols, n, positions, forward, codes)


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
    positions: tuple      # positions[s][j] = global id of the j-th state


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
    """Forward sets and codewords of one symbol, in state order
    (narrow group, wide group, then the mixed phased-in set)."""
    kappa = sym.kappa
    forward, codes = [], []
    for j in range(sym.narrow_sets):
        start = sym.short_words + j * (1 << (kappa - 1))
        forward.append(list(range(start, start + (1 << (kappa - 1)))))
        codes.append([Codeword(i, kappa - 1) for i in range(1 << (kappa - 1))])
    for j in range(sym.wide_sets):
        start = sym.head_size + j * (1 << kappa)
        forward.append(list(range(start, start + (1 << kappa))))
        codes.append([Codeword(i, kappa) for i in range(1 << kappa)])
    mixed = list(range(sym.short_words)) + \
        list(range(n - sym.long_words, n))
    words = [Codeword(i, kappa - 1) for i in range(sym.short_words)] + \
        [Codeword(2 * sym.short_words + i, kappa)
         for i in range(sym.long_words)]
    forward.append(mixed)
    codes.append(words)
    return forward, codes


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
    plans = [_large_n_plan(n, sym) for sym in specs]
    target = q_star(n)

    scored = []
    for s, (forward, _) in enumerate(plans):
        for j, members in enumerate(forward):
            mass = p.probs[s] * math.fsum(target[i] for i in members)
            scored.append((-mass, s, j))
    scored.sort()
    positions = [[None] * len(plan[0]) for plan in plans]
    for rank, (_, s, j) in enumerate(scored):
        positions[s][j] = rank

    forward = [plan[0] for plan in plans]
    codes = [plan[1] for plan in plans]
    table = _assemble(p.symbols, n, positions, forward, codes)
    layout = LargeNLayout(n, tuple(specs),
                          tuple(tuple(pos) for pos in positions))
    return table, layout


# ---------------------------------------------------------------------------
# per-state code rebalancing (space-for-rate trade)


def optimize_decoder_codes(table, p):
    """Replace every per-state codeword set by the optimal code for the
    conditional weights the chain actually feeds it.

    The transition structure (and therefore the stationary weights) is
    untouched, so one pass suffices; average length can only shrink, at
    the cost of one bespoke code table per state.
    """
    report = stationary_distribution(table, p)
    q = report.probs
    grid = [[None] * len(table.symbols) for _ in range(table.n_states)]
    for x, entries in enumerate(table.decoder_entries):
        words = [EMPTY_WORD]  # a lone entry needs no bits
        if len(entries) > 1:
            weights = [p.probs[s] * q[origin] for _, s, origin in entries]
            words = build_huffman(
                validate_distribution(enumerate(weights))).codewords()
        for i, (_, s, origin) in enumerate(entries):
            grid[origin][s] = (words[i], x)
    return AedsTable(table.symbols, grid)
