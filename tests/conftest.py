"""Shared helpers: random sources, random well-formed tables, oracles
(among them the bit-by-bit decoder and the slot oracle of the decoder
index), and a traced memory peak."""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest

from aeds.analysis import q_star
from aeds.codec import (STREAM_MAGIC, STREAM_VERSION, Bitstream,
                        _backward_pass, _leb128, state_index_bits,
                        symbol_indices)
from aeds.constructors import _symbol_layout
from aeds.errors import (TableError, TrailingGarbage, TruncatedStream,
                         UnmatchedCodeword)
from aeds.model import (LOOKUP_BITS, WINDOW_SLOTS, AedsTable, Codeword,
                        SourceDistribution)
from aeds.prefix_codes import phased_in_words
from aeds.tans import TansTable, build_tans, quantize_counts


def random_source(rng, n_symbols=None, symbols=None):
    if symbols is None:
        n_symbols = n_symbols or rng.randint(2, 6)
        symbols = [f"s{i}" for i in range(n_symbols)]
    weights = [rng.uniform(0.05, 1.0) for _ in symbols]
    total = sum(weights)
    return SourceDistribution(symbols, [w / total for w in weights])


def random_prefix_words(rng, count):
    """A random complete prefix code with ``count`` words (count=1 gives
    the empty word), built by random splits of a full binary tree."""
    if count == 1:
        return [Codeword(0, 0)]
    left = rng.randint(1, count - 1)
    out = []
    for branch, size in ((0, left), (1, count - left)):
        for w in random_prefix_words(rng, size):
            out.append(Codeword((branch << w.length) | w.value, w.length + 1))
    return out


def random_table(rng, n_states=None, n_symbols=None, require_ergodic=True):
    """A random well-formed table: random transition targets (every state
    reachable), then a random prefix code on each state's incoming edges."""
    for _ in range(200):
        n = n_states or rng.randint(2, 6)
        m = n_symbols or rng.randint(2, 5)
        targets = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
        incoming = [[] for _ in range(n)]
        for x in range(n):
            for s in range(m):
                incoming[targets[x][s]].append((x, s))
        if any(not inc for inc in incoming):
            continue
        grid = [[None] * m for _ in range(n)]
        for x, inc in enumerate(incoming):
            words = random_prefix_words(rng, len(inc))
            rng.shuffle(words)
            for (origin, s), word in zip(inc, words):
                grid[origin][s] = (word, x)
        table = AedsTable.from_rows([f"s{i}" for i in range(m)], grid)
        if not require_ergodic:
            return table
        if table.ergodicity().ergodic:
            return table
    raise RuntimeError("could not draw an ergodic table")


def random_sequence(rng, p, length):
    return rng.choices(p.symbols, weights=p.probs, k=length)


def trace_lengths(table, sequence, initial_state=0):
    """Per-symbol codeword lengths of an encode from a pinned start state,
    independent of the bit writer."""
    cells = _backward_pass(table.nexts, symbol_indices(table, sequence),
                           initial_state)[1]
    return table.lengths.ravel()[cells].tolist()


def traced_peak(fn):
    """``fn()`` and the peak, in bytes, of the memory traced while it ran
    above what was traced at its start, from a collected heap."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# ---------------------------------------------------------------------------
# independent oracles


def serial_encode(table, sequence, initial_state=0):
    """The stream ``encode`` writes, built one symbol at a time: the
    backward recursion over ``table.encoder``, then the header and the
    codewords in forward order as a "0101" string, without BitWriter."""
    x, words = initial_state, []
    for symbol in reversed(sequence):
        word, x = table.encoder[x][table.symbol_index(symbol)]
        words.append(word.bits)
    n = table.n_states
    head = STREAM_MAGIC + bytes([STREAM_VERSION]) + _leb128(n)
    bits = "".join(format(b, "08b") for b in head)
    bits += format(x, f"0{state_index_bits(n)}b") if n > 1 else ""
    bits += "".join(format(b, "08b") for b in _leb128(len(sequence)))
    bits += "".join(reversed(words))
    bits += "0" * (-len(bits) % 8)
    return Bitstream(int(bits, 2).to_bytes(len(bits) // 8, "big"))


def codeword_maps(table):
    """Per state, the map (value, length) -> (symbol index, origin)."""
    return [{(w.value, w.length): (s, origin) for w, s, origin in entries}
            for entries in table.decoder_entries]


def reference_decode(table, stream):
    """The symbols of ``stream``, decoded one payload bit at a time: a
    prefix grows until it is a codeword of the current state, straight
    from ``decoder_entries``, so no decoder index is involved; raises the
    decoders' errors with their messages."""
    # per state: each codeword (value, length) -> (symbol index, origin),
    # and each proper prefix of one -> None
    parse = [{(w.value >> (w.length - d), d): None
              for w, _, _ in entries for d in range(w.length)} | words
             for entries, words in zip(table.decoder_entries,
                                       codeword_maps(table))]
    bits = np.unpackbits(np.frombuffer(stream.data, np.uint8))
    bits = bits[stream.payload_start:].tolist()
    x, out, at = stream.initial_state, [], 0
    for _ in range(stream.length):
        value = depth = 0
        while (leaf := parse[x].get((value, depth), False)) is None:
            if at == len(bits):
                raise TruncatedStream("bit stream exhausted")
            value = (value << 1) | bits[at]
            at, depth = at + 1, depth + 1
        if leaf is False:
            raise UnmatchedCodeword(
                x, format(value, f"0{depth}b") if depth else "")
        s, x = leaf
        out.append(table.symbols[s])
    if len(bits) - at >= 8:
        raise TrailingGarbage(f"{len(bits) - at} bits after the payload")
    if any(bits[at:]):
        raise TrailingGarbage("nonzero padding bits")
    return out


def window_widths(windows):
    """The width w of each window named ``base << 11 | (64 - w) << 4``."""
    return (64 - (windows >> 4 & 127)).tolist()


def window_width(table, x):
    """k: ``LOOKUP_BITS`` within the slot budget, else the smallest of the
    longest codeword, ``LOOKUP_BITS`` and the bit length of the count."""
    if table.n_states << LOOKUP_BITS <= WINDOW_SLOTS:
        return LOOKUP_BITS
    entries = table.decoder_entries[x]
    return min(max((w.length for w, _, _ in entries), default=0),
               LOOKUP_BITS, len(entries).bit_length())


def check_index(table):
    """The slot oracle of the decoder index: the first-level window of
    every state is ``window_width`` wide, and ``check_window`` holds for
    it."""
    windows = table.decoding_tries()[2]
    assert window_widths(windows) == [window_width(table, x)
                                      for x in range(table.n_states)]
    words = codeword_maps(table)
    for x, name in enumerate(windows.tolist()):
        check_window(table, words, x, name)


def check_window(table, words, x, name):
    """Every slot of state x's window ``name``, and of each sub-window it
    steps into, against x's codeword set ``words[x]``.  In a window of w
    slot bits read after the ``depth`` bits ``prefix`` of a codeword, the
    slot that a codeword of x continues and ends holds its symbol, its
    remaining bits and its state's window; one that longer codewords
    continue steps into a sub-window as wide as the smallest of their
    longest remainder, ``LOOKUP_BITS`` and the bit length of their count,
    which is checked in turn (from a stack: a chain of sub-windows may be
    thousands deep); any other slot is dead."""
    entries, codes, windows, _, _ = table.decoding_tries()
    m = len(table.symbols)
    todo = [(name, 0, 0)]
    while todo:
        name, prefix, depth = todo.pop()
        base, w = name >> 11, 64 - (name >> 4 & 127)
        for i in range(1 << w):
            bits, end = (prefix << w) | i, depth + w
            entry, code = int(entries[base + i]), int(codes[base + i])
            ends = [(n, s, origin) for (v, n), (s, origin) in words[x].items()
                    if depth <= n <= end and v == bits >> (end - n)]
            longer = [n for v, n in words[x]
                      if n > end and v >> (n - end) == bits]
            if ends:
                (n, s, origin), = ends
                assert (code, entry) == (s, int(windows[origin]) | n - depth)
            elif longer:
                sub = entry >> 4 << 4
                assert code == m and entry & 15 == w and sub >> 11 >= len(
                    windows) and 64 - (sub >> 4 & 127) == min(
                        max(longer) - end, LOOKUP_BITS,
                        len(longer).bit_length())
                todo.append((sub, bits, end))
            else:
                assert (code, entry) == (m + 1, name | 1)


def huffman_oracle_mean(probs, max_len=10):
    """Minimum average length over every full binary tree shape, assigning
    sorted depths to sorted probabilities (exhaustive optimality oracle)."""
    shapes = depth_multisets(len(probs), max_len)
    by_prob = sorted(probs, reverse=True)
    best = math.inf
    for depths in shapes:
        cost = sum(p * d for p, d in zip(by_prob, sorted(depths)))
        best = min(best, cost)
    return best


def depth_multisets(leaves, max_len, _cache={}):
    """All distinct leaf-depth multisets of full binary trees."""
    key = (leaves, max_len)
    if key in _cache:
        return _cache[key]
    if leaves == 1:
        result = {(0,)}
    else:
        result = set()
        for left in range(1, leaves // 2 + 1):
            for a in depth_multisets(left, max_len - 1):
                for b in depth_multisets(leaves - left, max_len - 1):
                    merged = tuple(sorted(d + 1 for d in a + b))
                    if merged[-1] <= max_len:
                        result.add(merged)
    _cache[key] = result
    return result


@pytest.fixture
def rng():
    return random.Random(0xAED5)


# ---------------------------------------------------------------------------
# native tANS (Duda, arXiv:1311.2540): the arithmetic recursion on states
# N..2N-1 that ``tans_to_aeds`` rewrites as a table


def tans_push(table, s, x):
    """One backward step: (symbol index, state) -> (codeword, state)."""
    ns = table.counts[s]
    k = (x // ns).bit_length() - 1
    return Codeword(x & ((1 << k) - 1), k), table.C[s][(x >> k) - ns]


def tans_inverse(table):
    """D[x - N] = (s, y): the symbol and slot that C maps to state x."""
    n = table.n_states
    D = [None] * n
    for s, block in enumerate(table.C):
        for y, x in enumerate(block, table.counts[s]):
            D[x - n] = (s, y)
    return D


def tans_encode(table, sequence, initial_state=None):
    """Backward arithmetic encoding in the AEDS stream framing, with the
    initial decoder state stored as x - N."""
    n = table.n_states
    x = n if initial_state is None else initial_state
    if not n <= x < 2 * n:
        raise TableError(f"initial state {x} outside N..2N-1")
    index = {s: i for i, s in enumerate(table.symbols)}
    values, lengths = [], []
    for symbol in reversed(sequence):
        word, x = tans_push(table, index[symbol], x)
        values.append(word.value)
        lengths.append(word.length)
    return Bitstream.assemble(n, x - n, len(sequence), values[::-1],
                              lengths[::-1])


def tans_decode(table, stream):
    n = table.n_states
    stream.check_states(n)
    D = tans_inverse(table)
    reader = stream.payload_reader()
    x = n + stream.initial_state
    out = []
    for _ in range(stream.length):
        s, y = D[x - n]
        # bits needed to lift y back into N..2N-1; the inverse of tans_push
        k = 0
        while (y << k) < n:
            k += 1
        x = (y << k) | reader.read(k)
        out.append(table.symbols[s])
    reader.check_padding()
    return out


def spread_stride(counts, n):
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


def build_stride_tans(p, n):
    counts = quantize_counts(p, n)
    return TansTable(p.symbols, counts, spread_stride(counts, n))


SPREADS = (build_tans, build_stride_tans)


# ---------------------------------------------------------------------------
# the case-3 table from the paper's definition


def case3_prefix_plan(ns, total_bits):
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


def case3_by_definition(symbols, counts):
    """The case-3 table on N = sum(counts) = 2^k states: symbol s owns a
    block of counts[s] consecutive states, the j-th of which is entered
    from the j-th interval of ``case3_prefix_plan``, each member of that
    interval emitting its offset in as many bits as the interval is wide."""
    n = sum(counts)
    k = n.bit_length() - 1
    nexts, lengths, values = np.zeros((3, n, len(counts)), dtype=np.int64)
    base = 0
    for s, ns in enumerate(counts):
        for j, (start, width) in enumerate(case3_prefix_plan(ns, k)):
            run = slice(start, start + (1 << width))
            nexts[run, s] = base + j
            lengths[run, s] = width
            values[run, s] = np.arange(1 << width)
        base += ns
    return AedsTable(symbols, nexts, lengths, values)


# ---------------------------------------------------------------------------
# quantizer and large-N builder as they were first written


def quantize_counts_by_scan(p, n_states):
    """``tans.quantize_counts`` with its zero repair as a scan: each zero
    count, lowest index first, borrows from the most over-allocated
    symbol with more than one state, found by looking at every symbol."""
    m = len(p.symbols)
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


def large_n_forward_sets(n, sym):
    """Forward sets of one symbol of the large-N layout, in state order:
    the narrow group, the wide group, then the mixed set.  Each set takes
    the phased-in code of its size; the mixed set's short words go to its
    leading states."""
    half = 1 << (sym.kappa - 1)
    forward = [np.arange(a, a + half) for a in range(
        sym.short_words, sym.head_size, half)]
    forward += [np.arange(a, a + 2 * half) for a in range(
        sym.head_size, n - sym.long_words, 2 * half)]
    forward.append(np.concatenate((np.arange(sym.short_words),
                                   np.arange(n - sym.long_words, n))))
    return forward


def large_n_by_forward_sets(p, counts):
    """The large-N table built from its materialized forward sets: each
    set ranked by (-mass, s, j), its mass p_s times the ``math.fsum`` of
    its ``q_star`` weights, and its members given the words of the
    phased-in code of its size in member order.  Returns the table and the
    rank of each tANS slot (s, y) at index first[s] + y - counts[s], each
    set's slot read off one of its states x = N + i as
    x >> floor(lg(x // counts[s]))."""
    n = sum(counts)
    forward = [large_n_forward_sets(n, _symbol_layout(n, c))
               for c in counts]
    target = np.array(q_star(n))
    scored = sorted((-(p.probs[s] * math.fsum(target[members].tolist())),
                     s, j)
                    for s, sets in enumerate(forward)
                    for j, members in enumerate(sets))
    positions = [[None] * len(sets) for sets in forward]
    for rank, (_, s, j) in enumerate(scored):
        positions[s][j] = rank
    spread = np.empty(n, dtype=np.int64)
    rows = [[None] * len(counts) for _ in range(n)]
    first = 0
    for s, c in enumerate(counts):
        for j, members in enumerate(forward[s]):
            x = n + int(members[0])
            spread[first + (x >> ((x // c).bit_length() - 1)) - c] = \
                positions[s][j]
            for i, word in zip(members.tolist(),
                               phased_in_words(len(members))):
                rows[i][s] = (word, positions[s][j])
        first += c
    return AedsTable.from_rows(p.symbols, rows), spread
