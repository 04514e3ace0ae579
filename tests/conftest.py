"""Shared helpers: random sources, random well-formed tables, oracles
(among them the bit-by-bit decoder and the slot oracle of the decoder
index), and a traced memory peak."""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest

from aeds.codec import (STREAM_MAGIC, STREAM_VERSION, Bitstream,
                        _backward_pass, _leb128, state_index_bits,
                        symbol_indices)
from aeds.errors import (TableError, TrailingGarbage, TruncatedStream,
                         UnmatchedCodeword)
from aeds.model import (LOOKUP_BITS, WINDOW_SLOTS, AedsTable, Codeword,
                        SourceDistribution)
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


def check_window(table, words, x, name, prefix=0, depth=0):
    """Every slot of the window ``name`` that state x reads after the
    ``depth`` bits ``prefix`` of a codeword, against x's codeword set
    ``words[x]``: the slot of w bits that a codeword of x continues and
    ends holds its symbol, its remaining bits and its state's window; one
    that longer codewords continue steps into a sub-window as wide as
    their longest remainder, up to ``LOOKUP_BITS``, which is checked in
    turn; any other slot is dead."""
    entries, codes, windows, _, _ = table.decoding_tries()
    m = len(table.symbols)
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
                    max(longer) - end, LOOKUP_BITS)
            check_window(table, words, x, sub, bits, end)
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
