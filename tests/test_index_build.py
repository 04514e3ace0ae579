"""The array-filled decoder index of ``AedsTable.decoding_tries`` against
the slot-at-a-time build it replaced, kept below as an oracle.  Seeded
random tables must give the same windows, or the same PrefixViolation
(same state, same two words), from both builds.
"""

import bisect
import gc
import random
import time
import tracemalloc
from operator import itemgetter

import numpy as np
import pytest

from aeds import cli
from aeds.errors import PrefixViolation
from aeds.model import (
    LOOKUP_BITS,
    RUN_CAP,
    RUN_SLOTS,
    AedsTable,
    Codeword,
    SourceDistribution,
    prefix_clash,
)

from conftest import traced_peak

# ---------------------------------------------------------------------------
# oracle: one (symbols, state, bits used) tuple per window


def oracle_collision(table, state, slot, value, length):
    (symbol,), origin, _ = slot
    s = table.symbol_index(symbol)
    words = sorted((Codeword(value, length), Codeword(
        int(table.values[origin, s]), int(table.lengths[origin, s]))))
    raise PrefixViolation(state, *(w.bits for w in words))


def oracle_index(table):
    groups = [[(w.value, w.length, s, origin) for w, s, origin in entries]
              for entries in table.decoder_entries]
    singles = [(s,) for s in table.symbols]
    shortest = [g[0][1] if g else LOOKUP_BITS + 1 for g in groups]
    zero = [g and not g[0][1] and (singles[g[0][2]], g[0][3])
            for g in groups]
    wide = table.n_states << LOOKUP_BITS <= RUN_SLOTS
    tables = []
    for x, group in enumerate(groups):
        k = LOOKUP_BITS if wide else min(group[-1][1] if group else 0,
                                         LOOKUP_BITS,
                                         len(group).bit_length())
        empty = ((), x, 0)
        slots = [empty] * (1 << k)
        cut = bisect.bisect_right(group, k, key=itemgetter(1))
        work = []
        for value, length, s, origin in group[:cut]:
            base, span = value << (k - length), 1 << (k - length)
            slot = (singles[s], origin, length)
            for taken in slots[base:base + span]:
                if taken is not empty:
                    oracle_collision(table, x, taken, value, length)
            slots[base:base + span] = [slot] * span
            if shortest[origin] <= k - length:
                work.append((origin, length, value, slot[0]))
        long = group[cut:]
        clash = prefix_clash(Codeword(v, n) for v, n, _, _ in long)
        if clash is not None:
            raise PrefixViolation(x, *(w.bits for w in clash))
        for value, length, _, _ in long:
            taken = slots[value >> (length - k)]
            if taken[0]:
                oracle_collision(table, x, taken, value, length)
        tables.append((k, slots, work))
    for x, (k, slots, work) in enumerate(tables):
        while work:
            y, used, bits, run = work.pop()
            room = k - used
            for value, length, s, origin in groups[y]:
                if length > room:
                    break
                rest = room - length
                more, at = run + singles[s], (bits << length) | value
                while zero[origin] and len(more) < RUN_CAP:
                    single, origin = zero[origin]
                    more += single
                span = 1 << rest
                slots[at * span:(at + 1) * span] = [(more, origin,
                                                     k - rest)] * span
                if len(more) < RUN_CAP and shortest[origin] <= rest:
                    work.append((origin, k - rest, at, more))
        tables[x] = k, (1 << k) - 1, slots
    return tables


def built(build):
    try:
        return build()
    except PrefixViolation as err:
        return err.state, err.first, err.second


def windows(table):
    return [(k, mask, [(run, *move) for run, move in zip(runs, moves,
                                                          strict=True)])
            for k, mask, runs, moves in table.decoding_tries()]


# ---------------------------------------------------------------------------
# seeded tables


def random_words(rng, count):
    """``count`` prefix-free words: a canonical code on random lengths,
    some words then lengthened by random tails (which keeps it
    prefix-free); a single word may be empty."""
    if count == 1 and rng.random() < 0.6:
        return [(0, 0)]
    top = max(count - 1, 1).bit_length()
    lengths, free = [top] * count, (1 << top) - count  # free leaves at top
    for i in rng.sample(range(count), count):
        if lengths[i] > 1 and free >= 1 << (top - lengths[i]):
            free -= 1 << (top - lengths[i])
            lengths[i] -= 1
    words, code, last = [], 0, 0
    for length in sorted(lengths):
        code <<= length - last
        words.append((code, length))
        code, last = code + 1, length
    for i in range(count):
        if rng.random() < 0.15:
            tail = rng.randint(1, rng.choice((3, 14, 70)))
            value, length = words[i]
            words[i] = ((value << tail) | rng.getrandbits(tail),
                        length + tail)
    rng.shuffle(words)
    return words


def inject_clash(rng, words):
    """Replace one word by a copy, a prefix or an extension of another."""
    (va, na), i = rng.choice(words), rng.randrange(len(words))
    kind = rng.choice(("copy", "prefix", "extension"))
    if kind == "prefix":
        cut = rng.randint(0, na)
        words[i] = (va >> (na - cut), cut)
    elif kind == "extension":
        tail = rng.randint(1, 20)
        words[i] = ((va << tail) | rng.getrandbits(tail), na + tail)
    else:
        words[i] = (va, na)


def random_index_table(rng, n, m, clashes=0):
    """An n-state table over m symbols with random next states, so that
    some states have no codewords and some exactly one (possibly empty,
    which can close a zero-bit cycle), and with ``clashes`` states made
    to break the prefix rule."""
    nexts = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    if n >= 3 and rng.random() < 0.5:
        # a cycle a -> b -> a entered only through cells (a, 0), (b, 0)
        a, b = rng.sample(range(n), 2)
        others = [x for x in range(n) if x not in (a, b)]
        nexts = [[rng.choice(others) if y in (a, b) else y for y in row]
                 for row in nexts]
        nexts[a][0], nexts[b][0] = b, a
    into = [[] for _ in range(n)]
    for x in range(n):
        for s in range(m):
            into[nexts[x][s]].append((x, s))
    lengths = [[0] * m for _ in range(n)]
    values = [[0] * m for _ in range(n)]
    bad = set(rng.sample([x for x in range(n) if into[x]],
                         min(clashes, sum(map(bool, into)))))
    for x, cells in enumerate(into):
        if not cells:
            continue
        words = random_words(rng, len(cells))
        if x in bad:
            inject_clash(rng, words)
        for (origin, s), (value, length) in zip(cells, words):
            values[origin][s], lengths[origin][s] = value, length
    return AedsTable(range(m), nexts, lengths, values)


def test_array_build_matches_the_slot_oracle():
    rng = random.Random(1411)
    seen, started = set(), time.perf_counter()
    for n in (1, 2, 8, 9, 127, 512):
        for trial in range(16):
            m = rng.choice((1, 2, 3, 5)) if n > 1 else rng.randint(1, 6)
            table = random_index_table(rng, n, m, clashes=trial % 3)
            want = built(lambda: oracle_index(table))
            got = built(lambda: windows(table))
            assert got == want, (n, trial)
            if isinstance(want, tuple):
                seen.add("clash")
                continue
            lengths = table.lengths
            seen.add("windows")
            seen |= {"zero"} if (lengths == 0).any() else set()
            seen |= {"long"} if (lengths > LOOKUP_BITS).any() else set()
            seen |= {"object"} if (lengths > 63).any() else set()
            seen |= {"empty"} if len(set(table.nexts.ravel().tolist())) < n \
                else set()
            seen |= {"runs"} if any(len(run) > 1 for row in want
                                    for run, _, _ in row[2]) else set()
            seen |= {"cycle"} if any(len(run) == RUN_CAP and not used
                                     for row in want
                                     for run, _, used in row[2]) else set()
    assert seen == {"clash", "windows", "zero", "long", "object", "empty",
                    "runs", "cycle"}
    assert time.perf_counter() - started < 3.0


def test_index_of_the_large_n_table_is_two_lists_of_shared_objects():
    # the seed-1 style table-large-n table: 512 states over 256 bytes
    rng = random.Random(1)
    data = bytes(rng.choices(range(256), [1 / (i + 1) ** 1.2
                                          for i in range(256)], k=128 << 10))
    p = SourceDistribution.from_byte_histogram(
        [data.count(b) for b in range(256)])
    table = cli.build_table(p, "large-n", 512)
    assert table.nexts.size == 131_072

    def build():
        nodes = table.decoding_tries()
        gc.collect()
        return nodes, tracemalloc.get_traced_memory()[0]
    (nodes, retained), _ = traced_peak(build)
    slots = sum(1 << k for k, *_ in nodes)
    assert retained <= 32 * slots      # about 19: two list references
    # no state needed a run or a word-by-word check, so the build grouped
    # no cells by state (no lexsort, no per-cell tuples); nor does tans
    tans = cli.build_table(p, "tans", 512)
    tans.decoding_tries()
    assert table._incoming is None and tans._incoming is None
    assert windows(table) == built(lambda: oracle_index(table))


def test_clashes_among_long_words_are_named_first():
    # "0" is a prefix of the first word longer than k = 12, but the old
    # build checked the long words among themselves before that
    words = ["0", "0" + "1" * 12, "1" * 14, "1" * 15]
    table = AedsTable.from_rows(
        "abcd", [[(Codeword.from_bits(w), 0) for w in words]])
    assert built(lambda: windows(table)) == built(
        lambda: oracle_index(table)) == (0, "1" * 14, "1" * 15)


def test_a_run_goes_on_through_a_word_longer_than_the_next_window():
    # state 0 (k = 3) is entered by "0" from state 1, whose only word "11"
    # (from state 0) is longer than its 1-bit window; every other cell
    # goes to state 8 with its own 6-bit word
    w = Codeword.from_bits
    rows = [[(w(format(4 * x + s, "06b")), 8) for s in range(4)]
            for x in range(9)]
    for x, word, to in ((0, "11", 1), (1, "0", 0), (2, "10", 0),
                        (3, "110", 0), (4, "111", 0)):
        rows[x][0] = w(word), to
    table = AedsTable.from_rows(range(4), rows)
    got = windows(table)
    assert [k for k, _, _ in got[:2]] == [3, 1]
    assert got == built(lambda: oracle_index(table))
    assert got[0][2][3] == ((0, 0), 0, 3)  # "011": "0" then "11"


def test_overfull_state_fails_before_its_windows_are_filled():
    # 1,000 empty words entering one state would span 1,000 times its
    # 4,096 windows
    m = 1000
    zeros = np.zeros((1, m), dtype=np.int64)
    table = AedsTable(range(m), zeros, zeros, zeros)

    def build():
        with pytest.raises(PrefixViolation) as err:
            table.decoding_tries()
        return err
    err, peak = traced_peak(build)
    assert (err.value.state, err.value.first, err.value.second) == (0, "", "")
    assert peak < 4 << 20


def test_index_with_every_state_checked_builds_in_linear_time():
    # 2^15 states, each entered by one 2-bit word: k = 1, so every state
    # has a word longer than k and is checked word by word
    n = 1 << 15
    nexts = np.roll(np.arange(n), 1).reshape(n, 1)
    table = AedsTable("a", nexts, np.full((n, 1), 2), np.zeros((n, 1), int))
    started = time.perf_counter()
    nodes = table.decoding_tries()
    assert time.perf_counter() - started < 1.0
    assert all(k == 1 and runs == [(), ()] for k, _, runs, _ in nodes)
