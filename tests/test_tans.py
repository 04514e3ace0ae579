import itertools
import random

import numpy as np
import pytest

from aeds.codec import Bitstream, decode, encode, validate_aeds
from aeds.errors import (MalformedStream, NotPowerOfTwo, TableError,
                         TooFewStates, TrailingGarbage)
from aeds.model import validate_distribution
from aeds.tans import TansTable, build_tans, quantize_counts, tans_to_aeds

from conftest import (SPREADS, random_sequence, random_source, tans_decode,
                      tans_encode, tans_inverse, tans_push)


def test_quantize_exact_dyadic():
    p = validate_distribution([("a", 2), ("b", 1), ("c", 1)])
    assert quantize_counts(p, 8) == [4, 2, 2]


def test_quantize_largest_remainder():
    p = validate_distribution([("a", 0.7), ("b", 0.3)])
    # targets 2.8 and 1.2: the larger remainder takes the spare state
    assert quantize_counts(p, 4) == [3, 1]


def test_quantize_six_symbols_optimal():
    p = validate_distribution(
        [("a", 0.35), ("b", 0.15), ("c", 0.15), ("d", 0.15),
         ("e", 0.1), ("f", 0.1)])
    counts = quantize_counts(p, 16)
    assert sum(counts) == 16 and min(counts) >= 1
    got = sum(abs(c - q * 16) for c, q in zip(counts, p.probs))
    # brute force over all positive compositions of 16 into 6 parts
    best = min(
        sum(abs(c - q * 16) for c, q in zip(comp, p.probs))
        for comp in itertools.product(range(1, 12), repeat=5)
        if sum(comp) < 16
        for comp in [comp + (16 - sum(comp),)])
    assert got == pytest.approx(best, abs=1e-12)


def test_quantize_rejects_small_budget():
    p = validate_distribution([("a", 1), ("b", 1), ("c", 1)])
    with pytest.raises(TooFewStates):
        quantize_counts(p, 2)


def test_build_two_state_table():
    p = validate_distribution([("a", 1), ("b", 1)])
    t = build_tans(p, 2)
    assert t.counts == (1, 1)
    assert t.C == ((2,), (3,))
    assert tans_inverse(t) == [(0, 1), (1, 1)]


@pytest.mark.parametrize("symbols,counts,C,error,match", [
    ("ab", (1, 1), ((2,), (4,)), TableError, "outside"),
    ("ab", (1, 1), ((3,), (3,)), TableError, "placed twice"),
    ("ab", (1, 1), ((2, 3), ()), TableError, "block size"),
    ("ab", (1, 1), ((2,),), TableError, "one block per count"),
    ("ab", (0, 2), ((), (2, 3)), TableError, "positive"),
    ("ab", (2, 1), ((3, 4), (5,)), NotPowerOfTwo, "power of two"),
    ("abc", (2, 2), ((4, 5), (6, 7)), TableError, "3 symbols but 2 counts"),
], ids=["outside", "twice", "block-size", "block-count", "nonpositive",
        "not-pow2", "symbols-vs-counts"])
def test_tans_table_rejects_bad_c(symbols, counts, C, error, match):
    with pytest.raises(error, match=match):
        TansTable(symbols, counts, C)


def test_build_rejects_non_power_of_two():
    p = validate_distribution([("a", 1), ("b", 1)])
    with pytest.raises(NotPowerOfTwo):
        build_tans(p, 6)


def test_c_and_d_are_mutual_inverses():
    rng = random.Random(4)
    for spread in SPREADS:
        for _ in range(20):
            p = random_source(rng, n_symbols=rng.randint(2, 6))
            n = 1 << rng.randint(3, 7)
            t = spread(p, n)
            D = tans_inverse(t)
            for s, block in enumerate(t.C):
                for y_off, x in enumerate(block):
                    assert D[x - n] == (s, t.counts[s] + y_off)


def test_push_and_pull_are_inverse_everywhere():
    # exhaustive over all (symbol, state) pairs for tables up to 256 states
    rng = random.Random(8)
    for n in (8, 32, 256):
        p = random_source(rng, n_symbols=4)
        t = build_tans(p, n)
        D = tans_inverse(t)
        for s in range(4):
            for x in range(n, 2 * n):
                word, nxt = tans_push(t, s, x)
                s2, y = D[nxt - n]
                k = 0
                while (y << k) < n:
                    k += 1
                assert s2 == s and k == word.length
                assert (y << k) | word.value == x


def test_per_symbol_bit_counts_take_two_values():
    rng = random.Random(21)
    for _ in range(20):
        p = random_source(rng, n_symbols=rng.randint(2, 6))
        n = 1 << rng.randint(3, 8)
        t = build_tans(p, n)
        for s, ns in enumerate(t.counts):
            ks = {tans_push(t, s, x)[0].length for x in range(n, 2 * n)}
            lo = (n // ns).bit_length() - 1
            assert ks <= {lo, lo + 1}


def test_roundtrip_random():
    rng = random.Random(14)
    for _ in range(60):
        p = random_source(rng, n_symbols=rng.randint(2, 6))
        n = 1 << rng.randint(3, 7)
        t = rng.choice(SPREADS)(p, n)
        seq = random_sequence(rng, p, rng.randint(0, 200))
        stream = tans_encode(t, seq)
        assert tans_decode(t, stream) == seq


def test_two_state_emits_one_bit_per_symbol():
    p = validate_distribution([("a", 1), ("b", 1)])
    t = build_tans(p, 2)
    for s in range(2):
        for x in (2, 3):
            word, _ = tans_push(t, s, x)
            assert word.length == 1
    conv = tans_to_aeds(t)
    # bit-identical streams on every binary input of length 12
    for bits in itertools.product("ab", repeat=12):
        seq = list(bits)
        assert tans_encode(t, seq).data == encode(conv, seq).data
    for length in (0, 1, 2, 3):
        for bits in itertools.product("ab", repeat=length):
            seq = list(bits)
            assert tans_encode(t, seq).data == encode(conv, seq).data


def test_converted_table_is_valid_state_divided():
    rng = random.Random(33)
    for _ in range(20):
        n = 1 << rng.randint(3, 6)
        p = random_source(rng, n_symbols=rng.randint(2, 5))
        t = rng.choice(SPREADS)(p, n)
        conv = tans_to_aeds(t)
        validate_aeds(conv)
        part = conv.saeds_partition()
        assert part is not None
        part.check(n)
        assert part.counts == t.counts


def test_conversion_streams_match():
    rng = random.Random(55)
    for _ in range(40):
        n = 1 << rng.randint(3, 7)
        p = random_source(rng, n_symbols=rng.randint(2, min(6, n)))
        t = rng.choice(SPREADS)(p, n)
        conv = tans_to_aeds(t)
        for _ in range(3):
            seq = random_sequence(rng, p, rng.randint(0, 100))
            start = rng.randrange(n)
            native = tans_encode(t, seq, initial_state=n + start)
            generic = encode(conv, seq, initial_state=start)
            assert native.data == generic.data


def random_composition(rng, n):
    """Positive counts summing to n, some of them 1, in random order."""
    m = rng.randint(1, min(n, 300))
    ones = rng.randint(0, m - 1)
    cuts = sorted(rng.sample(range(1, n - ones), m - ones - 1))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, n - ones])]
    counts += [1] * ones
    rng.shuffle(counts)
    return counts


@pytest.mark.parametrize("r", range(1, 13))
def test_conversion_equals_the_division_form(r):
    """The threshold form of k = floor(lg(x // count)) in tans_to_aeds
    against the division it replaced, on random spreads of random counts
    of N = 2^r, and on one symbol of count N (k = 0)."""
    rng = random.Random(r)
    n = 1 << r
    for counts in [[n]] + [random_composition(rng, n) for _ in range(4)]:
        slots = rng.sample(range(n, 2 * n), n)
        first = np.cumsum(counts) - counts
        C = [slots[a:a + c] for a, c in zip(first, counts)]
        got = tans_to_aeds(TansTable(range(len(counts)), counts, C))
        x = np.arange(n, 2 * n)[:, None]
        k = np.frexp(x // counts)[1] - 1
        assert np.array_equal(got.lengths, k)
        assert np.array_equal(got.values, x & ((1 << k) - 1))
        assert np.array_equal(got.nexts, np.array(slots)[
            first + (x >> k) - counts] - n)


@pytest.mark.parametrize("damage,message", [
    (lambda data: data + bytes(1), "bits after the payload"),
    (lambda data: data[:-1] + bytes([data[-1] | 1]), "nonzero padding bits"),
])
def test_both_decoders_reject_the_same_padding(damage, message):
    p = validate_distribution([("a", 5), ("b", 2), ("c", 1)])
    t = build_tans(p, 16)
    seq = list("abacabaaab")
    stream = tans_encode(t, seq)
    assert (stream.payload_start + stream.exact_payload_bits) % 8  # padded
    bad = Bitstream(damage(stream.data))
    for decoder, table in ((tans_decode, t), (decode, tans_to_aeds(t))):
        assert decoder(table, stream) == seq
        with pytest.raises(TrailingGarbage, match=message):
            decoder(table, bad)


def test_both_decoders_reject_a_stream_for_another_state_count():
    p = validate_distribution([("a", 5), ("b", 2), ("c", 1)])
    stream = tans_encode(build_tans(p, 16), list("abacab"))
    t = build_tans(p, 32)
    for decoder, table in ((tans_decode, t), (decode, tans_to_aeds(t))):
        with pytest.raises(MalformedStream,
                           match="written for 16 states, table has 32"):
            decoder(table, stream)


@pytest.mark.parametrize("start", [15, 32])
def test_tans_encode_rejects_a_start_state_out_of_range(start):
    p = validate_distribution([("a", 5), ("b", 2), ("c", 1)])
    with pytest.raises(TableError, match=f"initial state {start} outside"):
        tans_encode(build_tans(p, 16), list("abacab"), initial_state=start)


def test_dyadic_rate_meets_entropy():
    from aeds.analysis import monte_carlo_rate
    p = validate_distribution([("a", 2), ("b", 1), ("c", 1)])
    t = tans_to_aeds(build_tans(p, 8))
    est = monte_carlo_rate(t, p, 10 ** 6, seed=909)
    assert abs(est.bits_per_symbol - 1.5) <= 3 * est.stderr
