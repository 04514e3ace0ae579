"""The lookup-table decoder against a bit-by-bit reference decoder.

``conftest.reference_decode`` is the oracle: it grows a prefix one
``read_bit`` at a time until the prefix is a codeword of the current
state, straight from ``decoder_entries``.  ``codec.decode`` must give the
same symbols, or raise the same exception with the same message, on
intact, truncated, extended and bit-flipped streams, through first-level
windows, sub-windows and dead slots alike, codewords over 63 bits
included.  Every slot of the
decoder index is checked against the same codeword sets.
"""

import functools
import io
import random
import time
import zlib

import numpy as np
import pytest

from aeds import cli
from aeds.codec import (
    Bitstream,
    decode,
    deserialize_table,
    encode,
    serialize_table,
    validate_aeds,
)
from aeds.errors import (
    AedsError,
    PrefixViolation,
    TrailingGarbage,
    TruncatedStream,
    UnmatchedCodeword,
)
from aeds.model import (
    LOOKUP_BITS,
    WINDOW_SLOTS,
    AedsTable,
    Codeword,
    demo_table,
    validate_distribution,
)

from conftest import (check_index, codeword_maps, random_sequence,
                      random_source, random_table, reference_decode,
                      traced_peak, window_width, window_widths)


def outcome(decoder, table, stream):
    try:
        return decoder(table, stream)
    except AedsError as exc:
        return type(exc), str(exc)


def variants(rng, stream):
    """The stream itself, then truncated, extended and payload-bit-flipped
    copies (header damage is the stream parser's business, not decode's)."""
    data = stream.data
    yield data
    for _ in range(3):
        yield data[:rng.randrange(len(data))]
    yield data + bytes([rng.randrange(1, 256)])
    yield data + bytes(rng.randrange(256) for _ in range(rng.randint(2, 9)))
    payload = 8 * len(data) - stream.payload_start
    for _ in range(4 if payload else 0):
        flipped = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            pos = stream.payload_start + rng.randrange(payload)
            flipped[pos >> 3] ^= 0x80 >> (pos & 7)
        yield bytes(flipped)


def assert_equivalent(rng, table, sequence):
    """Compare the decoders on every variant; return the outcomes seen."""
    seen = set()
    for data in variants(rng, encode(table, sequence)):
        try:
            stream = Bitstream(data)
        except AedsError:
            continue
        want = outcome(reference_decode, table, stream)
        assert outcome(decode, table, stream) == want, data.hex()
        seen.add(want[0] if isinstance(want, tuple) else list)
    return seen


def reshaped(rng, table):
    """``table`` with every codeword of decoder state x wrapped as
    ``head_x + word + tail_x``: the sets stay prefix-free, a random head
    pushes codewords past one lookup level, and a tail of "0" leaves the
    set incomplete, so damaged streams can hit unmatched prefixes."""
    heads = [Codeword(rng.getrandbits(n), n)
             for n in (rng.choice((0, 0, 3, LOOKUP_BITS + 5))
                       for _ in range(table.n_states))]
    tails = [Codeword(0, rng.randint(0, 1)) for _ in range(table.n_states)]
    rows = [[(heads[nxt].concat(word).concat(tails[nxt]), nxt)
             for word, nxt in row] for row in table.encoder]
    return AedsTable.from_rows(table.symbols, rows)


def test_equivalent_on_random_tables():
    rng = random.Random(2601)
    seen = set()
    for trial in range(160):
        table = random_table(rng)
        if trial % 2:
            table = reshaped(rng, table)
        validate_aeds(table)
        p = random_source(rng, symbols=list(table.symbols))
        seen |= assert_equivalent(
            rng, table, random_sequence(rng, p, rng.randint(0, 60)))
    assert {list, TruncatedStream, TrailingGarbage,
            UnmatchedCodeword} <= seen


BUILDERS = [
    ("huffman", 2), ("type1", 4), ("type2", 2), ("saeds-case1", 16),
    ("saeds-case2", 12), ("saeds-case3", 16), ("large-n", 20),
    ("tans", 16),
]


def test_builder_list_is_complete():
    assert sorted(codec for codec, _ in BUILDERS) == sorted(cli.CODECS)


@pytest.mark.parametrize("codec,states", BUILDERS)
def test_equivalent_on_every_builder(codec, states):
    rng = random.Random(codec)
    p = validate_distribution(
        [(b, 1.0 / (b + 1) ** 1.3) for b in range(12)])
    table = cli.build_table(p, codec, states)
    for _ in range(12):
        assert_equivalent(rng, table,
                          random_sequence(rng, p, rng.randint(1, 300)))


def stream_type2_table():
    """The type2 table of the skewed byte source: byte 0 with 0.7, bytes
    1..19 (those a 2 MiB sample holds) sharing 0.3 with weights 2^-i."""
    weights = [0.7] + [0.3 * 2.0 ** -i for i in range(1, 20)]
    p = validate_distribution(list(enumerate(weights)))
    return p, cli.build_table(p, "type2", 2)


def test_two_level_lookups_on_the_skewed_type2_table():
    p, table = stream_type2_table()
    longest = max(w.length for row in table.encoder for w, _ in row)
    assert longest == 21
    # every first-level window is 12 bits wide; the slots that start a
    # longer codeword step into a sub-window, and no slot is dead, as the
    # code is complete
    m = len(table.symbols)
    _, codes, windows, _, _ = table.decoding_tries()
    assert set(window_widths(windows)) == {LOOKUP_BITS}
    first = codes[:table.n_states << LOOKUP_BITS]
    assert (first == m).any() and (codes <= m).all()
    rng = random.Random(21)
    rare = list(range(12, 20)) * 4               # long codewords only
    assert_equivalent(rng, table, rare)
    for _ in range(10):
        assert_equivalent(rng, table, random_sequence(rng, p, 400))


def test_zero_bit_states():
    table = demo_table()
    entries, codes, windows, zeros, _ = table.decoding_tries()
    words = codeword_maps(table)
    zero = [x for x in range(table.n_states) if (0, 0) in words[x]]
    assert zero == [2, 4] and zeros == 2         # alpha3 and alpha5
    for x in zero:
        # every slot of a zero-bit state decodes its one symbol without
        # reading a bit and names the window of the state it leads to
        s, y = words[x][0, 0]
        base = int(windows[x]) >> 11
        assert (codes[base:base + (1 << LOOKUP_BITS)] == s).all()
        assert (entries[base:base + (1 << LOOKUP_BITS)]
                == windows[y]).all()
    rng = random.Random(0)
    p = validate_distribution([("a", 5), ("b", 3), ("c", 2)])
    for _ in range(40):
        assert_equivalent(rng, table,
                          random_sequence(rng, p, rng.randint(1, 40)))


def long_word_table(ones=20):
    """One state parsing {0, 10, 11 + 20 ones, 11 + 19 ones + 0}, or as
    many ``ones``: the two long words share a chain of subtables, and
    "11" followed by any other bit pattern is unmatched deep inside it."""
    w = Codeword.from_bits
    rows = [[(w("0"), 0), (w("10"), 0), (w("11" + "1" * ones), 0),
             (w("11" + "1" * (ones - 1) + "0"), 0)]]
    return AedsTable.from_rows("abcd", rows)


def ending_on_a_byte(bits):
    """A stream for ``long_word_table``: "0" words, then ``bits`` as the
    last symbol, with as many "0" words as make it end on a byte boundary
    (so no padding follows ``bits``)."""
    head = Bitstream.assemble(1, 0, 0, [], []).payload_start
    zeros = -(head + len(bits)) % 8
    return Bitstream.assemble(1, 0, zeros + 1, [0] * zeros + [int(bits, 2)],
                              [1] * zeros + [len(bits)])


def test_errors_raised_inside_a_subtable():
    table = long_word_table()
    _, codes, windows, _, _ = table.decoding_tries()
    # the last slot of state 0's window starts both long words, which go
    # on through sub-windows
    k = window_widths(windows)[0]
    assert k < 22 and codes[(1 << k) - 1] == len(table.symbols)
    cases = {
        # no codeword starts with these 11 bits
        "11" + "1" * 8 + "0": UnmatchedCodeword,
        # the stream ends inside the long words; the zero bits a lookup
        # peeks past the end lead to an unmatched slot
        "11" + "1" * 10: TruncatedStream,
        # ... or complete the second long word
        "11" + "1" * 19: TruncatedStream,
    }
    for bits, error in cases.items():
        stream = ending_on_a_byte(bits)
        got = outcome(decode, table, stream)
        assert got == outcome(reference_decode, table, stream)
        assert got[0] is error, got
        if error is UnmatchedCodeword:
            assert got[1].endswith(f"{bits!r} at state 0")


def test_long_word_table_roundtrip_and_fuzz():
    table = long_word_table()
    rng = random.Random(4)
    p = validate_distribution([("a", 4), ("b", 2), ("c", 1), ("d", 1)])
    for _ in range(40):
        assert_equivalent(rng, table,
                          random_sequence(rng, p, rng.randint(1, 30)))


@pytest.mark.parametrize("states", [2, 16])  # full, then per-state widths
def test_state_without_codewords(states):
    # every cell leads to state 0, so a codeword from origin x > 0 leaves
    # the decoder at a state without codewords: the error names the empty
    # prefix, before the end of the stream would be read
    rows = [((Codeword(x << 1, 7), 0), (Codeword(x << 1 | 1, 7), 0))
            for x in range(states)]
    table = AedsTable.from_rows("ab", rows)
    for origin in range(states):
        stream = Bitstream.assemble(states, 0, 2, [origin << 1], [7])
        want = outcome(reference_decode, table, stream)
        assert outcome(decode, table, stream) == want
    assert want == (UnmatchedCodeword,
                    f"no codeword starting with '' at state {states - 1}")


def test_very_long_codeword_index_is_bounded():
    long = Codeword(1 << 4095, 4096)             # "1" then 4095 zeros
    table = AedsTable.from_rows("ab", [[(Codeword(0, 1), 0), (long, 0)]])

    def build():
        started = time.perf_counter()
        return table.decoding_tries(), time.perf_counter() - started
    (index, elapsed), peak = traced_peak(build)
    # words of more than 63 bits have the index too: past the first
    # window, the long word goes on through 1-bit sub-windows
    assert index is not None
    assert elapsed < 5.0
    assert peak < 8 << 20
    validate_aeds(table)
    seq = list("abbab")
    assert decode(table, encode(table, seq)) == seq
    back = deserialize_table(serialize_table(table))
    assert decode(back, encode(back, seq)) == seq
    check_index(table)


def test_a_table_of_long_words_is_no_decompression_bomb():
    # 8 states over 256 bytes, each entered by 256 words of 63 bits with
    # distinct 12-bit heads: sub-windows as wide as their longest
    # remainder (up to 12 bits), however few words go on into them, took
    # 337 MB to restore 5 bytes from this 21 KB container
    nexts = np.repeat(np.arange(8), 256).reshape(8, 256)
    rng = random.Random(63)
    values = [[s << 51 | rng.getrandbits(51) for s in range(256)]
              for _ in range(8)]
    tables = [AedsTable(range(256), nexts, np.full((8, 256), 63), values)]
    # 128 states, each entered by 256 words of 10 bits (past the 9-bit
    # first windows), but for one word of 4096 bits: a sort key that
    # left-aligned every word to the longest took 20 MB from 132 KB
    nexts = np.repeat(np.arange(128), 256).reshape(128, 256)
    lengths = np.full((128, 256), 10)
    lengths[0, 255] = 4096
    values = np.tile(np.arange(256).astype(object), (128, 1))
    values[0, 255] = 1 << 4095
    tables.append(AedsTable(range(256), nexts, lengths, values))
    for table in tables:
        data, blob = b"hello", bytearray()
        cli.write_container_stream(io.BytesIO(data).read, blob.extend,
                                   zlib.crc32(data), len(data), table)
        got, peak = traced_peak(lambda: cli.read_container(bytes(blob)))
        assert got == data
        assert peak < 16 << 20


@pytest.mark.parametrize("words", [
    ("0", "01"), ("01", "0"), ("1", "1"), ("", "1"), ("00", "0" * 30),
    ("0" * 30, "00"), ("", ""),
])
def test_prefix_collisions_name_both_words(words):
    a, b = (Codeword.from_bits(w) for w in words)
    table = AedsTable.from_rows("ab", [[(a, 0), (b, 0)]])
    with pytest.raises(PrefixViolation) as err:
        table.decoding_tries()
    assert (err.value.first, err.value.second) == tuple(sorted(words, key=len))


def test_prefix_checks_precede_runs_through_other_states():
    # state 1 is entered by 511 copies of "0"; state 0 only by "1" from
    # state 1: state 1's duplicate words are rejected before any slot is
    # filled, and fast
    m = 256
    nexts = np.ones((2, m), dtype=np.int64)
    nexts[1, m - 1] = 0
    lengths = np.ones((2, m), dtype=np.int64)
    values = np.zeros((2, m), dtype=np.int64)
    values[1, m - 1] = 1
    table = AedsTable(range(m), nexts, lengths, values)
    started = time.perf_counter()
    with pytest.raises(PrefixViolation) as err:
        table.decoding_tries()
    assert time.perf_counter() - started < 1.0
    # the same table read from bytes fails the same way on any stream
    back = deserialize_table(serialize_table(table))
    with pytest.raises(PrefixViolation):
        decode(back, Bitstream.assemble(2, 0, 1, [1], [1]))
    assert time.perf_counter() - started < 2.0
    assert (err.value.state, err.value.first, err.value.second) == (
        1, "0", "0")


def test_truncation_found_without_decoding_the_declared_length():
    # zero bits decode forever on the demo table (0 -> 4 -> 3 -> 0), so
    # only the refill's end-of-stream check stops this stream early
    stream = Bitstream.assemble(5, 0, 1 << 22, [0b00], [2])
    started = time.perf_counter()
    with pytest.raises(TruncatedStream):
        decode(demo_table(), stream)
    assert time.perf_counter() - started < 0.25


# ---------------------------------------------------------------------------
# the slots of the index


def zero_bit_cycle_table():
    """The one-state table of a single-valued input: its only codeword is
    empty, so every state of the decoder is on a zero-bit cycle."""
    return AedsTable([7], [[0]], [[0]], [[0]])


def zero_bit_cycle_pair():
    """Five states over {a, b}: cells (1, a) and (0, a) are empty words
    into states 0 and 1, so the decoder cycles 0 -> 1 -> 0 on no bits;
    the empty words of cells (0, b) and (2, a) lead it from state 3 to 2
    and from 2 onto the cycle; the other cells enter state 4."""
    w = Codeword.from_bits
    rows = [((w(""), 1), (w(""), 2)),
            ((w(""), 0), (w("00"), 4)),
            ((w(""), 3), (w("01"), 4)),
            ((w("100"), 4), (w("101"), 4)),
            ((w("110"), 4), (w("111"), 4))]
    return AedsTable.from_rows("ab", rows)


def skewed_type2_table():
    return stream_type2_table()[1]


def nine_state_table():
    """A random table one state past the slot budget: per-state widths."""
    n = (WINDOW_SLOTS >> LOOKUP_BITS) + 1
    return random_table(random.Random(n), n_states=n, n_symbols=3)


def builder_table(codec, states):
    p = validate_distribution(
        [(b, 1.0 / (b + 1) ** 1.3) for b in range(12)])
    return cli.build_table(p, codec, states)


def very_long_word_table():
    """``long_word_table`` with words of 72 bits, past ``INT_BITS``."""
    return long_word_table(70)


@pytest.mark.parametrize("make", [
    skewed_type2_table, demo_table, long_word_table, very_long_word_table,
    zero_bit_cycle_table, zero_bit_cycle_pair, nine_state_table,
] + [pytest.param(functools.partial(builder_table, codec, states), id=codec)
     for codec, states in BUILDERS])
def test_every_slot_is_the_reference_parse_of_its_window(make):
    table = make()
    index = table.decoding_tries()
    assert table.decoding_tries() is index              # built once
    assert len(index[2]) == table.n_states
    check_index(table)


def test_every_tail_split_on_the_skewed_type2_table():
    p, table = stream_type2_table()
    rng = random.Random(9)
    for length in range(25):
        for _ in range(3):
            assert_equivalent(rng, table, random_sequence(rng, p, length))
        # rare symbols: long codewords, through sub-windows
        assert_equivalent(rng, table, rng.choices(p.symbols[8:], k=length))


@pytest.mark.parametrize("make,symbols", [
    (demo_table, "abc"), (long_word_table, "aabbcd"),
    (very_long_word_table, "aabbcd"), (zero_bit_cycle_pair, "aab"),
])
def test_runs_through_zero_bit_states_and_subtables(make, symbols):
    table = make()
    rng = random.Random(symbols)
    for length in (15, 16, 17, 100, 400):
        for _ in range(6):
            assert_equivalent(rng, table, rng.choices(symbols, k=length))


def test_zero_bit_cycle_decodes_in_runs():
    table = zero_bit_cycle_table()
    for length in (0, 15, 16, 53, 100_000):
        stream = Bitstream.assemble(1, 0, length, [], [])
        assert decode(table, stream) == [7] * length
        assert outcome(reference_decode, table, stream) == [7] * length


@pytest.mark.parametrize("extra", [0, 1])
def test_full_width_windows_within_the_slot_budget_only(extra):
    n = (WINDOW_SLOTS >> LOOKUP_BITS) + extra
    rng = random.Random(n)
    table = random_table(rng, n_states=n, n_symbols=3)
    widths = window_widths(table.decoding_tries()[2])
    if extra:
        # per-state widths: at most two slots per codeword
        assert widths == [window_width(table, x) for x in range(n)]
        assert max(widths) < LOOKUP_BITS
        assert sum(1 << k for k in widths) <= 2 * n * len(table.symbols)
    else:
        assert widths == [LOOKUP_BITS] * n
        assert sum(1 << k for k in widths) == WINDOW_SLOTS
    p = random_source(rng, symbols=list(table.symbols))
    for length in (0, 15, 16, 200, 1000):
        assert_equivalent(rng, table, random_sequence(rng, p, length))


def test_validation_reports_zero_bit_cycles():
    assert validate_aeds(zero_bit_cycle_table()).zero_bit_cycle == (0,)
    table = zero_bit_cycle_pair()
    assert validate_aeds(table).zero_bit_cycle == (0, 1)
    assert validate_aeds(demo_table()).zero_bit_cycle == ()
    p = validate_distribution(
        [(b, 1.0 / (b + 1) ** 1.3) for b in range(12)])
    for codec, states in BUILDERS:
        table = cli.build_table(p, codec, states)
        assert validate_aeds(table).zero_bit_cycle == (), codec
