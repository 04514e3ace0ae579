"""The lookup-table decoder against a bit-by-bit reference decoder.

The reference below is the oracle: it grows a prefix one ``read_bit`` at a
time until the prefix is a codeword of the current state, straight from
``decoder_entries``.  ``codec.decode`` must give the same symbols, or raise
the same exception with the same message, on intact, truncated, extended
and bit-flipped streams.
"""

import random
import time
import tracemalloc

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
    AedsTable,
    Codeword,
    demo_table,
    validate_distribution,
)

from conftest import random_sequence, random_source, random_table


def reference_decode(table, stream):
    """Per-bit oracle over ``decoder_entries``."""
    words = [{(w.value, w.length): (s, origin) for w, s, origin in entries}
             for entries in table.decoder_entries]
    prefixes = [{(w.value >> (w.length - d), d)
                 for w, _, _ in entries for d in range(w.length + 1)}
                for entries in table.decoder_entries]
    reader = stream.payload_reader()
    x, out = stream.initial_state, []
    for _ in range(stream.length):
        value = depth = 0
        while (value, depth) not in words[x]:
            if (value, depth) not in prefixes[x]:
                raise UnmatchedCodeword(
                    x, format(value, f"0{depth}b") if depth else "")
            value = (value << 1) | reader.read_bit()
            depth += 1
        s, x = words[x][value, depth]
        out.append(table.symbols[s])
    if reader.bits_left >= 8:
        raise TrailingGarbage(f"{reader.bits_left} bits after the payload")
    if reader.bits_left and reader.read(reader.bits_left):
        raise TrailingGarbage("nonzero padding bits")
    return out


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
    table = cli.build_table(p, codec, states, verbose=False)
    for _ in range(12):
        assert_equivalent(rng, table,
                          random_sequence(rng, p, rng.randint(1, 300)))


def stream_type2_table():
    """The type2 table of the skewed byte source: byte 0 with 0.7, bytes
    1..19 (those a 2 MiB sample holds) sharing 0.3 with weights 2^-i."""
    weights = [0.7] + [0.3 * 2.0 ** -i for i in range(1, 20)]
    p = validate_distribution(list(enumerate(weights)))
    return p, cli.build_table(p, "type2", 2, verbose=False)


def test_two_level_lookups_on_the_skewed_type2_table():
    p, table = stream_type2_table()
    longest = max(w.length for row in table.encoder for w, _ in row)
    assert longest == 21
    nodes = table.decoding_tries()
    assert len(nodes) > table.n_states           # subtables exist
    rng = random.Random(21)
    rare = list(range(12, 20)) * 4               # long codewords only
    assert_equivalent(rng, table, rare)
    for _ in range(10):
        assert_equivalent(rng, table, random_sequence(rng, p, 400))


def test_zero_bit_states():
    table = demo_table()
    nodes = table.decoding_tries()
    zero = [x for x in range(table.n_states) if nodes[x][0] == 0]
    assert zero == [2, 4]                        # alpha3 and alpha5
    rng = random.Random(0)
    p = validate_distribution([("a", 5), ("b", 3), ("c", 2)])
    for _ in range(40):
        assert_equivalent(rng, table,
                          random_sequence(rng, p, rng.randint(1, 40)))


def long_word_table():
    """One state parsing {0, 10, 11 + 20 ones, 11 + 19 ones + 0}: the two
    long words share a chain of subtables, and "11" followed by any other
    bit pattern is unmatched deep inside it."""
    w = Codeword.from_bits
    rows = [[(w("0"), 0), (w("10"), 0), (w("11" + "1" * 20), 0),
             (w("11" + "1" * 19 + "0"), 0)]]
    return AedsTable.from_rows("abcd", rows)


def ending_on_a_byte(bits):
    """A stream for ``long_word_table``: "0" words, then ``bits`` as the
    last symbol, with as many "0" words as make it end on a byte boundary
    (so no padding follows ``bits``)."""
    head = Bitstream.assemble(1, 0, 0, []).payload_start
    zeros = -(head + len(bits)) % 8
    words = [(0, 1)] * zeros + [(int(bits, 2), len(bits))]
    return Bitstream.assemble(1, 0, zeros + 1, words)


def test_errors_raised_inside_a_subtable():
    table = long_word_table()
    nodes = table.decoding_tries()
    assert nodes[0][0] < 22 and len(nodes) > 2
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


def test_very_long_codeword_index_is_bounded():
    long = Codeword(1 << 4095, 4096)             # "1" then 4095 zeros
    table = AedsTable.from_rows("ab", [[(Codeword(0, 1), 0), (long, 0)]])
    tracemalloc.start()
    started = time.perf_counter()
    try:
        nodes = table.decoding_tries()
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 5.0
    assert peak < 8 << 20
    assert sum(len(slots) for _, _, slots in nodes) <= 2 * (1 + 4096)
    validate_aeds(table)
    seq = list("abbab")
    assert decode(table, encode(table, seq)) == seq
    back = deserialize_table(serialize_table(table))
    assert decode(back, encode(back, seq)) == seq


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


def test_truncation_found_without_decoding_the_declared_length():
    # zero bits decode forever on the demo table (0 -> 4 -> 3 -> 0), so
    # only the refill's end-of-stream check stops this stream early
    stream = Bitstream.assemble(5, 0, 1 << 22, [(0b00, 2)])
    started = time.perf_counter()
    with pytest.raises(TruncatedStream):
        decode(demo_table(), stream)
    assert time.perf_counter() - started < 0.25
