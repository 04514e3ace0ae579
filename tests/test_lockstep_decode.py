"""The lockstep decode of ``codec.decode_indices`` against the bit-by-bit
reference decoder (``conftest.reference_decode``), which reads no decoder
index: the serial loop that the lockstep falls back on reads the same
slots as its lanes, so it cannot be the oracle.  On intact, truncated,
extended and bit-flipped streams both must give the same indices, or
raise the same exception with the same message: on every CLI table,
around the block length where the lockstep starts, with lanes that cannot
meet, with sub-windows and dead slots, and on tables that only decode
serially.
"""

import random
import time

import numpy as np
import pytest

from aeds import cli, codec
from aeds.codec import (STREAM_MAGIC, STREAM_VERSION, Bitstream, _leb128,
                        decode, decode_indices, encode)
from aeds.errors import (AedsError, MalformedStream, PrefixViolation,
                         TrailingGarbage, TruncatedStream, UnmatchedCodeword)
from aeds.model import (LOOKUP_BITS, AedsTable, Codeword, demo_table,
                        validate_distribution)

from conftest import (random_sequence, random_table, reference_decode,
                      traced_peak)

# ---------------------------------------------------------------------------
# oracle: the bit-by-bit reference decoder


def reference_indices(table, stream):
    stream.check_states(table.n_states)
    return np.array([table.symbol_index(s)
                     for s in reference_decode(table, stream)], np.int64)


def outcome(decoder, table, stream):
    try:
        return decoder(table, stream).tolist()
    except AedsError as exc:
        return type(exc), str(exc)


def check(table, stream, lockstep=True):
    """Both decoders agree on ``stream``; with ``lockstep``, the lockstep
    decoded it without the serial fallback.  Returns the outcome."""
    want = outcome(reference_indices, table, stream)
    assert outcome(decode_indices, table, stream) == want
    if lockstep:
        got = codec._lockstep_decode(table, stream)
        assert got is not None and got.tolist() == want
        assert got.dtype == (np.uint8 if len(table.symbols) <= 256
                             else np.uint32)
    return want


def damaged(rng, stream):
    """Truncated, extended and payload-bit-flipped copies of ``stream``."""
    data = stream.data
    for _ in range(3):
        yield data[:rng.randrange(stream.payload_start // 8 + 1, len(data))]
    yield data + bytes([rng.randrange(1, 256)])
    yield data + bytes(rng.randrange(256) for _ in range(rng.randint(2, 9)))
    payload = 8 * len(data) - stream.payload_start
    for _ in range(6):
        flipped = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            pos = stream.payload_start + rng.randrange(payload)
            flipped[pos >> 3] ^= 0x80 >> (pos & 7)
        yield bytes(flipped)


def check_damaged(rng, table, stream):
    seen = set()
    for data in damaged(rng, stream):
        want = check(table, Bitstream(data), lockstep=False)
        seen.add(want[0] if isinstance(want, tuple) else list)
    return seen


@pytest.fixture
def small_lanes(monkeypatch):
    """16 lanes from 512 symbols on, so short blocks hold many lanes."""
    monkeypatch.setattr(codec, "LANES", 16)
    monkeypatch.setattr(codec, "LOCKSTEP_SYMBOLS", 512)


ZIPF = validate_distribution([(b, 1.0 / (b + 1) ** 1.2) for b in range(64)])
BUILDERS = [
    ("huffman", 2), ("type1", 4), ("type2", 2), ("saeds-case1", 16),
    ("saeds-case2", 64), ("saeds-case3", 64), ("large-n", 64),
    ("tans", 64),
]


def test_builder_list_is_complete():
    assert sorted(name for name, _ in BUILDERS) == sorted(cli.CODECS)


@pytest.mark.parametrize("name,states", BUILDERS)
def test_every_codec_around_the_cut_over(name, states):
    table = cli.build_table(ZIPF, name, states)
    rng = random.Random(name)
    cut, lanes = codec.LOCKSTEP_SYMBOLS, codec.LANES
    data = random_sequence(rng, ZIPF, cut + lanes)
    for n in (cut - 1, cut, cut + 1, cut + lanes - 1, cut + lanes):
        stream = encode(table, data[:n], rng.randrange(table.n_states))
        check(table, stream, lockstep=n >= cut)
    assert decode(table, stream) == data


@pytest.mark.parametrize("name,states", BUILDERS)
def test_every_codec_with_remainders_at_lane_boundaries(small_lanes, name,
                                                        states):
    table = cli.build_table(ZIPF, name, states)
    rng = random.Random(f"{name} lanes")
    for n in (511, 512, 513, 527, 528, 529, 1000, 4096, 4111, 20_000):
        stream = encode(table, random_sequence(rng, ZIPF, n),
                        rng.randrange(table.n_states))
        check(table, stream, lockstep=n >= 512)
        assert check_damaged(rng, table, stream)


@pytest.mark.parametrize("rows", [lambda total, n: 1,
                                  lambda total, n: -(-total // 16) // 2,
                                  lambda total, n: -(-total // 16)])
def test_lanes_that_cannot_meet(small_lanes, monkeypatch, rows):
    # lanes that stop before (or at) the next lane's first byte meet no
    # lane: the serial loop decodes every lane's gap
    monkeypatch.setattr(codec, "_lane_rows", rows)
    monkeypatch.setattr(codec, "UNMET_SHARE", 1)
    rng = random.Random(3)
    for name, states in BUILDERS[::3]:
        table = cli.build_table(ZIPF, name, states)
        for n in (512, 3000):
            stream = encode(table, random_sequence(rng, ZIPF, n))
            check(table, stream)
            check_damaged(rng, table, stream)


def test_blocks_where_most_lanes_do_not_meet_decode_serially(small_lanes,
                                                             monkeypatch):
    monkeypatch.setattr(codec, "_lane_rows", lambda total, n: 4)
    table = cli.build_table(ZIPF, "type2", 2)
    stream = encode(table, random_sequence(random.Random(4), ZIPF, 5000))
    assert codec._lockstep_decode(table, stream) is None
    check(table, stream, lockstep=False)


def short_damaged(rng, stream):
    """The last three truncations of ``stream`` that keep its header, one
    with a byte appended and four with a payload bit flipped."""
    data, start = stream.data, stream.payload_start
    for cut in range(-(-start // 8), len(data))[-3:]:
        yield data[:cut]
    yield data + bytes([rng.randrange(1, 256)])
    for _ in range(4):
        flipped = bytearray(data)
        pos = rng.randrange(start, 8 * len(data))
        flipped[pos >> 3] ^= 0x80 >> (pos & 7)
        yield bytes(flipped)


def test_a_short_block_takes_the_same_path_after_a_long_one(monkeypatch):
    # the short last block of a file decodes as it would on a fresh table,
    # although the long block before it built the index; a damaged one
    # fails with the reference decoder's error
    built = []
    real = codec._Lanes
    monkeypatch.setattr(codec, "_Lanes",
                        lambda *args: built.append(1) or real(*args))
    table = cli.build_table(ZIPF, "type2", 2)
    rng = random.Random(24)
    long = encode(table, random_sequence(rng, ZIPF, codec.LOCKSTEP_SYMBOLS))
    seen = set()
    for n in (1, 15, 16, 4096):
        stream = encode(table, random_sequence(rng, ZIPF, n))
        for data in (stream.data, *short_damaged(rng, stream)):
            counts = []
            for warm in (False, True):
                fresh = AedsTable(table.symbols, table.nexts, table.lengths,
                                  table.values)
                if warm:
                    decode_indices(fresh, long)
                built.clear()
                got = outcome(decode_indices, fresh, Bitstream(data))
                counts.append(len(built))
                assert got == outcome(reference_indices, table,
                                      Bitstream(data))
            assert counts == [0, 0]
            seen.add(got[0] if isinstance(got, tuple) else list)
    assert {list, TruncatedStream, TrailingGarbage} <= seen


def skewed_type2_block(seed):
    """The first 2^20-byte block of the skewed benchmark corpus (byte 0
    with 0.7, bytes 1..31 sharing 0.3 with weights 2^-i) and its type2
    table."""
    weights = [0.7] + [0.3 * 2.0 ** -i / (1.0 - 2.0 ** -31)
                       for i in range(1, 32)]
    data = bytes(random.Random(seed).choices(range(32), weights, k=1 << 20))
    p = validate_distribution(
        (b, data.count(b)) for b in range(32))
    table = cli.build_table(p, "type2", 2)
    return table, data, encode(table, data)


def test_seed_3_skewed_corpus_where_lanes_do_not_meet(monkeypatch):
    # 96 rows beyond an even share leave a few lanes of this block unmet
    # (128 none); the serial loop bridges them
    monkeypatch.setattr(codec, "_lane_rows",
                        lambda total, n: -(-total // codec.LANES) + 96)
    table, data, stream = skewed_type2_block(3)
    assert table.lengths.max() > LOOKUP_BITS  # sub-windows on the path
    lanes = codec._Lanes(table.decoding_tries(), len(table.symbols),
                         stream.data, stream.payload_start,
                         stream.initial_state,
                         codec._lane_rows(stream.length, table.n_states),
                         codec.LANES)
    assert 0 < lanes.meets.count(-1) <= codec.UNMET_SHARE * codec.LANES
    got = decode_indices(table, stream)
    assert got.tobytes().translate(bytes(table.symbols).ljust(256, b"\0")) \
        == data
    assert got.tolist() == reference_indices(table, stream).tolist()
    monkeypatch.undo()
    assert decode_indices(table, stream).tolist() == got.tolist()


def test_damaged_long_streams_name_the_serial_error():
    table, data, stream = skewed_type2_block(1)
    rng = random.Random(5)
    seen = check_damaged(rng, table, Bitstream(stream.data[:len(
        stream.data) // 2 + 3]))
    seen |= check_damaged(rng, table, stream)
    assert {TruncatedStream, TrailingGarbage} <= seen


def reshaped(rng, table):
    """``table`` with each decoder state x's codewords wrapped as head_x +
    word + tail_x: heads push words one or two sub-windows deep, and a
    tail of "0" leaves the set incomplete, so damaged streams meet dead
    slots."""
    heads = [Codeword(rng.getrandbits(n), n)
             for n in (rng.choice((0, 3, LOOKUP_BITS + 5, 2 * LOOKUP_BITS))
                       for _ in range(table.n_states))]
    tails = [Codeword(0, rng.randint(0, 1)) for _ in range(table.n_states)]
    rows = [[(heads[nxt].concat(word).concat(tails[nxt]), nxt)
             for word, nxt in row] for row in table.encoder]
    return AedsTable.from_rows(table.symbols, rows)


def test_random_tables_with_sub_windows_and_dead_slots(small_lanes,
                                                      monkeypatch):
    # the heads make paths meet slowly, so many of the 16 lanes do not
    # meet the next one: the lockstep goes on through them all the same
    monkeypatch.setattr(codec, "UNMET_SHARE", 1)
    rng = random.Random(2603)
    seen = set()
    for trial in range(24):
        table = reshaped(rng, random_table(rng))
        p = validate_distribution(
            (s, rng.uniform(0.1, 1)) for s in table.symbols)
        stream = encode(table, random_sequence(rng, p, rng.choice(
            (512, 700, 2000))))
        check(table, stream)
        seen |= check_damaged(rng, table, stream)
    assert {list, TruncatedStream, TrailingGarbage,
            UnmatchedCodeword} <= seen


def test_more_than_256_symbols(small_lanes):
    # one state, 212 words of 8 bits and 88 of 9
    lengths = [8] * 212 + [9] * 88
    values = list(range(212)) + list(range(424, 512))
    table = AedsTable(range(300), [[0] * 300], [lengths], [values])
    rng = random.Random(300)
    p = validate_distribution((s, 1) for s in table.symbols)
    stream = encode(table, random_sequence(rng, p, 3000))
    check(table, stream)
    check_damaged(rng, table, stream)


@pytest.mark.parametrize("size", [255, 256])
def test_byte_alphabets_whose_codes_need_two_bytes(small_lanes, size):
    # symbol codes m ("none") and m + 1 ("dead") no longer fit in a byte;
    # the indices still do
    p = validate_distribution((b, 1.0 / (b + 1)) for b in range(size))
    rng = random.Random(size)
    for name, states in (("huffman", 2), ("large-n", 512)):
        table = cli.build_table(p, name, states)
        assert table.decoding_tries()[1].dtype == np.uint16
        check(table, encode(table, random_sequence(rng, p, 3000)))


def test_lanes_too_long_for_two_byte_positions(small_lanes):
    # 16 lanes over 100,000 symbols run more than 65,535 / 12 rows
    table = cli.build_table(ZIPF, "type2", 2)
    rng = random.Random(8)
    stream = encode(table, random_sequence(rng, ZIPF, 100_000))
    lanes = codec._Lanes(table.decoding_tries(), len(table.symbols),
                         stream.data, stream.payload_start,
                         stream.initial_state,
                         codec._lane_rows(stream.length, table.n_states),
                         codec.LANES)
    assert lanes.pos.dtype == np.uint32
    check(table, stream)


def test_zero_bit_words_put_points_at_one_bit(small_lanes):
    # the demo table's states alpha3 and alpha5 parse only the empty word
    table = demo_table()
    assert table.decoding_tries()[3] == 2
    rng = random.Random(6)
    for n in (512, 5000):
        stream = encode(table, rng.choices("abc", [1, 5, 1], k=n))
        check(table, stream)
        check_damaged(rng, table, stream)


def test_tables_with_a_zero_bit_cycle_decode_serially(small_lanes):
    w = Codeword.from_bits
    pair = AedsTable.from_rows("ab", [
        ((w(""), 1), (w(""), 2)), ((w(""), 0), (w("00"), 4)),
        ((w(""), 3), (w("01"), 4)), ((w("100"), 4), (w("101"), 4)),
        ((w("110"), 4), (w("111"), 4))])
    single = AedsTable([7], [[0]], [[0]], [[0]])
    for table, symbols in ((pair, "ab"), (single, [7])):
        assert table.decoding_tries() is not None  # the serial loop's
        stream = encode(table, random.Random(7).choices(symbols, k=3000))
        assert codec._lockstep_decode(table, stream) is None
        check(table, stream, lockstep=False)


def test_empty_stream():
    for name, states in BUILDERS:
        table = cli.build_table(ZIPF, name, states)
        got = decode_indices(table, encode(table, []))
        assert got.dtype == np.uint8 and got.size == 0


def test_prefix_violation_is_raised_as_by_the_run_index(small_lanes):
    w = Codeword.from_bits
    table = AedsTable.from_rows("ab", [((w("0"), 0), (w("01"), 0))])
    stream = encode(table, "ab" * 2000)
    for decoder in (decode_indices, decode, lambda t, s: t.decoding_tries()):
        with pytest.raises(PrefixViolation) as err:
            decoder(table, stream)
        assert (err.value.state, err.value.first, err.value.second) == (
            0, "0", "01")


def truncation_bomb():
    """Over the demo table: a 16-bit payload that declares 2^40 symbols."""
    head = STREAM_MAGIC + bytes([STREAM_VERSION]) + _leb128(5)
    bits = "000" + "".join(format(b, "08b") for b in _leb128(1 << 40))
    bits += "10" * 8
    bits += "0" * (-len(bits) % 8)
    return Bitstream(head + int(bits, 2).to_bytes(len(bits) // 8, "big"))


@pytest.mark.parametrize("decoder", [decode_indices, decode])
def test_memory_is_bounded_by_the_payload(decoder):
    table, stream = demo_table(), truncation_bomb()
    assert stream.length == 1 << 40
    decoder(table, Bitstream(encode(table, "ab").data))  # set-up outside

    def run():
        started = time.perf_counter()
        with pytest.raises(TruncatedStream):
            decoder(table, stream)
        return time.perf_counter() - started
    elapsed, peak = traced_peak(run)
    assert elapsed < 0.5
    assert peak < 10 << 20


def test_containers_of_tables_without_byte_symbols_are_malformed():
    table = AedsTable.from_rows(["x", "y"], [((Codeword.from_bits("0"), 0),
                                              (Codeword.from_bits("1"), 0))])
    blob = codec.serialize_table(table)
    stream = encode(table, "xy").data
    container = (cli.CONTAINER_MAGIC + bytes([cli.CONTAINER_VERSION, 1])
                 + bytes(4) + _leb128(len(blob)) + blob + _leb128(1)
                 + _leb128(len(stream)) + stream)
    with pytest.raises(MalformedStream, match="not byte values"):
        cli.read_container(container)
