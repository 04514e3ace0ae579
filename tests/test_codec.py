import hashlib
import math
import random

import pytest

from aeds.cli import CODECS, build_table
from aeds.codec import (
    CHUNK,
    LOCKSTEP_CHUNKS,
    PACK_SLICE,
    Bitstream,
    _pair_words,
    decode,
    deserialize_table,
    encode,
    serialize_table,
    table_digest,
    validate_aeds,
)
from aeds.constructors import build_type1, build_type2
from aeds.errors import (
    HashMismatch,
    MalformedStream,
    MalformedTable,
    PrefixViolation,
    TableError,
    TrailingGarbage,
    TruncatedStream,
    UnknownSymbol,
    UnmatchedCodeword,
    VersionMismatch,
)
from aeds.model import (AedsTable, Codeword, demo_table,
                        validate_distribution)
from aeds.prefix_codes import build_huffman

from conftest import (random_sequence, random_source, random_table,
                      serial_encode, trace_lengths, traced_peak)

SIX = validate_distribution(
    [("a", 0.35), ("b", 0.15), ("c", 0.15), ("d", 0.15),
     ("e", 0.1), ("f", 0.1)])


def test_validate_demo_table():
    report = validate_aeds(demo_table())
    assert report.well_formed
    assert report.ergodicity.irreducible and report.ergodicity.aperiodic


def test_validate_rejects_prefix_clash():
    w = Codeword.from_bits
    rows = [
        ((w("0"), 0), (w("01"), 0)),
        ((w("10"), 0), (w("11"), 0)),
    ]
    with pytest.raises(PrefixViolation):
        validate_aeds(AedsTable.from_rows(("a", "b"), rows))


def test_two_state_chain_is_ergodic():
    p = validate_distribution([("r", 0.65), ("l", 0.35)])
    table = build_type1(build_huffman(p), p, 2)
    report = validate_aeds(table)
    # oracle: enumerate the 2-state transition graph by hand
    succ = [{nxt for _, nxt in row} for row in table.encoder]
    assert succ[0] == {0, 1} and 0 in succ[1]
    assert report.ergodicity.irreducible and report.ergodicity.aperiodic


def test_periodic_chain_reported():
    w = Codeword.from_bits
    rows = [
        ((w("0"), 1), (w("1"), 1)),
        ((w("0"), 0), (w("1"), 0)),
    ]
    table = AedsTable.from_rows(("a", "b"), rows)
    report = validate_aeds(table)
    assert report.ergodicity.irreducible
    assert not report.ergodicity.aperiodic
    assert report.ergodicity.period == 2


def test_worked_example_bits():
    t = demo_table()
    stream = encode(t, "cbba")
    assert stream.initial_state == 0          # back at the first state
    assert stream.length == 4
    bits = stream.payload_bits()
    assert bits[:6] == "111100"               # 111 | 10 | 0
    assert set(bits[6:]) <= {"0"}             # zero padding only
    assert decode(t, stream) == list("cbba")


def test_empty_sequence_roundtrip():
    t = demo_table()
    stream = encode(t, [])
    assert stream.length == 0
    assert decode(t, stream) == []


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol) as err:
        encode(demo_table(), "abz")
    assert err.value.position == 2


@pytest.mark.parametrize("where", [0, 54_321, 99_999])
def test_unknown_symbol_position_in_a_long_sequence(where):
    seq = random.Random(where).choices("abc", k=100_000)
    seq[where] = "z"
    if where < len(seq) - 1:
        seq[-1] = "y"  # a later unknown symbol, not the one to report
    for given in (seq, iter(seq)):
        with pytest.raises(UnknownSymbol) as err:
            encode(demo_table(), given)
        assert (err.value.position, err.value.symbol) == (where, "z")


def test_payload_matches_the_codeword_view():
    # reference: walk the Codeword view backward, concatenate "0101" words
    rng = random.Random(8)
    for _ in range(100):
        table = random_table(rng, require_ergodic=False)
        seq = rng.choices(table.symbols, k=rng.randint(0, 200))
        start = rng.randrange(table.n_states)
        x, words = start, []
        for s in reversed(seq):
            word, x = table.encoder[x][table.symbol_index(s)]
            words.append(word.bits)
        bits = "".join(reversed(words))
        stream = encode(table, seq, start)
        assert stream.initial_state == x
        assert stream.exact_payload_bits == len(bits)
        tail = stream.payload_bits()
        assert tail[:len(bits)] == bits and len(tail) - len(bits) < 8


# Traced peak of the encoder that kept a list of symbol indices and a list
# of visited cells and wrote one (value, length) pair at a time, on the
# input below: 17,504,266 bytes.
LIST_ENCODER_PEAK = 17_504_266


def test_encode_memory_stays_under_the_list_encoder():
    weights = [0.7] + [0.3 * 2.0 ** -i / (1 - 2.0 ** -31)
                       for i in range(1, 32)]
    p = validate_distribution(zip(range(32), weights))
    table = build_type2(build_huffman(p), p)
    data = bytes(random.Random(1).choices(range(32), weights, k=1 << 20))
    encode(table, data[:64])  # numpy's first-call set-up is not encode's
    stream, peak = traced_peak(lambda: encode(table, data))
    assert stream.length == 1 << 20
    assert peak <= LIST_ENCODER_PEAK


def test_one_byte_encodes_equal_the_serial_oracle():
    """Every CLI codec whose table has at most 256 cells, over an odd
    number of symbols long enough for the lockstep pass and many pair
    slices, writes the stream of the one-symbol-at-a-time oracle."""
    p = validate_distribution(zip("abcdefgh", (90, 3, 2, 2, 1, 1, .5, .5)))
    tables = [build_table(p, name, 16) for name in CODECS]
    assert [t.n_states for t in tables[:3]] == [1, 16, 5]  # no fallback
    tables.append(build_table(validate_distribution(
        (b, 1 + b % 7) for b in range(256)), "huffman", 1))
    n = LOCKSTEP_CHUNKS * CHUNK + 2 * PACK_SLICE + 1
    rng = random.Random(22)
    for table in tables:
        assert table.nexts.size <= 256 and _pair_words(table) is not None
        seq = random_sequence(rng, validate_distribution(
            zip(table.symbols, rng.choices(range(1, 9), k=len(
                table.symbols)))), n)
        start = rng.randrange(table.n_states)
        assert encode(table, seq, start) == serial_encode(table, seq, start)


def test_length_accounting():
    rng = random.Random(77)
    for _ in range(30):
        table = random_table(rng)
        p = random_source(rng, symbols=[f"s{i}"
                                        for i in range(len(table.symbols))])
        seq = random_sequence(rng, p, rng.randint(0, 80))
        stream = encode(table, seq)
        expected_payload = sum(trace_lengths(table, seq))
        total_bits = len(stream.data) * 8
        header_bits = stream.payload_start
        padding = (-(header_bits + expected_payload)) % 8
        assert total_bits == header_bits + expected_payload + padding
        assert decode(table, stream) == seq


def test_roundtrip_random_tables():
    rng = random.Random(123)
    for _ in range(200):
        table = random_table(rng)
        p = random_source(rng, symbols=[f"s{i}"
                                        for i in range(len(table.symbols))])
        seq = random_sequence(rng, p, rng.randint(0, 60))
        assert decode(table, encode(table, seq)) == seq


def test_initial_state_policies():
    rng = random.Random(5)
    p = random_source(rng, symbols=list(SIX.symbols))
    table = build_type1(build_huffman(SIX), SIX, 4)
    seq = random_sequence(rng, SIX, 50)
    pinned = encode(table, seq, initial_state=2)
    assert decode(table, pinned) == seq


def test_initial_state_indifference_on_built_tables():
    # over one block the start state shifts the length by a bounded amount
    rng = random.Random(17)
    for build in (lambda: build_type1(build_huffman(SIX), SIX, 3),
                  lambda: build_type2(build_huffman(SIX), SIX)):
        table = build()
        n = table.n_states
        max_len = max(w.length for row in table.encoder for w, _ in row)
        seq = random_sequence(rng, SIX, n + 32)
        totals = [sum(trace_lengths(table, seq, start))
                  for start in range(n)]
        assert max(totals) - min(totals) <= n * max_len


def test_bit_flip_fuzz():
    rng = random.Random(99)
    table = demo_table()
    p = validate_distribution([("a", 5), ("b", 3), ("c", 2)])
    hits = 0
    for _ in range(300):
        seq = random_sequence(rng, p, rng.randint(1, 40))
        stream = encode(table, seq)
        blob = bytearray(stream.data)
        pos = rng.randrange(len(blob) * 8)
        blob[pos // 8] ^= 0x80 >> (pos % 8)
        try:
            out = decode(table, Bitstream(blob))
        except Exception:
            hits += 1
            continue
        if out != seq:
            hits += 1
    assert hits > 0  # a flip is never silently absorbed into the same text?
    # no stronger guarantee: some flips decode to different sequences, some
    # raise; either way the outer container checksum catches them


def test_truncated_and_garbage_streams():
    t = demo_table()
    p = validate_distribution([("a", 5), ("b", 3), ("c", 2)])
    seq = ["a", "c", "b"] * 20
    stream = encode(t, seq)
    with pytest.raises(TruncatedStream):
        decode(t, Bitstream(stream.data[:-4]))
    with pytest.raises(TrailingGarbage):
        decode(t, Bitstream(stream.data + b"\xff"))


def _set(data, at, value):
    return data[:at] + bytes([value]) + data[at + 1:]


@pytest.mark.parametrize("damage,error,message", [
    (lambda d: b"AEDX" + d[4:], MalformedStream, "bad stream magic"),
    (lambda d: _set(d, 4, 2), VersionMismatch, "stream version 2"),
    (lambda d: _set(d, 5, 0), MalformedStream, "state count must be positive"),
    # the 3-bit initial state of the 5-state table leads byte 6
    (lambda d: _set(d, 6, d[6] | 0xE0), MalformedStream,
     "initial state out of range"),
    (lambda d: d[:6], MalformedStream, "stream ends inside the header"),
    # one state, so no initial-state bits: a symbol count of 2^64 - 1
    (lambda d: d[:5] + b"\x01" + bytes([0xFF] * 9 + [0x01]), MalformedStream,
     "LEB128 value too large"),
])
def test_damaged_stream_headers(damage, error, message):
    data = encode(demo_table(), list("cbba")).data
    assert Bitstream(data).n_states == 5
    with pytest.raises(error, match=message):
        Bitstream(damage(data))


@pytest.mark.parametrize("start", [-1, 5, 6])
def test_encode_rejects_a_start_state_out_of_range(start):
    with pytest.raises(TableError, match=f"initial state {start} out of"):
        encode(demo_table(), list("cbba"), initial_state=start)


def test_unmatched_codeword():
    w = Codeword.from_bits
    rows = [
        ((w("0"), 1), (w("1"), 1)),
        ((w("0"), 0), (w("10"), 0)),   # state 0 parses {0, 10}: "11" is dead
    ]
    table = AedsTable.from_rows(("a", "b"), rows)
    validate_aeds(table)
    stream = Bitstream.assemble(2, 0, 1, [0b11], [2])
    with pytest.raises(UnmatchedCodeword):
        decode(table, stream)


def test_rate_convergence_direct_encode():
    from aeds.analysis import stationary_distribution
    table = build_type2(build_huffman(SIX), SIX)
    analytic = stationary_distribution(table, SIX).mean_bits
    rng = random.Random(2024)
    n, chunks = 10 ** 6, 100
    seq = random_sequence(rng, SIX, n)
    stream = encode(table, seq)
    payload = sum(trace_lengths(table, seq))
    header = stream.payload_start
    assert len(stream.data) * 8 - header - payload < 8
    rate = payload / n
    size = n // chunks
    means = [sum(trace_lengths(table, seq[i * size:(i + 1) * size])) / size
             for i in range(chunks)]
    stderr = (sum((m - rate) ** 2 for m in means)
              / (chunks - 1)) ** 0.5 / math.sqrt(chunks)
    assert abs(rate - analytic) < 3 * stderr
    assert decode(table, stream) == seq


# ---------------------------------------------------------------------------
# serialization


def test_serialize_roundtrip_demo():
    t = demo_table()
    blob = serialize_table(t)
    back = deserialize_table(blob)
    assert back.encoder == t.encoder and back.symbols == t.symbols
    assert serialize_table(back) == blob
    assert table_digest(back) == table_digest(t)


def test_serialize_deterministic_across_builds():
    a = build_type2(build_huffman(SIX), SIX)
    b = build_type2(build_huffman(SIX), SIX)
    assert serialize_table(a) == serialize_table(b)


def test_serialize_byte_and_int_symbols():
    rng = random.Random(3)
    table = random_table(rng)
    blob = serialize_table(table)
    assert deserialize_table(blob).encoder == table.encoder
    p = validate_distribution([(7, 1), (250, 2), (b"raw", 1)])
    from aeds.constructors import build_prefix_table
    one = build_prefix_table(build_huffman(p), p)
    back = deserialize_table(serialize_table(one))
    assert back.symbols == (7, 250, b"raw")


@pytest.mark.parametrize("symbol,message", [
    (True, "boolean symbols"),
    (-1, "negative integer symbols"),
    (1.5, "cannot serialize symbol of type <class 'float'>"),
])
def test_serialize_rejects_unwritable_symbols(symbol, message):
    table = AedsTable((symbol, "b"), [[0, 0]], [[1, 1]], [[0, 1]])
    with pytest.raises(MalformedTable, match=message):
        serialize_table(table)


def test_serialize_rejects_damage():
    blob = serialize_table(demo_table())
    with pytest.raises(MalformedTable):
        deserialize_table(blob[:10])
    with pytest.raises(HashMismatch):
        broken = bytearray(blob)
        broken[8] ^= 1
        deserialize_table(bytes(broken))
    with pytest.raises(MalformedTable):
        deserialize_table(b"JUNK" + blob[4:])


def test_serialize_version_gate():
    import hashlib
    blob = serialize_table(demo_table())
    body = bytearray(blob[:-32])
    body[4] = 9  # future version, rehashed so only the gate trips
    forged = bytes(body) + hashlib.sha256(bytes(body)).digest()
    with pytest.raises(VersionMismatch):
        deserialize_table(forged)


def test_long_roundtrip_two_state_chain():
    rng = random.Random(10_000)
    table = build_type1(build_huffman(SIX), SIX, 2)
    seq = random_sequence(rng, SIX, 10_000)
    assert decode(table, encode(table, seq)) == seq


def test_deserialize_fuzz_raises_package_errors_only():
    from aeds.errors import AedsError
    rng = random.Random(404)
    blob = serialize_table(demo_table())
    for _ in range(300):
        choice = rng.random()
        if choice < 0.4:
            data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 60)))
        elif choice < 0.7:
            cut = rng.randint(0, len(blob))
            data = blob[:cut]
        else:
            data = bytearray(blob)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            data = bytes(data)
        try:
            table = deserialize_table(data)
        except AedsError:
            continue
        # a surviving mutation must still be a coherent table
        validate_aeds(table)


def test_very_long_codewords_roundtrip():
    bits = "01" * 40  # 80-bit codeword, larger than any machine word
    w = Codeword.from_bits
    rows = [
        ((w(bits), 1), (w("1" + "0" * 79), 1)),
        ((w("0"), 0), (w("1"), 0)),
    ]
    table = AedsTable.from_rows(("a", "b"), rows)
    validate_aeds(table)
    seq = list("abbaab")
    stream = encode(table, seq)
    assert decode(table, stream) == seq
    back = deserialize_table(serialize_table(table))
    assert back.encoder == table.encoder


def test_table_blob_errors():
    blob = serialize_table(demo_table())
    assert serialize_table(deserialize_table(blob)) == blob
    for bad in (blob[:37], b"", b"XXXX" + blob[4:]):
        with pytest.raises(MalformedTable):
            deserialize_table(bad)
    body = b"XXXX" + blob[4:-32]
    with pytest.raises(MalformedTable):
        deserialize_table(body + hashlib.sha256(body).digest())
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x01
    with pytest.raises(HashMismatch):
        deserialize_table(bytes(flipped))


# demo_table's blob: "AEDT", version, N at byte 5, |A| at byte 6, three
# 3-byte symbols, then the grid from byte 16
@pytest.mark.parametrize("at", [5, 16], ids=["state-count", "grid-cell"])
def test_overlong_leb128_is_a_malformed_table(at):
    body = serialize_table(demo_table())[:-32]
    body = body[:at] + bytes([0x80] * 10) + body[at:]
    with pytest.raises(MalformedTable, match="LEB128"):
        deserialize_table(body + hashlib.sha256(body).digest())
