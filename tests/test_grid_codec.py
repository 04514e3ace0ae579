"""The array grid codec of ``serialize_table`` and ``deserialize_table``
against the cell-at-a-time writer and parser it replaced, kept below as
oracles.  Seeded random tables must serialize to the same bytes, and
resealed mutations of table blobs must give the same table, or an error
of the same class, from both parsers.
"""

import gc
import hashlib
import random
import time

import numpy as np
import pytest

from aeds.codec import (
    TABLE_MAGIC,
    TABLE_VERSION,
    BitReader,
    BitWriter,
    _leb128,
    _read_symbol,
    _seal,
    _write_symbol,
    deserialize_table,
    serialize_table,
)
from aeds.errors import (
    AedsError,
    HashMismatch,
    MalformedStream,
    MalformedTable,
    PrefixViolation,
    TableError,
    TruncatedStream,
    VersionMismatch,
)
from aeds.model import (INT_BITS, PACK_SLICE, AedsTable, Codeword,
                        demo_table)

from conftest import random_table, traced_peak

LENGTHS = (0, 1, 7, 8, 9, 57, 63, 64, 127, 128, 4096)


# ---------------------------------------------------------------------------
# oracles: the per-cell writer and parser


def oracle_serialize(table):
    w = BitWriter()
    w.write_bytes(TABLE_MAGIC)
    w.write(TABLE_VERSION, 8)
    w.write_leb128(table.n_states)
    w.write_leb128(len(table.symbols))
    for s in table.symbols:
        _write_symbol(w, s)
    out = bytearray(w.getvalue())
    for nxt, length, value in zip(*(a.ravel().tolist() for a in (
            table.nexts, table.lengths, table.values))):
        out += _leb128(nxt)
        out += _leb128(length)
        out += value.to_bytes((length + 7) >> 3, "big")
    return _seal(bytes(out))


def oracle_leb128_at(body, pos):
    value = shift = 0
    while True:
        if shift > 63:
            raise MalformedStream("LEB128 value too large")
        byte = body[pos]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos + 1
        pos += 1
        shift += 7


def oracle_deserialize(data):
    if len(data) < 32 + 6:
        raise MalformedTable("too short to hold a table")
    body = data[:-32]
    if body[:4] != TABLE_MAGIC:
        raise MalformedTable("bad table magic")
    if hashlib.sha256(body).digest() != data[-32:]:
        raise HashMismatch("table bytes fail their content hash")
    r = BitReader(body, 32)
    try:
        version = r.read(8)
        if version != TABLE_VERSION:
            raise VersionMismatch(f"table version {version}")
        n = r.read_leb128()
        n_sym = r.read_leb128()
        if n < 1 or n_sym < 1:
            raise MalformedTable("empty table")
        symbols = [_read_symbol(r) for _ in range(n_sym)]
        pos, grid = r.position >> 3, ([], [], [])
        for _ in range(n * n_sym):
            nxt, pos = ((body[pos], pos + 1) if body[pos] < 0x80
                        else oracle_leb128_at(body, pos))
            length, pos = ((body[pos], pos + 1) if body[pos] < 0x80
                           else oracle_leb128_at(body, pos))
            stop = pos + ((length + 7) >> 3)
            if stop > len(body):
                raise TruncatedStream("table grid ends early")
            grid[0].append(nxt)
            grid[1].append(length)
            grid[2].append(int.from_bytes(body[pos:stop], "big"))
            pos = stop
    except (TruncatedStream, IndexError):
        raise MalformedTable("table bytes end early") from None
    except (MalformedStream, ValueError, UnicodeDecodeError) as exc:
        raise MalformedTable(str(exc)) from None
    if pos < len(body):
        raise MalformedTable("unexpected bytes after the encoder grid")
    try:
        return AedsTable(symbols, *(np.reshape(np.array(column, dtype=object),
                                               (n, n_sym)) for column in grid))
    except TableError as exc:
        raise MalformedTable(str(exc)) from None


# ---------------------------------------------------------------------------
# helpers


def grid_table(rng, n, m, lengths):
    """A table of random next states, lengths drawn from ``lengths`` (the
    last one in cell (0, 0)) and random values that fit them; there is no
    prefix condition, since serialization does not need one."""
    length = [[rng.choice(lengths) for _ in range(m)] for _ in range(n)]
    length[0][0] = lengths[-1]
    value = [[rng.getrandbits(k) if k else 0 for k in row] for row in length]
    nexts = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    symbols = [7, "s", b"raw", 300, "é"][:m]
    return AedsTable(symbols, nexts, length, np.array(value, dtype=object))


def outcome(parse, data):
    """The parsed table as comparable arrays, or the error class."""
    try:
        table = parse(data)
    except AedsError as exc:
        return type(exc)
    return (table.symbols, table.values.dtype, table.nexts.tolist(),
            table.lengths.tolist(), table.values.tolist())


def reseal(body):
    return body + hashlib.sha256(body).digest()


def mutations(rng, blob, count):
    """Resealed truncations, single-byte substitutions and inserted 0x80
    runs of ``blob``'s body."""
    body = blob[:-32]
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            yield reseal(body[:rng.randrange(4, len(body))])
        elif kind == 1:
            at = rng.randrange(4, len(body))
            yield reseal(body[:at] + bytes([rng.randrange(256)])
                         + body[at + 1:])
        else:
            at = rng.randrange(4, len(body) + 1)
            yield reseal(body[:at] + bytes([0x80] * rng.randint(1, 12))
                         + body[at:])


# ---------------------------------------------------------------------------
# writer


@pytest.mark.parametrize("n", [1, 127, 128, 129])
@pytest.mark.parametrize("kind", ["int64", "object"])
def test_random_tables_serialize_like_the_oracle(n, kind):
    rng = random.Random(n * 2 + (kind == "object"))
    lengths = LENGTHS if kind == "object" else [k for k in LENGTHS if k < 64]
    for m in (1, 2, 5):
        table = grid_table(rng, n, m, lengths)
        assert table.values.dtype == (object if kind == "object"
                                      else np.int64)
        blob = serialize_table(table)
        assert blob == oracle_serialize(table)
        assert outcome(deserialize_table, blob) == outcome(
            oracle_deserialize, blob)


def test_three_byte_next_states_serialize_like_the_oracle():
    table = grid_table(random.Random(5), 16385, 1, (0, 3, 14))
    blob = serialize_table(table)
    assert blob == oracle_serialize(table)
    assert np.array_equal(deserialize_table(blob).nexts, table.nexts)


def test_a_table_of_several_slices_serializes_like_the_oracle():
    # three grid slices: words over INT_BITS in the first and the last
    # only, next states of one to three LEB128 bytes, zero-length words
    rng = random.Random(28)
    n = 2 * PACK_SLICE + 5
    lengths = [rng.choice((0, 0, 1, 9, 17, 63)) for _ in range(n)]
    for i in (3, PACK_SLICE - 1, 2 * PACK_SLICE + 2):
        lengths[i] = rng.choice((64, 200, 4096))
    nexts = [rng.choice((rng.randrange(128), rng.randrange(128, 1 << 14),
                         rng.randrange(1 << 14, n))) for _ in range(n)]
    table = AedsTable([0], [[x] for x in nexts], [[k] for k in lengths],
                      np.array([[rng.getrandbits(k) if k else 0]
                                for k in lengths], dtype=object))
    long = np.flatnonzero(table.lengths.ravel() > INT_BITS) // PACK_SLICE
    assert sorted(set(long.tolist())) == [0, 2]
    assert {max(x.bit_length() + 6, 7) // 7 for x in nexts} == {1, 2, 3}
    assert 0 in lengths
    blob = serialize_table(table)
    assert blob == oracle_serialize(table)
    assert outcome(deserialize_table, blob) == outcome(oracle_deserialize,
                                                       blob)


def test_builder_tables_serialize_like_the_oracle():
    rng = random.Random(21)
    for table in [demo_table()] + [random_table(rng) for _ in range(20)]:
        assert serialize_table(table) == oracle_serialize(table)


# ---------------------------------------------------------------------------
# reader


def test_mutated_blobs_parse_like_the_oracle():
    rng = random.Random(1300)
    blobs = [serialize_table(demo_table())]
    blobs += [serialize_table(grid_table(rng, n, m, LENGTHS[:7]))
              for n, m in ((3, 2), (129, 1), (2, 3))]
    blobs.append(serialize_table(grid_table(rng, 2, 2, (0, 64, 128, 200))))
    seen = set()
    for blob in blobs:
        for data in mutations(rng, blob, 400):
            want = outcome(oracle_deserialize, data)
            assert outcome(deserialize_table, data) == want
            seen.add(want if isinstance(want, type) else "table")
    # the mutations reach the grid parser: some parse, some do not
    assert {"table", MalformedTable} <= seen


def test_reader_rejects_a_grid_larger_than_its_bytes_before_allocating():
    body = serialize_table(demo_table())[:-32]
    assert body[5] == 5  # demo_table's state count, one LEB128 byte
    data = reseal(body[:5] + bytes(_leb128(1 << 40)) + body[6:])

    def read():
        start = time.perf_counter()
        with pytest.raises(MalformedTable, match="no room"):
            deserialize_table(data)
        return time.perf_counter() - start
    elapsed, peak = traced_peak(read)
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_overlong_ten_byte_numbers_follow_the_oracle():
    # a tenth LEB128 byte may only be the zero that ends the number
    body = serialize_table(demo_table())[:-32]
    for last in (0x00, 0x01, 0x02, 0x80):
        nxt = bytes([0x80] * 9 + [last])
        data = reseal(body[:16] + nxt + body[17:])  # cell (0, a): next 3
        assert outcome(deserialize_table, data) == outcome(
            oracle_deserialize, data)


# ---------------------------------------------------------------------------
# the decoder index build pauses the cyclic collector


@pytest.mark.parametrize("enabled", [True, False])
def test_index_build_restores_the_collector_state(enabled):
    w = Codeword.from_bits
    clash = AedsTable.from_rows(("a", "b"), [((w("0"), 0), (w("01"), 0))])
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        demo_table().decoding_tries()
        assert gc.isenabled() == enabled
        with pytest.raises(PrefixViolation):
            clash.decoding_tries()
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
