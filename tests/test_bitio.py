"""BitReader / BitWriter: the bulk operations agree with bit-by-bit IO."""

import random

import pytest

from aeds.codec import BitReader, BitWriter
from aeds.errors import TruncatedStream


def bits_of(data, start, count):
    reader = BitReader(data, start)
    return [reader.read_bit() for _ in range(count)]


def as_int(bits):
    return int("".join(map(str, bits)), 2) if bits else 0


def test_read_matches_per_bit_reads():
    rng = random.Random(1)
    data = bytes(rng.randrange(256) for _ in range(40))
    for _ in range(500):
        start = rng.randrange(8 * len(data))
        nbits = rng.randint(0, 8 * len(data) - start)
        reader = BitReader(data, start)
        assert reader.read(nbits) == as_int(bits_of(data, start, nbits))
        assert reader.position == start + nbits


@pytest.mark.parametrize("start", [0, 8, 16, 3, 13, 21])
def test_read_bytes_aligned_and_unaligned(start):
    rng = random.Random(start)
    data = bytes(rng.randrange(256) for _ in range(32))
    for n in range(0, (8 * len(data) - start) // 8 + 1):
        reader = BitReader(data, start)
        got = reader.read_bytes(n)
        assert isinstance(got, bytes)
        assert got == as_int(bits_of(data, start, 8 * n)).to_bytes(n, "big")
        assert reader.position == start + 8 * n


@pytest.mark.parametrize("start", [0, 5, 8, 19])
def test_reading_past_the_end_raises(start):
    data = bytes(range(1, 9))
    left = 8 * len(data) - start
    with pytest.raises(TruncatedStream):
        BitReader(data, start).read(left + 1)
    with pytest.raises(TruncatedStream):
        BitReader(data, start).read_bytes(left // 8 + 1)
    reader = BitReader(data, start)
    reader.read(left)
    assert reader.read(0) == 0 and reader.read_bytes(0) == b""
    with pytest.raises(TruncatedStream):
        reader.read_bit()
    with pytest.raises(TruncatedStream):
        reader.read(1)


def per_bit_writer(chunks):
    w = BitWriter()
    for value, nbits in chunks:
        for i in range(nbits - 1, -1, -1):
            w.write((value >> i) & 1, 1)
    return w


@pytest.mark.parametrize("lead", [0, 1, 7, 8, 11])
def test_write_bytes_aligned_and_unaligned(lead):
    rng = random.Random(lead)
    payload = bytes(rng.randrange(256) for _ in range(25))
    head = rng.getrandbits(lead)
    w = BitWriter()
    w.write(head, lead)
    w.write_bytes(payload)
    w.write(0b101, 3)
    ref = per_bit_writer([(head, lead),
                          (int.from_bytes(payload, "big"), 8 * len(payload)),
                          (0b101, 3)])
    assert w.bit_length == ref.bit_length == lead + 8 * len(payload) + 3
    assert w.getvalue() == ref.getvalue()
    back = BitReader(w.getvalue(), lead)
    assert back.read_bytes(len(payload)) == payload


def test_leb128_roundtrip_at_any_alignment():
    rng = random.Random(7)
    for lead in range(9):
        values = [rng.getrandbits(rng.randint(0, 63)) for _ in range(20)]
        w = BitWriter()
        w.write(0, lead)
        for v in values:
            w.write_leb128(v)
        reader = BitReader(w.getvalue(), lead)
        assert [reader.read_leb128() for _ in values] == values
