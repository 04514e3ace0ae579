"""BitReader / BitWriter: the bulk operations agree with bit-by-bit reads
and with a "0101"-string reference writer."""

import random

import numpy as np
import pytest

import aeds.codec
from aeds.codec import BitReader, BitWriter
from aeds.errors import TruncatedStream
from aeds.model import AedsTable


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


def bit_string(words):
    """(value, bit count) pairs written MSB first as a "0101" string."""
    return "".join(format(value, f"0{nbits}b") for value, nbits in words
                   if nbits)


def padded_bytes(bits):
    """A "0101" string zero-padded to whole bytes."""
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


@pytest.mark.parametrize("lead", [0, 1, 7, 8, 11])
def test_write_bytes_aligned_and_unaligned(lead):
    rng = random.Random(lead)
    payload = bytes(rng.randrange(256) for _ in range(25))
    head = rng.getrandbits(lead)
    w = BitWriter()
    w.write(head, lead)
    w.write_bytes(payload)
    w.write(0b101, 3)
    ref = bit_string([(head, lead),
                      (int.from_bytes(payload, "big"), 8 * len(payload)),
                      (0b101, 3)])
    assert w.bit_length == len(ref) == lead + 8 * len(payload) + 3
    assert w.getvalue() == padded_bytes(ref)
    back = BitReader(w.getvalue(), lead)
    assert back.read_bytes(len(payload)) == payload


# 0, the longest word a uint64 window holds from any start offset (57), the
# int64 table values' limit (63), object values (64) and a 4096-bit word
@pytest.mark.parametrize("longest", [0, 1, 9, 56, 57, 63, 64, 4096])
@pytest.mark.parametrize("lead", range(8))
def test_write_words_matches_a_bit_string(lead, longest, monkeypatch):
    monkeypatch.setattr(aeds.codec, "PACK_SLICE", 16)  # many slices
    rng = random.Random(8 * longest + lead)
    dtype = np.int64 if longest <= 63 else object
    for size in (0, 1, 15, 16, 17, 90):
        lengths = [rng.choice((0, longest, rng.randint(0, longest)))
                   for _ in range(size)]
        if size:
            lengths[rng.randrange(size)] = longest
        values = [rng.getrandbits(n) for n in lengths]
        cells = [rng.randrange(size) for _ in range(size + 7)] if size else []
        head = rng.getrandbits(lead)
        for got, words in (
                ((np.array(values, dtype), np.array(lengths)),
                 zip(values, lengths)),
                ((values, lengths), zip(values, lengths)),
                ((np.array(values, dtype), np.array(lengths),
                  np.array(cells, np.intp)),
                 ((values[c], lengths[c]) for c in cells))):
            w = BitWriter()
            w.write(head, lead)
            w.write_words(*got)
            w.write(0b101, 3)
            ref = bit_string([(head, lead), *words, (0b101, 3)])
            assert w.bit_length == len(ref)
            assert w.getvalue() == padded_bytes(ref)


# around the pair limit (two words of 32 bits), the longest word the 64-bit
# packer takes and the word-by-word path above it
@pytest.mark.parametrize("longest", [0, 1, 8, 31, 32, 33, 64, 65])
@pytest.mark.parametrize("lead", range(8))
def test_one_byte_cells_match_a_bit_string(lead, longest, monkeypatch):
    """Cells of a table of at most 256 cells, odd and even counts of them,
    written two at a time through the pair words when every word fits in
    32 bits; zero-length words fall inside pairs."""
    monkeypatch.setattr(aeds.codec, "PACK_SLICE", 3)  # many pair slices
    rng = random.Random(8 * longest + lead)
    for m in (1, 2, 7, 256):
        lengths = [rng.choice((0, longest, rng.randint(0, longest)))
                   for _ in range(m)]
        lengths[-1] = longest
        values = [rng.getrandbits(n) for n in lengths]
        table = AedsTable(range(m), np.zeros((1, m), np.int64), [lengths],
                          [values])
        pairs = aeds.codec._pair_words(table)
        assert (pairs is not None) == (longest <= 32)
        for size in (0, 1, 2, 5, 6, 7, 13, 40, 41):
            cells = np.frombuffer(bytes(rng.randrange(m)
                                        for _ in range(size)), np.uint8)
            head = rng.getrandbits(lead)
            w = BitWriter()
            w.write(head, lead)
            w.write_words(table.values.ravel(), table.lengths.ravel(), cells,
                          pairs)
            w.write(0b101, 3)
            ref = bit_string([(head, lead),
                              *((values[c], lengths[c]) for c in cells),
                              (0b101, 3)])
            assert w.bit_length == len(ref)
            assert w.getvalue() == padded_bytes(ref)


def test_pair_words_are_two_cells_in_order():
    """Pair a | b << 8 is the word of cell a followed by that of cell b,
    and the pair words are built once per table."""
    rng = random.Random(3)
    lengths = [rng.randint(0, 32) for _ in range(200)]
    values = [rng.getrandbits(n) for n in lengths]
    table = AedsTable(range(200), np.zeros((1, 200), np.int64), [lengths],
                      [values])
    pair_values, pair_lengths = aeds.codec._pair_words(table)
    assert aeds.codec._pair_words(table)[0] is pair_values
    assert pair_values.shape == pair_lengths.shape == (1 << 16,)
    values, lengths = values + [0] * 56, lengths + [0] * 56  # empty words
    for a, b in [(0, 0), (0, 199), (199, 0), (17, 42), (5, 255), (255, 9)]:
        assert (pair_values[a | b << 8], pair_lengths[a | b << 8]) == (
            values[a] << lengths[b] | values[b], lengths[a] + lengths[b])


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
