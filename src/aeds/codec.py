"""The executable machine: validation, backward encoding, forward decoding,
bitstream framing and canonical table serialization.

Stream layout (bit granularity, MSB first inside bytes):

    magic "AEDS" | version u8 | state count as LEB128 | initial decoder
    state in exactly ceil(lg N) bits | symbol count n as LEB128 | payload
    codewords in decode order | zero padding to a byte boundary

Encoding maps the whole sequence to symbol indices in one call, then runs
the backward recursion, which records the table cell each symbol visits in
a buffer of one or four bytes per symbol: chunks of the block run in step
from a guessed state, and the few cells where a guess was wrong are
re-run one at a time.  ``BitWriter.write_words`` packs those cells'
codewords in forward order into 64-bit words, ``PACK_SLICE`` words at a
time; one-byte cells go two at a time, as words of the 65,536 cell pairs
that a table of at most 256 cells builds once.  Memory is the cell
buffer, one work copy of it, the pair words (0.6 MB) and the payload.

Decoding reads the payload forward, one slot of a packed window array
(the decoder index, which every table has) a lookup, in one pass along
the path (``decode_indices``).  Long blocks decode in lockstep: lanes
started across the payload each take one slot a row, and are stitched
where their paths meet.  Short blocks, the gaps where lanes did not meet
and the path from its first anomaly run the serial loop over the same
slots (``_walk``).  At a dead slot, the error is named from the
codewords of the state its codeword starts in (``_unmatched``).
"""

import bisect
import hashlib
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    HashMismatch,
    MalformedStream,
    MalformedTable,
    TableError,
    TrailingGarbage,
    TruncatedStream,
    UnknownSymbol,
    UnmatchedCodeword,
    VersionMismatch,
)
from .model import (INT_BITS, LOOKUP_BITS, PACK_SLICE, AedsTable, Codeword,
                    ErgodicityReport, value_dtype, zero_bit_cycle)

STREAM_MAGIC = b"AEDS"
STREAM_VERSION = 1
TABLE_MAGIC = b"AEDT"
TABLE_VERSION = 1

# Symbols in a chunk of the speculative backward pass, and the chunks in a
# row that may re-run whole before the rest of a block runs serially: on 16
# states whose maps are rotations, which never meet, a 2^20-symbol pass
# then takes 1.1 to 1.2 times the serial loop.  The lockstep costs 1.35 to
# 1.51 ms on the five-state type2 table whatever the block length (two
# numpy calls per symbol position of a chunk, on a shared 2-CPU host); it
# ties the serial loop at 24 chunks and wins at 32 (on large-n with 4096
# states, from 16), so shorter blocks run serially.
CHUNK = 1 << 10
RERUN_LIMIT = 3
LOCKSTEP_CHUNKS = 32

# The lockstep decode (``_lanes``) runs LANES lanes, on blocks of at
# least LOCKSTEP_SYMBOLS symbols and tables of at most LOCKSTEP_STATES
# states (at N = 4096 most lanes did not meet).  The serial loop reads the
# same index: on a shared 2-CPU host, with the index built, 2^14 symbols
# took it 4.6 ms on the type2 table and 4.8 ms on huffman, against 3.3
# and 1.8 ms in lockstep, and 5.1-5.2 ms on the 512-state large-n, tans
# and saeds-case2 tables, against 7.7-9.5 ms (from 2^15 the lockstep wins
# there too: 8.3-8.6 ms against 10.2-11.4).  Each lane runs its share of
# the block's symbols, twice the square root of that share (the spread of
# the symbols its bits hold) and SYNC_ROWS rows per bit of the state count
# (paths meet later on larger tables) beyond it: measured, no lane was
# left unmet on 16 type2 blocks of 2^20 skewed bytes (seeds 1-8) nor on
# the 512-state large-n, tans and saeds-case2 tables of 128 KiB of Zipf
# bytes (seeds 1-4), and at most 2% of them on blocks of 2^14 symbols.
# After an unmet lane, and from the first anomaly on the path, the serial
# loop decodes a lane's share of symbols, at most SERIAL_STEP, at a time;
# with more than UNMET_SHARE of the lanes unmet, the whole block.
LANES = 1 << 10
LOCKSTEP_SYMBOLS = 1 << 14
LOCKSTEP_STATES = 1 << 11
SYNC_ROWS = 40
SERIAL_STEP = 256
UNMET_SHARE = 1 / 8


# ---------------------------------------------------------------------------
# bit-level IO


class BitWriter:
    """Accumulates bits MSB-first into a bytearray; the unfinished last
    byte waits in an integer accumulator as its ``_fill`` < 8 high bits."""

    __slots__ = ("_buf", "_acc", "_fill")

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._fill = 0

    def write(self, value, nbits):
        acc, fill = (self._acc << nbits) | value, self._fill + nbits
        keep = fill & 7
        self._buf += (acc >> keep).to_bytes(fill >> 3, "big")
        self._acc, self._fill = acc & ((1 << keep) - 1), keep

    def write_words(self, values, lengths, cells=None, pairs=None):
        """Write codewords in order, ``PACK_SLICE`` at a time: word i is
        ``values[i]`` in ``lengths[i]`` bits, or the word of table cell
        ``cells[i]`` when ``values`` and ``lengths`` are a table's flat
        arrays; two at a time with ``pairs``, from ``_pair_words``."""
        if pairs is not None:
            even = len(cells) & -2
            self.write_words(*pairs, cells[:even].view("<u2"))
            cells = cells[even:]
        if not isinstance(values, np.ndarray):
            # numpy would read a list holding 2^63 as floats
            values = np.array(values, dtype=object)
        lengths = np.asarray(lengths)
        for i in range(0, len(lengths if cells is None else cells),
                       PACK_SLICE):
            part = slice(i, i + PACK_SLICE)
            if cells is not None:
                part = cells[part].astype(np.intp)  # gathers fastest
            self._pack(values[part], lengths[part].astype(np.int64))

    def _pack(self, values, lengths):
        """Lay the words out from the current bit offset in 64-bit words:
        a word ending at bit e is shifted left by 64(w + 1) - e into word
        w = (e - 1) >> 6, one add.reduceat merges the words of each w
        (their bits are disjoint), and one that began in w - 1 ORs its
        high bits in there.  Longer words are written one at a time."""
        if lengths.max() > 64:
            for value, nbits in zip(values.tolist(), lengths.tolist()):
                self.write(value, nbits)
            return
        ends = np.cumsum(lengths) + self._fill
        total = int(ends[-1])
        values = values.astype(np.uint64, copy=False)
        shift = (-ends & 63).astype(np.uint64)  # 64(w + 1) - e
        starts = np.searchsorted(ends, np.arange(0, total, 64), "right")
        out = np.add.reduceat(values << shift, starts)
        out[starts == np.append(starts[1:], -1)] = 0  # no word ends there
        cross = np.flatnonzero(lengths + shift.view(np.int64) > 64)
        out[(ends[cross] - lengths[cross]) >> 6] |= (values[cross]
                                                     >> 64 - shift[cross])
        out[:1] |= np.uint64(self._acc << (64 - self._fill))  # empty: no bits
        out = out.astype(">u8").tobytes()
        self._buf += out[:total >> 3]
        self._fill = total & 7
        self._acc = out[total >> 3] >> (8 - self._fill) if self._fill else 0

    def write_bytes(self, data):
        if self._fill:
            self.write(int.from_bytes(data, "big"), 8 * len(data))
        else:
            self._buf += data

    def write_leb128(self, value):
        self.write_bytes(_leb128(value))

    @property
    def bit_length(self):
        return 8 * len(self._buf) + self._fill

    def getvalue(self):
        """Zero-pad to a byte boundary and return the bytes."""
        pad = -self._fill % 8
        return bytes(self._buf) + (self._acc << pad).to_bytes(
            (self._fill + pad) >> 3, "big")


class BitReader:
    """Reads bits MSB-first from bytes."""

    __slots__ = ("_data", "_pos", "_end")

    def __init__(self, data, start_bit=0):
        self._data = data
        self._pos = start_bit
        self._end = 8 * len(data)

    @property
    def position(self):
        return self._pos

    @property
    def bits_left(self):
        return self._end - self._pos

    def read_bit(self):
        if self._pos >= self._end:
            raise TruncatedStream("bit stream exhausted")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read(self, nbits):
        start, end = self._pos, self._pos + nbits
        if end > self._end:
            raise TruncatedStream("bit stream exhausted")
        self._pos = end
        last = (end + 7) >> 3
        value = int.from_bytes(self._data[start >> 3:last], "big")
        return (value >> (8 * last - end)) & ((1 << nbits) - 1)

    def read_bytes(self, n):
        """The next ``n`` whole bytes (a slice when the reader is aligned)."""
        if self._pos & 7:
            return self.read(8 * n).to_bytes(n, "big")
        start = self._pos >> 3
        if 8 * (start + n) > self._end:
            raise TruncatedStream("bit stream exhausted")
        self._pos += 8 * n
        return bytes(self._data[start:start + n])

    def check_padding(self):
        """Raise TrailingGarbage unless what is left is a stream's padding:
        fewer than 8 bits, all of them zero."""
        if self.bits_left >= 8:
            raise TrailingGarbage(f"{self.bits_left} bits after the payload")
        if self.bits_left and self.read(self.bits_left):
            raise TrailingGarbage("nonzero padding bits")

    def read_leb128(self):
        value, shift = 0, 0
        while True:
            byte = self.read(8)
            if shift == 63 and byte:  # below 2^63, as in _leb128_column
                raise MalformedStream("LEB128 value too large")
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7


def state_index_bits(n_states):
    """Bits needed to name one of ``n_states`` states: ceil(lg N)."""
    return max(n_states - 1, 0).bit_length()


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """``zero_bit_cycle`` lists the decoder states, ascending, on a cycle
    of zero-length codewords: from them a stream decodes any number of
    symbols without reading a bit.  Such tables decode serially, one
    index lookup a symbol, until the declared symbol count ends the
    decode; the output holds only the symbols decoded.  On every other
    table a path reads a bit at least every z + 1 symbols (z zero-length
    codewords), and the lockstep starts only for blocks that declare at
    most that many symbols per payload bit, so its arrays are bounded by
    the payload whatever length the stream declares."""

    well_formed: bool
    ergodicity: ErgodicityReport
    zero_bit_cycle: tuple = ()


def validate_aeds(table):
    """Structural check; returns a report, raises on malformation.

    ``AedsTable`` itself rejects short rows and out-of-range next states and
    derives the decoder from the encoder grid; this adds the prefix check
    (building the decoder index), the ergodicity report and the states on
    zero-bit decode cycles.  A non-ergodic chain or a zero-bit cycle is
    reported, not raised: such tables still encode and decode (a zero-bit
    cycle serially), only the stationary analysis needs ergodicity.
    """
    if not isinstance(table, AedsTable):
        raise TableError("validate_aeds expects an AedsTable")
    table.decoding_tries()  # building the decoder index checks prefixes
    return ValidationReport(True, table.ergodicity(),
                            zero_bit_cycle(table.nexts, table.lengths))


# ---------------------------------------------------------------------------
# bitstream


class Bitstream:
    """A framed compressed sequence; wraps raw bytes plus parsed header.

    ``exact_payload_bits`` is known only on freshly assembled streams (the
    padding split is not recoverable from the bytes without the table).
    """

    __slots__ = ("data", "n_states", "initial_state", "length",
                 "payload_start", "exact_payload_bits")

    def __init__(self, data):
        self.exact_payload_bits = None
        self.data = bytes(data)
        reader = BitReader(self.data)
        try:
            magic = reader.read_bytes(4)
            if magic != STREAM_MAGIC:
                raise MalformedStream(f"bad stream magic {magic!r}")
            version = reader.read(8)
            if version != STREAM_VERSION:
                raise VersionMismatch(f"stream version {version}")
            self.n_states = reader.read_leb128()
            if self.n_states < 1:
                raise MalformedStream("state count must be positive")
            self.initial_state = reader.read(state_index_bits(self.n_states))
            if self.initial_state >= self.n_states:
                raise MalformedStream("initial state out of range")
            self.length = reader.read_leb128()
        except TruncatedStream:
            raise MalformedStream("stream ends inside the header") from None
        self.payload_start = reader.position

    @classmethod
    def assemble(cls, n_states, initial_state, length, values, lengths,
                 cells=None, pairs=None):
        """Frame a payload given as codeword values and bit counts in
        decode order (see ``BitWriter.write_words``)."""
        w = BitWriter()
        w.write_bytes(STREAM_MAGIC)
        w.write(STREAM_VERSION, 8)
        w.write_leb128(n_states)
        w.write(initial_state, state_index_bits(n_states))
        w.write_leb128(length)
        w.write_words(values, lengths, cells, pairs)
        total = w.bit_length
        stream = cls(w.getvalue())
        stream.exact_payload_bits = total - stream.payload_start
        return stream

    def payload_reader(self):
        return BitReader(self.data, self.payload_start)

    def payload_bits(self):
        """The payload as a "0101" string, padding excluded (test helper).

        Only exact when the stream was produced by ``encode``; the split
        between payload and padding is not recoverable without the table,
        so this returns everything after the header.
        """
        r = self.payload_reader()
        return "".join(str(r.read_bit()) for _ in range(r.bits_left))

    def check_states(self, n):
        """Raise MalformedStream unless the stream was written for n states."""
        if self.n_states != n:
            raise MalformedStream(f"stream was written for {self.n_states} "
                                  f"states, table has {n}")

    def __eq__(self, other):
        return isinstance(other, Bitstream) and self.data == other.data

    def __hash__(self):
        return hash(self.data)


# ---------------------------------------------------------------------------
# encode / decode

def _backward_pass(nexts, indices, start):
    """Run the backward recursion x <- nexts[x, s] over ``indices`` from
    state ``start``; return (final state, the cells x|A| + s visited, in
    forward order) as a numpy view of one byte a cell up to 256 table
    cells, else four.  Whole ``CHUNK``s run speculatively (Mytkowicz et
    al., "Data-Parallel Finite-State Machines", ASPLOS 2014): all of them
    in step from ``start`` (``_lockstep``), then right to left a chunk
    entered in another state re-runs until its cell equals the speculated
    one.  The serial loop runs the rest: blocks of fewer than
    ``LOCKSTEP_CHUNKS`` chunks, the symbols before the first whole chunk,
    and all that is left once ``RERUN_LIMIT`` chunks in a row re-ran
    whole.  On a one-state table every guess is right, so nothing
    re-runs."""
    m = nexts.shape[1]
    small = nexts.size <= 256
    into = (nexts.ravel() * m).astype(np.uint8 if small else np.uint32)
    step = into.tolist() if small else memoryview(into)
    hi = len(indices)
    cells = bytearray(hi) if small else array("I", [0]) * hi
    at = start * m
    head = hi % CHUNK  # the symbols before the first whole chunk
    if hi >= LOCKSTEP_CHUNKS * CHUNK:
        ends = _lockstep(into, indices, cells, head, at)
        guess, misses, hi = at, 0, head
        for lo in range(len(indices) - CHUNK, head - 1, -CHUNK):
            if at != guess:
                for i in range(lo + CHUNK - 1, lo - 1, -1):
                    cell = at + indices[i]
                    if cell == cells[i]:
                        break
                    cells[i] = cell
                    at = step[cell]
                else:  # re-run to the chunk's start without meeting
                    misses += 1
                    if misses < RERUN_LIMIT:
                        continue
                    hi = lo
                    break
            at, misses = ends[(lo - head) // CHUNK], 0
    for s in memoryview(indices)[:hi][::-1]:
        hi -= 1
        cell = at + s
        cells[hi] = cell
        at = step[cell]
    return at // m, np.asarray(cells)


def _lockstep(into, indices, cells, head, at):
    """Fill the whole chunks of ``cells`` after the first ``head`` as if
    each chunk were entered at cell base ``at``, all in step, one numpy
    gather per symbol position; return the cell base each chunk leaves
    with, as a list.  The work array, one cell wide per symbol, holds
    symbol position j of every chunk in row j."""
    chunks = (len(indices) - head) // CHUNK
    work = np.asarray(memoryview(indices))[head:].reshape(chunks, CHUNK).T
    work = work.astype(into.dtype, order="C")
    at = walk_lanes(into, work[::-1], np.full(chunks, at, into.dtype))
    np.frombuffer(cells, into.dtype)[head:].reshape(chunks, CHUNK)[:] = work.T
    return at.tolist()


def walk_lanes(into, rows, at):
    """Move lanes at cell bases ``at`` one symbol index a row, in place:
    a row turns into the cells its lanes visit, ``at`` into their bases."""
    for row in rows:
        np.add(at, row, out=row)
        into.take(row, out=at)  # the method skips np.take's Python wrapper
    return at


def symbol_indices(table, sequence):
    """The alphabet index of each symbol of ``sequence``, as bytes when
    every index fits in one, else as a 4-byte array; raises UnknownSymbol
    at the first symbol the table does not know.  Bytes over an alphabet
    of byte values map in one ``bytes.translate``."""
    if iter(sequence) is sequence:  # an iterator: keep it for the search
        sequence = list(sequence)
    index = table._index
    if isinstance(sequence, (bytes, bytearray)) and all(
            isinstance(s, int) and 0 <= s < 256 for s in index):
        if not sequence.translate(None, bytes(index)):  # no unknown byte
            lut = bytes(index.get(b, 0) for b in range(256))
            return bytes(sequence.translate(lut))
    try:
        if len(index) <= 256:
            return bytes(map(index.__getitem__, sequence))
        return array("I", map(index.__getitem__, sequence))
    except KeyError:
        t, s = next((t, s) for t, s in enumerate(sequence) if s not in index)
        raise UnknownSymbol(t, s) from None


def encode(table, sequence, initial_state=0):
    """Compress ``sequence`` with ``table``; symbols are eaten back to front
    by the backward pass, which starts from state ``initial_state``.  The
    stream records the state where that pass ends, so any start decodes.
    """
    if not 0 <= initial_state < table.n_states:
        raise TableError(f"initial state {initial_state} out of range")
    indices = symbol_indices(table, sequence)
    x0, cells = _backward_pass(table.nexts, indices, initial_state)
    return Bitstream.assemble(table.n_states, x0, len(indices),
                              table.values.ravel(), table.lengths.ravel(),
                              cells, _pair_words(table))


def _pair_words(table):
    """Values and lengths of cell a's word then b's at a | b << 8, built
    once; None above 256 cells or 32-bit codewords."""
    lengths = table.lengths.ravel()
    if lengths.size > 256 or lengths.max() > 32:
        return None
    if table._pairs is None:
        v, n = np.zeros(256, np.uint64), np.zeros(256, np.uint8)
        v[:lengths.size], n[:lengths.size] = table.values.ravel(), lengths
        pairs = (v << n[:, None] | v[:, None], n + n[:, None])  # [b, a]
        object.__setattr__(table, "_pairs", tuple(a.ravel() for a in pairs))
    return table._pairs


def decode_indices(table, stream):
    """The alphabet index of every symbol of ``stream``, as a numpy array
    of one byte an index up to 256 symbols, else four; consumes exactly
    the declared payload.

    One pass runs along the path.  With lanes (``_lanes``) it takes each
    stretch of lanes that met whole (``_Lanes.follow``), and after it the
    serial loop (``_walk``) decodes a lane's share of the symbols, at most
    ``SERIAL_STEP``, at a time until the path lands on a lane's point;
    without, the serial loop decodes the block.  Decoding is
    deterministic, so a stretch is the serial path up to its first
    anomaly: the serial loop takes over at the codeword that holds a dead
    slot, and a point past the end is its truncation.  So every error is
    the serial decoder's, and no symbol is decoded twice.  Memory is
    bounded by the payload, whatever length the stream declares: lanes
    never start for more symbols than its bits can hold, and the serial
    loop holds only what it decoded."""
    stream.check_states(table.n_states)
    lanes = _lanes(table, stream)
    data, total = stream.data, stream.length
    end, padded = 8 * len(data), data + bytes(16)
    bit, x, pieces, count = stream.payload_start, stream.initial_state, [], 0
    point, step = (((0, 0), min(-(-total // LANES), SERIAL_STEP)) if lanes
                   else (None, total))
    while count < total:
        if point:
            got, bit, x = lanes.follow(*point, total - count)
            if bit > end:
                raise TruncatedStream("bit stream exhausted")
            point = None
        else:
            got, bit, x = _walk(table, padded, end, bit, x,
                                min(total - count, step))
            point = lanes and lanes.find(bit, x)
        pieces.append(got)
        count += len(got)
    BitReader(data, bit).check_padding()
    got = (pieces[0] if len(pieces) == 1 else
           np.concatenate([np.empty(0, np.uint8), *pieces]))
    return got.astype(_index_dtype(len(table.symbols)), copy=False)


def decode(table, stream):
    """Recover the symbol sequence as a list: the symbols of
    ``decode_indices``."""
    symbols = table.symbols
    return [symbols[i] for i in decode_indices(table, stream).tolist()]


def _index_dtype(m):
    """The dtype of the indices of an alphabet of m symbols."""
    return np.uint8 if m <= 256 else np.uint32


def _walk(table, data, end, bit, x, total):
    """The serial loop: decode ``total`` symbols from bit ``bit`` of
    ``data`` (the stream's bytes, then 16 zero bytes; ``end`` bits are the
    stream's) in state x.  Returns their indices as a numpy array, the bit
    after them and the state there.

    Lookups run in ``_lookups``.  A dead slot stops them at the start of
    its codeword, where ``_unmatched`` names the damage or the
    truncation."""
    m = len(table.symbols)
    out = bytearray() if m <= 256 else array("I")
    bit, x = _lookups(table.decoding_tries(), m, data, end, bit, x, total,
                      out)
    if len(out) < total:
        raise _unmatched(table, data, end, bit, x)
    if bit > end:
        raise TruncatedStream("bit stream exhausted")
    return np.frombuffer(out, _index_dtype(m)), bit, x


def _lookups(index, m, data, end, bit, x, total, out):
    """Append the indices of the symbols from bit ``bit`` in state x to
    ``out`` until it holds ``total`` or a lookup meets a dead slot; return
    the bit and the state where the last codeword ends, or where the dead
    slot's codeword starts.

    A lookup reads one slot of the index (``AedsTable.decoding_tries``),
    as a lane of the lockstep does: the next w bits pick a slot of the
    current window, whose entry gives the bits used and the next window,
    and whose code the symbol index or a step into a sub-window.  Bits
    are peeked from a local accumulator ``acc`` that holds ``lag`` + 64
    unread bits, so that a window's w = 64 - ``shift`` bits are ``acc >>
    (lag + shift)``, masked; it is refilled 8 bytes at a time.  Zero
    bytes past the end of the stream keep every refill whole (a refill
    starts at most one byte past the end, or the end check before it
    raises); a codeword that consumes them makes the stream truncated."""
    entries, codes, windows = (memoryview(index[0]), memoryview(index[1]),
                               index[2])
    # first-level windows have bases up to top, sub-windows above it
    top = int(windows[-1]) >> 11
    masks = [(1 << (64 - shift)) - 1 for shift in range(65)]
    low = LOOKUP_BITS - 64  # refill below this lag
    window = int(windows[x])
    base, shift = window >> 11, window >> 4 & 127
    append = out.append
    pos = bit >> 3
    acc = data[pos]
    lag = 8 - (bit & 7) - 64
    pos += 1
    while (left := total - len(out)) > 0:
        for _ in range(left):
            if lag < low:
                if 8 * pos - lag - 64 > end:
                    raise TruncatedStream("bit stream exhausted")
                acc = (((acc & ((1 << (lag + 64)) - 1)) << 64)
                       | int.from_bytes(data[pos:pos + 8], "big"))
                pos += 8
                lag += 64
            slot = base + (acc >> (lag + shift) & masks[shift])
            s, e = codes[slot], entries[slot]
            if s < m:
                append(s)
            elif s > m:  # its codeword started here or at the step down
                if base <= top:
                    start = 8 * pos - lag - 64, base
                bit, base = start
                return bit, int(np.searchsorted(windows, base << 11))
            elif base <= top:  # a step into the sub-windows
                start = 8 * pos - lag - 64, base
            lag -= e & 15
            base, shift = e >> 11, e >> 4 & 127
    return 8 * pos - lag - 64, int(np.searchsorted(windows, base << 11))


def _unmatched(table, data, end, bit, x):
    """The error of the codeword that starts at bit ``bit`` in state x at a
    dead slot: TruncatedStream if the stream ends within the longest
    prefix the next bits share with x's codewords, else UnmatchedCodeword
    with one bit more (``AedsTable.matched_prefix``)."""
    if bit > end:
        return TruncatedStream("bit stream exhausted")
    need = min(int(table.lengths.max()), end - bit)
    bits = BitReader(data, bit).read(need)
    common = table.matched_prefix(x, bits, need)
    if common == end - bit:
        return TruncatedStream("bit stream exhausted")
    return UnmatchedCodeword(x, Codeword(bits >> need - common - 1,
                                         common + 1).bits)


def _lanes(table, stream):
    """The lanes of ``stream``'s block (``_Lanes``), or None for the
    serial loop to decode it whole: a block of fewer than
    ``LOCKSTEP_SYMBOLS`` symbols, or of more than its bits can hold, a
    table of more than ``LOCKSTEP_STATES`` states or with a zero-bit
    cycle, or more than ``UNMET_SHARE`` of the lanes unmet.

    ``LANES`` lanes start at equally spaced bits of the payload:
    lane 0 at its first bit in the stream's state, the others in the same
    state as a guess, each a whole number of steps (the gcd of the
    codeword lengths) after lane 0, where a codeword can start.  Each
    row moves every lane by one slot of the decoder index
    (``AedsTable.decoding_tries``): a codeword, a step into a sub-window
    or, off the true path, a dead slot.  A lane that guessed wrong falls
    onto the true path within tens of symbols on small tables (Klein and
    Wiseman, Comput. J. 46(5), 2003), and paths that met stay together.
    So the true path is lane 0 up to its last codeword, then the next
    lane from the row whose point (bit position, window) equals the
    point after it, and so on."""
    total = stream.length
    if (total < LOCKSTEP_SYMBOLS or table.n_states > LOCKSTEP_STATES
            or (index := table.decoding_tries())[3]
            and zero_bit_cycle(table.nexts, table.lengths)
            or total > (index[3] + 1) * (8 * len(stream.data)
                                         - stream.payload_start + 1)):
        return None
    lanes = _Lanes(index, len(table.symbols), stream.data,
                   stream.payload_start, stream.initial_state,
                   _lane_rows(total, table.n_states))
    return None if lanes.meets.count(-1) > UNMET_SHARE * LANES else lanes


def _peek(data):
    """The 8 bytes from each byte of ``data`` (but the last 7) as one
    big-endian uint64, read as 8 interleaved word arrays."""
    n = len(data) - 7
    out = np.empty(n, np.uint64)
    for j in range(8):
        out[j::8] = np.frombuffer(data, ">u8", (n - j + 7) // 8, j)
    return out


def _lane_rows(total, n_states):
    """The rows each lane runs: see ``SYNC_ROWS``."""
    share = -(-total // LANES)
    return share + 2 * math.isqrt(share) + SYNC_ROWS * n_states.bit_length()


def _rows_holding(steps, left):
    """The number of rows that hold ``left`` symbols when the rows
    ``steps`` (ascending) hold none."""
    cut = left
    while (taken := int(np.searchsorted(steps, cut))) + left != cut:
        cut = taken + left
    return cut


class _Lanes:
    """``LANES`` decoders that run ``rows`` rows in lockstep over the
    payload of ``data`` from bit ``start``, each from state x's window
    (see ``_lanes``).  ``pos[r, i]`` is lane i's bit position before row
    r, counted from the start of byte ``first[i]``, where it starts;
    ``slots[r, i]`` is the slot it reads in row r, and ``codes[i, r]``
    that slot's symbol code.  ``last[i]`` is the last row, up to
    ``rows``, before which lane i stands between two codewords, and
    ``meets[i]`` the row of lane i + 1 that stands at the same point, or
    -1."""

    def __init__(self, index, none, data, start, x, rows):
        self.entries, symbol, windows, self.zeros, step = index
        self.rows, self.none = rows, none
        self.count = count = LANES
        self.windows = windows.tolist()
        self.window0 = self.windows[x]
        begin = start >> 3
        bits = start + np.arange(count) * (8 * len(data) - start) // (
            count * step) * step
        first = bits >> 3
        self.first = first.tolist()
        far = 7 + rows * LOOKUP_BITS  # no lane reads past this bit
        self.pos = np.zeros((rows + 1, count),
                            np.uint16 if far < 1 << 16 else np.uint32)
        self.pos[0] = bits & 7
        self.slots = np.empty((rows, count), np.uint16
                              if len(self.entries) <= 1 << 16 else np.uint32)
        self._run(_peek(data[begin:] + bytes(far // 8 + 8)),
                  (first - begin).astype(np.uint64))
        self.codes = np.empty((count, rows), symbol.dtype)
        for r in range(0, rows, 32):  # lane-major, in cache-sized bands
            self.codes[:, r:r + 32] = symbol.take(self.slots[r:r + 32]).T
        lanes = np.arange(count)
        last = np.full(count, rows)
        while (back := (last > 0) & (self.codes.ravel().take(
                lanes * rows + last - 1) == none)).any():
            last -= back
        self.last = last.tolist()
        self.meets = self._meets(last).tolist()

    def _run(self, peek, byte):
        """Every row: the 64 bits from each lane's byte, shifted so that
        the window's w bits end them, plus the window's base give the
        slot; its entry gives the bits used and the next window.  Lane
        arrays share one dtype, constants are arrays and gathers take
        int64 views: each numpy call then costs least."""
        u, entries, count = np.uint64, self.entries, self.count
        three, seven, four, eleven, used, wide = (
            np.full(count, c, u) for c in (3, 7, 4, 11, 15, 127))
        at = np.full(count, self.window0, u)
        base, shift = at >> eleven, at >> four & wide
        pos, t, w, e = (np.empty(count, u) for _ in range(4))
        pos[:] = self.pos[0]
        t_i, w_i = t.view(np.int64), w.view(np.int64)
        for r in range(self.rows):
            np.right_shift(pos, three, out=t)
            np.add(t, byte, out=t)
            peek.take(t_i, out=w)
            np.bitwise_and(pos, seven, out=t)
            np.left_shift(w, t, out=w)
            np.right_shift(w, shift, out=w)
            np.add(w, base, out=w)
            np.copyto(self.slots[r], w, casting="unsafe")
            entries.take(w_i, out=e)
            np.bitwise_and(e, used, out=t)
            np.add(pos, t, out=pos)
            np.copyto(self.pos[r + 1], pos, casting="unsafe")
            np.right_shift(e, four, out=shift)
            np.bitwise_and(shift, wide, out=shift)
            np.right_shift(e, eleven, out=base)

    def _windows(self, rows, lanes):
        """The windows ``lanes`` read at ``rows`` (``rows`` is after the
        last row), as ``base << 11 | shift << 4``."""
        before = self.slots.ravel().take(np.maximum(rows - 1, 0) * self.count
                                         + lanes)
        return np.where(rows > 0, self.entries.take(before) >> 4 << 4,
                        self.window0)

    def _meets(self, last):
        """Each lane's last point looked up in the next lane's points: a
        binary search of the bit, for all lanes at once, then the window
        at that bit."""
        rows, flat, count = self.rows, self.pos.ravel(), self.count
        lanes = np.arange(1, count)
        first = np.array(self.first, np.int64)
        want = (flat.take(last[:-1] * count + lanes - 1)
                + 8 * (first[:-1] - first[1:]))
        window = self._windows(last[:-1], lanes - 1)
        lo, hi = np.zeros(count - 1, np.int64), np.full(count - 1, rows + 1)
        while (lo < hi).any():  # the first row at or past the wanted bit
            mid = (lo + hi) >> 1
            ahead = flat.take(np.minimum(mid, rows) * count + lanes) < want
            lo, hi = np.where(ahead, mid + 1, lo), np.where(ahead, hi, mid)
        meets = np.full(count - 1, -1)
        for row in range(self.zeros + 1):
            # zero-bit codewords put up to zeros + 1 points at one bit
            row = lo + row
            at = np.minimum(row, rows)
            there = (row <= rows) & (flat.take(at * count + lanes) == want)
            if not there.any():
                break
            hit = there & (meets < 0) & (self._windows(at, lanes) == window)
            meets[hit] = row[hit]
        return meets

    def window(self, lane, row):
        return int(self._windows(np.array(row), np.array(lane)))

    def follow(self, lane, row, left):
        """The symbol indices along the path from ``lane``'s row ``row``
        through every lane that met the next one, and the point (bit,
        state) after them.  The stretch stops after ``left`` symbols, at
        the last point of the first lane that met no next one, or at the
        start of the codeword that holds its first dead slot: the rows
        before that slot that step into a sub-window are that codeword's."""
        chain = []  # (lane, first row, end row) along met lanes
        while lane < self.count - 1 and self.meets[lane] >= 0:
            chain.append((lane, row, self.last[lane]))
            lane, row = lane + 1, self.meets[lane]
        chain.append((lane, row, self.last[lane]))
        got = np.concatenate([self.codes[i, a:b] for i, a, b in chain])
        m = self.none
        steps = np.flatnonzero(got == m)  # rows into a sub-window
        cut = min(_rows_holding(steps, left), len(got))
        dead = np.flatnonzero(got[:cut] > m)
        if dead.size:
            cut = int(dead[0])
            while cut and got[cut - 1] == m:
                cut -= 1
        rest = cut
        for lane, a, b in chain:
            if rest <= b - a:
                break
            rest -= b - a
        row = a + rest
        got, steps = got[:cut], steps[:np.searchsorted(steps, cut)]
        return ((np.delete(got, steps) if steps.size else got),
                8 * self.first[lane] + int(self.pos[row, lane]),
                self.windows.index(self.window(lane, row)))

    def find(self, bit, x):
        """A (lane, row) that stands at bit ``bit`` in state x's window:
        of the last lane that starts at or before ``bit``, or of the one
        before it; else None."""
        window = self.windows[x]
        last = bisect.bisect_right(self.first, bit >> 3) - 1
        for lane in range(last, max(last - 2, -1), -1):
            column = self.pos[:, lane]
            rel = bit - 8 * self.first[lane]
            row = int(np.searchsorted(column, rel))
            for row in range(row, min(row + self.zeros + 1, self.rows + 1)):
                if column[row] == rel and self.window(lane, row) == window:
                    return lane, row
        return None


# ---------------------------------------------------------------------------
# table serialization

_SYM_INT = 0
_SYM_STR = 1
_SYM_BYTES = 2

# The bytes from the last byte of a cell's next state to the next cell,
# by the first byte of its length: 0 for a length of two bytes or more.
_SKIP = [2 + ((b + 7) >> 3) if b < 0x80 else 0 for b in range(256)]


def _write_symbol(w, symbol):
    if isinstance(symbol, bool):
        raise MalformedTable("boolean symbols are not serializable")
    if isinstance(symbol, int):
        if symbol < 0:
            raise MalformedTable("negative integer symbols are not serializable")
        w.write(_SYM_INT, 8)
        w.write_leb128(symbol)
    elif isinstance(symbol, str):
        data = symbol.encode("utf-8")
        w.write(_SYM_STR, 8)
        w.write_leb128(len(data))
        w.write_bytes(data)
    elif isinstance(symbol, bytes):
        w.write(_SYM_BYTES, 8)
        w.write_leb128(len(symbol))
        w.write_bytes(symbol)
    else:
        raise MalformedTable(f"cannot serialize symbol of type {type(symbol)}")


def _read_symbol(r):
    tag = r.read(8)
    if tag == _SYM_INT:
        return r.read_leb128()
    if tag == _SYM_STR:
        n = r.read_leb128()
        return r.read_bytes(n).decode("utf-8")
    if tag == _SYM_BYTES:
        n = r.read_leb128()
        return r.read_bytes(n)
    raise MalformedTable(f"unknown symbol tag {tag}")


def _table_body(table):
    w = BitWriter()
    w.write_bytes(TABLE_MAGIC)
    w.write(TABLE_VERSION, 8)
    w.write_leb128(table.n_states)
    w.write_leb128(len(table.symbols))
    for s in table.symbols:
        _write_symbol(w, s)
    body = bytearray(w.getvalue())
    grid = [a.ravel() for a in (table.nexts, table.lengths, table.values)]
    for i in range(0, table.nexts.size, PACK_SLICE):
        body += _grid_bytes(*(a[i:i + PACK_SLICE] for a in grid))
    return body


def _grid_bytes(nexts, lengths, values):
    """Cells of the encoder grid in x-major order, ``PACK_SLICE`` at a
    time: the next state and the codeword length as LEB128, then the value
    in ceil(length / 8) big-endian bytes.  A cell is a uint8 row as wide as
    the slice's widest fields, masked to its own bytes: one ``rows[keep]``
    writes the slice, and values of more than ``INT_BITS`` bits go in
    after their rows, by ``int.to_bytes``."""
    long = lengths > INT_BITS
    vsize = np.where(long, 0, (lengths + 7) >> 3)
    width = int(vsize.max(initial=0))
    v = (np.where(long, 0, values) if values.dtype == object
         else values).astype(np.uint64)
    v <<= (8 * (width - vsize)).astype(np.uint64)  # on top of the width
    leb = [(a, j) for a in (nexts, lengths)
           for j in range(max(int(a.max(initial=0)).bit_length() + 6, 7) // 7)]
    rows = np.empty((len(v), len(leb) + width), np.uint8)
    keep = np.ones(rows.shape, bool)
    for c, (a, j) in enumerate(leb):  # 7 bits, and 0x80 before a next byte
        np.copyto(rows[:, c], t := a >> 7 * j, "unsafe")
        np.bitwise_or(rows[:, c], 0x80, out=rows[:, c], where=t > 0x7F)
        if j:  # byte 0 is always kept
            np.greater(t, 0, out=keep[:, c])
    for j in range(width - 1, -1, -1):  # value bytes, the last one first
        np.copyto(rows[:, len(leb) + j], v, "unsafe")
        np.greater(vsize, j, out=keep[:, len(leb) + j])
        v >>= np.uint64(8)
    out = rows[keep].data
    if long.any():
        ends = np.cumsum(keep.sum(axis=1, dtype=np.int32), dtype=np.int32)
        out, rest, at = bytearray(), out, 0
        for k in np.flatnonzero(long).tolist():
            out += rest[at:ends[k]]
            out += values[k].to_bytes((int(lengths[k]) + 7) >> 3, "big")
            at = ends[k]
        out += rest[at:]
    return out


def _leb128(value):
    """The LEB128 bytes of a nonnegative integer."""
    if value < 0:
        raise ValueError("LEB128 encodes nonnegative integers only")
    out = bytearray()
    while value > 0x7F:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    out.append(value)
    return out


def _seal(body):
    """``body`` followed by its sha-256 digest, as bytes."""
    return b"".join((body, hashlib.sha256(body).digest()))  # one copy


def serialize_table(table):
    """Canonical bytes: header, alphabet, encoder grid, sha-256 trailer."""
    return _seal(_table_body(table))


def table_digest(table):
    """Hex content hash of the canonical serialization."""
    return hashlib.sha256(_table_body(table)).hexdigest()


def deserialize_table(data):
    """The table ``serialize_table`` wrote.  A grid with more cells than
    the bytes left can hold (two or more each) fails before allocation;
    one pass records where each cell starts, and numpy decodes the cells."""
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
        n, n_sym = r.read_leb128(), r.read_leb128()
        if n < 1 or n_sym < 1:
            raise MalformedTable("empty table")
        symbols = [_read_symbol(r) for _ in range(n_sym)]
        if 2 * n * n_sym > len(body) - (r.position >> 3):
            raise MalformedTable(f"no room for {n} x {n_sym} grid cells")
        pos, starts = r.position >> 3, array("q", [0]) * (n * n_sym)
        for i in range(len(starts)):  # skip to the next cell
            starts[i] = pos
            while body[pos] > 0x7F:
                pos += 1
            if skip := _SKIP[body[pos + 1]]:  # a one-byte length
                pos += skip
            else:
                r = BitReader(body, 8 * pos + 8)
                length = r.read_leb128()
                pos = (r.position >> 3) + ((length + 7) >> 3)
    except (TruncatedStream, IndexError, OverflowError):
        raise MalformedTable("table bytes end early") from None
    except (MalformedStream, ValueError, UnicodeDecodeError) as exc:
        raise MalformedTable(str(exc)) from None
    if pos != len(body):
        raise MalformedTable("the encoder grid does not end with the bytes")
    b, starts = np.frombuffer(body, np.uint8), np.frombuffer(starts, np.int64)
    ends = np.append(starts[1:], len(body))  # where the next cell starts
    nexts, lengths, values = (np.empty_like(starts) for _ in range(3))
    for i in range(0, len(starts), PACK_SLICE):
        part = slice(i, i + PACK_SLICE)
        nexts[part], at = _leb128_column(b, starts[part])
        lengths[part] = _leb128_column(b, at)[0]
        # each value: the 8 bytes up to its end (byte 11 or later), cut
        cut = np.maximum(64 - (lengths[part] + 7 & -8), 0).astype(np.uint64)
        values[part] = (np.lib.stride_tricks.sliding_window_view(b, 8)[
            ends[part] - 8].view(">u8").ravel() << cut >> cut)
    values = values.astype(value_dtype(lengths), copy=False)
    for i in np.flatnonzero(lengths > INT_BITS).tolist():
        size = (lengths[i] + 7) >> 3
        values[i] = int.from_bytes(body[ends[i] - size:ends[i]], "big")
    try:
        return AedsTable(symbols, *(a.reshape(n, n_sym)
                                    for a in (nexts, lengths, values)))
    except TableError as exc:
        raise MalformedTable(str(exc)) from None


def _leb128_column(b, at):
    """The 63-bit LEB128 numbers at offsets ``at`` of ``b``, and their ends."""
    value, going = np.zeros(len(at), np.int64), np.ones(len(at), bool)
    for shift in range(0, 64, 7):
        byte = np.take(b, at, mode="clip") * going
        if shift == 63 and byte.any():
            break  # a tenth byte may only be a zero that ends the number
        value |= (byte & 0x7F).astype(np.int64) << shift
        at = at + going
        going &= byte > 0x7F
        if not going.any():
            return value, at
    raise MalformedTable("LEB128 value too large")
