"""The executable machine: validation, backward encoding, forward decoding,
bitstream framing and canonical table serialization.

Stream layout (bit granularity, MSB first inside bytes):

    magic "AEDS" | version u8 | state count as LEB128 | initial decoder
    state in exactly ceil(lg N) bits | symbol count n as LEB128 | payload
    codewords in decode order | zero padding to a byte boundary

Encoding maps the whole sequence to symbol indices in one call, then runs
the backward recursion, the only per-symbol loop, which records the table
cell each symbol visits.  ``BitWriter.write_words`` packs those cells'
codewords in forward order with array operations, ``PACK_SLICE`` words at a
time, so memory is one entry per symbol plus the payload.
"""

import hashlib
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
from .model import (
    LOOKUP_BITS,
    RUN_CAP,
    UNMATCHED,
    AedsTable,
    ErgodicityReport,
    zero_bit_cycle,
)

STREAM_MAGIC = b"AEDS"
STREAM_VERSION = 1
TABLE_MAGIC = b"AEDT"
TABLE_VERSION = 1

# Codewords ``BitWriter.write_words`` packs at a time; bounds its temporaries.
PACK_SLICE = 1 << 16

# The bits of one run-level window (see ``decode``).
WINDOW_MASK = (1 << LOOKUP_BITS) - 1


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

    def write_words(self, values, lengths, cells=None):
        """Write codewords in order, ``PACK_SLICE`` at a time: word i is
        ``values[i]`` in ``lengths[i]`` bits, or the word of table cell
        ``cells[i]`` when ``values`` and ``lengths`` are a table's flat
        arrays."""
        if not isinstance(values, np.ndarray):
            # numpy would read a list holding 2^63 as floats
            values = np.array(values, dtype=object)
        lengths = np.asarray(lengths)
        for i in range(0, len(lengths if cells is None else cells),
                       PACK_SLICE):
            part = slice(i, i + PACK_SLICE)
            if cells is not None:
                part = cells[part]
            self._pack(values[part], lengths[part].astype(np.int64))

    def _pack(self, values, lengths):
        """Lay the words out from the current bit offset: each value is
        shifted into a window of ceil((7 + longest) / 8) bytes that starts
        at its first byte, the windows of the words that share a first
        byte are ORed together, and each byte lane of those windows is ORed
        into the output.  Windows wider than 64 bits use Python ints."""
        ends = np.cumsum(lengths) + self._fill
        starts = ends - lengths
        width = (14 + int(lengths.max())) >> 3
        dtype = np.uint64 if width <= 8 else object
        words = values.astype(dtype) << (
            8 * width - lengths - (starts & 7)).astype(dtype)
        first = starts >> 3
        group = np.flatnonzero(np.diff(first, prepend=-1))
        words, first = np.bitwise_or.reduceat(words, group), first[group]
        out = np.zeros(int(first[-1]) + width + 1, np.uint8)
        out[0] = self._acc << (8 - self._fill)
        for j in range(width):
            out[first + j] |= ((words >> (8 * (width - 1 - j)))
                               & 0xFF).astype(np.uint8)
        total = int(ends[-1])
        self._buf += out[:total >> 3].tobytes()
        self._fill = total & 7
        self._acc = int(out[total >> 3]) >> (8 - self._fill)

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

    def read_leb128(self):
        value, shift = 0, 0
        while True:
            if shift > 63:
                raise MalformedStream("LEB128 value too large")
            byte = self.read(8)
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
    symbols without reading a bit.  ``decode`` stays bounded on such
    tables because ``RUN_CAP`` ends each run-level run and the declared
    symbol count ends the node walk."""

    well_formed: bool
    ergodicity: ErgodicityReport
    zero_bit_cycle: tuple = ()


def validate_aeds(table):
    """Structural check; returns a report, raises on malformation.

    ``AedsTable`` itself rejects short rows and out-of-range next states and
    derives the decoder from the encoder grid; this adds the prefix check
    (building the decoder index), the ergodicity report and the states on
    zero-bit decode cycles.  A non-ergodic chain or a zero-bit cycle is
    reported, not raised: encoding still works, only the stationary
    analysis needs ergodicity.
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
                 cells=None):
        """Frame a payload given as codeword values and bit counts in
        decode order (see ``BitWriter.write_words``)."""
        w = BitWriter()
        w.write_bytes(STREAM_MAGIC)
        w.write(STREAM_VERSION, 8)
        w.write_leb128(n_states)
        w.write(initial_state, state_index_bits(n_states))
        w.write_leb128(length)
        w.write_words(values, lengths, cells)
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

    def __len__(self):
        return len(self.data)

    def __eq__(self, other):
        return isinstance(other, Bitstream) and self.data == other.data

    def __hash__(self):
        return hash(self.data)


# ---------------------------------------------------------------------------
# encode / decode

POLICY_FIRST_STATE = "index0"
POLICY_MINIMIZE = "minimize-length"


def _backward_pass(into, m, indices, start):
    """Run the backward recursion over ``into``, the x-major list of next
    states times m = |A|; return (final_state, the cells x|A| + s visited,
    in forward order)."""
    at = start * m
    cells = []
    for s in reversed(indices):
        cell = at + s
        cells.append(cell)
        at = into[cell]
    cells.reverse()
    return at // m, cells


def symbol_indices(table, sequence):
    """The alphabet index of each symbol of ``sequence``, as bytes when
    every index fits in one (an eighth of a list's memory); raises
    UnknownSymbol at the first symbol the table does not know."""
    if iter(sequence) is sequence:  # an iterator: keep it for the search
        sequence = list(sequence)
    index = table._index
    try:
        return (bytes if len(index) <= 256 else list)(
            map(index.__getitem__, sequence))
    except KeyError:
        t, s = next((t, s) for t, s in enumerate(sequence) if s not in index)
        raise UnknownSymbol(t, s) from None


def encode(table, sequence, initial_state_policy=POLICY_FIRST_STATE):
    """Compress ``sequence`` with ``table``; symbols are eaten back to front.

    ``initial_state_policy`` selects the state the backward pass starts
    from: "index0" pins state 0 for reproducibility, "minimize-length"
    tries every state and keeps the shortest stream (smallest index wins
    ties), and an integer pins that state.
    """
    indices = symbol_indices(table, sequence)
    m = len(table.symbols)
    into = (table.nexts.ravel() * m).tolist()
    lengths = table.lengths.ravel()
    if isinstance(initial_state_policy, int):
        start = initial_state_policy
        if not 0 <= start < table.n_states:
            raise TableError(f"initial state {start} out of range")
    elif initial_state_policy == POLICY_FIRST_STATE:
        start = 0
    elif initial_state_policy == POLICY_MINIMIZE:
        start = min(range(table.n_states), key=lambda cand: lengths[
            _backward_pass(into, m, indices, cand)[1]].sum())
    else:
        raise ValueError(f"unknown policy {initial_state_policy!r}")

    x0, cells = _backward_pass(into, m, indices, start)
    cells = np.fromiter(cells, np.min_scalar_type(lengths.size), len(cells))
    return Bitstream.assemble(table.n_states, x0, len(indices),
                              table.values.ravel(), lengths, cells)


def decode(table, stream):
    """Recover the symbol sequence; consumes exactly the declared payload.

    Bits are peeked from a local accumulator that is refilled 8 bytes at a
    time.  Tables of at most ``RUN_SLOTS >> LOOKUP_BITS`` = 8 states have
    a run level (``table.decoding_runs()``): one lookup of the next
    ``LOOKUP_BITS`` = 12 bits decodes every whole codeword they hold, up to
    ``RUN_CAP`` = 16.  It is built on the first decode with the table, so
    its build time is part of the benchmark's ``codec.decode_walk_s``.
    The node walk over ``table.decoding_tries()`` decodes one codeword per
    lookup (two or more for codewords longer than a state's table width):
    every symbol of larger tables, the codewords a run cannot start (long
    or damaged ones) and the last ``RUN_CAP - 1`` or fewer symbols.
    Zero bytes past the end of the stream keep every refill whole (a
    refill starts at most one byte past the end, or the end check before
    it raises); a codeword that consumes them makes the stream truncated.
    """
    if stream.n_states != table.n_states:
        raise MalformedStream(
            f"stream was written for {stream.n_states} states, "
            f"table has {table.n_states}")
    nodes = table.decoding_tries()
    runs = table.decoding_runs()
    symbols = table.symbols
    data = stream.data + bytes(16)
    end = 8 * len(stream.data)
    pos = stream.payload_start >> 3
    acc = data[pos]
    nbits = 8 - (stream.payload_start & 7)
    pos += 1
    x = stream.initial_state
    out = []
    append, extend = out.append, out.extend
    left = stream.length
    # without a run level the run loop never starts
    cap = RUN_CAP if runs is not None else left + 1
    while left:
        while left >= cap:
            if nbits < LOOKUP_BITS:
                if 8 * pos - nbits > end:
                    raise TruncatedStream("bit stream exhausted")
                acc = (((acc & ((1 << nbits) - 1)) << 64)
                       | int.from_bytes(data[pos:pos + 8], "big"))
                pos += 8
                nbits += 64
            # an empty run leaves x as it is
            run, x, used, count = runs[x][(acc >> (nbits - LOOKUP_BITS))
                                          & WINDOW_MASK]
            if not count:
                break
            extend(run)
            nbits -= used
            left -= count
        walk = 1 if left >= cap else left
        for _ in range(walk):
            while True:
                k, mask, slots = nodes[x]
                if nbits < k:
                    if 8 * pos - nbits > end:
                        raise TruncatedStream("bit stream exhausted")
                    acc = (((acc & ((1 << nbits) - 1)) << 64)
                           | int.from_bytes(data[pos:pos + 8], "big"))
                    pos += 8
                    nbits += 64
                s, x, n = slots[(acc >> (nbits - k)) & mask]
                nbits -= n
                if s >= 0:
                    break
                if s == UNMATCHED:
                    raise _unmatched(stream.data, 8 * pos - nbits, *x)
            append(symbols[s])
        left -= walk
    if 8 * pos - nbits > end:
        raise TruncatedStream("bit stream exhausted")
    reader = BitReader(stream.data, 8 * pos - nbits)
    if reader.bits_left >= 8:
        raise TrailingGarbage(f"{reader.bits_left} bits after the payload")
    if reader.bits_left and reader.read(reader.bits_left):
        raise TrailingGarbage("nonzero padding bits")
    return out


def _unmatched(data, position, state, offset, depth):
    """The error for a parse at bit ``position`` that has followed the
    first ``offset`` bits of a symbol and finds no codeword of ``state``
    starting with its first ``depth`` bits.  Reading those bits raises
    TruncatedStream instead if the stream ends before them."""
    prefix = BitReader(data, position - offset).read(depth)
    return UnmatchedCodeword(state, format(prefix, f"0{depth}b")
                             if depth else "")


def trace_lengths(table, sequence, initial_state=0):
    """Per-symbol codeword lengths of an encode from a pinned start state,
    independent of the bit writer (used by tests and rate accounting)."""
    m = len(table.symbols)
    cells = _backward_pass((table.nexts.ravel() * m).tolist(), m,
                           symbol_indices(table, sequence), initial_state)[1]
    return table.lengths.ravel()[cells].tolist()


# ---------------------------------------------------------------------------
# table serialization

_SYM_INT = 0
_SYM_STR = 1
_SYM_BYTES = 2


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
    return w.getvalue() + _grid_bytes(table)


def _grid_bytes(table):
    """The encoder grid, cell by cell in x-major order: the next state and
    the codeword length as LEB128, then the value in ceil(length / 8)
    big-endian bytes."""
    out = bytearray()
    for nxt, length, value in zip(*(a.ravel().tolist() for a in (
            table.nexts, table.lengths, table.values))):
        out += _leb128(nxt)
        out += _leb128(length)
        out += value.to_bytes((length + 7) >> 3, "big")
    return bytes(out)


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
    """``body`` followed by its sha-256 digest."""
    return body + hashlib.sha256(body).digest()


def serialize_table(table):
    """Canonical bytes: header, alphabet, encoder grid, sha-256 trailer."""
    return _seal(_table_body(table))


def table_digest(table):
    """Hex content hash of the canonical serialization."""
    return hashlib.sha256(_table_body(table)).hexdigest()


def deserialize_table(data):
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
        pos, grid = r.position >> 3, ([], [], [])  # see _grid_bytes
        for _ in range(n * n_sym):
            nxt, pos = ((body[pos], pos + 1) if body[pos] < 0x80
                        else _leb128_at(body, pos))
            length, pos = ((body[pos], pos + 1) if body[pos] < 0x80
                           else _leb128_at(body, pos))
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


def _leb128_at(body, pos):
    """The LEB128 integer at byte ``pos`` and the position after it."""
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
