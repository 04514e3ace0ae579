"""The executable machine: validation, backward encoding, forward decoding,
bitstream framing and canonical table serialization.

Stream layout (bit granularity, MSB first inside bytes):

    magic "AEDS" | version u8 | state count as LEB128 | initial decoder
    state in exactly ceil(lg N) bits | symbol count n as LEB128 | payload
    codewords in decode order | zero padding to a byte boundary

Backward encoding buffers the per-symbol codewords and then writes them in
forward order, so memory is proportional to the payload.
"""

import hashlib
import math
from dataclasses import dataclass

from .errors import (
    AlphabetMismatch,
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
from .model import UNMATCHED, AedsTable, Codeword

STREAM_MAGIC = b"AEDS"
STREAM_VERSION = 1
TABLE_MAGIC = b"AEDT"
TABLE_VERSION = 1


# ---------------------------------------------------------------------------
# bit-level IO


class BitWriter:
    """Accumulates bits MSB-first into a bytearray."""

    __slots__ = ("_buf", "_acc", "_fill")

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._fill = 0

    def write(self, value, nbits):
        if nbits == 0:
            return
        acc = (self._acc << nbits) | value
        fill = self._fill + nbits
        while fill >= 8:
            fill -= 8
            self._buf.append((acc >> fill) & 0xFF)
        self._acc = acc & ((1 << fill) - 1)
        self._fill = fill

    def write_bytes(self, data):
        if self._fill:
            for b in data:
                self.write(b, 8)
        else:
            self._buf += data

    def write_leb128(self, value):
        if value < 0:
            raise ValueError("LEB128 encodes nonnegative integers only")
        while True:
            chunk = value & 0x7F
            value >>= 7
            self.write(chunk | (0x80 if value else 0), 8)
            if not value:
                return

    @property
    def bit_length(self):
        return 8 * len(self._buf) + self._fill

    def getvalue(self):
        """Zero-pad to a byte boundary and return the bytes."""
        out = bytes(self._buf)
        if self._fill:
            out += bytes([(self._acc << (8 - self._fill)) & 0xFF])
        return out


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
class ErgodicityReport:
    irreducible: bool
    aperiodic: bool
    period: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    well_formed: bool
    ergodicity: ErgodicityReport


def _transition_graph(encoder):
    """Successor sets of the encoding chain x -> F(x, s) over all symbols."""
    return [sorted({nxt for _, nxt in row}) for row in encoder]


def _strongly_connected(succ):
    n = len(succ)

    def reachable(adj):
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)

    rev = [[] for _ in range(n)]
    for u, vs in enumerate(succ):
        for v in vs:
            rev[v].append(u)
    return reachable(succ) and reachable(rev)


def _period(succ):
    """gcd of cycle lengths of a strongly connected digraph."""
    n = len(succ)
    level = [None] * n
    level[0] = 0
    order = [0]
    g = 0
    for u in order:
        for v in succ[u]:
            if level[v] is None:
                level[v] = level[u] + 1
                order.append(v)
            else:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 0


def ergodicity(encoder):
    """Irreducibility and period of the chain of an encoder grid: rows of
    (codeword, next state) pairs such as ``table.encoder``."""
    succ = _transition_graph(encoder)
    if not _strongly_connected(succ):
        return ErgodicityReport(False, False, None)
    period = _period(succ)
    return ErgodicityReport(True, period == 1, period)


def validate_aeds(table):
    """Structural check; returns a report, raises on malformation.

    ``AedsTable`` itself rejects short rows and out-of-range next states and
    derives the decoder from the encoder grid; this adds the prefix check
    (building the decoder index) and the ergodicity report.  A non-ergodic
    chain is reported, not raised: encoding still works, only the
    stationary analysis needs ergodicity.
    """
    if not isinstance(table, AedsTable):
        raise TableError("validate_aeds expects an AedsTable")
    table.decoding_tries()  # building the decoder index checks prefixes
    return ValidationReport(True, ergodicity(table.encoder))


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
    def assemble(cls, n_states, initial_state, length, payload_words):
        w = BitWriter()
        w.write_bytes(STREAM_MAGIC)
        w.write(STREAM_VERSION, 8)
        w.write_leb128(n_states)
        w.write(initial_state, state_index_bits(n_states))
        w.write_leb128(length)
        for word in payload_words:
            w.write(word.value, word.length)
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


def _backward_pass(table, indices, start):
    """Run the backward recursion; return (final_state, words_forward)."""
    enc = table.encoder
    x = start
    rev = []
    for s in reversed(indices):
        word, x = enc[x][s]
        rev.append(word)
    rev.reverse()
    return x, rev


def encode(table, sequence, initial_state_policy=POLICY_FIRST_STATE):
    """Compress ``sequence`` with ``table``; symbols are eaten back to front.

    ``initial_state_policy`` selects the state the backward pass starts
    from: "index0" pins state 0 for reproducibility, "minimize-length"
    tries every state and keeps the shortest stream (smallest index wins
    ties), and an integer pins that state.
    """
    indices = []
    for t, s in enumerate(sequence):
        try:
            indices.append(table.symbol_index(s))
        except AlphabetMismatch:
            raise UnknownSymbol(t, s) from None

    if isinstance(initial_state_policy, int):
        start = initial_state_policy
        if not 0 <= start < table.n_states:
            raise TableError(f"initial state {start} out of range")
    elif initial_state_policy == POLICY_FIRST_STATE:
        start = 0
    elif initial_state_policy == POLICY_MINIMIZE:
        start = min(range(table.n_states), key=lambda cand: sum(
            w.length for w in _backward_pass(table, indices, cand)[1]))
    else:
        raise ValueError(f"unknown policy {initial_state_policy!r}")

    x0, words = _backward_pass(table, indices, start)
    return Bitstream.assemble(table.n_states, x0, len(indices), words)


def decode(table, stream):
    """Recover the symbol sequence; consumes exactly the declared payload.

    Each symbol is one lookup (two or more for codewords longer than a
    state's table width) in ``table.decoding_tries()``, indexed by bits
    peeked from a local accumulator that is refilled 8 bytes at a time.
    Zero bytes past the end of the stream keep every refill whole (a
    refill starts at most one byte past the end, or the end check before
    it raises); a codeword that consumes them makes the stream truncated.
    """
    if stream.n_states != table.n_states:
        raise MalformedStream(
            f"stream was written for {stream.n_states} states, "
            f"table has {table.n_states}")
    nodes = table.decoding_tries()
    symbols = table.symbols
    data = stream.data + bytes(16)
    end = 8 * len(stream.data)
    pos = stream.payload_start >> 3
    acc = data[pos]
    nbits = 8 - (stream.payload_start & 7)
    pos += 1
    x = stream.initial_state
    out = []
    append = out.append
    for _ in range(stream.length):
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
    indices = [table.symbol_index(s) for s in sequence]
    return [w.length for w in _backward_pass(table, indices, initial_state)[1]]


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
    for row in table.encoder:
        for word, nxt in row:
            w.write_leb128(nxt)
            w.write_leb128(word.length)
            nbytes = (word.length + 7) // 8
            w.write_bytes(word.value.to_bytes(nbytes, "big"))
    return w.getvalue()


def _seal(body):
    """``body`` followed by its sha-256 digest."""
    return body + hashlib.sha256(body).digest()


def _unseal(data, magic, what):
    """The body of a sealed blob that must start with ``magic``.

    ``what`` names the blob in error messages ("table", "tANS table");
    its first word alone names the magic and the hash.
    """
    label = what.split()[0]
    if len(data) < 32 + 6:
        raise MalformedTable(f"too short to hold a {what}")
    body = data[:-32]
    if body[:4] != magic:
        raise MalformedTable(f"bad {label} magic")
    if hashlib.sha256(body).digest() != data[-32:]:
        raise HashMismatch(f"{label} bytes fail their content hash")
    return body


def serialize_table(table):
    """Canonical bytes: header, alphabet, encoder grid, sha-256 trailer."""
    return _seal(_table_body(table))


def table_digest(table):
    """Hex content hash of the canonical serialization."""
    return hashlib.sha256(_table_body(table)).hexdigest()


def deserialize_table(data):
    r = BitReader(_unseal(data, TABLE_MAGIC, "table"), 32)
    try:
        version = r.read(8)
        if version != TABLE_VERSION:
            raise VersionMismatch(f"table version {version}")
        n = r.read_leb128()
        n_sym = r.read_leb128()
        if n < 1 or n_sym < 1:
            raise MalformedTable("empty table")
        symbols = [_read_symbol(r) for _ in range(n_sym)]
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n_sym):
                nxt = r.read_leb128()
                length = r.read_leb128()
                nbytes = (length + 7) // 8
                value = int.from_bytes(r.read_bytes(nbytes), "big")
                row.append((Codeword(value, length), nxt))
            rows.append(row)
    except TruncatedStream:
        raise MalformedTable("table bytes end early") from None
    except (ValueError, UnicodeDecodeError) as exc:
        raise MalformedTable(str(exc)) from None
    if r.bits_left >= 8:
        raise MalformedTable("unexpected bytes after the encoder grid")
    try:
        return AedsTable(symbols, rows)
    except TableError as exc:
        raise MalformedTable(str(exc)) from None
