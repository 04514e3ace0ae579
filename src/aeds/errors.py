"""Exception types shared across the package."""


class AedsError(Exception):
    """Base class for every error raised by this package."""


# ---- distribution / alphabet problems ----

class DegenerateAlphabet(AedsError):
    """Fewer than two symbols with positive weight."""


class InvalidWeight(AedsError):
    """Negative weight, or a weight vector that is not a distribution."""


class AlphabetMismatch(AedsError):
    """Two objects that must share an alphabet do not."""


class UnknownSymbol(AedsError):
    """A sequence contains a symbol the table does not know."""

    def __init__(self, position, symbol):
        super().__init__(f"unknown symbol {symbol!r} at position {position}")
        self.position = position
        self.symbol = symbol


# ---- table structure problems ----

class TableError(AedsError):
    """Structural defect in an encoding/decoding table."""


class PrefixViolation(TableError):
    """Two codewords arriving at one decoder state collide."""

    def __init__(self, state, first, second):
        super().__init__(
            f"decoder state {state}: codeword {first!r} is a prefix of {second!r}")
        self.state = state
        self.first = first
        self.second = second


class InconsistentTables(TableError):
    """A table's state-divided partition breaks its laws."""


class MissingSymbol(TableError):
    """An encoder state lacks an entry for some symbol."""


class NotErgodic(AedsError):
    """The encoding state chain is reducible or periodic."""


class TooFewStates(AedsError):
    """A builder needs more states than were requested."""


class NotPowerOfTwo(AedsError):
    """A state count that must be a power of two is not."""


class NonIntegerRatio(AedsError):
    """A builder requires every per-symbol ratio to be an integer."""

    def __init__(self, symbol, ratio):
        super().__init__(f"states/count ratio {ratio} for symbol {symbol!r} "
                         "is not an integer")
        self.symbol = symbol
        self.ratio = ratio


class StateBudgetExceeded(AedsError):
    """A builder would need more states than the configured cap."""


class DegenerateSingleSymbol(AedsError):
    """A layout was asked to dedicate every state to one symbol."""


# ---- bitstream problems ----

class StreamError(AedsError):
    """Defect in a compressed stream."""


class MalformedStream(StreamError):
    """Bad magic, version or header structure."""


class TruncatedStream(StreamError):
    """The stream ended in the middle of a codeword or header."""


class UnmatchedCodeword(StreamError):
    """The decoder walked off its codeword set."""

    def __init__(self, state, prefix):
        super().__init__(f"no codeword starting with {prefix!r} at state {state}")
        self.state = state
        self.prefix = prefix


class TrailingGarbage(StreamError):
    """Nonzero or oversized padding after the declared payload."""


# ---- serialization problems ----

class VersionMismatch(AedsError):
    """Serialized object written by an incompatible format version."""


class HashMismatch(AedsError):
    """Stored content hash does not match the recomputed one."""


class MalformedTable(AedsError):
    """Serialized table bytes cannot be parsed."""


# ---- analysis problems ----

class NoConvergence(AedsError):
    """Iterative solver failed to reach the requested residual."""

    def __init__(self, residual, iterations):
        super().__init__(f"residual {residual:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


class KindMismatch(AedsError):
    """A bound check was asked about a table of the wrong kind."""
