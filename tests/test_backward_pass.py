"""The speculative chunked backward pass of ``codec._backward_pass``
against the serial loop it replaced, kept below as an oracle, and the
one-call byte mapping of ``codec.symbol_indices``.  Seeded random tables,
including one-state tables and tables whose maps never meet, must give
the same final state and the same cell at every position.
"""

import random
import time
from array import array

import numpy as np
import pytest

from aeds import codec
from aeds.codec import (CHUNK, LOCKSTEP_CHUNKS, _backward_pass, encode,
                        symbol_indices)
from aeds.errors import UnknownSymbol
from aeds.model import AedsTable

# ---------------------------------------------------------------------------
# oracle: the serial loop


def oracle_backward_pass(into, m, indices, start):
    n = len(indices)
    cells = bytearray(n) if len(into) <= 256 else array("I", [0]) * n
    at = start * m
    for s in reversed(indices):
        n -= 1
        cell = at + s
        cells[n] = cell
        at = into[cell]
    return at // m, np.asarray(cells)


def check(nexts, indices, start):
    m = nexts.shape[1]
    want = oracle_backward_pass((nexts.ravel() * m).tolist(), m, indices,
                                start)
    got = _backward_pass(nexts, indices, start)
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype
    assert np.array_equal(got[1], want[1])


def table_nexts(n_states, m, nexts):
    zeros = np.zeros((n_states, m), np.int64)
    return AedsTable(range(m), nexts, zeros, zeros).nexts


def random_nexts(rng, n_states, m):
    return table_nexts(n_states, m, [[rng.randrange(n_states)
                                      for _ in range(m)]
                                     for _ in range(n_states)])


def rotation_nexts(rng, n_states, m):
    """Each symbol's map adds its own constant mod N: a permutation, so two
    paths in different states never meet."""
    shifts = [rng.randrange(n_states) for _ in range(m)]
    return table_nexts(n_states, m, [[(x + r) % n_states for r in shifts]
                                     for x in range(n_states)])


def random_indices(rng, m, n):
    if m <= 256:
        return bytes(rng.randrange(m) for _ in range(n))
    return array("I", (rng.randrange(m) for _ in range(n)))


# (states, symbols): 1, 5, 200, 400 and 600 cells, one-state tables among
# them, and an alphabet of more than 256 symbols
SHAPES = [(1, 1), (5, 1), (1, 5), (8, 25), (1, 200), (40, 10), (2, 300)]
# around a chunk, and around the block length where the lockstep starts
CUT = LOCKSTEP_CHUNKS * CHUNK
LENGTHS = [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK + 7,
           CUT - 1, CUT, CUT + 7, 1 << 16]


@pytest.mark.parametrize("maps", [random_nexts, rotation_nexts])
@pytest.mark.parametrize("shape", SHAPES)
def test_speculative_pass_equals_the_serial_loop(maps, shape):
    rng = random.Random(f"{maps.__name__} {shape}")
    n_states, m = shape
    for n in LENGTHS:
        nexts = maps(rng, n_states, m)
        check(nexts, random_indices(rng, m, n), rng.randrange(n_states))


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("limit", [1, 2, 1 << 30])
@pytest.mark.parametrize("lockstep", [1, 2])
def test_every_chunk_length_and_rerun_limit(monkeypatch, chunk, limit,
                                            lockstep):
    # short chunks put many boundaries in a short block; a limit of 1
    # leaves for the serial loop at the first chunk that misses, and a huge
    # one never does; the lockstep starts at one or two whole chunks
    monkeypatch.setattr(codec, "CHUNK", chunk)
    monkeypatch.setattr(codec, "RERUN_LIMIT", limit)
    monkeypatch.setattr(codec, "LOCKSTEP_CHUNKS", lockstep)
    rng = random.Random(chunk * limit * lockstep)
    for _ in range(40):
        n_states, m = rng.choice([(1, 3), (3, 2), (16, 16), (60, 5)])
        maps = rng.choice([random_nexts, rotation_nexts])
        n = rng.choice([0, 1, chunk - 1, chunk, 2 * chunk, rng.randrange(600)])
        check(maps(rng, n_states, m), random_indices(rng, m, n),
              rng.randrange(n_states))


def test_paths_that_meet_only_at_a_rare_symbol():
    # symbols 0..14 rotate 16 states and symbol 15 sends every state to 0,
    # so a chunk without a 15 re-runs whole and a chunk with one meets the
    # speculated path there: misses are counted, reset and reached
    rng = random.Random(15)
    shifts = [rng.randrange(16) for _ in range(15)]
    nexts = table_nexts(16, 16, [[(x + r) % 16 for r in shifts] + [0]
                                 for x in range(16)])
    for gap in (CHUNK // 2, 2 * CHUNK, 5 * CHUNK):
        indices = bytes(15 if rng.randrange(gap) == 0 else rng.randrange(15)
                        for _ in range(1 << 16))
        check(nexts, indices, rng.randrange(16))


class CountingBytes(bytes):
    """Bytes that count the single positions read from them, which only
    the re-run of a chunk reads (the lockstep views them as an array and
    the serial loop iterates a slice)."""

    reads = 0

    def __getitem__(self, key):
        self.reads += isinstance(key, int)
        return super().__getitem__(key)


def test_a_never_meeting_pass_stays_near_the_serial_loop():
    rng = random.Random(16)
    nexts = rotation_nexts(rng, 16, 16)
    indices = np.random.default_rng(16).integers(0, 16, 1 << 20,
                                                 dtype=np.uint8).tobytes()
    counted = CountingBytes(indices)
    _backward_pass(nexts, counted, 5)
    # the re-runs give up after the first few chunks that miss
    assert 0 < counted.reads <= (codec.RERUN_LIMIT + 2) * CHUNK
    into = (nexts.ravel() * 16).tolist()

    def best(run):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            result = run()
            times.append(time.perf_counter() - start)
        return min(times), result

    serial, want = best(lambda: oracle_backward_pass(into, 16, indices, 5))
    spec, got = best(lambda: _backward_pass(nexts, indices, 5))
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert spec <= 3 * serial, (spec, serial)


# ---------------------------------------------------------------------------
# byte input


def byte_table():
    symbols = list(range(255, 0, -3))  # byte values, not in index order
    rng = np.random.default_rng(3)
    nexts = rng.integers(0, 5, (5, len(symbols)))
    zeros = np.zeros(nexts.shape, np.int64)
    return AedsTable(symbols, nexts, zeros, zeros)


def test_bytes_map_to_the_indices_of_their_symbols():
    table = byte_table()
    rng = random.Random(4)
    data = bytes(rng.choice(table.symbols) for _ in range(5000))
    want = bytes(table.symbol_index(s) for s in data)
    for given in (data, bytearray(data), list(data)):
        assert symbol_indices(table, given) == want
    assert encode(table, data) == encode(table, list(data))


@pytest.mark.parametrize("kind", [bytes, bytearray])
@pytest.mark.parametrize("where", [0, 2500, 4999])
def test_unknown_byte_is_named_at_its_first_position(kind, where):
    table = byte_table()
    rng = random.Random(where)
    data = bytearray(rng.choice(table.symbols) for _ in range(5000))
    data[where] = 7  # 7 is not a symbol: 255 - 7 is not a multiple of 3
    if where < len(data) - 1:
        data[-1] = 8  # a later unknown byte, not the one to report
    with pytest.raises(UnknownSymbol) as err:
        encode(table, kind(data))
    assert (err.value.position, err.value.symbol) == (where, 7)
