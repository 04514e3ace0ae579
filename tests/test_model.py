import math
import random

import numpy as np
import pytest

from aeds.errors import (
    AlphabetMismatch,
    DegenerateAlphabet,
    InvalidWeight,
    MissingSymbol,
    PrefixViolation,
    TableError,
)
from aeds.model import (
    AedsTable,
    Codeword,
    SourceDistribution,
    demo_table,
    entropy,
    relative_entropy,
    validate_distribution,
)

from conftest import random_source


def test_validate_distribution_symmetric():
    p = validate_distribution([("a", 1), ("b", 1)])
    assert p.probs == (0.5, 0.5)


def test_validate_distribution_six_symbol_source():
    p = validate_distribution(
        [("a", 0.35), ("b", 0.15), ("c", 0.15), ("d", 0.15),
         ("e", 0.1), ("f", 0.1)])
    assert p.symbols == ("a", "b", "c", "d", "e", "f")
    assert p.probs[0] == pytest.approx(0.35, abs=1e-15)
    assert math.fsum(p.probs) == pytest.approx(1.0, abs=1e-12)


def test_validate_distribution_normalizes():
    p = validate_distribution([("a", 3), ("b", 1)])
    assert p.probs == (0.75, 0.25)


def test_validate_distribution_drops_zero_weights():
    p = validate_distribution([("a", 1), ("zero", 0), ("b", 1)])
    assert p.symbols == ("a", "b")


def test_validate_distribution_errors():
    with pytest.raises(DegenerateAlphabet):
        validate_distribution([("a", 1.0)])
    with pytest.raises(DegenerateAlphabet):
        validate_distribution([("a", 1.0), ("b", 0.0)])
    with pytest.raises(InvalidWeight):
        validate_distribution([("a", 1.0), ("b", -0.5)])
    with pytest.raises(InvalidWeight):
        SourceDistribution(["a", "a"], [0.5, 0.5])


def test_entropy_examples():
    uniform4 = validate_distribution([(i, 1) for i in range(4)])
    assert entropy(uniform4) == pytest.approx(2.0, abs=1e-12)
    dyadic = validate_distribution([("a", 2), ("b", 1), ("c", 1)])
    assert entropy(dyadic) == pytest.approx(1.5, abs=1e-12)
    skew = validate_distribution([("a", 0.8), ("b", 0.2)])
    oracle = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
    assert entropy(skew) == pytest.approx(oracle, abs=1e-15)
    assert oracle == pytest.approx(0.721928, abs=1e-6)


def test_relative_entropy_examples():
    half = validate_distribution([("a", 1), ("b", 1)])
    assert relative_entropy(half, half) == 0.0
    p = validate_distribution([("a", 3), ("b", 1)])
    q = validate_distribution([("a", 1), ("b", 1)])
    oracle_pq = 0.75 * math.log2(0.75 / 0.5) + 0.25 * math.log2(0.25 / 0.5)
    assert relative_entropy(p, q) == pytest.approx(oracle_pq, abs=1e-15)
    assert oracle_pq == pytest.approx(0.188722, abs=1e-6)
    oracle_qp = 0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25)
    assert relative_entropy(q, p) == pytest.approx(oracle_qp, abs=1e-15)
    assert oracle_qp == pytest.approx(0.207519, abs=1e-6)


def test_relative_entropy_alphabet_mismatch():
    p = validate_distribution([("a", 1), ("b", 1)])
    q = validate_distribution([("a", 1), ("c", 1)])
    with pytest.raises(AlphabetMismatch):
        relative_entropy(p, q)


def test_entropy_and_divergence_properties():
    rng = random.Random(7)
    for _ in range(200):
        p = random_source(rng)
        assert 0.0 <= entropy(p) <= math.log2(len(p)) + 1e-12
        assert relative_entropy(p, p) == pytest.approx(0.0, abs=1e-12)
        q = random_source(rng, symbols=list(p.symbols))
        assert relative_entropy(p, q) >= -1e-12


def test_codeword_basics():
    empty = Codeword(0, 0)
    assert len(empty) == 0 and empty.bits == ""
    w = Codeword.from_bits("0110")
    assert w.value == 6 and w.length == 4 and w.bits == "0110"
    assert Codeword.from_bits("01").is_prefix_of(w)
    assert not w.is_prefix_of(Codeword.from_bits("01"))
    assert empty.is_prefix_of(w)
    assert w.concat(Codeword.from_bits("1")).bits == "01101"
    assert [w.bit_at(i) for i in range(4)] == [0, 1, 1, 0]
    with pytest.raises(ValueError):
        Codeword(4, 2)
    with pytest.raises(ValueError):
        Codeword.from_bits("012")


def test_demo_table_decoder_sets():
    t = demo_table()
    expected = [
        {"00", "01", "10", "110", "111"},
        {"0", "10", "110", "111"},
        {""},
        {"0", "10", "110", "111"},
        {""},
    ]
    for x, want in enumerate(expected):
        assert {w.bits for w in t.decoder_set(x)} == want


def test_demo_table_bijection():
    t = demo_table()
    pairs = [(origin, s)
             for entries in t.decoder_entries
             for _, s, origin in entries]
    assert len(pairs) == len(set(pairs)) == t.n_states * len(t.symbols)
    for x, entries in enumerate(t.decoder_entries):
        for word, s, origin in entries:
            assert t.encoder[origin][s] == (word, x)


def test_prefix_violation_detected_via_tries():
    w = Codeword.from_bits
    rows = [
        ((w("0"), 0), (w("01"), 0)),   # "0" prefixes "01" at state 0
        ((w("10"), 0), (w("11"), 0)),
    ]
    table = AedsTable.from_rows(("a", "b"), rows)
    with pytest.raises(PrefixViolation):
        table.decoding_tries()


def test_saeds_partition_of_demo_table():
    t = demo_table()
    part = t.saeds_partition()
    assert part is not None
    part.check(t.n_states)
    blocks = {t.symbols[s]: block for s, block in enumerate(part.subsets)}
    assert blocks == {"a": (3, 4), "b": (1, 2), "c": (0,)}
    sizes = sorted(len(part.forward_sets[x]) for x in range(5))
    assert sizes == [1, 1, 4, 4, 5]


def test_non_state_divided_table_has_no_partition():
    w = Codeword.from_bits
    rows = [
        ((w("0"), 0), (w("10"), 1)),
        ((w("0"), 1), (w("1"), 0)),   # both symbols reach both states
    ]
    table = AedsTable.from_rows(("a", "b"), rows)
    assert table.saeds_partition() is None


def test_byte_histogram_constructor():
    counts = [0] * 256
    counts[65] = 30
    counts[66] = 60
    counts[200] = 10
    p = SourceDistribution.from_byte_histogram(counts)
    assert p.symbols == (65, 66, 200)
    assert p.probs == (0.3, 0.6, 0.1)


# ---------------------------------------------------------------------------
# the array form


def test_array_path_rejects_what_the_row_path_rejects():
    ok = dict(nexts=[[0, 0]], lengths=[[1, 1]], values=[[0, 1]])
    assert AedsTable("ab", **ok).n_states == 1
    with pytest.raises(MissingSymbol):           # a short row
        AedsTable("abc", **ok)
    with pytest.raises(TableError):              # next state out of range
        AedsTable("ab", **{**ok, "nexts": [[0, 1]]})
    with pytest.raises(TableError):              # 2 does not fit in 1 bit
        AedsTable("ab", **{**ok, "values": [[0, 2]]})
    with pytest.raises(TableError):              # negative length
        AedsTable("ab", **{**ok, "lengths": [[1, -1]]})
    with pytest.raises(TableError):              # arrays of unequal shape
        AedsTable("ab", **{**ok, "values": [[0, 1], [0, 1]]})
    with pytest.raises(MissingSymbol):
        AedsTable.from_rows("abc", [[(Codeword(0, 1), 0)] * 2])


def test_table_arrays_are_read_only_integers():
    t = demo_table()
    assert t.nexts.shape == t.lengths.shape == t.values.shape == (5, 3)
    assert t.values.dtype == np.int64
    with pytest.raises(ValueError):
        t.nexts[0, 0] = 1
    assert t.encoder[0][2] == (Codeword.from_bits("110"), 0)
    wide = AedsTable("ab", [[0, 0]], [[1, 80]], [[0, 1 << 79]])
    assert wide.values.dtype == object         # a dtype, not another path
    assert wide.encoder[0][1][0].bits == "1" + "0" * 79
