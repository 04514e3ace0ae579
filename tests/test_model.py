import math
import random

import numpy as np
import pytest

import aeds.model
from aeds.analysis import check_bound
from aeds.codec import decode, encode
from aeds.errors import (
    AlphabetMismatch,
    DegenerateAlphabet,
    InconsistentTables,
    InvalidWeight,
    MissingSymbol,
    PrefixViolation,
    TableError,
)
from aeds.constructors import (
    _assemble,
    build_large_n,
    build_saeds_case2,
    build_saeds_case3,
    optimize_decoder_codes,
)
from aeds.model import (
    AedsTable,
    Codeword,
    ErgodicityReport,
    SAedsPartition,
    SourceDistribution,
    _bfs_depths,
    demo_table,
    entropy,
    ergodicity,
    incoming,
    relative_entropy,
    validate_distribution,
)
from aeds.tans import build_tans, quantize_counts, tans_to_aeds

from conftest import random_source, random_table


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
    # no cell enters state 1
    table = AedsTable("ab", [[0, 0], [0, 0]], [[2, 2], [2, 2]],
                      [[0, 1], [2, 3]])
    assert table.saeds_partition() is None


def bfs_depths_oracle(starts, adj, n):
    """Breadth-first depths with one sorted, repeat-free frontier a level."""
    depth = np.full(n, -1, dtype=np.int64)
    depth[0] = 0
    frontier, d = np.zeros(1, dtype=np.int64), 0
    while frontier.size:
        d += 1
        first = starts[frontier]
        sizes = starts[frontier + 1] - first
        edges = (np.repeat(first - np.cumsum(sizes) + sizes, sizes)
                 + np.arange(sizes.sum()))
        reached = np.unique(adj[edges])
        frontier = reached[depth[reached] < 0]
        depth[frontier] = d
    return depth


def ergodicity_oracle(nexts):
    n, m = nexts.shape
    depth = bfs_depths_oracle(np.arange(n + 1) * m, nexts.ravel(), n)
    order, bounds = incoming(nexts)
    back = bfs_depths_oracle(bounds, order // m, n)
    if (depth < 0).any() or (back < 0).any():
        return ErgodicityReport(False, False, None)
    period = int(np.gcd.reduce(
        np.abs(np.repeat(depth, m) + 1 - depth[nexts.ravel()])))
    return ErgodicityReport(True, period == 1, period)


def _ergodicity_cases():
    gen = np.random.default_rng(19)
    cases = {
        "one-state": np.zeros((1, 3), dtype=np.int32),
        "cycle-4096": np.roll(np.arange(4096, dtype=np.int32), -1)[:, None],
        # 0 <-> 1 and 2 <-> 3: bipartite, period 2
        "period-2": np.array([[1, 3], [0, 2], [3, 1], [2, 0]]),
        # 0 -> {1, 2} -> 3 -> {0, 4}, 4 -> {1, 2}: every cycle has length 3
        "period-3": np.array([[1, 2], [3, 3], [3, 3], [0, 4], [1, 2]]),
        # state 2 is never entered; states 3, 4 never return to 0
        "reducible": np.array([[1, 3], [0, 1], [0, 1], [4, 4], [3, 4]]),
        "large-n": build_large_n(validate_distribution(
            [(b, 1 + b % 7) for b in range(40)]),
            [8] * 20 + [4] * 20)[0].nexts,
    }
    for i in range(6):
        n, m = int(gen.integers(2, 60)), int(gen.integers(1, 5))
        cases[f"random-{i}"] = gen.integers(0, n, (n, m), dtype=np.int32)
    rng = random.Random(19)
    for i in range(6):
        cases[f"random-table-{i}"] = random_table(
            rng, require_ergodic=False).nexts
    return cases


ERGODICITY_CASES = _ergodicity_cases()


@pytest.mark.parametrize("name", sorted(ERGODICITY_CASES))
def test_ergodicity_and_depths_equal_the_sorting_bfs(name):
    nexts = ERGODICITY_CASES[name]
    n, m = nexts.shape
    order, bounds = incoming(nexts)
    for starts, adj in ((np.arange(n + 1) * m, nexts.ravel()),
                        (bounds, order // m)):
        assert (_bfs_depths(starts, adj, n)
                == bfs_depths_oracle(starts, adj, n)).all()
    assert ergodicity(nexts, incoming(nexts)) == ergodicity_oracle(nexts)


def test_ergodicity_cases_cover_every_kind_of_report():
    reports = {ergodicity(nexts, incoming(nexts))
               for nexts in ERGODICITY_CASES.values()}
    assert {(r.irreducible, r.aperiodic, r.period) for r in reports} >= {
        (False, False, None), (True, True, 1), (True, False, 2),
        (True, False, 3), (True, False, 4096)}


def _partition_tables():
    p = validate_distribution([(b, 1 + (b * 37) % 11) for b in range(64)])
    return [demo_table(),
            build_large_n(p, quantize_counts(p, 1024))[0],
            build_saeds_case2(p, quantize_counts(p, 300)),
            build_saeds_case3(p, quantize_counts(p, 256)),
            tans_to_aeds(build_tans(p, 512))]


@pytest.mark.parametrize("table", _partition_tables(), ids=repr)
def test_forward_sets_equal_the_list_construction(table):
    n, m = table.nexts.shape
    order, bounds = incoming(table.nexts)
    origins, bounds = (order // m).tolist(), bounds.tolist()
    want = {x: tuple(origins[bounds[x]:bounds[x + 1]]) for x in range(n)}
    got = table.saeds_partition().forward_sets
    assert got == want
    assert {type(y) for f in got.values() for y in f} == {int}


@pytest.mark.parametrize("subsets,forward_sets,message", [
    (((0,), (0,)), {0: (0,), 1: (1,)}, "do not partition the state set"),
    (((0, 1), ()), {0: (0,), 1: (1,)}, "do not partition the state set"),
    (((0,), (1,)), {0: (0,), 1: (1,)}, "forward sets of symbol 'a' do not"),
    (((0,), (1,)), {0: (0, 1), 1: ()}, "forward sets of symbol 'b' do not"),
])
def test_partition_check_names_the_broken_law(subsets, forward_sets,
                                              message):
    part = SAedsPartition(("a", "b"), subsets, forward_sets)
    with pytest.raises(InconsistentTables, match=message):
        part.check(2)


@pytest.mark.parametrize("forward", [
    [[2, 1], [2]],  # the runs of "a" cover 3 of 2 states
    [[1], [2]],     # the runs of "a" cover 1 of 2 states
])
def test_assemble_rejects_forward_sets_that_do_not_tile(forward):
    p = validate_distribution([("a", 1), ("b", 1)])
    positions = [list(range(len(sizes))) for sizes in forward]
    with pytest.raises(TableError, match="do not tile the states"):
        _assemble(p, 2, positions, forward)


def test_every_reader_shares_one_grouping(monkeypatch):
    # the decoder sets and runs, ergodicity, the forward sets of the
    # bounds and the code optimizer all read the table's one grouping
    calls = []
    real = aeds.model.incoming
    monkeypatch.setattr(aeds.model, "incoming",
                        lambda *args: calls.append(1) or real(*args))
    p = validate_distribution([("a", 3), ("b", 3), ("c", 2)])
    table, _ = build_large_n(p, [3, 3, 2])
    assert calls == []
    assert table.ergodicity().ergodic
    assert table.saeds_partition() is not None
    assert check_bound(table, p, "large-n").holds
    table.decoding_tries()
    seq = list("abcabbac" * 40)
    assert decode(table, encode(table, seq)) == seq
    optimize_decoder_codes(table, p)
    assert len(calls) == 1


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


def test_table_errors_name_the_first_bad_cell():
    """Both grid checks name the first bad cell in x-major order."""
    ok = dict(nexts=[[0, 0, 0], [0, 0, 0]], lengths=[[1, 1, 1], [1, 1, 1]],
              values=[[0, 1, 0], [1, 0, 1]])
    with pytest.raises(TableError) as err:
        AedsTable("abc", **{**ok, "nexts": [[0, 1, 5], [-1, 7, 0]]})
    assert str(err.value) == "state 0: next state 5 out of range"
    with pytest.raises(TableError) as err:
        AedsTable("abc", **{**ok, "values": [[0, 1, 0], [1, 4, 9]]})
    assert str(err.value) == "state 1: value 4 does not fit in 1 bits"


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
