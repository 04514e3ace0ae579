import gc
import hashlib
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest

from aeds import cli
from aeds.analysis import (
    check_bound,
    closed_form_stationary,
    delta_type1,
    delta_type2,
    optimal_uniform_split,
    stationary_distribution,
    type1_length_drop_raw,
    type2_length_drop_raw,
)
from aeds.codec import (
    decode,
    deserialize_table,
    encode,
    serialize_table,
    table_digest,
    validate_aeds,
)
from aeds.constructors import (
    build_huffman_matching_saeds,
    build_large_n,
    build_saeds_case1,
    build_saeds_case2,
    build_saeds_case3,
    build_type1,
    build_type2,
    optimize_decoder_codes,
)
from aeds.errors import (
    NonIntegerRatio,
    NotPowerOfTwo,
    StateBudgetExceeded,
    TooFewStates,
)
from aeds.model import AedsTable, Codeword, demo_table, validate_distribution
from aeds.prefix_codes import build_huffman, tree_metrics
from aeds.tans import build_tans, quantize_counts, tans_to_aeds

from conftest import huffman_oracle_mean, random_sequence, random_source

SIX = validate_distribution(
    [("a", 0.35), ("b", 0.15), ("c", 0.15), ("d", 0.15),
     ("e", 0.1), ("f", 0.1)])
SIX_HUFFMAN_MEAN = 2.5  # frozen from the exhaustive-tree oracle


def binary_source(r):
    return validate_distribution([("a", r), ("b", 1.0 - r)])


def test_chain_layout_on_six_symbol_source():
    tree = build_huffman(SIX)
    table = build_type1(tree, SIX, 2)
    validate_aeds(table)
    rep = stationary_distribution(table, SIX)
    assert huffman_oracle_mean(SIX.probs) == pytest.approx(SIX_HUFFMAN_MEAN)
    want = SIX_HUFFMAN_MEAN - delta_type1(0.65, 2)
    assert rep.mean_bits == pytest.approx(want, abs=1e-12)
    assert delta_type1(0.65, 2) == pytest.approx(0.0439393939, abs=1e-9)


def test_chain_layout_binary_08():
    p = binary_source(0.8)
    table = build_type1(build_huffman(p), p, 2)
    rep = stationary_distribution(table, p)
    assert rep.mean_bits == pytest.approx(1.0 - 0.24444, abs=5e-4)


def test_chain_layout_rejects_single_state():
    with pytest.raises(TooFewStates):
        build_type1(build_huffman(SIX), SIX, 1)


def test_chain_layout_matches_closed_forms_randomized():
    rng = random.Random(271)
    for _ in range(40):
        p = random_source(rng, n_symbols=rng.randint(2, 7))
        tree = build_huffman(p)
        mets = tree_metrics(tree, p)
        n = rng.randint(2, 64)
        table = build_type1(tree, p, n)
        rep = stationary_distribution(table, p)
        closed = closed_form_stationary("type1", mets.right_weight, n)
        assert max(abs(a - b) for a, b in zip(closed, rep.probs)) < 1e-10
        want = mets.mean_length - type1_length_drop_raw(mets.right_weight, n)
        assert rep.mean_bits == pytest.approx(want, abs=1e-10)


def test_five_state_layout_on_six_symbol_source():
    table = build_type2(build_huffman(SIX), SIX)
    assert table.n_states == 5
    validate_aeds(table)
    rep = stationary_distribution(table, SIX)
    assert rep.mean_bits == pytest.approx(
        SIX_HUFFMAN_MEAN - delta_type2(0.65), abs=1e-12)
    closed = closed_form_stationary("type2", 0.65)
    assert max(abs(a - b) for a, b in zip(closed, rep.probs)) < 1e-10
    assert sum(closed) == pytest.approx(1.0, abs=1e-12)


def test_five_state_layout_closed_form_randomized():
    rng = random.Random(99)
    for _ in range(40):
        p = random_source(rng, n_symbols=rng.randint(2, 7))
        tree = build_huffman(p)
        mets = tree_metrics(tree, p)
        table = build_type2(tree, p)
        rep = stationary_distribution(table, p)
        closed = closed_form_stationary("type2", mets.right_weight)
        assert max(abs(a - b) for a, b in zip(closed, rep.probs)) < 1e-10
        want = mets.mean_length - type2_length_drop_raw(mets.right_weight)
        assert rep.mean_bits == pytest.approx(want, abs=1e-10)


def test_tree_layouts_roundtrip():
    rng = random.Random(6)
    for build in (lambda p: build_type1(build_huffman(p), p, 3),
                  lambda p: build_type2(build_huffman(p), p)):
        for _ in range(10):
            p = random_source(rng)
            table = build(p)
            seq = random_sequence(rng, p, rng.randint(0, 120))
            assert decode(table, encode(table, seq)) == seq


def test_huffman_matching_dyadic():
    p = validate_distribution([("a", 2), ("b", 1), ("c", 1)])
    table = build_huffman_matching_saeds(p)
    assert table.n_states == 4
    validate_aeds(table)
    rep = stationary_distribution(table, p)
    assert rep.mean_bits == pytest.approx(1.5, abs=1e-12)


def test_huffman_matching_six_symbol_source():
    # the longest Huffman codeword here is 3 bits, so 8 states suffice
    table = build_huffman_matching_saeds(SIX)
    assert table.n_states == 8
    part = table.saeds_partition()
    part.check(8)
    rep = stationary_distribution(table, SIX)
    assert rep.mean_bits == pytest.approx(SIX_HUFFMAN_MEAN, abs=1e-12)


def test_huffman_matching_budget():
    with pytest.raises(StateBudgetExceeded):
        build_huffman_matching_saeds(SIX, max_states=4)


def test_huffman_matching_never_worse_than_huffman():
    rng = random.Random(41)
    for _ in range(25):
        p = random_source(rng, n_symbols=rng.randint(2, 7))
        table = build_huffman_matching_saeds(p)
        rep = stationary_distribution(table, p)
        base = tree_metrics(build_huffman(p), p).mean_length
        assert rep.mean_bits <= base + 1e-9


def test_case1_rejects_non_integer_ratio():
    p = validate_distribution([("a", 1), ("b", 1), ("c", 1)])
    with pytest.raises(NonIntegerRatio):
        build_saeds_case1(p, [2, 2, 1])


def test_case1_two_by_three():
    p = validate_distribution([("a", 0.7), ("b", 0.3)])
    table = build_saeds_case1(p, [3, 3])
    validate_aeds(table)
    part = table.saeds_partition()
    part.check(6)
    for x in range(6):
        words = sorted(w.bits for w in table.decoder_set(x))
        assert words == ["0", "1"]
    bound = check_bound(table, p, "case1")
    assert bound.holds


def test_case2_sizes_and_bound():
    p = validate_distribution([("a", 0.5), ("b", 0.3), ("c", 0.2)])
    table = build_saeds_case2(p, [2, 2, 1])
    validate_aeds(table)
    part = table.saeds_partition()
    sizes = sorted(len(part.forward_sets[x]) for x in part.subsets[0])
    assert sizes == [2, 3]
    assert check_bound(table, p, "case2").holds


def test_case2_reduces_to_case1_on_integer_ratios():
    p = validate_distribution([("a", 0.6), ("b", 0.4)])
    a = build_saeds_case1(p, [4, 4])
    b = build_saeds_case2(p, [4, 4])
    assert a.encoder == b.encoder


P3 = validate_distribution([("a", 0.5), ("b", 0.3), ("c", 0.2)])
# the root's right subtree weighs 0.7: type1 and type2 build their tables
SKEW3 = validate_distribution([("a", 0.7), ("b", 0.2), ("c", 0.1)])

# Each entry makes its inputs and returns the one construction to count.
ONE_TABLE = [
    pytest.param(lambda: partial(build_saeds_case1, P3, [4, 2, 2]),
                 id="build_saeds_case1"),
    pytest.param(lambda: partial(build_saeds_case2, P3, [4, 2, 2]),
                 id="build_saeds_case2"),
    *(pytest.param(lambda c=c: partial(cli.build_table, SKEW3, c, 8,
                                       verbose=False), id=f"cli-{c}")
      for c in cli.CODECS),
    pytest.param(lambda: partial(deserialize_table,
                                 serialize_table(demo_table())),
                 id="deserialize_table"),
    pytest.param(lambda: partial(tans_to_aeds, build_tans(SKEW3, 8)),
                 id="tans_to_aeds"),
    pytest.param(lambda: partial(AedsTable.from_rows, "ab",
                                 [[(Codeword(0, 1), 0), (Codeword(1, 1), 0)]]),
                 id="from_rows"),
]


@pytest.mark.parametrize("prepare", ONE_TABLE)
def test_mass_ranked_builders_construct_one_table(prepare, monkeypatch,
                                                  request):
    construct = prepare()
    made = []
    init = AedsTable.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(AedsTable, "__init__", counting)
    table = construct()
    assert len(made) == 1
    validate_aeds(table)
    if request.node.callspec.id.startswith("build_saeds"):
        assert check_bound(table, P3, "case1").holds


# The 256-symbol Zipf distribution of the benchmark corpora, and the
# table_digest of every builder at N = 512, computed before the tables
# became integer arrays.  The builders rank states by float masses and
# break ties on state id, so a change to either order shows here.
ZIPF = validate_distribution([(b, 1 / (b + 1) ** 1.2) for b in range(256)])
ZIPF_512 = {
    "large-n": "0d940f0b2768c06a70e6e35501b9d1b8"
               "567cfa06405546fe980874797cdf2625",
    "case1": "f4dab2ec2bc0a31c47e97cd999f1dca5"
             "f30d2744c0efe88fb0194b82cfac8f3a",
    "case2": "3b0a74e0a5e1a7669b080e1f24276947"
             "53e95f6dbdffb5aa4f635d66572e687c",
    "case3": "fd518d28e0e4fe911d910e1f86f5653b"
             "47db639f598e521d20a13fd742663ccf",
}
# SHA-256 of the large-n table's StationaryReport.probs as float64 bytes
ZIPF_512_PROBS = ("a563294e6308484865be3865c4516f8c"
                  "5573774385a7ddac3270b025ed9124d7")


def test_builder_tables_pinned_at_512_states():
    counts = quantize_counts(ZIPF, 512)
    large, _ = build_large_n(ZIPF, counts)
    tables = {
        "large-n": large,
        "case1": build_saeds_case1(ZIPF, cli._pow2_counts(ZIPF, 512)),
        "case2": build_saeds_case2(ZIPF, counts),
        "case3": build_saeds_case3(ZIPF, counts),
    }
    assert {k: table_digest(t) for k, t in tables.items()} == ZIPF_512
    assert table_digest(tans_to_aeds(build_tans(ZIPF, 512))) == \
        ZIPF_512["case3"]
    rep = stationary_distribution(large, ZIPF)
    assert rep.method == "direct-solve"
    assert hashlib.sha256(np.array(rep.probs).tobytes()).hexdigest() == \
        ZIPF_512_PROBS


def test_large_n_table_at_4096_states_is_small():
    counts = quantize_counts(ZIPF, 4096)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table, _ = build_large_n(ZIPF, counts)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.nexts.size == 4096 * 256
    assert retained < 30e6     # 17 MB: three arrays, no per-cell objects


def test_case3_plan_example():
    p = validate_distribution([("a", 3), ("b", 5)])
    table = build_saeds_case3(p, [3, 5])
    part = table.saeds_partition()
    part.check(8)
    sizes_a = sorted((len(part.forward_sets[x]) for x in part.subsets[0]),
                     reverse=True)
    sizes_b = sorted((len(part.forward_sets[x]) for x in part.subsets[1]),
                     reverse=True)
    assert sizes_a == [4, 2, 2]
    assert sizes_b == [2, 2, 2, 1, 1]
    assert check_bound(table, p, "case3").holds


def test_case3_power_of_two_counts_use_fixed_width():
    p = validate_distribution([("a", 2), ("b", 1), ("c", 1)])
    table = build_saeds_case3(p, [4, 2, 2])
    part = table.saeds_partition()
    for s, block in enumerate(part.subsets):
        widths = {len(part.forward_sets[x]) for x in block}
        assert len(widths) == 1


def test_case3_rejects_non_power_of_two():
    p = validate_distribution([("a", 1), ("b", 1)])
    with pytest.raises(NotPowerOfTwo):
        build_saeds_case3(p, [3, 3])


def test_case3_equals_converted_tans():
    rng = random.Random(19)
    for _ in range(25):
        n = 1 << rng.randint(3, 7)
        p = random_source(rng, n_symbols=rng.randint(2, min(6, n)))
        from aeds.tans import quantize_counts
        counts = quantize_counts(p, n)
        direct = build_saeds_case3(p, counts)
        converted = tans_to_aeds(build_tans(p, n))
        assert direct.encoder == converted.encoder
        # per-symbol codeword length multisets coincide as well
        for s in range(len(p.symbols)):
            a = sorted(w.length for row in direct.encoder
                       for i, (w, _) in enumerate(row) if i == s)
            b = sorted(w.length for row in converted.encoder
                       for i, (w, _) in enumerate(row) if i == s)
            assert a == b


def test_large_n_identities_random():
    rng = random.Random(47)
    for _ in range(40):
        m = rng.randint(2, 6)
        counts = [rng.randint(1, 12) for _ in range(m)]
        n = sum(counts)
        p = random_source(rng, n_symbols=m)
        table, layout = build_large_n(p, counts)
        validate_aeds(table)
        table.saeds_partition().check(n)
        for plan, c in zip(layout.per_symbol, counts):
            assert 2 * plan.short_words + plan.long_words == 1 << plan.kappa
            assert plan.narrow_sets + plan.wide_sets + 1 == c
            head = plan.narrow_sets * (1 << (plan.kappa - 1)) + plan.short_words
            assert head == plan.head_size == (c << plan.kappa) - n
            tail = plan.wide_sets * (1 << plan.kappa) + plan.long_words
            assert tail == 2 * n - (c << plan.kappa)


def test_large_n_dyadic_64():
    # exactly dyadic ratios collapse to fixed widths: every codeword of a
    # symbol costs its ideal length, so the rate is the entropy from any
    # start state (the chain itself need not be ergodic here)
    p = validate_distribution([("a", 2), ("b", 1), ("c", 1)])
    table, layout = build_large_n(p, [32, 16, 16])
    for plan in layout.per_symbol:
        assert 2 * plan.short_words + plan.long_words == 1 << plan.kappa
    for s, ideal in enumerate((1, 2, 2)):
        widths = {row[s][0].length for row in table.encoder}
        assert widths == {ideal}
    rng = random.Random(3)
    seq = random_sequence(rng, p, 500)
    assert decode(table, encode(table, seq)) == seq


def test_large_n_rejects_degenerate():
    p = validate_distribution([("a", 3), ("b", 1)])
    from aeds.errors import InvalidWeight
    with pytest.raises(InvalidWeight):
        build_large_n(p, [4])          # one count cannot cover two symbols
    with pytest.raises(InvalidWeight):
        build_large_n(p, [4, 0])       # nor may a symbol own zero states


def test_every_builder_passes_validation():
    rng = random.Random(53)
    p = random_source(rng, n_symbols=4)
    tree = build_huffman(p)
    tables = [
        build_type1(tree, p, 5),
        build_type2(tree, p),
        build_huffman_matching_saeds(p),
        build_saeds_case2(p, [3, 2, 4, 1]),
        build_saeds_case3(p, [5, 4, 4, 3]),
        build_large_n(p, [5, 3, 2, 3])[0],
    ]
    for table in tables:
        report = validate_aeds(table)
        assert report.well_formed


def test_optimal_uniform_split_80():
    best = optimal_uniform_split(80, 2)
    assert (best.right_items, best.left_items) == (64, 16)
    assert best.mean_bits == pytest.approx(6.6 - delta_type1(0.8, 2), abs=1e-12)
    assert best.mean_bits == pytest.approx(6.3556, abs=5e-5)
    assert best.reduction == pytest.approx(0.0444, abs=5e-5)


def test_optimal_uniform_split_96_and_powers():
    best = optimal_uniform_split(96, 2)
    assert (best.right_items, best.left_items) == (64, 32)
    for k in (3, 5, 7):
        assert optimal_uniform_split(1 << k, 2).reduction == pytest.approx(
            0.0, abs=1e-12)


def test_optimize_decoder_codes_never_hurts():
    rng = random.Random(61)
    for _ in range(15):
        p = random_source(rng)
        table = build_type1(build_huffman(p), p, rng.randint(2, 6))
        before = stationary_distribution(table, p).mean_bits
        tuned = optimize_decoder_codes(table, p)
        validate_aeds(tuned)
        after = stationary_distribution(tuned, p).mean_bits
        assert after <= before + 1e-12


def test_optimize_decoder_codes_pinned_rates():
    six = validate_distribution(enumerate((.3, .25, .15, .15, .1, .05)))
    zipf = validate_distribution((b, 1 / (b + 1) ** 1.2) for b in range(256))
    tree = build_huffman(six)
    cases = [
        (six, build_type1(tree, six, 2), 2.41875),
        (six, build_type1(tree, six, 3), 2.405102040816327),
        (six, build_type1(tree, six, 4), 2.400735294117647),
        (six, build_type1(tree, six, 8), 2.400383790201634),
        (zipf, build_saeds_case2(zipf, quantize_counts(zipf, 512)),
         5.323421400883337),
        (zipf, tans_to_aeds(build_tans(zipf, 256)), 5.309169018589701),
        (zipf, build_large_n(zipf, quantize_counts(zipf, 512))[0],
         5.324142675172766),
    ]
    for p, table, want in cases:
        tuned = optimize_decoder_codes(table, p)
        got = stationary_distribution(tuned, p).mean_bits
        assert got == pytest.approx(want, abs=1e-12)
