import math
import random

import pytest

from aeds.analysis import stationary_distribution
from aeds.constructors import build_saeds_case1, build_saeds_case2
from aeds.errors import AlphabetMismatch, DegenerateAlphabet, InvalidWeight
from aeds.model import Codeword, validate_distribution
from aeds.prefix_codes import (
    SIGMA,
    CodeTree,
    build_huffman,
    phased_in_mean_length,
    phased_in_redundancy,
    phased_in_stats,
    phased_in_words,
    tree_metrics,
    uniform_split_tree,
)

from conftest import huffman_oracle_mean, random_source


def kraft_sum(tree):
    return math.fsum(2.0 ** -w.length for w in tree.codewords().values())

SIX = validate_distribution(
    [("a", 0.35), ("b", 0.15), ("c", 0.15), ("d", 0.15),
     ("e", 0.1), ("f", 0.1)])


def test_huffman_six_symbol_source():
    tree = build_huffman(SIX)
    mets = tree_metrics(tree, SIX)
    assert mets.right_weight == pytest.approx(0.65, abs=1e-12)
    # independent oracle: exhaustive minimum over all full binary trees
    oracle = huffman_oracle_mean(SIX.probs)
    assert oracle == pytest.approx(2.5, abs=1e-12)
    assert mets.mean_length == pytest.approx(oracle, abs=1e-12)


def test_huffman_binary():
    p = validate_distribution([("a", 1), ("b", 1)])
    tree = build_huffman(p)
    assert sorted(w.length for w in tree.codewords().values()) == [1, 1]
    assert tree_metrics(tree, p).mean_length == pytest.approx(1.0)


def test_huffman_matches_exhaustive_minimum():
    rng = random.Random(31)
    for _ in range(30):
        p = random_source(rng, n_symbols=rng.randint(2, 8))
        tree = build_huffman(p)
        got = tree_metrics(tree, p).mean_length
        want = huffman_oracle_mean(p.probs)
        assert got == pytest.approx(want, abs=1e-9)


def test_huffman_deterministic():
    a = build_huffman(SIX).codewords()
    b = build_huffman(SIX).codewords()
    assert a == b


def test_huffman_orientation_normalized():
    rng = random.Random(5)
    for _ in range(40):
        p = random_source(rng)
        mets = tree_metrics(build_huffman(p), p)
        assert mets.right_weight >= 0.5 - 1e-12


def test_tree_kraft_equality():
    rng = random.Random(9)
    for _ in range(25):
        p = random_source(rng, n_symbols=rng.randint(2, 9))
        assert kraft_sum(build_huffman(p)) == pytest.approx(1.0, abs=1e-12)


def test_tree_metrics_identity_and_balanced_case():
    uniform4 = validate_distribution([(i, 1) for i in range(4)])
    tree = build_huffman(uniform4)
    mets = tree_metrics(tree, uniform4)
    assert mets.right_weight == pytest.approx(0.5)
    assert mets.mean_length == pytest.approx(2.0)
    rng = random.Random(11)
    for _ in range(40):
        p = random_source(rng)
        m = tree_metrics(build_huffman(p), p)
        assert m.right_weight + m.left_weight == pytest.approx(1.0, abs=1e-12)
        total = (m.right_mean_length + m.right_weight
                 + m.left_mean_length + m.left_weight)
        assert m.mean_length == pytest.approx(total, abs=1e-12)


def test_tree_metrics_uniform_split_80():
    tree = uniform_split_tree(80, 64)
    p = validate_distribution([(i, 1) for i in range(80)])
    mets = tree_metrics(tree, p)
    assert mets.mean_length == pytest.approx(6.6, abs=1e-12)
    assert mets.right_weight == pytest.approx(0.8, abs=1e-12)
    # the light side on bit 1 flips to the same tree, mirrored
    assert tree_metrics(uniform_split_tree(80, 16).normalized(p), p) == mets


def test_tree_metrics_alphabet_mismatch():
    tree = build_huffman(SIX)
    other = validate_distribution([("x", 1), ("y", 1)])
    with pytest.raises(AlphabetMismatch):
        tree_metrics(tree, other)


def test_phased_in_word_sets():
    assert [w.bits for w in phased_in_words(5)] == \
        ["00", "01", "10", "110", "111"]
    assert [w.bits for w in phased_in_words(8)] == \
        [format(i, "03b") for i in range(8)]
    assert [w.bits for w in phased_in_words(3)] == ["0", "10", "11"]


def test_phased_in_kraft_and_counts():
    for m in range(1, 200):
        words = phased_in_words(m)
        assert math.fsum(2.0 ** -w.length for w in words) == \
            pytest.approx(1.0, abs=1e-12)
        k = (m - 1).bit_length()  # ceil(lg m)
        lengths = [w.length for w in words]
        assert lengths.count(k - 1) == (1 << k) - m if m > 1 else True
        assert len(lengths) == m


def test_phased_in_weighted_assignment():
    # the mass-ranked builders hand the phased-in words of each forward set
    # out heaviest member first (ties by state id), so the short words sit
    # on the heaviest members
    p = validate_distribution([("a", 5), ("b", 3), ("c", 2)])
    reordered = 0
    for table in (build_saeds_case1(p, [2, 2, 2]),
                  build_saeds_case2(p, [5, 3, 3])):
        q = stationary_distribution(table, p).probs
        part = table.saeds_partition()
        for s, block in enumerate(part.subsets):
            for x in block:
                members = part.forward_sets[x]
                ranked = sorted(members, key=lambda y: (-q[y], y))
                reordered += ranked != sorted(members)
                assert [table.encoder[y][s][0].bits for y in ranked] == \
                    [w.bits for w in phased_in_words(len(members))]
    assert reordered


def test_phased_in_stats_uniform():
    stats = phased_in_stats(5)
    assert stats.mean_length == pytest.approx(2.4, abs=1e-12)
    assert stats.deviation == 0.0
    for k in range(1, 13):
        assert phased_in_stats(1 << k).redundancy == pytest.approx(0, abs=1e-12)


def test_phased_in_redundancy_bounds():
    values = [phased_in_redundancy(m) for m in range(2, 4097)]
    assert all(-1e-12 <= v <= SIGMA + 1e-12 for v in values)
    for m in range(2, 4097):
        if m & (m - 1):
            assert phased_in_redundancy(m) > 1e-9
        else:
            assert phased_in_redundancy(m) == pytest.approx(0.0, abs=1e-12)
    # the peak approaches the closed-form cap
    assert max(values) > SIGMA - 1e-4
    assert SIGMA == pytest.approx(0.08607, abs=1e-5)


def test_phased_in_stats_general_weights():
    rng = random.Random(13)
    for _ in range(50):
        m = rng.randint(2, 40)
        raw = [rng.uniform(0.01, 1.0) for _ in range(m)]
        total = sum(raw)
        weights = [w / total for w in raw]
        stats = phased_in_stats(m, weights)
        # direct evaluation: short words on the heaviest items
        words = phased_in_words(m)
        heaviest_first = sorted(range(m), key=lambda i: (-weights[i], i))
        direct = sum(weights[i] * words[rank].length
                     for rank, i in enumerate(heaviest_first))
        assert stats.mean_length == pytest.approx(direct, abs=1e-9)
        assert stats.mean_length <= math.log2(m) + SIGMA - stats.deviation + 1e-9
        assert 0.0 - 1e-12 <= stats.deviation < (2 * m - 2 ** math.ceil(
            math.log2(m))) / m + 1e-12


def test_phased_in_stats_rejects_bad_weights():
    with pytest.raises(InvalidWeight):
        phased_in_stats(4, [0.5, 0.5, 0.5, 0.5])


def _words(*bits):
    return {chr(ord("a") + i): Codeword.from_bits(b)
            for i, b in enumerate(bits)}


@pytest.mark.parametrize("words, error", [
    (_words("0"), DegenerateAlphabet),
    (_words(""), DegenerateAlphabet),
    (_words("", "0", "1"), InvalidWeight),
    (_words("0", "1", "0"), InvalidWeight),
    (_words("0", "01", "1"), InvalidWeight),
    (_words("10", "1", "0"), InvalidWeight),
    (_words("0", "10"), InvalidWeight),
], ids=["one-word", "one-empty-word", "empty-word", "repeated-word",
        "extends-earlier", "extends-later", "incomplete"])
def test_code_tree_rejects_malformed_words(words, error):
    with pytest.raises(error):
        CodeTree(words)


def test_code_tree_of_depth_1200():
    # 1^i 0 for i < 1200, plus 1^1200: a complete code far deeper than
    # any recursion limit
    depth = 1200
    words = {i: Codeword.from_bits("1" * i + "0") for i in range(depth)}
    words[depth] = Codeword.from_bits("1" * depth)
    tree = CodeTree(words)
    assert kraft_sum(tree) == 1.0
    assert tree.length_of(depth) == depth
    assert tree.left_symbols() == (0,)
    assert len(tree.right_symbols()) == depth


def test_codewords_iterate_right_subtree_first():
    uniform = validate_distribution([(i, 1) for i in range(80)])
    for tree in (build_huffman(SIX), uniform_split_tree(80, 64),
                 uniform_split_tree(80, 16).normalized(uniform)):
        bits = [w.bits for w in tree.codewords().values()]
        assert bits == sorted(bits, reverse=True)


def test_code_tree_is_immutable():
    p = validate_distribution([("a", 0.5), ("b", 0.3), ("c", 0.2)])
    tree = build_huffman(p)
    with pytest.raises(TypeError):
        tree.codewords()["a"] = Codeword(0b111, 3)
    for name in ("root", "_words"):
        with pytest.raises(AttributeError):
            setattr(tree, name, None)
    assert kraft_sum(tree) == 1.0
    assert tree_metrics(tree, p).mean_length == pytest.approx(1.5)


def test_phased_in_mean_length_matches_words():
    for m in range(1, 200):
        direct = math.fsum(w.length for w in phased_in_words(m)) / m
        assert phased_in_mean_length(m) == pytest.approx(direct, abs=1e-12)
