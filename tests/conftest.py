"""Shared helpers: random sources, random well-formed tables, oracles."""

import math
import random

import pytest

from aeds.model import AedsTable, Codeword, SourceDistribution


def random_source(rng, n_symbols=None, symbols=None):
    if symbols is None:
        n_symbols = n_symbols or rng.randint(2, 6)
        symbols = [f"s{i}" for i in range(n_symbols)]
    weights = [rng.uniform(0.05, 1.0) for _ in symbols]
    total = sum(weights)
    return SourceDistribution(symbols, [w / total for w in weights])


def random_prefix_words(rng, count):
    """A random complete prefix code with ``count`` words (count=1 gives
    the empty word), built by random splits of a full binary tree."""
    if count == 1:
        return [Codeword(0, 0)]
    left = rng.randint(1, count - 1)
    out = []
    for branch, size in ((0, left), (1, count - left)):
        for w in random_prefix_words(rng, size):
            out.append(Codeword((branch << w.length) | w.value, w.length + 1))
    return out


def random_table(rng, n_states=None, n_symbols=None, require_ergodic=True):
    """A random well-formed table: random transition targets (every state
    reachable), then a random prefix code on each state's incoming edges."""
    for _ in range(200):
        n = n_states or rng.randint(2, 6)
        m = n_symbols or rng.randint(2, 5)
        targets = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
        incoming = [[] for _ in range(n)]
        for x in range(n):
            for s in range(m):
                incoming[targets[x][s]].append((x, s))
        if any(not inc for inc in incoming):
            continue
        grid = [[None] * m for _ in range(n)]
        for x, inc in enumerate(incoming):
            words = random_prefix_words(rng, len(inc))
            rng.shuffle(words)
            for (origin, s), word in zip(inc, words):
                grid[origin][s] = (word, x)
        table = AedsTable.from_rows([f"s{i}" for i in range(m)], grid)
        if not require_ergodic:
            return table
        if table.ergodicity().ergodic:
            return table
    raise RuntimeError("could not draw an ergodic table")


def random_sequence(rng, p, length):
    return rng.choices(p.symbols, weights=p.probs, k=length)


# ---------------------------------------------------------------------------
# independent oracles


def huffman_oracle_mean(probs, max_len=10):
    """Minimum average length over every full binary tree shape, assigning
    sorted depths to sorted probabilities (exhaustive optimality oracle)."""
    shapes = depth_multisets(len(probs), max_len)
    by_prob = sorted(probs, reverse=True)
    best = math.inf
    for depths in shapes:
        cost = sum(p * d for p, d in zip(by_prob, sorted(depths)))
        best = min(best, cost)
    return best


def depth_multisets(leaves, max_len, _cache={}):
    """All distinct leaf-depth multisets of full binary trees."""
    key = (leaves, max_len)
    if key in _cache:
        return _cache[key]
    if leaves == 1:
        result = {(0,)}
    else:
        result = set()
        for left in range(1, leaves // 2 + 1):
            for a in depth_multisets(left, max_len - 1):
                for b in depth_multisets(leaves - left, max_len - 1):
                    merged = tuple(sorted(d + 1 for d in a + b))
                    if merged[-1] <= max_len:
                        result.add(merged)
    _cache[key] = result
    return result


@pytest.fixture
def rng():
    return random.Random(0xAED5)
