"""Prefix code trees: Huffman construction, phased-in codes, tree metrics.

A code tree is its codeword map: a symbol's codeword is the path to its
leaf, and the first bit names the root subtree that holds it.
"""

import heapq
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import AlphabetMismatch, DegenerateAlphabet, InvalidWeight
from .model import Codeword, SourceDistribution, prefix_clash

# Peak redundancy of a phased-in code over a uniform source,
# lg lg e + 1 - lg e.
SIGMA = math.log2(math.log2(math.e)) + 1.0 - math.log2(math.e)


@dataclass(frozen=True)
class TreeMetrics:
    """Weights and average lengths of a code tree and its two root subtrees."""
    right_weight: float
    left_weight: float
    mean_length: float
    right_mean_length: float
    left_mean_length: float


class CodeTree:
    """Full binary prefix-code tree, held as its codeword map symbol ->
    Codeword.  Bit 0 leads to the left child, bit 1 to the right; the map
    iterates right subtree first (bit strings in descending order).
    """

    __slots__ = ("_words",)

    def __init__(self, words):
        if len(words) < 2:
            raise DegenerateAlphabet("a code tree needs at least two leaves")
        clash = prefix_clash(words.values())
        if clash is not None:
            word, longer = clash
            raise InvalidWeight(f"codeword {longer.bits!r} repeats or "
                                f"extends {word.bits!r}")
        depth = max(w.length for w in words.values())
        if sum(1 << (depth - w.length) for w in words.values()) < 1 << depth:
            raise InvalidWeight("codeword set is not complete (Kraft sum < 1)")
        order = sorted(words.items(), key=lambda sw: sw[1].bits, reverse=True)
        object.__setattr__(self, "_words", MappingProxyType(dict(order)))

    def __setattr__(self, *_):
        raise AttributeError("CodeTree is immutable")

    def codewords(self):
        """symbol -> Codeword for the whole tree (a read-only mapping)."""
        return self._words

    def length_of(self, symbol):
        return self.codewords()[symbol].length

    def right_symbols(self):
        return tuple(s for s, w in self.codewords().items() if w.bit_at(0) == 1)

    def left_symbols(self):
        return tuple(s for s, w in self.codewords().items() if w.bit_at(0) == 0)

    def subtree_codeword(self, symbol):
        """The codeword inside the root subtree: the full word minus bit one."""
        w = self.codewords()[symbol]
        return Codeword(w.value & ((1 << (w.length - 1)) - 1), w.length - 1)

    def normalized(self, p):
        """Return a tree whose right subtree weight is at least one half."""
        right = sum(p.prob(s) for s in self.right_symbols())
        if right >= 0.5:
            return self
        return CodeTree({s: Codeword(w.value ^ (1 << (w.length - 1)), w.length)
                         for s, w in self.codewords().items()})


def tree_metrics(tree, p):
    """Split weights and average lengths of ``tree`` under distribution ``p``.

    The identity  mean = right_mean + right_weight + left_mean + left_weight
    holds exactly up to float rounding.
    """
    words = tree.codewords()
    if set(words) != set(p.symbols):
        raise AlphabetMismatch("tree leaves do not match the alphabet")
    right = tree.right_symbols()
    left = tree.left_symbols()
    p_r = math.fsum(p.prob(s) for s in right)
    p_l = math.fsum(p.prob(s) for s in left)
    l_r = math.fsum(p.prob(s) * (words[s].length - 1) for s in right)
    l_l = math.fsum(p.prob(s) * (words[s].length - 1) for s in left)
    l_t = math.fsum(p.prob(s) * words[s].length for s in p.symbols)
    return TreeMetrics(p_r, p_l, l_t, l_r, l_l)


def build_huffman(p):
    """Optimal prefix code tree for ``p`` with deterministic tie-breaking.

    The merge queue is ordered by (weight, creation index); on a merge the
    words under the lower-ordered entry gain a leading 0, the others a
    leading 1.  The finished tree is orientation-normalized so the right
    subtree weighs at least one half.
    """
    if not isinstance(p, SourceDistribution):
        raise InvalidWeight("build_huffman expects a SourceDistribution")
    n = len(p)
    heap = [(q, i) for i, q in enumerate(p.probs)]
    heapq.heapify(heap)
    merged = []  # entry n + j is the merge of the pair merged[j]
    while len(heap) > 1:
        w1, a = heapq.heappop(heap)
        w2, b = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, n + len(merged)))
        merged.append((a, b))
    # hand each merge's word down to its pair, root first
    values, lengths = [0] * (2 * n - 1), [0] * (2 * n - 1)
    for j in range(len(merged) - 1, -1, -1):
        a, b = merged[j]
        value, length = values[n + j] << 1, lengths[n + j] + 1
        values[a], lengths[a] = value, length
        values[b], lengths[b] = value | 1, length
    return CodeTree({s: Codeword(values[i], lengths[i])
                     for i, s in enumerate(p.symbols)}).normalized(p)


def phased_in_words(m):
    """The canonical phased-in codeword list for ``m`` items.

    Short (k-1)-bit words come first, then the k-bit words; the word values
    increase left to right so the multiset forms a complete code tree.
    """
    if m < 1:
        raise InvalidWeight("need at least one codeword")
    values, lengths = phased_in_cells([m])
    return [Codeword(v, n) for v, n in zip(values.tolist(), lengths.tolist())]


def phased_in_cells(sizes):
    """The phased-in codes of sets of the given sizes laid end to end: the
    values and lengths of item i of each set taking word i of
    ``phased_in_words`` (size m, k = ceil(lg m): 2^k - m short words)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    k = np.frexp(sizes - 1)[1].astype(np.int64)  # bit length of m - 1
    short = np.repeat((1 << k) - sizes, sizes)
    i = np.arange(len(short)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    is_short = i < short
    np.add(i, short, out=i, where=~is_short)  # long words: i + short
    return i, np.repeat(k, sizes) - is_short


@dataclass(frozen=True)
class PhasedInStats:
    """Average length of a phased-in code plus its two decomposition terms."""
    mean_length: float
    redundancy: float   # uniform-source redundancy of the code itself
    deviation: float    # how far the supplied weights sit from uniform


def phased_in_mean_length(m):
    """Mean length k + 1 - 2^k/m (k = ceil(lg m)) on m equal weights."""
    k = max(m - 1, 0).bit_length()
    return k + 1.0 - (1 << k) / m


def phased_in_redundancy(m):
    """Redundancy of the phased-in code on a uniform m-ary source."""
    if m < 1:
        raise InvalidWeight("need at least one item")
    return phased_in_mean_length(m) - math.log2(m)


def phased_in_stats(m, weights=None):
    """Mean length, redundancy and weight deviation of the phased-in code.

    For uniform weights the deviation is zero and the mean length is
    k + 1 - 2^k/m.  For general weights the identity
    mean = lg m + redundancy - deviation holds, with the short codewords
    assumed to sit on the heaviest items.
    """
    if m < 2:
        raise InvalidWeight("need at least two items")
    k = (m - 1).bit_length()
    mu = phased_in_redundancy(m)
    if weights is None:
        return PhasedInStats(phased_in_mean_length(m), mu, 0.0)
    weights = [float(w) for w in weights]
    if len(weights) != m or any(w < 0 for w in weights):
        raise InvalidWeight("need m nonnegative weights")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        raise InvalidWeight("weights must sum to one")
    short = (1 << k) - m
    top = sorted(weights, reverse=True)[:short]
    hat = math.fsum(top)
    nu = hat - short / m
    return PhasedInStats(math.log2(m) + mu - nu, mu, nu)


def uniform_split_tree(m, m_right):
    """Tree for a uniform source over 0..m-1: phased-in subtrees of sizes
    m_right and m - m_right hang under the root, heavier side on bit 1."""
    if not 1 <= m_right <= m - 1:
        raise InvalidWeight("right side must hold between 1 and m-1 items")

    def side(bit, syms):
        return {s: Codeword(bit, 1).concat(w)
                for s, w in zip(syms, phased_in_words(len(syms)))}

    return CodeTree(side(1, range(m_right)) | side(0, range(m_right, m)))
