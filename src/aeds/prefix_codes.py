"""Prefix code trees: Huffman construction, phased-in codes, tree metrics."""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, DegenerateAlphabet, InvalidWeight
from .model import Codeword, SourceDistribution

# Peak redundancy of a phased-in code over a uniform source,
# lg lg e + 1 - lg e.
SIGMA = math.log2(math.log2(math.e)) + 1.0 - math.log2(math.e)


class _Leaf:
    __slots__ = ("symbol",)

    def __init__(self, symbol):
        self.symbol = symbol


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


@dataclass(frozen=True)
class TreeMetrics:
    """Weights and average lengths of a code tree and its two root subtrees."""
    right_weight: float
    left_weight: float
    mean_length: float
    right_mean_length: float
    left_mean_length: float


class CodeTree:
    """Full binary prefix-code tree whose leaves carry the alphabet.

    The left child contributes bit 0, the right child bit 1.  Orientation
    may be normalized so the right subtree carries at least half the
    probability mass; ``swapped`` records whether that flip happened.
    """

    __slots__ = ("root", "swapped", "_codewords")

    def __init__(self, root, swapped=False):
        if isinstance(root, _Leaf):
            raise DegenerateAlphabet("a code tree needs at least two leaves")
        self.root = root
        self.swapped = swapped
        self._codewords = None
        self._check_full(root)

    def _check_full(self, node):
        if isinstance(node, _Leaf):
            return
        if node.left is None or node.right is None:
            raise InvalidWeight("internal node without two children")
        self._check_full(node.left)
        self._check_full(node.right)

    # -- code access --------------------------------------------------------

    def codewords(self):
        """symbol -> Codeword for the whole tree."""
        if self._codewords is None:
            table = {}
            stack = [(self.root, 0, 0)]
            while stack:
                node, value, length = stack.pop()
                if isinstance(node, _Leaf):
                    if node.symbol in table:
                        raise InvalidWeight(f"symbol {node.symbol!r} on two leaves")
                    table[node.symbol] = Codeword(value, length)
                else:
                    stack.append((node.left, value << 1, length + 1))
                    stack.append((node.right, (value << 1) | 1, length + 1))
            self._codewords = table
        return self._codewords

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
        return CodeTree(_Node(self.root.right, self.root.left),
                        swapped=not self.swapped)

    def kraft_sum(self):
        return math.fsum(2.0 ** -w.length for w in self.codewords().values())


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
    lower-ordered node becomes the left child.  The finished tree is
    orientation-normalized so the right subtree weighs at least one half.
    """
    if not isinstance(p, SourceDistribution):
        raise InvalidWeight("build_huffman expects a SourceDistribution")
    heap = []
    for i, (s, q) in enumerate(p.items()):
        heapq.heappush(heap, (q, i, _Leaf(s)))
    counter = len(p)
    while len(heap) > 1:
        w1, _, n1 = heapq.heappop(heap)
        w2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, counter, _Node(n1, n2)))
        counter += 1
    return CodeTree(heap[0][2]).normalized(p)


class PhasedInCode:
    """Prefix code for M items: 2^k - M words of k-1 bits, the rest k bits."""

    __slots__ = ("size", "bit_budget", "codewords", "assignment")

    def __init__(self, size, codewords, assignment):
        self.size = size
        self.bit_budget = max(size - 1, 0).bit_length()  # ceil(lg size)
        self.codewords = tuple(codewords)
        self.assignment = tuple(assignment)

    def word_for(self, item):
        """Codeword assigned to item rank ``item`` (0-based)."""
        return self.codewords[self.assignment[item]]

    def kraft_sum(self):
        return math.fsum(2.0 ** -w.length for w in self.codewords)

    def to_code_tree(self, symbols=None):
        """Grow the code into a CodeTree over ``symbols`` (default 0..M-1)."""
        if symbols is None:
            symbols = tuple(range(self.size))
        if len(symbols) != self.size:
            raise AlphabetMismatch("symbol count differs from code size")
        return code_tree_from_words(
            {symbols[i]: self.word_for(i) for i in range(self.size)})


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
    m = np.repeat(sizes, sizes)
    i = np.arange(len(m)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    k = np.frexp(m - 1)[1].astype(np.int64)  # bit length of m - 1
    short = (1 << k) - m
    return np.where(i < short, i, i + short), k - (i < short)


def build_phased_in(m, rank_weights=None):
    """Phased-in code for ``m`` items.

    Without weights, item i simply takes codeword i.  With weights, the
    short codewords go to the heaviest items (ties broken by item index).
    """
    words = phased_in_words(m)
    if rank_weights is None:
        assignment = range(m)
    else:
        rank_weights = [float(w) for w in rank_weights]
        if len(rank_weights) != m:
            raise InvalidWeight("need one weight per item")
        if any(w < 0 or not math.isfinite(w) for w in rank_weights):
            raise InvalidWeight("weights must be nonnegative and finite")
        order = sorted(range(m), key=lambda i: (-rank_weights[i], i))
        assignment = [0] * m
        for rank, item in enumerate(order):
            assignment[item] = rank
    return PhasedInCode(m, words, assignment)


@dataclass(frozen=True)
class PhasedInStats:
    """Average length of a phased-in code plus its two decomposition terms."""
    mean_length: float
    redundancy: float   # uniform-source redundancy of the code itself
    deviation: float    # how far the supplied weights sit from uniform


def phased_in_redundancy(m):
    """Redundancy of the phased-in code on a uniform m-ary source."""
    if m < 1:
        raise InvalidWeight("need at least one item")
    k = max(m - 1, 0).bit_length()
    return k + 1.0 - (1 << k) / m - math.log2(m)


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
        return PhasedInStats(k + 1.0 - (1 << k) / m, mu, 0.0)
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


def code_tree_from_words(word_map):
    """Rebuild a CodeTree from a complete prefix codeword map."""
    if len(word_map) < 2:
        raise DegenerateAlphabet("need at least two codewords")
    root = [None, None]
    for symbol, word in word_map.items():
        if word.length == 0:
            raise InvalidWeight("empty codeword cannot appear in a full tree")
        node = root
        for i in range(word.length):
            bit = word.bit_at(i)
            if i == word.length - 1:
                if node[bit] is not None:
                    raise InvalidWeight(f"codeword clash at {word.bits}")
                node[bit] = _Leaf(symbol)
            else:
                if node[bit] is None:
                    node[bit] = [None, None]
                elif isinstance(node[bit], _Leaf):
                    raise InvalidWeight(f"{word.bits} extends another codeword")
                node = node[bit]

    def freeze(node):
        if node is None:
            raise InvalidWeight("codeword set is not complete (Kraft sum < 1)")
        if isinstance(node, _Leaf):
            return node
        return _Node(freeze(node[0]), freeze(node[1]))

    return CodeTree(freeze(root))


def uniform_split_tree(m, m_right, symbols=None):
    """Tree for a uniform m-ary source: phased-in subtrees of sizes
    m_right and m - m_right hang under the root, heavier side on bit 1."""
    if not 1 <= m_right <= m - 1:
        raise InvalidWeight("right side must hold between 1 and m-1 items")
    if symbols is None:
        symbols = tuple(range(m))
    right_syms = symbols[:m_right]
    left_syms = symbols[m_right:]

    def side(syms):
        if len(syms) == 1:
            return _Leaf(syms[0])
        return build_phased_in(len(syms)).to_code_tree(syms).root

    return CodeTree(_Node(side(left_syms), side(right_syms)))
