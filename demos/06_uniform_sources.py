"""Uniform sources: a lopsided tree can beat the balanced Huffman tree.

For M equally likely symbols the Huffman code is a phased-in code, and its
redundancy is pure quantization loss.  Feeding the two-state chain a
deliberately skewed tree (both subtrees phased-in, the right one as heavy
as possible) buys back a good part of that loss.
"""

from aeds import (
    build_type1,
    optimal_uniform_split,
    phased_in_stats,
    stationary_distribution,
    tree_metrics,
    uniform_split_tree,
    validate_distribution,
)
from aeds.analysis import uniform_huffman_length
from aeds.prefix_codes import phased_in_redundancy

for m in (80, 96, 100):
    best = optimal_uniform_split(m, 2)
    print(f"M={m:3d}: huffman {uniform_huffman_length(m):.4f} bits "
          f"(redundancy {phased_in_redundancy(m):.4f}) | "
          f"best split {best.right_items}/{best.left_items} "
          f"-> {best.mean_bits:.4f} bits, saves {best.reduction:.4f}")

# cross-check the M=80 winner against the solved chain
m = 80
best = optimal_uniform_split(m, 2)
p = validate_distribution([(i, 1) for i in range(m)])
tree = uniform_split_tree(m, best.right_items)
table = build_type1(tree, p, 2)
rep = stationary_distribution(table, p)
mets = tree_metrics(tree, p)
print(f"\nM=80 split tree: average {mets.mean_length:.4f} bits, "
      f"two-state chain rate {rep.mean_bits:.6f} "
      f"(search predicted {best.mean_bits:.6f})")

stats = phased_in_stats(5)
print(f"\nphased-in code for 5 items: {stats.mean_length:.3f} bits, "
      f"redundancy {stats.redundancy:.5f}")
