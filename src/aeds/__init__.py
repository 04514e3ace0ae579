"""Lossless entropy coding with backward encoding and forward decoding.

The package builds table-driven codes in which a sequence is compressed
back to front and decompressed front to back, generalizing tabled ANS:
per-state prefix-free codeword sets replace the arithmetic state update,
which lets a code tree (for example a Huffman tree) be turned directly
into a small state machine that beats the plain tree code whenever one
root subtree is heavy enough.
"""

from .analysis import (
    BoundReport,
    RateEstimate,
    StationaryReport,
    SIGMA,
    check_bound,
    closed_form_stationary,
    delta_type1,
    delta_type2,
    monte_carlo_rate,
    omega_type1,
    omega_type2,
    optimal_uniform_split,
    stationary_distribution,
)
from .codec import (
    Bitstream,
    ErgodicityReport,
    ValidationReport,
    decode,
    deserialize_table,
    encode,
    serialize_table,
    table_digest,
    validate_aeds,
)
from .constructors import (
    LargeNLayout,
    build_huffman_matching_saeds,
    build_large_n,
    build_saeds_case1,
    build_saeds_case2,
    build_saeds_case3,
    build_type1,
    build_type2,
    optimize_decoder_codes,
)
from .errors import AedsError
from .model import (
    AedsTable,
    Codeword,
    SAedsPartition,
    SourceDistribution,
    demo_table,
    entropy,
    relative_entropy,
    validate_distribution,
)
from .prefix_codes import (
    CodeTree,
    build_huffman,
    phased_in_stats,
    tree_metrics,
    uniform_split_tree,
)
from .tans import (
    TansTable,
    build_tans,
    quantize_counts,
    tans_to_aeds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
