"""Seeded inputs of the benchmark workloads.

Every input the program sees is generated here from the run's seed, so one
seed always gives byte-identical files.  Run this file to print, for the
default and the held-out seed, each workload's corpus SHA-256 and sample
entropy:

    python3 perfbench/corpus.py [--seed N ...]
"""

import argparse
import hashlib
import math
import random

DEFAULT_SEED = 1
HELDOUT_SEED = 2

# Byte 0 carries 0.7; bytes 1..31 share 0.3 with weights 2^-i.  The root of
# the Huffman tree then weighs more than the 0.5698 threshold of the
# five-state table, and byte 0 receives zero-bit codewords.
SKEWED_WEIGHTS = [0.7] + [0.3 * 2.0 ** -i / (1.0 - 2.0 ** -31)
                          for i in range(1, 32)]

# Zipf weights 1/(i+1)^1.2 over all 256 byte values.
ZIPF_WEIGHTS = [1.0 / (i + 1) ** 1.2 for i in range(256)]


def skewed_bytes(seed, size):
    rng = random.Random(seed)
    return bytes(rng.choices(range(len(SKEWED_WEIGHTS)), SKEWED_WEIGHTS,
                             k=size))


def zipf_bytes(seed, size):
    rng = random.Random(seed)
    return bytes(rng.choices(range(256), ZIPF_WEIGHTS, k=size))


def histogram(data):
    return [data.count(value) for value in range(256)]


def entropy_bpb(counts):
    """Sample entropy of a byte histogram in bits per byte."""
    total = sum(counts)
    return -math.fsum(c / total * math.log2(c / total) for c in counts if c)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    # imported here so that run.py can import this module without a cycle
    from run import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="seed to generate (repeatable); default: the "
                             f"default seed {DEFAULT_SEED} and the held-out "
                             f"seed {HELDOUT_SEED}")
    args = parser.parse_args(argv)
    for seed in args.seed or (DEFAULT_SEED, HELDOUT_SEED):
        for name, spec in WORKLOADS.items():
            data = spec["corpus"](seed, spec["corpus_bytes"])
            print(f"seed {seed} {name}: {len(data)} bytes "
                  f"sha256 {sha256(data)} "
                  f"entropy {entropy_bpb(histogram(data)):.6f} bits/byte")


if __name__ == "__main__":
    main()
