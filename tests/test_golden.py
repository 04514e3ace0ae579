"""Pinned SHA-256 digests of ``aeds compress`` containers, one per codec.

The digests were computed before the lookup-table decoder replaced the
bit-by-bit one; they guard the promise that bits on the wire do not change
unless the container format is versioned on purpose.
"""

import hashlib
import random

import pytest

from aeds import cli
from aeds.cli import main

# (codec, --states): container SHA-256 of the input below.  saeds-case3
# and tans agree because tANS is the case3 layout.
GOLDEN = {
    ("huffman", 2):
        "4762e6aa6d1bf8e25a55135ed0a29817a8a0809e78e1a5418cbb6da143350f33",
    ("type1", 4):
        "7072c831f79de5307f1e0d8c4288b12c7b480fbb31434f320c0a2e887b0131c6",
    ("type2", 2):
        "9222a1d41c68b48dba5330787cb59f1f3af4b57c77eb79bb899f59f4c8affc73",
    ("saeds-case1", 16):
        "6e4a066fee95e710c001109bc44bcff986f8e2e46a07b70848cc4b48470b3b81",
    ("saeds-case2", 12):
        "4bbf595c265d683bca6689994841899a21f3984ce8b9115869906e6a6c9cad18",
    ("saeds-case3", 16):
        "eb2dde31345742d3df99a3f23a22a1f8002a9fd99d88121f50ead65ef0528651",
    ("large-n", 20):
        "059bd3af0602686f3665d4cc2ace6e6673a8444b37d4d0a9851d7c81e475cb57",
    ("tans", 16):
        "eb2dde31345742d3df99a3f23a22a1f8002a9fd99d88121f50ead65ef0528651",
}

# --codec large-n --states 20 --table-out: container and side table SHA-256
SIDE_TABLE = (
    "5fc24849c0819f9ea79487c5f343f3ac9e07620fb5bffffb33fb73884650b8fb",
    "a548e5fad33beca70b4365de94add059a72d18dcd96b3771f34c6c8582eb0e14",
)


def golden_input():
    """6000 seeded bytes over 10 values, byte 0 with weight 0.7, so that
    type1 and type2 build their machines instead of falling back."""
    rng = random.Random(2601)
    weights = [0.7] + [0.3 * 2.0 ** -i for i in range(1, 10)]
    return bytes(rng.choices(range(10), weights, k=6000))


def test_every_codec_is_pinned():
    assert sorted(codec for codec, _ in GOLDEN) == sorted(cli.CODECS)


@pytest.mark.parametrize("codec,states", sorted(GOLDEN))
def test_container_digest(tmp_path, codec, states):
    src = tmp_path / "input.dat"
    src.write_bytes(golden_input())
    out = tmp_path / "out.aedc"
    back = tmp_path / "back.dat"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", codec, "--states", str(states)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[codec, states]
    assert main(["decompress", "--input", str(out),
                 "--output", str(back)]) == 0
    assert back.read_bytes() == golden_input()


def test_side_table_digests(tmp_path):
    src = tmp_path / "input.dat"
    src.write_bytes(golden_input())
    out, table = tmp_path / "out.aedc", tmp_path / "codes.tbl"
    back = tmp_path / "back.dat"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", "large-n", "--states", "20",
                 "--table-out", str(table)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(table.read_bytes()).hexdigest()) == SIDE_TABLE
    assert main(["decompress", "--input", str(out), "--output", str(back),
                 "--table", str(table)]) == 0
    assert back.read_bytes() == golden_input()
