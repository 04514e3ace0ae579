"""Pinned SHA-256 digests of ``aeds compress`` containers, one per codec,
and of the ``aeds figures`` CSVs.

The container digests were computed before the lookup-table decoder
replaced the bit-by-bit one; they guard the promise that bits on the wire
do not change unless the container format is versioned on purpose.  The
figure pins guard the closed forms the same way.
"""

import hashlib
import random

import pytest

from aeds import cli
from aeds.cli import main

# (codec, --states): container SHA-256 of the input below.  saeds-case3
# and tans agree because --codec tans builds the case-3 table, which is the
# tANS table of the sorted spread.  test_tans.py checks that embedding
# against a native tANS coder, and test_constructors.py checks the case-3
# table against its fixed-length definition.
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


# figure: SHA-256 of its CSV.  These series are closed forms evaluated in
# a fixed order, so their text is reproducible bit for bit.
FIGURE_DIGESTS = {
    "binary":
        "98a6420d665a9a6f4e8638e044e5fd8c297a15811aadafb5a8f467eae5e1a37d",
    "delta-type1":
        "7f279acf10fb4880fd266b413edb53f4080fc5c42a23fc764cb3293b4cdf61df",
    "delta-type2":
        "ca5ff31f70a6f230315a72bbacfa8667989db5083bbdbc335899e24752bf881b",
    "table1":
        "926898be4656952cbb7041ae2d9806a033cd249a3a56dfbc66b9bbb4c6cd04f8",
    "uniform-n2":
        "23f950157e84e7a7bfc9df9c620ac4f00873ff5bb2bd31a0278656b00a157f7d",
    "uniform-nsweep":
        "a0c827f31cf227110936d34aa339386fb79888da9dab4e941846e592d69c7101",
    "uniform-type2":
        "2b0d6b85c1746947b4a46179b7df9c0404d9917706d5ff3901f0b4c1fe66a40a",
    "worst-case":
        "cfa1722729a6bc63bf03cc7cdb98d1e8dd3d603f839b888ef19915b448de01fd",
}

# largeN-sweep comes from linear solves, whose last bits may vary with the
# linear-algebra library, so its rows are compared to within 1e-9.  Every
# row is the dense solve's (method="direct-solve"), N = 2048 and 4096 too:
# n_states, mean_bits, entropy, excess_times_n, smallest_gamma
LARGE_N_SWEEP = [
    (8, 1.56578947368, 1.56127812446, 0.0360907938006, 3),
    (16, 1.5625, 1.56127812446, 0.0195500086539, 3),
    (32, 1.56157806847, 1.56127812446, 0.00959820823455, 3),
    (64, 1.56135409089, 1.56127812446, 0.00486185133377, 3),
    (128, 1.5612968423, 1.56127812446, 0.00239588383948, 3),
    (256, 1.56128282978, 1.56127812446, 0.00120456249823, 3),
    (512, 1.56127930717, 1.56127812446, 0.000605550015052, 3),
    (1024, 1.5612784176, 1.56127812446, 0.000300179772921, 3),
    (2048, 1.56127819805, 1.56127812446, 0.000150714754, 3),
    (4096, 1.5612781428, 1.56127812446, 7.51811803639e-05, 4),
]


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


def test_every_figure_is_pinned():
    assert sorted([*FIGURE_DIGESTS, "largeN-sweep"]) == sorted(cli.FIGURES)


@pytest.mark.parametrize("figure", sorted(FIGURE_DIGESTS))
def test_figure_digest(tmp_path, figure):
    csv = tmp_path / f"{figure}.csv"
    assert main(["figures", "--figure", figure, "--csv", str(csv)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == \
        FIGURE_DIGESTS[figure]


def test_large_n_sweep_rows(tmp_path):
    csv = tmp_path / "largeN-sweep.csv"
    assert main(["figures", "--figure", "largeN-sweep",
                 "--csv", str(csv)]) == 0
    header, *lines = csv.read_text().splitlines()
    assert header == "n_states,mean_bits,entropy,excess_times_n,smallest_gamma"
    rows = [[float(v) for v in line.split(",")] for line in lines]
    assert len(rows) == len(LARGE_N_SWEEP)
    for row, pinned in zip(rows, LARGE_N_SWEEP):
        assert row == pytest.approx(pinned, abs=1e-9)
