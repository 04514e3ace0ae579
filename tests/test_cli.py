import io
import random
import subprocess
import sys
import time
import zlib

import pytest

from aeds import codec
from aeds.codec import Bitstream
from aeds.cli import build_table, main, read_container, write_container_stream
from aeds.errors import HashMismatch, MalformedStream, TrailingGarbage
from aeds.model import validate_distribution

SIX_WEIGHTS = [35, 15, 15, 15, 10, 10]


def make_input(tmp_path, size=200_000, seed=1):
    rng = random.Random(seed)
    data = bytes(rng.choices(b"abcdef", weights=SIX_WEIGHTS, k=size))
    path = tmp_path / "input.dat"
    path.write_bytes(data)
    return path, data


@pytest.mark.parametrize("codec,states", [
    ("huffman", 2),
    ("type1", 2),
    ("type2", 2),
    ("saeds-case1", 16),
    ("saeds-case2", 12),
    ("saeds-case3", 16),
    ("large-n", 20),
    ("tans", 16),
])
def test_compress_decompress_roundtrip(tmp_path, codec, states):
    src, data = make_input(tmp_path, size=30_000)
    out = tmp_path / "out.aedc"
    back = tmp_path / "back.dat"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", codec, "--states", str(states)]) == 0
    assert main(["decompress", "--input", str(out),
                 "--output", str(back)]) == 0
    assert back.read_bytes() == data


def test_compressed_rate_close_to_analytic(tmp_path, capsys):
    src, data = make_input(tmp_path, size=300_000, seed=9)
    out = tmp_path / "out.aedc"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", "type2"]) == 0
    stdout = capsys.readouterr().out
    analytic = float(stdout.split("analytic bits/symbol: ")[1].split()[0])
    payload = float(stdout.split("payload bits/symbol: ")[1].split()[0])
    # at 3e5 i.i.d. symbols the realized rate sits within one percent
    assert abs(payload - analytic) / analytic < 0.01


def test_empty_file(tmp_path):
    src = tmp_path / "empty"
    src.write_bytes(b"")
    out = tmp_path / "empty.aedc"
    back = tmp_path / "empty.back"
    assert main(["compress", "--input", str(src),
                 "--output", str(out)]) == 0
    assert out.stat().st_size <= 16
    assert main(["decompress", "--input", str(out),
                 "--output", str(back)]) == 0
    assert back.read_bytes() == b""


def test_uniform_bytes_fall_back_to_plain_prefix_code(tmp_path, capsys):
    src = tmp_path / "uniform"
    src.write_bytes(bytes(range(256)) * 20)
    out = tmp_path / "uniform.aedc"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", "type1", "--states", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "falling back" in stdout
    back = tmp_path / "uniform.back"
    assert main(["decompress", "--input", str(out),
                 "--output", str(back)]) == 0
    assert back.read_bytes() == src.read_bytes()


def test_tampered_container_fails(tmp_path, capsys):
    src, _ = make_input(tmp_path, size=5000)
    out = tmp_path / "out.aedc"
    main(["compress", "--input", str(src), "--output", str(out)])
    blob = bytearray(out.read_bytes())
    blob[-3] ^= 0x20
    bad = tmp_path / "bad.aedc"
    bad.write_bytes(bytes(blob))
    rc = main(["decompress", "--input", str(bad),
               "--output", str(tmp_path / "x")])
    assert rc == 3


def test_side_table_and_wrong_table(tmp_path):
    src, data = make_input(tmp_path, size=4000)
    out = tmp_path / "out.aedc"
    table = tmp_path / "codes.tbl"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", "type2", "--table-out", str(table)]) == 0
    back = tmp_path / "back.dat"
    assert main(["decompress", "--input", str(out), "--output", str(back),
                 "--table", str(table)]) == 0
    assert back.read_bytes() == data
    # container without an embedded table refuses to run bare
    assert main(["decompress", "--input", str(out),
                 "--output", str(back)]) == 3
    # a different table fails the stored digest
    other_src, _ = make_input(tmp_path, size=4000, seed=77)
    other_out = tmp_path / "other.aedc"
    other_table = tmp_path / "other.tbl"
    main(["compress", "--input", str(other_src), "--output", str(other_out),
          "--codec", "type1", "--table-out", str(other_table)])
    assert main(["decompress", "--input", str(out), "--output", str(back),
                 "--table", str(other_table)]) == 3


def test_side_table_digest_is_its_trailer(tmp_path, monkeypatch):
    src, data = make_input(tmp_path, size=4000)
    out, side = tmp_path / "out.aedc", tmp_path / "codes.tbl"
    calls = []
    serialize = codec.serialize_table

    def counting(table):
        calls.append(table)
        return serialize(table)
    monkeypatch.setattr(codec, "serialize_table", counting)
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", "type2", "--table-out", str(side)]) == 0
    # one serialization feeds both the side file and the container digest
    assert len(calls) == 1
    calls.clear()
    back = tmp_path / "back.dat"
    assert main(["decompress", "--input", str(out), "--output", str(back),
                 "--table", str(side)]) == 0
    assert back.read_bytes() == data
    assert calls == []
    # The same table with its state count as an overlong LEB128 (5 states:
    # 0x85 0x00 instead of 0x05) and a valid hash of its own still parses,
    # but it is not the file the container's digest names.
    body = side.read_bytes()[:-32]
    assert body[5] == 5
    body = body[:5] + bytes([0x85, 0x00]) + body[6:]
    forged = codec._seal(body)
    assert codec.deserialize_table(forged).encoder == \
        codec.deserialize_table(side.read_bytes()).encoder
    with pytest.raises(HashMismatch):
        read_container(out.read_bytes(), side_table=forged)


def test_missing_input_is_a_data_error(tmp_path):
    rc = main(["compress", "--input", str(tmp_path / "nope"),
               "--output", str(tmp_path / "x")])
    assert rc == 3


def test_single_valued_file_round_trips(tmp_path, capsys, monkeypatch):
    import aeds.cli as cli_mod
    monkeypatch.setattr(cli_mod, "BLOCK_SYMBOLS", 256)
    src = tmp_path / "mono"
    src.write_bytes(b"\x07" * 1000)
    out = tmp_path / "mono.aedc"
    back = tmp_path / "mono.back"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", "large-n", "--states", "64"]) == 0
    assert "analytic bits/symbol: n/a\n" in capsys.readouterr().out
    assert main(["decompress", "--input", str(out),
                 "--output", str(back)]) == 0
    assert back.read_bytes() == src.read_bytes()


def test_seed_option_is_gone(tmp_path):
    src, _ = make_input(tmp_path, size=100)
    with pytest.raises(SystemExit) as err:
        main(["compress", "--seed", "1", "--input", str(src),
              "--output", str(tmp_path / "x")])
    assert err.value.code == 2


def test_tolerance_option_is_gone(tmp_path):
    src, _ = make_input(tmp_path, size=100)
    with pytest.raises(SystemExit) as err:
        main(["compress", "--tolerance", "0.1", "--input", str(src),
              "--output", str(tmp_path / "x")])
    assert err.value.code == 2


def container(data):
    p = validate_distribution((b, 1 + data.count(b)) for b in b"abcdr")
    table = build_table(p, "type2", 2)
    out = bytearray()
    write_container_stream(io.BytesIO(data).read, out.extend,
                           zlib.crc32(data), len(data), table)
    return bytes(out)


def test_container_rejects_trailing_bytes_and_unknown_flags():
    data = b"abracadabra" * 50
    for blob in (container(data), container(b"")):
        assert read_container(blob) == (data if len(blob) > 10 else b"")
        with pytest.raises(TrailingGarbage):
            read_container(blob + bytes(23))
        with pytest.raises(TrailingGarbage):
            read_container(blob + b"x")
        for flags in (0x40 | blob[5], 3, 4, 0xFF):
            bad = bytearray(blob)
            bad[5] = flags
            with pytest.raises(MalformedStream):
                read_container(bytes(bad))


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["figures", "--figure", "no-such-figure",
              "--csv", str(tmp_path / "x.csv")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_figures_table1(tmp_path):
    out = tmp_path / "table1.csv"
    assert main(["figures", "--figure", "table1", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,m_right,m_left"
    assert len(lines) == 38
    rows = {int(r.split(",")[0]): tuple(map(int, r.split(",")[1:]))
            for r in lines[1:]}
    assert rows[80] == (64, 16)
    assert rows[96] == (64, 32)


def test_figures_delta_curves(tmp_path):
    out = tmp_path / "delta.csv"
    assert main(["figures", "--figure", "delta-type1",
                 "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index("delta_n2")
    by_weight = {float(l.split(",")[0]): float(l.split(",")[idx])
                 for l in lines[1:]}
    assert by_weight[0.8] == pytest.approx(0.24444, abs=5e-5)


def test_figures_binary_at_half(tmp_path):
    out = tmp_path / "binary.csv"
    assert main(["figures", "--figure", "binary", "--csv", str(out)]) == 0
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[0]) == 0.5
    assert all(abs(float(v)) < 1e-9 for v in first[1:])


def test_csv_outputs_byte_stable(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["figures", "--figure", "uniform-n2", "--csv", str(a)])
    main(["figures", "--figure", "uniform-n2", "--csv", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_compress_outputs_byte_stable(tmp_path):
    src, _ = make_input(tmp_path, size=20_000)
    one = tmp_path / "one.aedc"
    two = tmp_path / "two.aedc"
    main(["compress", "--input", str(src), "--output", str(one),
          "--codec", "large-n", "--states", "24"])
    main(["compress", "--input", str(src), "--output", str(two),
          "--codec", "large-n", "--states", "24"])
    assert one.read_bytes() == two.read_bytes()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "aeds.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "compress" in proc.stdout


def test_multi_block_container(tmp_path, monkeypatch):
    import aeds.cli as cli_mod
    monkeypatch.setattr(cli_mod, "BLOCK_SYMBOLS", 4096)
    src, data = make_input(tmp_path, size=20_000, seed=5)
    out = tmp_path / "blocks.aedc"
    back = tmp_path / "blocks.back"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", "type2"]) == 0
    assert main(["decompress", "--input", str(out),
                 "--output", str(back)]) == 0
    assert back.read_bytes() == data


def test_tans_codec_rejects_bad_state_count(tmp_path):
    src, _ = make_input(tmp_path, size=2000)
    rc = main(["compress", "--input", str(src),
               "--output", str(tmp_path / "x"), "--codec", "tans",
               "--states", "12"])
    assert rc == 3


def test_case1_snaps_odd_state_budget(tmp_path, capsys):
    src, data = make_input(tmp_path, size=5000)
    out = tmp_path / "x.aedc"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", "saeds-case1", "--states", "12"]) == 0
    assert "uses 8 of the 12" in capsys.readouterr().out
    back = tmp_path / "x.back"
    assert main(["decompress", "--input", str(out),
                 "--output", str(back)]) == 0
    assert back.read_bytes() == data


def test_block_declaring_too_many_symbols_fails_fast(tmp_path):
    # The one-state table of a single-valued input codes every symbol with
    # the empty word, so a block header alone could ask for any number of
    # symbols; the writer never puts more than BLOCK_SYMBOLS in a block.
    src = tmp_path / "mono"
    src.write_bytes(b"\x07" * 10)
    out = tmp_path / "mono.aedc"
    assert main(["compress", "--input", str(src), "--output", str(out)]) == 0
    blob = out.read_bytes()
    stream = Bitstream.assemble(1, 0, 1 << 22, [], []).data
    forged = blob[:11 + blob[10]] + bytes([1, len(stream)]) + stream
    assert len(forged) == 66
    started = time.perf_counter()
    with pytest.raises(MalformedStream, match="declares 4194304 symbols"):
        read_container(forged)
    assert time.perf_counter() - started < 0.1
    bomb = tmp_path / "bomb.aedc"
    bomb.write_bytes(forged)
    assert main(["decompress", "--input", str(bomb),
                 "--output", str(tmp_path / "bomb.out")]) == 3


def test_build_table_prints_nothing(capsys):
    # the fallback and the snapped budget show in the table, not on stdout
    uniform = validate_distribution((b, 1) for b in range(256))
    assert build_table(uniform, "type1", 2).n_states == 1
    six = validate_distribution(zip(b"abcdef", SIX_WEIGHTS))
    assert build_table(six, "saeds-case1", 12).n_states == 8
    assert capsys.readouterr().out == ""
