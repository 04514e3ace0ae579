import io
import os
import random
import stat
import subprocess
import sys
import threading
import time
import zlib

import pytest

from aeds import codec
from aeds.codec import Bitstream
from aeds.cli import (CODECS, build_table, main, read_container,
                      write_container_stream)
from aeds.errors import (HashMismatch, MalformedStream, NotPowerOfTwo,
                         TooFewStates, TrailingGarbage)
from aeds.model import AedsTable, validate_distribution

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


@pytest.mark.parametrize("data,damage,error,message", [
    # a bare stream's magic where the container's belongs
    (b"abracadabra", lambda b: b"AEDS" + b[4:], MalformedStream,
     "not a container"),
    (b"abracadabra", lambda b: b[:9], MalformedStream, "not a container"),
    (b"abracadabra", lambda b: b[:4] + bytes([b[4] + 1]) + b[5:],
     MalformedStream, "container version"),
    (b"", lambda b: b[:9] + b"\x01", HashMismatch,
     "empty container with nonzero checksum"),
    # the blocks decode, and then the checksum in bytes 6..9 disagrees
    (b"abracadabra", lambda b: b[:9] + bytes([b[9] ^ 1]) + b[10:],
     HashMismatch, "decompressed data fails its checksum"),
    # a block count of 2^64 - 1 in place of the one-byte count after the
    # table (its length fits one LEB128 byte, at offset 10)
    (b"abracadabra", lambda b: b[:11 + b[10]] + bytes([0xFF] * 9 + [0x01])
     + b[12 + b[10]:], MalformedStream, "LEB128 value too large"),
])
def test_damaged_containers(tmp_path, data, damage, error, message):
    blob = container(data)
    assert read_container(blob) == data
    with pytest.raises(error, match=message):
        read_container(damage(blob))
    bad = tmp_path / "bad.aedc"
    bad.write_bytes(damage(blob))
    assert main(["decompress", "--input", str(bad),
                 "--output", str(tmp_path / "out")]) == 3


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


@pytest.mark.parametrize("states", ["0", "-5"])
@pytest.mark.parametrize("codec", ["type1", "saeds-case1"])
def test_state_budget_must_be_positive(tmp_path, codec, states):
    src, _ = make_input(tmp_path, size=100)
    with pytest.raises(SystemExit) as err:
        main(["compress", "--input", str(src), "--output", str(tmp_path / "x"),
              "--codec", codec, "--states", states])
    assert err.value.code == 2


def test_type1_with_one_state_is_a_data_error(tmp_path, capsys):
    src, _ = make_input(tmp_path, size=100)
    assert main(["compress", "--input", str(src), "--output",
                 str(tmp_path / "x"), "--codec", "type1",
                 "--states", "1"]) == 3
    assert "at least two states" in capsys.readouterr().err


@pytest.mark.parametrize("codec_name", CODECS)
def test_alphabet_above_256_symbols_round_trips(codec_name):
    # 300 symbols map to 4-byte indices; one heavy symbol gives the tree
    # codes a root child above both thresholds, so type1 and type2 build
    # their own tables instead of falling back (type1 only up to 4 states)
    rng = random.Random(300)
    p = validate_distribution([(0, 0.7)] + [(s, 0.3 / 299)
                                            for s in range(1, 300)])
    table = build_table(p, codec_name, 2 if codec_name == "type1" else 1024)
    assert (table.n_states == 1) == (codec_name == "huffman")
    seq = rng.choices(range(300), weights=p.probs, k=5000)
    stream = codec.encode(table, seq)
    assert codec.decode(table, stream) == seq
    assert codec.decode(table, Bitstream(stream.data)) == seq


def test_tans_codec_rejects_bad_state_count(tmp_path):
    src, _ = make_input(tmp_path, size=2000)
    rc = main(["compress", "--input", str(src),
               "--output", str(tmp_path / "x"), "--codec", "tans",
               "--states", "12"])
    assert rc == 3


ZIPF256 = validate_distribution([(b, 1 / (b + 1) ** 1.2) for b in range(256)])
SIX = validate_distribution(list(zip(b"abcdef", SIX_WEIGHTS)))


@pytest.mark.parametrize("p,states", [
    (SIX, 16), (ZIPF256, 512), (ZIPF256, 4096),
], ids=["six-16", "zipf256-512", "zipf256-4096"])
def test_tans_codec_builds_the_case3_table(p, states):
    assert codec.table_digest(build_table(p, "tans", states)) == \
        codec.table_digest(build_table(p, "saeds-case3", states))


@pytest.mark.parametrize("states,error", [
    (16, TooFewStates), (255, TooFewStates), (384, NotPowerOfTwo),
])
def test_tans_and_case3_reject_a_state_count_alike(states, error):
    for name in ("tans", "saeds-case3"):
        with pytest.raises(error):
            build_table(ZIPF256, name, states)


def test_tans_codec_reports_too_few_states_first(tmp_path, capsys):
    # below the alphabet size the count is rejected before the power of two
    src, _ = make_input(tmp_path, size=2000)
    rc = main(["compress", "--input", str(src),
               "--output", str(tmp_path / "x"), "--codec", "tans",
               "--states", "3"])
    assert rc == 3
    assert "3 states cannot cover 6 symbols" in capsys.readouterr().err


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


def test_compress_in_place_round_trips(tmp_path):
    src, data = make_input(tmp_path, size=30_000)
    src.chmod(0o640)
    assert main(["compress", "--input", str(src), "--output", str(src),
                 "--codec", "large-n", "--states", "64"]) == 0
    assert stat.S_IMODE(src.stat().st_mode) == 0o640  # kept on replacing
    back = tmp_path / "back.dat"
    assert main(["decompress", "--input", str(src),
                 "--output", str(back)]) == 0
    assert back.read_bytes() == data
    # a new file gets the mode that open(path, "wb") gives
    with open(tmp_path / "plain", "wb"):
        pass
    assert back.stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "back.dat", "input.dat", "plain"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_output_to_a_pipe_is_written_directly(tmp_path):
    src, data = make_input(tmp_path, size=5000)
    out = tmp_path / "out.aedc"
    assert main(["compress", "--input", str(src), "--output", str(out)]) == 0
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()),
                              daemon=True)
    reader.start()
    assert main(["decompress", "--input", str(out),
                 "--output", str(pipe)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [data]
    assert stat.S_ISFIFO(pipe.stat().st_mode)


@pytest.mark.parametrize("before", [None, b"earlier bytes"])
def test_failed_checksum_leaves_the_output_as_it_was(tmp_path, before):
    src, _ = make_input(tmp_path, size=20_000)
    out = tmp_path / "out.aedc"
    assert main(["compress", "--input", str(src), "--output", str(out)]) == 0
    blob = bytearray(out.read_bytes())
    blob[7] ^= 0x01  # the stored CRC: every block decodes, the check fails
    out.write_bytes(bytes(blob))
    back = tmp_path / "back.dat"
    if before is not None:
        back.write_bytes(before)
    assert main(["decompress", "--input", str(out),
                 "--output", str(back)]) == 3
    assert (back.read_bytes() if back.exists() else None) == before
    assert len(list(tmp_path.iterdir())) == 2 + (before is not None)


def test_input_that_grows_between_the_passes_writes_nothing(
        tmp_path, monkeypatch, capsys):
    import aeds.cli as cli_mod
    src, _ = make_input(tmp_path, size=20_000)
    real = cli_mod.build_table

    def build_then_grow(*args):
        with open(src, "ab") as fh:
            fh.write(b"abc")
        return real(*args)
    monkeypatch.setattr(cli_mod, "build_table", build_then_grow)
    out, side = tmp_path / "out.aedc", tmp_path / "codes.tbl"
    assert main(["compress", "--input", str(src), "--output", str(out),
                 "--codec", "type2", "--table-out", str(side)]) == 3
    assert "changed between the two passes" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["input.dat"]


@pytest.mark.parametrize("size,crc", [(1, 0), (0, 1)])
def test_container_writer_checks_what_it_reads(size, crc):
    data = b"abracadabra"
    table = build_table(validate_distribution(
        (b, data.count(b)) for b in b"abcdr"), "type2", 2)
    with pytest.raises(HashMismatch, match="changed between the two passes"):
        write_container_stream(io.BytesIO(data).read, bytearray().extend,
                               zlib.crc32(data) + crc, len(data) + size,
                               table)


def broken_builder(*_):
    raise RuntimeError("an invariant failed")


def period_two_table(p):
    # the states swap on every symbol: irreducible, but of period 2
    m = len(p.symbols)
    return AedsTable(p.symbols, [[1] * m, [0] * m], [[8] * m] * 2,
                     [list(range(m))] * 2)


@pytest.mark.parametrize("build,rc,stream,text", [
    (broken_builder, 4, "err", "internal error: RuntimeError"),
    (lambda p, *_: period_two_table(p), 0, "out",
     "analytic bits/symbol: n/a (chain not ergodic)\n"),
])
def test_compress_reports_what_the_builder_gives(tmp_path, monkeypatch,
                                                 capsys, build, rc, stream,
                                                 text):
    import aeds.cli as cli_mod
    monkeypatch.setattr(cli_mod, "build_table", build)
    src, data = make_input(tmp_path, size=5000)
    out = tmp_path / "out.aedc"
    assert main(["compress", "--input", str(src), "--output", str(out)]) == rc
    assert text in getattr(capsys.readouterr(), stream)
    assert out.exists() == (rc == 0)
    if rc == 0:
        back = tmp_path / "back.dat"
        assert main(["decompress", "--input", str(out),
                     "--output", str(back)]) == 0
        assert back.read_bytes() == data


@pytest.mark.parametrize("codec_name", CODECS)
def test_huffman_tree_is_built_only_for_the_codecs_that_read_it(
        monkeypatch, codec_name):
    import aeds.cli as cli_mod
    calls = []
    real = cli_mod.prefix_codes.build_huffman
    monkeypatch.setattr(cli_mod.prefix_codes, "build_huffman",
                        lambda p: calls.append(1) or real(p))
    six = validate_distribution(zip(b"abcdef", SIX_WEIGHTS))
    build_table(six, codec_name, 16)
    assert len(calls) == (codec_name in ("huffman", "type1", "type2"))
