"""Command-line front end: file compression, decompression, and CSV dumps
of the analytic curves.

Container layout (byte oriented):

    magic "AEDC" | version u8 | flags u8 | crc32 of the raw data (u32 BE) |
    table section (embedded bytes, or the 32-byte digest when a side table
    file is used) | block count LEB128 | per block: byte length LEB128 +
    one framed bitstream

The flags byte is 1 (embedded table), 0 (side table) or 2 (empty input,
nothing follows the checksum); no byte may follow the last block.

Files are split into blocks of 2^20 symbols, and a block declaring more
is rejected before it is decoded; each block carries its own stream header.
"""

import argparse
import contextlib
import math
import os
import shutil
import sys
import zlib

import numpy as np

from . import analysis, codec, constructors, model, prefix_codes, tans
from .codec import BitReader, Bitstream
from .errors import (AedsError, HashMismatch, MalformedStream, TooFewStates,
                     TrailingGarbage)

CONTAINER_MAGIC = b"AEDC"
CONTAINER_VERSION = 1
FLAG_EMBEDDED = 1
FLAG_EMPTY = 2

BLOCK_SYMBOLS = 1 << 20
REDUCTION_TOLERANCE = 1e-9

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INTERNAL = 4

CODECS = ("huffman", "type1", "type2", "saeds-case1", "saeds-case2",
          "saeds-case3", "large-n", "tans")

FIGURES = ("delta-type1", "delta-type2", "worst-case", "uniform-n2",
           "uniform-nsweep", "uniform-type2", "binary", "table1",
           "largeN-sweep")


def _pow2_counts(p, n_states):
    """Power-of-two state counts summing to ``n_states``; with a
    power-of-two total every per-symbol ratio is then an integer, as the
    equal-ratio layout requires."""
    counts = []
    for q in p.probs:
        c = 1 << max(round(math.log2(max(q * n_states, 1.0))), 0)
        counts.append(max(min(c, n_states), 1))
    # repair the sum by halving the most over-represented / doubling the
    # most starved entries; terminates because counts stay in [1, N]
    def cost(i, c):
        return abs(c - p.probs[i] * n_states)
    while sum(counts) != n_states:
        if sum(counts) > n_states:
            i = min((i for i in range(len(counts)) if counts[i] > 1),
                    key=lambda i: (cost(i, counts[i] // 2), i))
            counts[i] //= 2
        else:
            i = min((i for i in range(len(counts))
                     if sum(counts) - counts[i] + 2 * counts[i] <= n_states),
                    key=lambda i: (cost(i, counts[i] * 2), i))
            counts[i] *= 2
    return counts


def build_table(p, codec_name, n_states):
    """Builder dispatch with the automatic prefix-code fallback.

    A tree-based layout whose analytic reduction is at most
    ``REDUCTION_TOLERANCE`` falls back to the plain one-state prefix coder
    (the reduction formulas clamp at zero exactly when it cannot win).
    The equal-ratio layout snaps the state budget down to a power of two.
    Both decisions show in the returned table's state count.
    """
    if codec_name == "huffman":
        tree = prefix_codes.build_huffman(p)
        return constructors.build_prefix_table(tree, p)
    if codec_name in ("type1", "type2"):
        tree = prefix_codes.build_huffman(p)
        mets = prefix_codes.tree_metrics(tree, p)
        if codec_name == "type1":
            if n_states < 2:
                raise TooFewStates("the chain layout needs at least two states")
            drop = analysis.delta_type1(mets.right_weight, n_states)
        else:
            drop = analysis.delta_type2(mets.right_weight)
        if drop <= REDUCTION_TOLERANCE:
            return constructors.build_prefix_table(tree, p)
        if codec_name == "type1":
            return constructors.build_type1(tree, p, n_states)
        return constructors.build_type2(tree, p)
    if codec_name == "saeds-case1":
        # power-of-two counts always divide a power-of-two total, so snap
        # the budget down to keep every ratio integral
        n_eff = 1 << max(n_states.bit_length() - 1,
                         (len(p.symbols) - 1).bit_length())
        return constructors.build_saeds_case1(p, _pow2_counts(p, n_eff))
    if codec_name == "saeds-case2":
        return constructors.build_saeds_case2(
            p, tans.quantize_counts(p, n_states))
    if codec_name in ("saeds-case3", "tans"):
        # the tANS table of the sorted spread is the case-3 table
        return constructors.build_saeds_case3(
            p, tans.quantize_counts(p, n_states))
    if codec_name == "large-n":
        table, _ = constructors.build_large_n(
            p, tans.quantize_counts(p, n_states))
        return table
    raise ValueError(f"unknown codec {codec_name!r}")


# ---------------------------------------------------------------------------
# container


def write_container_stream(reader, sink, crc, size, table, table_sink=None):
    """Write the container header and table, then read BLOCK_SYMBOLS at a
    time and frame each block on its own; returns the payload bits.

    With ``table_sink`` the table bytes go to it and the container holds
    only their digest.  Raises HashMismatch if what ``reader`` gives
    differs in length or checksum from the ``size`` and ``crc`` that the
    header declares.
    """
    head = bytearray(CONTAINER_MAGIC)
    head.append(CONTAINER_VERSION)
    if size == 0:
        head.append(FLAG_EMPTY)
        head += crc.to_bytes(4, "big")
        sink(bytes(head))
        return 0
    head.append(0 if table_sink else FLAG_EMBEDDED)
    head += crc.to_bytes(4, "big")
    blob = codec.serialize_table(table)
    if table_sink:
        table_sink(blob)
        head += blob[-32:]
    else:
        head += codec._leb128(len(blob)) + blob
    head += codec._leb128(-(-size // BLOCK_SYMBOLS))
    sink(bytes(head))
    payload_bits = read = running = 0
    while chunk := reader(BLOCK_SYMBOLS):
        read += len(chunk)
        running = zlib.crc32(chunk, running)
        stream = codec.encode(table, chunk)
        sink(bytes(codec._leb128(len(stream.data))) + stream.data)
        payload_bits += stream.exact_payload_bits
    if read != size or running != crc:
        raise HashMismatch("the input changed between the two passes")
    return payload_bits


def read_container(blob, side_table=None, sink=None):
    """Decode a container; returns the data (or b"" when ``sink`` consumes
    it block by block).  The stored checksum is always verified."""
    if len(blob) < 10 or blob[:4] != CONTAINER_MAGIC:
        raise MalformedStream("not a container")
    if blob[4] != CONTAINER_VERSION:
        raise MalformedStream(f"container version {blob[4]}")
    flags = blob[5]
    if flags not in (0, FLAG_EMBEDDED, FLAG_EMPTY):
        raise MalformedStream(f"unknown container flags {flags:#04x}")
    crc = int.from_bytes(blob[6:10], "big")
    r = BitReader(blob, 80)
    if flags == FLAG_EMPTY:
        if crc != zlib.crc32(b""):
            raise HashMismatch("empty container with nonzero checksum")
        _check_end(r)
        return b""
    if flags == FLAG_EMBEDDED:
        tlen = r.read_leb128()
        table = codec.deserialize_table(r.read_bytes(tlen))
    else:
        digest = r.read_bytes(32)
        if side_table is None:
            raise MalformedStream("container references a side table file; "
                                  "pass one with --table")
        table = codec.deserialize_table(side_table)
        if side_table[-32:] != digest:  # the trailer just verified
            raise HashMismatch("side table does not match the container")
    n_blocks = r.read_leb128()
    out = bytearray()
    running = 0
    for _ in range(n_blocks):
        blen = r.read_leb128()
        stream = Bitstream(r.read_bytes(blen))
        if stream.length > BLOCK_SYMBOLS:
            raise MalformedStream(f"a block declares {stream.length} "
                                  f"symbols, more than {BLOCK_SYMBOLS}")
        piece = codec.decode_indices(table, stream).tobytes().translate(
            _byte_values(table))
        running = zlib.crc32(piece, running)
        if sink is None:
            out += piece
        else:
            sink(piece)
    _check_end(r)
    if running != crc:
        raise HashMismatch("decompressed data fails its checksum")
    return bytes(out)


def _byte_values(table):
    """The ``bytes.translate`` table from alphabet indices to the byte
    values that are a CLI table's symbols, the mirror of
    ``codec.symbol_indices``."""
    try:
        return bytes(table.symbols).ljust(256, b"\0")
    except (TypeError, ValueError):
        raise MalformedStream("the table's symbols are not byte values") \
            from None


def _check_end(r):
    if r.bits_left:
        raise TrailingGarbage(f"{r.bits_left // 8} bytes after the container")


# ---------------------------------------------------------------------------
# subcommands


@contextlib.contextmanager
def _replaced_on_success(path):
    """A binary file to write ``path`` through, which changes ``path`` only
    if the block succeeds: the bytes go to a new file beside it, which
    replaces it then and is deleted on any failure.  So a failed run
    leaves no partial file, and an output over the input cannot truncate
    it before it is read.  Devices and pipes are written directly."""
    path = os.path.realpath(path)  # through a symlink, as open() writes
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    # the mode that open(path, "wb") gives a new file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            yield fh
        if os.path.exists(path):  # a replaced file keeps its mode
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_compress(args):
    # first pass: chunked histogram; bincount widens each byte to eight,
    # so small reads keep its temporary small
    counts = np.zeros(256, dtype=np.int64)
    size = 0
    crc = 0
    with open(args.input, "rb") as fh:
        while chunk := fh.read(1 << 16):
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
            counts += np.bincount(np.frombuffer(chunk, np.uint8),
                                  minlength=256)
    counts = counts.tolist()
    if size == 0:
        with _replaced_on_success(args.output) as out:
            write_container_stream(lambda n: b"", out.write, crc, 0, None)
        print("empty input: wrote a header-only container")
        return EXIT_OK
    present = [b for b in range(256) if counts[b]]
    if len(present) == 1:
        # one byte value: a single state whose only codeword is empty
        p = None
        table = model.AedsTable(present, [[0]], [[0]], [[0]])
    else:
        p = model.SourceDistribution.from_byte_histogram(counts)
        table = build_table(p, args.codec, args.states)
        if args.codec in ("type1", "type2") and table.n_states == 1:
            print("reduction is zero at this tree; "
                  "falling back to plain prefix coding")
        if args.codec == "saeds-case1" and table.n_states != args.states:
            print(f"equal-ratio layout uses {table.n_states} of the "
                  f"{args.states} requested states")
    side = (_replaced_on_success(args.table_out) if args.table_out
            else contextlib.nullcontext())
    # second pass: blocked encode straight to the output file
    with (_replaced_on_success(args.output) as out, side as table_out,
          open(args.input, "rb") as src):
        payload_bits = write_container_stream(
            src.read, out.write, crc, size, table,
            table_out.write if table_out else None)
    written = os.path.getsize(args.output)
    analytic = "n/a"
    if p is not None:
        try:
            mean_bits = analysis.stationary_distribution(table, p).mean_bits
            analytic = f"{mean_bits:.6f}"
        except AedsError:
            analytic = "n/a (chain not ergodic)"
    print(f"symbols: {size}")
    print(f"analytic bits/symbol: {analytic}")
    print(f"payload bits/symbol: {payload_bits / size:.6f}")
    print(f"container: {written} bytes "
          f"({8 * written / size:.4f} bits/byte incl. table)")
    return EXIT_OK


def cmd_decompress(args):
    with open(args.input, "rb") as fh:
        blob = fh.read()
    side = None
    if args.table:
        with open(args.table, "rb") as fh:
            side = fh.read()
    restored = 0
    with _replaced_on_success(args.output) as out:
        def sink(piece):
            nonlocal restored
            restored += len(piece)
            out.write(piece)
        read_container(blob, side_table=side, sink=sink)
    print(f"restored {restored} bytes")
    return EXIT_OK


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [
        ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
        for row in rows]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {len(rows)} rows to {path}")


def _figure_rows(figure):
    pr_grid = [0.5 + 0.005 * i for i in range(100)]
    if figure == "delta-type1":
        ns = (2, 3, 4, 8, 16, 32)
        header = ["right_weight"] + [f"delta_n{n}" for n in ns]
        rows = [[w] + [analysis.delta_type1(w, n) for n in ns]
                for w in pr_grid]
        return header, rows
    if figure == "delta-type2":
        header = ["right_weight", "delta_two_state", "delta_five_state"]
        rows = [[w, analysis.delta_type1(w, 2), analysis.delta_type2(w)]
                for w in pr_grid]
        return header, rows
    if figure == "worst-case":
        ns = (2, 4, 16)
        header = (["p1", "huffman"] + [f"type1_n{n}" for n in ns]
                  + ["type2"])
        huff = [analysis.huffman_worst_redundancy(w) for w in pr_grid]
        rows = [[w, h] + [h - analysis.delta_type1(w, n) for n in ns]
                + [h - analysis.delta_type2(w)] for w, h in zip(pr_grid, huff)]
        return header, rows
    if figure == "uniform-n2":
        header = ["m", "huffman_redundancy", "reduction_huffman_tree",
                  "reduction_best_tree"]
        rows = [[m, prefix_codes.phased_in_redundancy(m),
                 analysis.delta_type1(
                     analysis.uniform_huffman_right_weight(m), 2),
                 analysis.optimal_uniform_split(m, 2).reduction]
                for m in range(16, 129)]
        return header, rows
    if figure == "uniform-nsweep":
        ns = (2, 3, 4, 6, 8, 16)
        header = ["m"] + [f"reduction_n{n}" for n in ns]
        rows = [[m] + [analysis.optimal_uniform_split(m, n).reduction
                       for n in ns]
                for m in range(64, 129)]
        return header, rows
    if figure == "uniform-type2":
        header = ["m", "reduction_two_state", "reduction_five_state",
                  "reduction_huffman_tree"]
        rows = [[m, analysis.optimal_uniform_split(m, 2).reduction,
                 analysis.optimal_uniform_split(m, variant="type2").reduction,
                 analysis.delta_type1(
                     analysis.uniform_huffman_right_weight(m), 2)]
                for m in range(64, 129)]
        return header, rows
    if figure == "binary":
        ns = (2, 4, 8, 16)
        header = (["r", "source"] + [f"type1_n{n}" for n in ns]
                  + ["type2", "envelope"])
        rows = []
        for i in range(500):
            r = 0.5 + 0.001 * i
            per_n = [analysis.binary_redundancy(r, "type1", n)
                     for n in range(2, 17)]
            two = analysis.binary_redundancy(r, "type2")
            rows.append([r, analysis.binary_redundancy(r)]
                        + [per_n[n - 2] for n in ns]
                        + [two, min(min(per_n), two)])
        return header, rows
    if figure == "table1":
        header = ["m", "m_right", "m_left"]
        splits = [analysis.optimal_uniform_split(m, 2) for m in range(73, 110)]
        rows = [[b.size, b.right_items, b.left_items] for b in splits]
        return header, rows
    if figure == "largeN-sweep":
        p = model.validate_distribution([("a", 3), ("b", 3), ("c", 2)])
        h = model.entropy(p)
        header = ["n_states", "mean_bits", "entropy", "excess_times_n",
                  "smallest_gamma"]
        rows = []
        for n in (8 << i for i in range(10)):
            table, _ = constructors.build_large_n(
                p, [3 * n // 8, 3 * n // 8, n // 4])
            rep = analysis.stationary_distribution(table, p)
            g = analysis.smallest_dominating_gamma(rep.probs, n)
            rows.append([n, rep.mean_bits, h, (rep.mean_bits - h) * n,
                         -1 if g is None else g])
        return header, rows
    raise ValueError(f"unknown figure {figure!r}")


def cmd_figures(args):
    header, rows = _figure_rows(args.figure)
    _write_csv(args.csv, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return int(text)


def _parser():
    parser = argparse.ArgumentParser(
        prog="aeds",
        description="Backward-encoding table codes: compress, decompress, "
                    "and reproduce the analytic curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="two-pass compression of a file")
    c.add_argument("--input", required=True)
    c.add_argument("--output", required=True)
    c.add_argument("--codec", choices=CODECS, default="type1",
                   help="table family; tans builds the saeds-case3 table")
    c.add_argument("--states", type=positive_int, default=2,
                   help="state budget N for the table builders")
    c.add_argument("--table-out", default=None,
                   help="write the table to a side file and store only "
                        "its hash in the container")
    c.set_defaults(func=cmd_compress)

    d = sub.add_parser("decompress", help="restore a compressed container")
    d.add_argument("--input", required=True)
    d.add_argument("--output", required=True)
    d.add_argument("--table", default=None,
                   help="side table file for containers that carry only "
                        "a table hash")
    d.set_defaults(func=cmd_decompress)

    f = sub.add_parser("figures", help="dump an analytic series as CSV")
    f.add_argument("--figure", choices=FIGURES, required=True)
    f.add_argument("--csv", required=True)
    f.set_defaults(func=cmd_figures)
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AedsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # invariant violation: report and flag
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
