"""The names the traced benchmark wraps, patches and calls still resolve.

``perfbench/spans.py`` wraps package functions and methods by name, and
``perfbench/child.py`` calls package functions as ``aeds.<module>.<name>``
and replaces ``cli.read_container`` and ``analysis.monte_carlo_rate`` for
its fault injection; a rename in the package would otherwise surface only
when the benchmark runs, and so would a renamed attribute that a span's
attribute helper reads off a result.  The benchmark modules are read here
without importing them, so nothing is written next to them.
"""

import ast
import inspect
import io
import pathlib
import random
import zlib

import aeds
import aeds.cli
from aeds.analysis import stationary_distribution
from aeds.codec import decode, encode, serialize_table
from aeds.model import (AedsTable, SourceDistribution, demo_table,
                        validate_distribution)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
CHILD = ROOT / "perfbench" / "child.py"


def load_spans():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_traced_names_resolve():
    spans = load_spans()
    assert spans["FUNCTIONS"] and spans["METHODS"]
    for module, attr, _, _ in spans["FUNCTIONS"]:
        assert callable(getattr(getattr(aeds, module), attr)), (module, attr)
    for module, cls, attr, _, _ in spans["METHODS"]:
        owner = getattr(getattr(aeds, module), cls)
        assert callable(getattr(owner, attr)), (module, cls, attr)


def test_child_names_resolve():
    refs = {(node.value.attr, node.attr)
            for node in ast.walk(ast.parse(CHILD.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "aeds"}
    assert {("tans", "quantize_counts"), ("tans", "build_tans"),
            ("tans", "tans_to_aeds")} <= refs
    for module, attr in refs:
        assert callable(getattr(getattr(aeds, module), attr)), (module, attr)


def test_patched_names_resolve():
    assert list(inspect.signature(aeds.cli.read_container).parameters) == \
        ["blob", "side_table", "sink"]
    assert callable(aeds.analysis.monte_carlo_rate)


def test_reading_a_container_builds_the_decoder_index(monkeypatch):
    # ``model.decoding_tries_s`` is the time spent in this call: a block
    # as long as the table-large-n one decodes in lockstep, from the index
    # that the serial loop reads too
    rng = random.Random(17)
    data = bytes(rng.choices(range(8), [8, 4, 2, 1, 1, 1, 1, 1], k=1 << 17))
    p = SourceDistribution.from_byte_histogram(
        [data.count(b) for b in range(256)])
    table = aeds.cli.build_table(p, "type2", 2)
    blob = bytearray()
    aeds.cli.write_container_stream(io.BytesIO(data).read, blob.extend,
                                    zlib.crc32(data), len(data), table)
    calls = []
    real = AedsTable.decoding_tries
    monkeypatch.setattr(AedsTable, "decoding_tries",
                        lambda self: calls.append(1) or real(self))
    assert aeds.cli.read_container(bytes(blob)) == data
    assert calls


def test_span_attributes_read_real_results():
    spans = load_spans()
    table = demo_table()
    p = validate_distribution([("a", 5), ("b", 3), ("c", 2)])
    # __init__ is wrapped, so the table under construction is args[0]
    assert spans["_table_cells"]((table, table.symbols), {}, None) == \
        {"cells": 15}
    blob = serialize_table(table)
    assert spans["_serialized"]((table,), {}, blob) == {"bytes": len(blob)}
    seq = list("cbba")
    stream = encode(table, seq)
    assert spans["_encoded"]((table, seq), {}, stream) == {
        "symbols": 4, "stream_bytes": len(stream.data),
        "payload_start": stream.payload_start, "payload_bits": 6}
    assert spans["_decoded"]((table, stream), {}, decode(table, stream)) == \
        {"symbols": 4}
    rep = stationary_distribution(table, p)
    assert spans["_stationary"]((table, p), {}, rep) == \
        {"method": "direct-solve", "mean_bits": rep.mean_bits}
