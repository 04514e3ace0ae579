"""Span recorder installed around the public functions of each aeds module.

The wrappers are put in place from outside the package, in the child
interpreter, just before the traced operation runs; nothing under ``src/``
knows about them.  Only functions that run a few dozen times per operation
are wrapped, never per-symbol or per-bit ones (``BitReader.read_bit``,
``Codeword``), so the recorder costs little next to the work it times.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span (-1 for the root) and ``attrs`` holds counts taken from
the call's arguments and result.  Spans stay in memory and are written out
when the operation ends.
"""

import contextlib
import functools
import time

STATIONARY = "analysis.stationary_distribution"


def _table_cells(args, kwargs, result):
    table = args[0]
    return {"cells": table.n_states * len(table.symbols)}


def _serialized(args, kwargs, result):
    return {"bytes": len(result)}


def _encoded(args, kwargs, result):
    return {"symbols": len(args[1]), "stream_bytes": len(result.data),
            "payload_start": result.payload_start,
            "payload_bits": result.exact_payload_bits}


def _decoded(args, kwargs, result):
    return {"symbols": len(result)}


def _stationary(args, kwargs, result):
    return {"method": result.method, "mean_bits": result.mean_bits}


# (module, attribute, span name, attrs).  A name bound with ``from ...
# import`` is wrapped where the caller looks it up, under the same span name
# as the original.
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_compress", "cli.cmd_compress", None),
    ("cli", "cmd_decompress", "cli.cmd_decompress", None),
    ("cli", "cmd_figures", "cli.cmd_figures", None),
    ("cli", "build_table", "cli.build_table", None),
    ("cli", "write_container_stream", "cli.write_container_stream", None),
    ("cli", "read_container", "cli.read_container", None),
    ("cli", "Bitstream", "codec.Bitstream", None),
    ("prefix_codes", "build_huffman", "prefix_codes.build_huffman", None),
    ("constructors", "build_huffman", "prefix_codes.build_huffman", None),
    ("constructors", "build_type2", "constructors.build_type2", None),
    ("constructors", "build_saeds_case2", "constructors.build_saeds_case2",
     None),
    ("constructors", "build_saeds_case3", "constructors.build_saeds_case3",
     None),
    ("constructors", "build_large_n", "constructors.build_large_n", None),
    ("constructors", "stationary_distribution", STATIONARY, _stationary),
    ("tans", "quantize_counts", "tans.quantize_counts", None),
    ("tans", "build_tans", "tans.build_tans", None),
    ("tans", "tans_to_aeds", "tans.tans_to_aeds", None),
    ("codec", "serialize_table", "codec.serialize_table", _serialized),
    ("codec", "table_digest", "codec.table_digest", None),
    ("codec", "deserialize_table", "codec.deserialize_table", None),
    ("codec", "encode", "codec.encode", _encoded),
    ("codec", "decode", "codec.decode", _decoded),
    ("analysis", "stationary_distribution", STATIONARY, _stationary),
    ("analysis", "check_bound", "analysis.check_bound", None),
    ("analysis", "monte_carlo_rate", "analysis.monte_carlo_rate", None),
)

# Table methods are wrapped on the class so every instance sees them.
METHODS = (
    ("model", "AedsTable", "__init__", "model.AedsTable.__init__",
     _table_cells),
    ("model", "AedsTable", "decoding_tries", "model.AedsTable.decoding_tries",
     None),
)

# Per-layer metric that receives each span's self time.  Spans missing here
# (the root, ``cli.cmd_decompress``, ``cli.build_table``) are glue; their
# self time is the unnamed remainder.  The stationary solve is
# split by the method its report names.
SELF_TIME_METRIC = {
    "cli.main": "cli.argparse_s",
    "cli.cmd_compress": "cli.histogram_s",
    "cli.write_container_stream": "cli.framing_s",
    "cli.read_container": "cli.unframing_s",
    "cli.cmd_figures": "cli.figures_s",
    "codec.Bitstream": "codec.bitstream_parse_s",
    "prefix_codes.build_huffman": "prefix_codes.build_huffman_s",
    "constructors.build_type2": "constructors.build_s",
    "constructors.build_saeds_case2": "constructors.build_s",
    "constructors.build_saeds_case3": "constructors.build_s",
    "constructors.build_large_n": "constructors.build_s",
    "tans.quantize_counts": "tans.build_s",
    "tans.build_tans": "tans.build_s",
    "tans.tans_to_aeds": "tans.build_s",
    "model.AedsTable.__init__": "model.table_init_s",
    "model.AedsTable.decoding_tries": "model.decoding_tries_s",
    "codec.serialize_table": "codec.serialize_table_s",
    "codec.table_digest": "codec.serialize_table_s",
    "codec.deserialize_table": "codec.deserialize_table_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_walk_s",
    "analysis.check_bound": "analysis.check_bound_s",
    "analysis.monte_carlo_rate": "analysis.monte_carlo_s",
}


# Results the child inspects after the operation (the table a compress
# built, for its digest).
KEEP_RESULT = ("cli.build_table",)


class Recorder:
    """Keeps the spans of one traced operation."""

    def __init__(self):
        self.spans = []
        self.kept = {}
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record[4].update(attrs(args, kwargs, result))
            if name in KEEP_RESULT:
                self.kept[name] = result
            return result
        return wrapper

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        for module, attr, name, attrs in FUNCTIONS:
            owner = getattr(package, module)
            self._replace(owner, attr, self.wrap(name, getattr(owner, attr),
                                                 attrs))
        for module, cls, attr, name, attrs in METHODS:
            owner = getattr(getattr(package, module), cls)
            self._replace(owner, attr, self.wrap(name, getattr(owner, attr),
                                                 attrs))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans):
    """Per-layer self times and counts of one traced operation, plus the
    root span's wall time and the self time no metric names."""
    out = {"self": {}, "counts": {"analysis.stationary_calls": 0,
                                  "model.table_init_cells": 0,
                                  "codec.table_bytes": 0,
                                  "codec.encode_symbols": 0,
                                  "codec.decode_symbols": 0}}
    unnamed = 0.0
    for (name, _, _, _, attrs), own in zip(spans, self_times(spans)):
        if name == STATIONARY:
            metric = ("analysis.stationary_power_s"
                      if attrs["method"] == "power-iteration"
                      else "analysis.stationary_direct_s")
            out["counts"]["analysis.stationary_calls"] += 1
        else:
            metric = SELF_TIME_METRIC.get(name)
        if metric is None:
            unnamed += own
        else:
            out["self"][metric] = out["self"].get(metric, 0.0) + own
        counts = out["counts"]
        if name == "model.AedsTable.__init__":
            counts["model.table_init_cells"] += attrs["cells"]
        elif name == "codec.serialize_table":
            counts["codec.table_bytes"] += attrs["bytes"]
        elif name == "codec.encode":
            counts["codec.encode_symbols"] += attrs["symbols"]
        elif name == "codec.decode":
            counts["codec.decode_symbols"] += attrs["symbols"]
    _, start, end, _, _ = spans[0]
    out["wall_s"] = end - start
    out["unnamed_s"] = unnamed
    return out
