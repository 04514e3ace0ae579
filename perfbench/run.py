"""Benchmark of the aeds coder: compress/decompress streams, large tables,
and rate certification, each operation in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the WORKLOADS below, or ``all`` to run each in turn.  The
run repeats its workload's cycle of operations until ``--seconds`` have
passed (at least once), checks every output, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` each cycle runs once untraced and once with
span recorders wrapped around the public functions of every module, and
the metrics are the per-layer ones (see perfbench/README.md).

Load model: closed loop, one client, one operation at a time.  Each
operation runs in its own child interpreter (perfbench/child.py), which
imports ``aeds`` from ``src/`` of this checkout, times exactly one call,
and reports its own peak RSS.  The benchmark reads and writes only inside
the checkout, in a scratch directory it removes at the end.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# A run ends within this many seconds even if a child hangs.
RUN_LIMIT_S = 170.0

# Times are reported on the scale of a host that runs the children's
# reference loop (child.reference_s) in this many seconds, about what an
# idle host of the kind the benchmark was written on takes.  See
# "Host speed" in README.md.
REFERENCE_S = 0.008

# The nine series of ``aeds figures``, listed here because the parent never
# imports ``aeds``: only the children do.
FIGURES = ("delta-type1", "delta-type2", "worst-case", "uniform-n2",
           "uniform-nsweep", "uniform-type2", "binary", "table1",
           "largeN-sweep")

WORKLOADS = {
    # Five-state table: encode, decode and bit IO do nearly all the work.
    # Two blocks of 2^20 symbols.
    "stream-type2": {"corpus": corpus.skewed_bytes,
                     "corpus_bytes": 2 << 20,
                     "argv": ["--codec", "type2"]},
    # 131k-cell table that serializes to ~0.6 MB against a ~85 KB payload:
    # table build, (de)serialization, decoder index and the post-hoc
    # stationary solve dominate; encode and decode do little.
    "table-large-n": {"corpus": corpus.zipf_bytes,
                      "corpus_bytes": 128 << 10,
                      "argv": ["--codec", "large-n", "--states", "512"]},
    # No bit IO: the nine figures, then the certification sweep on the
    # distribution of the table-large-n corpus, one child per table family.
    # The state-divided tables (N = 512) take the dense solver, the large-N
    # table (N = 2048) power iteration.
    "rate-certify": {"corpus": corpus.zipf_bytes,
                     "corpus_bytes": 128 << 10,
                     "figures": FIGURES,
                     "sweep": {"states": 512, "large_n_states": 2048,
                               "mc_symbols": 10 ** 6}},
}

# name -> unit.  step1/step2 are the workload's two user-facing steps:
# compress and decompress, or the figures and the certification sweep.
END_TO_END = {
    "setup_s": "s",
    "step1_s": "s",
    "step2_s": "s",
    "peak_rss_MB": "MB",
    "rate_bpb": "bits/byte",
}

LAYER_TIMES = (
    "cli.argparse_s", "cli.histogram_s", "cli.framing_s", "cli.unframing_s",
    "cli.figures_s", "codec.bitstream_parse_s", "prefix_codes.build_huffman_s",
    "constructors.build_s", "tans.build_s", "model.table_init_s",
    "model.decoding_tries_s", "codec.serialize_table_s",
    "codec.deserialize_table_s", "codec.encode_s", "codec.decode_walk_s",
    "analysis.stationary_direct_s", "analysis.stationary_power_s",
    "analysis.check_bound_s", "analysis.monte_carlo_s",
)
PER_LAYER = dict.fromkeys(LAYER_TIMES, "s")
PER_LAYER.update({
    "model.table_init_cells": "count",
    "codec.table_bytes": "bytes",
    "codec.encode_Msym_s": "Msym/s",
    "codec.decode_Msym_s": "Msym/s",
    "analysis.stationary_calls": "count",
    "container.header_bits": "bits",
    "container.table_bits": "bits",
    "container.payload_bits": "bits",
    "container.padding_bits": "bits",
    "container.unaccounted_bits": "bits",
    "codec.payload_bpb": "bits/byte",
    "analysis.analytic_bpb": "bits/byte",
    "corpus.entropy_bpb": "bits/byte",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unnamed_frac": "ratio",
    "trace.spans": "count",
})


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def leb128_bytes(value):
    return max(1, -(-value.bit_length() // 7))


def host():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


class Run:
    """One benchmark run: its scratch directory, inputs and children."""

    def __init__(self, seed, spec, fault, workdir):
        self.seed, self.spec, self.fault, self.dir = seed, spec, fault, workdir
        self.started = time.monotonic()
        self.children = 0
        self.numpy = None
        self.table_digest = None
        data = spec["corpus"](seed, spec["corpus_bytes"])
        self.size = len(data)
        self.counts = corpus.histogram(data)
        self.entropy = corpus.entropy_bpb(self.counts)
        self.corpus_sha = corpus.sha256(data)
        self.input = workdir / "corpus.bin"
        self.input.write_bytes(data)

    def child(self, task, trace):
        """Run one operation in a fresh interpreter; return its result,
        with ``error`` set when it crashed, hung or wrote nothing."""
        self.children += 1
        path = self.dir / f"task{self.children}.json"
        task = dict(task, trace=trace, fault=self.fault, src=str(SRC),
                    seed=self.seed, result=str(path) + ".out")
        path.write_text(json.dumps(task))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        limit = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(path), repr(spawned)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"timed out after {limit:.0f} s", "rc": None}
        try:
            result = json.loads(Path(task["result"]).read_text())
        except (OSError, ValueError):
            return {"error": f"exit {proc.returncode}: {stderr[-2000:]}",
                    "rc": proc.returncode}
        self.numpy = result.get("numpy", self.numpy)
        return result

    def op(self, slot, step, task, trace, verify):
        """Run one operation; ``verify(result)`` returns the reason it is
        wrong, or None.  The result is tagged with its slot in the cycle and
        the user-facing step (1 or 2) whose time it counts towards."""
        result = self.child(task, trace)
        if result["error"] is None:
            result["error"] = verify(result)
        result.update(slot=slot, step=step, ok=result["error"] is None)
        if result["ok"]:
            reference = (result["reference_before_s"]
                         + result["reference_after_s"]) / 2
            result["scale"] = REFERENCE_S / reference
            result["scaled_s"] = result["wall_s"] * result["scale"]
            result["scaled_setup_s"] = (result["setup_s"] * REFERENCE_S
                                        / result["reference_before_s"])
        return result

    def cycle(self, trace):
        if "sweep" in self.spec:
            return self.certify_cycle(trace)
        return self.codec_cycle(trace)

    def codec_cycle(self, trace):
        container = self.dir / "corpus.aedc"
        restored = self.dir / "restored.bin"
        for path in (container, restored):
            path.unlink(missing_ok=True)

        def exited(result):
            if result["rc"] != 0:
                return f"exit {result['rc']}: {result['stderr']}"
            return None

        def restored_input(result):
            if exited(result):
                return exited(result)
            if sha256_file(restored) != self.corpus_sha:
                return "restored bytes differ from the input"
            return None

        comp = self.op("compress", 1, {"op": "cli", "argv": [
            "compress", "--input", str(self.input), "--output",
            str(container)] + self.spec["argv"]}, trace, exited)
        size = container.stat().st_size if container.exists() else 0
        dec = self.op("decompress", 2, {"op": "cli", "argv": [
            "decompress", "--input", str(container), "--output",
            str(restored)]}, trace, restored_input)
        out = {"ops": [comp, dec], "rate_bpb": 8 * size / self.size,
               "container_sha": sha256_file(container) if size else None}
        if trace and comp["ok"] and dec["ok"]:
            out["layers"] = self.codec_layers(comp, dec, size)
        return out

    def certify_cycle(self, trace):
        ops = []
        for figure in self.spec["figures"]:
            csv = self.dir / f"{figure}.csv"
            csv.unlink(missing_ok=True)

            def wrote_rows(result, csv=csv):
                if result["rc"] != 0:
                    return f"exit {result['rc']}: {result['stderr']}"
                if len(csv.read_text().splitlines()) < 2:
                    return f"{csv.name} holds no rows"
                return None
            ops.append(self.op(figure, 1, {"op": "cli", "argv": [
                "figures", "--figure", figure, "--csv", str(csv)]}, trace,
                wrote_rows))

        def certified(result):
            failed = [name for name, ok, _ in result["checks"] if not ok]
            return "failed checks: " + ", ".join(failed) if failed else None
        for family in ("case2", "case3", "large-n"):
            ops.append(self.op(f"certify-{family}", 2, {
                "op": "certify", "family": family, "counts": self.counts,
                "sweep": self.spec["sweep"]}, trace, certified))
        out = {"ops": ops,
               "rate_bpb": ops[-1].get("info", {}).get("analytic_bpb")}
        if trace and all(op["ok"] for op in ops):
            out["layers"] = self.merge_layers(ops)
            out["layers"]["analysis.analytic_bpb"] = out["rate_bpb"]
        return out

    # -- per-layer metrics -------------------------------------------------

    def merge_layers(self, ops):
        """Sum the per-layer figures of a cycle's traced operations."""
        layers = dict.fromkeys(PER_LAYER, 0.0)
        unnamed = []
        for op in ops:
            m = spans.layer_metrics(op["spans"])
            for key, value in m["self"].items():
                layers[key] += value * op["scale"]
            for key, value in m["counts"].items():
                layers[key] = layers.get(key, 0) + value
            layers["trace.spans"] += len(op["spans"])
            unnamed.append(m["unnamed_s"] / m["wall_s"])
        layers["trace.unnamed_frac"] = max(unnamed)
        for side in ("encode", "decode"):
            busy = layers["codec.encode_s" if side == "encode"
                          else "codec.decode_walk_s"]
            symbols = layers.pop(f"codec.{side}_symbols")
            layers[f"codec.{side}_Msym_s"] = (symbols / busy / 1e6
                                             if busy else 0.0)
        layers["corpus.entropy_bpb"] = self.entropy
        return layers

    def codec_layers(self, comp, dec, container_bytes):
        layers = self.merge_layers([comp, dec])
        table_bits, blocks, analytic = 0, [], 0.0
        for name, _, _, parent, attrs in comp["spans"]:
            if name == "codec.serialize_table":
                table_bits += 8 * attrs["bytes"]
            elif name == "codec.encode":
                blocks.append(attrs)
            elif (name == spans.STATIONARY
                  and comp["spans"][parent][0] == "cli.cmd_compress"):
                analytic = attrs["mean_bits"]
        # Container layout: 10-byte header, LEB128 table length, table,
        # LEB128 block count, then per block a LEB128 length and a framed
        # stream (stream header, payload, zero padding).
        header_bits = 8 * (10 + leb128_bytes(table_bits // 8)
                           + leb128_bytes(len(blocks)))
        payload_bits = padding_bits = 0
        for b in blocks:
            header_bits += 8 * leb128_bytes(b["stream_bytes"])
            header_bits += b["payload_start"]
            payload_bits += b["payload_bits"]
            padding_bits += (8 * b["stream_bytes"] - b["payload_start"]
                             - b["payload_bits"])
        layers.update({
            "container.header_bits": header_bits,
            "container.table_bits": table_bits,
            "container.payload_bits": payload_bits,
            "container.padding_bits": padding_bits,
            "container.unaccounted_bits": 8 * container_bytes - header_bits
            - table_bits - payload_bits - padding_bits,
            "codec.payload_bpb": payload_bits / self.size,
            "analysis.analytic_bpb": analytic})
        self.table_digest = comp["info"].get("table_digest")
        return layers


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def step_time(ops, step=None):
    """Sum over the operations of one step (all steps when None) of each
    operation's median scaled time over its correct repetitions."""
    times = {}
    for op in ops:
        if step in (None, op["step"]) and op["ok"]:
            times.setdefault(op["slot"], []).append(op["scaled_s"])
    return sum(map(statistics.median, times.values())) if times else None


def run_workload(name, seed, seconds, trace, spec=None, fault=None,
                 echo=print):
    """Run one workload for ``seconds``; return the result object."""
    spec = spec or WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        run = Run(seed, spec, fault, workdir)
        echo(f"workload {name}: seed {seed}, {run.size} input bytes, "
             f"sha256 {run.corpus_sha}, entropy {run.entropy:.6f} bits/byte")
        deadline = time.monotonic() + seconds
        cycles, untraced = [], []
        while True:
            if trace:
                untraced.append(run.cycle(False))
            cycles.append(run.cycle(bool(trace)))
            echo(f"cycle {len(cycles)}: " + ", ".join(
                f"{op['slot']} {op['wall_s']:.4f} s (scale {op['scale']:.3f})"
                for op in cycles[-1]["ops"] if op["ok"]))
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    ops = [op for c in untraced + cycles for op in c["ops"]]
    failed = [op for op in ops if not op["ok"]]
    for op in failed[:5]:
        echo(f"FAILED {op['slot']}: {op['error'].strip().splitlines()[-1]}")
    echo("host: " + " ".join(f"{k}={v}" for k, v in
                             dict(host(), numpy=run.numpy).items()))
    if trace:
        metrics = traced_metrics(cycles, untraced)
        if run.table_digest:
            echo(f"table_digest: {run.table_digest}")
    else:
        metrics = end_to_end_metrics(cycles, ops)
        echo_user_metrics(echo, name, run, metrics, len(failed), len(ops))
    sha = next((c["container_sha"] for c in cycles
                if c.get("container_sha")), None)
    if sha:
        echo(f"container sha256: {sha}")
    echo(f"cycles: {len(cycles)}, operations: {len(ops)}, "
         f"failed: {len(failed)}")
    units = PER_LAYER if trace else END_TO_END
    return {"correct": not failed, "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


def end_to_end_metrics(cycles, ops):
    return {
        "setup_s": median(op.get("scaled_setup_s") for op in ops),
        "step1_s": step_time(ops, 1),
        "step2_s": step_time(ops, 2),
        "peak_rss_MB": median(max(op.get("peak_rss_MB", 0.0)
                                  for op in c["ops"]) for c in cycles),
        "rate_bpb": median(c["rate_bpb"] for c in cycles),
    }


def traced_metrics(cycles, untraced):
    layered = [c["layers"] for c in cycles if "layers" in c]
    metrics = {k: median(layers[k] for layers in layered)
               for k in PER_LAYER}
    traced = [dict(op, scaled_s=op["scale"]
                   * spans.layer_metrics(op["spans"])["wall_s"])
              for c in cycles for op in c["ops"] if op["ok"]]
    metrics["trace.wall_s"] = step_time(traced)
    metrics["trace.untraced_wall_s"] = step_time(
        [op for c in untraced for op in c["ops"]])
    if metrics["trace.wall_s"] and metrics["trace.untraced_wall_s"]:
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                          / metrics["trace.untraced_wall_s"]
                                          - 1.0)
    metrics["trace.unnamed_frac"] = max(
        (layers["trace.unnamed_frac"] for layers in layered), default=None)
    return metrics


def echo_user_metrics(echo, name, run, metrics, n_failed, n_ops):
    """Print the end-to-end figures a user reads, under their usual names."""
    step1, step2, setup = (metrics[k] or math.nan
                           for k in ("step1_s", "step2_s", "setup_s"))
    mb = run.size / 1e6
    if "sweep" in run.spec:
        lines = [("certify_s", step1 + step2, "s")]
    else:
        lines = [("compress_MBps", mb / step1, "MB/s"),
                 ("decompress_MBps", mb / step2, "MB/s"),
                 ("container_bpb", metrics["rate_bpb"], "bits/byte")]
    lines += [("setup_s", setup, "s"),
              ("peak_rss_MB", metrics["peak_rss_MB"] or math.nan, "MB"),
              ("failed_frac", n_failed / n_ops, "ratio")]
    for key, value, unit in lines:
        echo(f"{name} {key} = {value:.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aeds" / "__init__.py").is_file():
        print(f"error: no aeds package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
