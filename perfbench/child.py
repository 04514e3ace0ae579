"""One timed operation in a fresh interpreter.

    python3 perfbench/child.py TASK.json SPAWN_TIME

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is system-wide on Linux, so the difference to
the moment ``import aeds.cli`` returns is the set-up time a fresh user pays.
The task names the operation (one ``aeds.cli.main`` call, or the
certification of one table family) and whether to trace it.  A fixed
reference loop is timed right before and right after the operation.  The
result, with the child's own peak RSS, goes to the file the task names.
"""

import time

import contextlib
import io
import json
import os
import resource
import sys
import traceback

import aeds
import aeds.cli

SETUP_S = time.monotonic() - float(sys.argv[2])

import numpy  # noqa: E402  (already loaded by aeds; read for its version)

import spans  # noqa: E402


def certify(task):
    """Certify one table family on the corpus distribution: build it, solve
    its chain, check its bound and, for the state-divided tables, cross-check
    the rate by Monte Carlo.  Returns (checks, info, table); every check is
    (name, passed, value).  The table is returned so that freeing it falls
    outside the timed call, as it does for a CLI call that ends the
    process."""
    cfg, family = task["sweep"], task["family"]
    p = aeds.model.validate_distribution(
        [(b, c) for b, c in enumerate(task["counts"]) if c])
    n = cfg["large_n_states"] if family == "large-n" else cfg["states"]
    counts = aeds.tans.quantize_counts(p, n)
    checks, extra = [], {}
    if family == "case2":
        table = aeds.constructors.build_saeds_case2(p, counts)
    elif family == "case3":
        table = aeds.constructors.build_saeds_case3(p, counts)
        via_tans = aeds.tans.tans_to_aeds(aeds.tans.build_tans(p, n))
        digest = aeds.codec.table_digest(table)
        checks.append(("tans_equals_case3",
                       aeds.codec.table_digest(via_tans) == digest, digest))
    else:
        table, extra["layout"] = aeds.constructors.build_large_n(p, counts)
    rep = aeds.analysis.stationary_distribution(table, p)
    checks.append(("residual", rep.residual <= 1e-10, rep.residual))
    views = abs(rep.mean_bits_encoder_view - rep.mean_bits_decoder_view)
    checks.append(("views_agree", views <= 1e-9, views))
    bound = aeds.analysis.check_bound(table, p, family, report=rep, **extra)
    checks.append(("bound", bound.holds, bound.slack))
    if family != "large-n":
        est = aeds.analysis.monte_carlo_rate(table, p, cfg["mc_symbols"],
                                             task["seed"])
        z = (est.bits_per_symbol - rep.mean_bits) / est.stderr
        checks.append(("monte_carlo_4se", abs(z) <= 4.0, z))
    return checks, {"analytic_bpb": rep.mean_bits}, table


def reference_s():
    """Fastest of three timings of a fixed pure-Python loop: how fast the
    host runs interpreted code at this moment."""
    best, table = float("inf"), list(range(256))
    for _ in range(3):
        start, acc = time.perf_counter(), 0
        for i in range(100_000):
            acc = (acc + table[i & 255] * i) & 0xFFFF
        best = min(best, time.perf_counter() - start)
    return best


def _flip_restored_byte():
    """Fault injection: flip one restored byte after the container's CRC
    has been checked, so only the benchmark's own comparison can catch it."""
    original = aeds.cli.read_container

    def read_container(blob, side_table=None, sink=None):
        first = [True]

        def flipping_sink(piece):
            if first[0] and piece:
                first[0] = False
                piece = bytes([piece[0] ^ 1]) + piece[1:]
            sink(piece)
        return original(blob, side_table, flipping_sink)
    aeds.cli.read_container = read_container


def _skew_monte_carlo():
    """Fault injection: report every Monte Carlo rate one bit too high."""
    original = aeds.analysis.monte_carlo_rate

    def monte_carlo_rate(*args, **kwargs):
        est = original(*args, **kwargs)
        return type(est)(est.bits_per_symbol + 1.0, est.stderr, est.symbols,
                         est.batches)
    aeds.analysis.monte_carlo_rate = monte_carlo_rate


FAULTS = {"flip-restored-byte": _flip_restored_byte,
          "skew-monte-carlo": _skew_monte_carlo}


def run(task):
    result = {"setup_s": SETUP_S, "numpy": numpy.__version__,
              "error": None, "rc": None, "info": {}}
    if not os.path.realpath(aeds.__file__).startswith(
            os.path.realpath(task["src"]) + os.sep):
        raise RuntimeError(f"imported aeds from {aeds.__file__}, "
                           f"not from {task['src']}")
    if task.get("fault"):
        FAULTS[task["fault"]]()
    recorder = None
    if task["trace"]:
        recorder = spans.Recorder()
        recorder.install(aeds)
    root = recorder.span("op") if recorder else contextlib.nullcontext()
    out, err = io.StringIO(), io.StringIO()
    result["reference_before_s"] = reference_s()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            with root:
                if task["op"] == "certify":
                    checks, info, _table = certify(task)
                else:
                    result["rc"] = aeds.cli.main(task["argv"])
            result["wall_s"] = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.uninstall()
    result["reference_after_s"] = reference_s()
    if task["op"] == "certify":
        result["rc"] = 0 if all(ok for _, ok, _ in checks) else 1
        result["checks"] = [[name, bool(ok), value if isinstance(value, str)
                             else float(value)] for name, ok, value in checks]
        result["info"] = info
    result["stdout"] = out.getvalue()[-2000:]
    result["stderr"] = err.getvalue()[-2000:]
    if recorder is not None:
        result["spans"] = recorder.spans
        table = recorder.kept.get("cli.build_table")
        if table is not None:
            result["info"]["table_digest"] = aeds.codec.table_digest(table)
    return result


def main():
    with open(sys.argv[1]) as fh:
        task = json.load(fh)
    try:
        result = run(task)
    except Exception:
        result = {"setup_s": SETUP_S, "error": traceback.format_exc(),
                  "rc": None}
    result["peak_rss_MB"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss * 1024 / 1e6)
    with open(task["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
