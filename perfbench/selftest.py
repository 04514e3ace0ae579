"""Self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metric names and units that
BENCHMARK.json declares, in both modes; that bit accounting closes; that
the deterministic metrics repeat exactly at one seed; that corpora
regenerate byte-identically; and that injected faults (a flipped restored
byte, a skewed Monte Carlo rate) are counted as failures, so the
correctness gate is not vacuous.  Exits 1 on the first failed check.
"""

import json
import math
import sys

import corpus
import run

TINY = {
    "stream-type2": dict(run.WORKLOADS["stream-type2"], corpus_bytes=5000),
    "table-large-n": dict(run.WORKLOADS["table-large-n"], corpus_bytes=4000,
                          argv=["--codec", "large-n", "--states", "256"]),
    "rate-certify": dict(run.WORKLOADS["rate-certify"], corpus_bytes=4000,
                         figures=("delta-type2", "largeN-sweep"),
                         sweep={"states": 256, "large_n_states": 512,
                                "mc_symbols": 10 ** 5}),
}

DETERMINISTIC = ("container.header_bits", "container.table_bits",
                 "container.payload_bits", "container.padding_bits",
                 "codec.payload_bpb", "analysis.analytic_bpb",
                 "corpus.entropy_bpb", "codec.table_bytes",
                 "model.table_init_cells", "analysis.stationary_calls")


def check(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def tiny_run(name, trace, seed=corpus.DEFAULT_SEED, fault=None):
    return run.run_workload(name, seed, 0, trace, spec=TINY[name],
                            fault=fault, echo=lambda line: None)


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    check(set(run.WORKLOADS) == {w["name"] for w in declared["workloads"]},
          "workload names match BENCHMARK.json")
    for key, units in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        check({m["name"]: m["unit"] for m in declared[key]} == units,
              f"{key} names and units match BENCHMARK.json")

    for seed in (corpus.DEFAULT_SEED, corpus.HELDOUT_SEED):
        for name, spec in run.WORKLOADS.items():
            a = spec["corpus"](seed, 4096)
            check(a == spec["corpus"](seed, 4096)
                  and a != spec["corpus"](seed + 1, 4096),
                  f"{name} corpus is a function of seed {seed}")

    for name in TINY:
        plain = tiny_run(name, 0)
        check(plain["correct"] and plain["failed"] == 0
              and plain["attempted"] >= 1, f"{name}: untraced run passes")
        check(set(plain["metrics"]) == set(run.END_TO_END)
              and all(plain["metrics"][k]["unit"] == u
                      for k, u in run.END_TO_END.items()),
              f"{name}: every end-to-end metric emitted with its unit")
        check(all(math.isfinite(m["value"]) and m["value"] > 0
                  for m in plain["metrics"].values()),
              f"{name}: end-to-end values are positive")
        check(plain["metrics"]["rate_bpb"]
              == tiny_run(name, 0)["metrics"]["rate_bpb"],
              f"{name}: rate_bpb repeats exactly")

        traced = tiny_run(name, 1)
        again = tiny_run(name, 1)
        layers = traced["metrics"]
        check(traced["correct"] and set(layers) == set(run.PER_LAYER)
              and all(layers[k]["unit"] == u
                      for k, u in run.PER_LAYER.items()),
              f"{name}: every per-layer metric emitted with its unit")
        check(all(isinstance(m["value"], (int, float))
                  for m in layers.values()),
              f"{name}: per-layer values are numbers")
        if "argv" in TINY[name]:
            check(layers["container.unaccounted_bits"]["value"] == 0
                  and layers["container.payload_bits"]["value"] > 0,
                  f"{name}: header, table, payload and padding bits sum to "
                  "the container size")
        check(all(layers[k]["value"] == again["metrics"][k]["value"]
                  for k in DETERMINISTIC),
              f"{name}: deterministic metrics repeat exactly")

    for name, fault in (("stream-type2", "flip-restored-byte"),
                        ("table-large-n", "flip-restored-byte"),
                        ("rate-certify", "skew-monte-carlo")):
        bad = tiny_run(name, 0, fault=fault)
        check(not bad["correct"] and bad["failed"] > 0,
              f"{name}: injected fault {fault} counts as a failure "
              f"({bad['failed']}/{bad['attempted']})")
    print("selftest passed")


if __name__ == "__main__":
    main()
