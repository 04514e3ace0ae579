"""End-to-end file compression through the command-line entry point.

Generates a skewed byte file, compresses it with the five-state layout,
restores it, and shows the automatic fallback to plain prefix coding when
the tree offers no reduction.
"""

import pathlib
import random
import tempfile

from aeds.cli import main

with tempfile.TemporaryDirectory(prefix="aeds-demo-") as tmp:
    work = pathlib.Path(tmp)
    rng = random.Random(2)
    data = bytes(rng.choices(b"abcdef", weights=[35, 15, 15, 15, 10, 10],
                             k=200_000))
    src = work / "sample.dat"
    src.write_bytes(data)

    print("== compress (five-state layout) ==")
    main(["compress", "--input", str(src),
          "--output", str(work / "sample.aedc"), "--codec", "type2"])

    print("\n== decompress ==")
    main(["decompress", "--input", str(work / "sample.aedc"),
          "--output", str(work / "sample.back")])
    print("byte-exact restore:", (work / "sample.back").read_bytes() == data)

    print("\n== uniform bytes trigger the prefix-code fallback ==")
    uniform = work / "uniform.dat"
    uniform.write_bytes(bytes(range(256)) * 64)
    main(["compress", "--input", str(uniform),
          "--output", str(work / "uniform.aedc"), "--codec", "type1",
          "--states", "2"])

    print("\n== analytic series as CSV ==")
    main(["figures", "--figure", "table1", "--csv", str(work / "table1.csv")])
    print("first rows:")
    for line in (work / "table1.csv").read_text().splitlines()[:4]:
        print("  ", line)
