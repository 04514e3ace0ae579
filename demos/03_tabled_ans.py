"""The tabled-ANS special case and its embedding into a generic table.

tANS drives the same backward/forward scheme with integer states N..2N-1
and an arithmetic update: pushing symbol s at state x emits the low k bits
of x, with k = floor(lg(x / N_s)), and moves to state C[s][(x >> k) - N_s].
Rewriting each (state, symbol) step as an explicit table entry gives a
generic table; for the sorted spread that table is the case-3
state-divided layout, bit for bit.
"""

import random

from aeds import (
    build_saeds_case3,
    build_tans,
    decode,
    encode,
    monte_carlo_rate,
    table_digest,
    tans_to_aeds,
    validate_distribution,
)

p = validate_distribution([("a", 0.5), ("b", 0.25), ("c", 0.25)])
native = build_tans(p, 8)
print("per-symbol state counts at N=8:", list(native.counts))
for s, ns, block in zip(p.symbols, native.counts, native.C):
    print(f"C[{s}] for slots y = {ns}..{2 * ns - 1}: {list(block)}")

converted = tans_to_aeds(native)
print("\nthe same pushes as table entries, state x = 8 + i:")
for i, row in enumerate(converted.encoder):
    cells = "  ".join(f"{s}: {w.bits or '-':>2} -> {8 + nxt:2d}"
                      for s, (w, nxt) in zip(p.symbols, row))
    print(f"  x={8 + i:2d}  {cells}")
case3 = build_saeds_case3(p, native.counts)
print("\nequals the case-3 table  :",
      table_digest(converted) == table_digest(case3))

rng = random.Random(7)
seq = rng.choices(p.symbols, weights=p.probs, k=40)
stream = encode(converted, seq)
print("\nstream payload           :", stream.payload_bits())
print("decodes to the input     :", decode(converted, stream) == seq)

est = monte_carlo_rate(converted, p, 10 ** 6, seed=42)
print(f"\nmillion-symbol rate      : {est.bits_per_symbol:.6f} bits/symbol "
      f"(entropy is exactly 1.5)")
