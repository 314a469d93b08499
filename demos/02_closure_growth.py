#!/usr/bin/env python3
"""How informationally closed does the counter get, and how fast?

Full-past closure at time t is the count entropy minus the entropy of one
observation.  The count entropy keeps growing as more counts become possible,
while the transfer-entropy term stays constant, so the counter's closure
diverges -- it predicts ever more about its own future from its own state,
but the constant inflow from the data never dries up.  A deterministic data
process is the degenerate exception: nothing to learn, closure pinned at 0.

Run:  python3 demos/02_closure_growth.py
"""

import math

from infoclosure import (
    CategoricalParam,
    count_entropy,
    ntic,
    one_step_ntic,
    one_step_pointwise_ntic,
    symbol_entropy,
)

COLS = "{:>3} {:>12} {:>12} {:>12} {:>12}"

for probs in ((0.5, 0.5), (0.2, 0.8), (1.0, 0.0)):
    phi = CategoricalParam(probs)
    print(f"phi = {probs}")
    print(COLS.format("t", "closure", "mi term", "te term", "one-step"))
    for t in range(1, 11):
        print(
            COLS.format(
                t,
                f"{ntic(phi, t):.6f}",
                f"{count_entropy(phi, t):.6f}",
                f"{symbol_entropy(phi):.6f}",
                f"{one_step_ntic(phi, t):.6f}",
            )
        )
    print()

print("The fair coin's two-step closure is exactly half of ln 2:")
print("  value        =", ntic(CategoricalParam((0.5, 0.5)), 2))
print("  0.5 * ln(2)  =", 0.5 * math.log(2))
print()

print("Pointwise one-step closure only sees relative frequency of the last symbol:")
for traj in ((0,), (0, 1, 0), (0, 0, 1), (1, 1, 1, 1)):
    print(f"  trajectory {traj}: {one_step_pointwise_ntic(traj):+.6f}")
print("(always <= 0, and 0 exactly when the last symbol fills the sequence)")
