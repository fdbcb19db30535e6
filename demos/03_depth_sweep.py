#!/usr/bin/env python3
"""Watching the certified interval for mu(A) tighten with search depth.

Lower bounds come from spectral radii of diagonal-word products, upper
bounds from product norms; both are certified at every finite depth.
The matrix here is a generic 3x3 with mixed signs, so no shortcut
applies and the interval closes only through search.
"""

import numpy as np

from absnorm import entrywise_abs, mu_bounds, spectral_radius, word_to_json

a = np.array(
    [
        [0.9, -0.6, 0.3],
        [0.2, 0.5, -0.8],
        [-0.4, 0.1, 0.7],
    ]
)

print("rho(A)   =", spectral_radius(a))
print("rho(|A|) =", spectral_radius(entrywise_abs(a)))
print()
print(f"{'depth':>5} {'lower':>18} {'upper':>18} {'width':>12} {'nodes':>9}")
for depth in range(1, 9):
    r = mu_bounds(a, max_depth=depth, use_shortcut=False)
    print(
        f"{depth:>5} {r.lower:>18.12f} {r.upper:>18.12f}"
        f" {r.upper - r.lower:>12.3e} {r.nodes_visited:>9}"
    )

final = mu_bounds(a, max_depth=8, use_shortcut=False)
print()
print("witness word at depth 8  :", word_to_json(final.lower_witness))
print("lower bounds never decrease, upper bounds never increase, and")
print("mu(A) lives in every printed interval.")
