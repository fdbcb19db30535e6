#!/usr/bin/env python3
"""Growth sequences, complex phase grids, and the two-field experiment.

Three mini-studies:
1. The normalized growth sequence g_k = c^{-k} max ||products|| decides
   whether an absolute norm with ||A|| <= c can exist at all.
2. For complex matrices the diagonal group is continuous; a phase grid
   of q-th roots of unity gives certified lower bounds that improve
   with q (upper bounds over a grid are only heuristic).
3. Induced norms of a real matrix over R versus over C (for the
   complexified absolute norm): the sampled gap for weighted l_p norms.
"""

import numpy as np

from absnorm import (
    GrowthQuery,
    WeightedLpNorm,
    check_growth_condition,
    complexify_gap_search,
    mu_lower_bound,
)

sharp = np.array([[1.0, 1.0], [-1.0, -1.0]])

print("=== growth sequences for A = [[1,1],[-1,-1]] (mu = 2) ===")
for level in (0.5, 2.5):
    report = check_growth_condition(sharp, GrowthQuery(eps=None, m=6, level=level))
    print(f"threshold c = {level}: verdict = {report.verdict}")
    print("  g_k:", [f"{g:.4g}" for g in report.sequence])
print()

print("=== complex phase grids ===")
z = np.array([[1.0, 1.0j], [1.0, -1.0]])
for q in (2, 4, 8, 16):
    value, _ = mu_lower_bound(z, max_depth=3, grid_q=q)
    print(f"grid q = {q:>2}: certified lower bound on mu = {value:.12f}")
print()

print("=== real vs complex induced norms (sampled) ===")
rng = np.random.default_rng(0)
a = rng.standard_normal((3, 3))
for p, label in ((1.0, "l1"), (2.0, "l2"), (np.inf, "linf")):
    norm = WeightedLpNorm(rng.random(3) + 0.3, p)
    g = complexify_gap_search(a, norm, trials=500, seed=1)
    print(
        f"weighted {label:>4}: real sup = {g.real_sup:.9f}, "
        f"complex sup = {g.complex_sup:.9f}, gap = {g.gap:.2e}"
    )
print()
print("For p in {1, inf} the induced norms coincide over both fields by the")
print("closed-form row/column formulas; the sampled gap is zero up to")
print("roundoff.  Whether the gap vanishes for EVERY absolute norm is open;")
print("the search only gathers evidence, it cannot settle the question.")
