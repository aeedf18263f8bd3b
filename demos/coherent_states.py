"""Coherent states: two coefficient routes, defining properties, partial norms.

The recursive route divides by products of level differences; the closed
route uses the q-shifted factorial with the q^{-n(n-1)/4} prefactor. They
agree to rounding. The eigenvalue and derivative conditions are verified
with the lowering action appropriate to chain-built states (matrix elements
are ratios of the ladder normalization factors, which reduce to sqrt(E_n)
in the equal-spacing limit). Partial norms illustrate why the q < 1 state
is treated as a formal truncated object: the coefficients eventually grow
super-geometrically, so there is no norm to converge to.
"""

import numpy as np

from siqm import (coherent_closed_scaling,
                  coherent_property_residuals, coherent_recursive,
                  energy_levels, SelfSimilar)

fam = SelfSimilar(q=0.5, c=1.0, a1=1.0)
# one table of normalization products N_0 .. N_24; each state reads its first N
norms = energy_levels(fam, 24).norms(25)

print("=== coefficients at z = 1 (q = 0.5, R1 = 1) ===")
rec = coherent_recursive(norms[:8], 1.0)
clo = coherent_closed_scaling(0.5, 1.0, 1.0, 8)
print("  n   recursive        closed")
for n in range(8):
    print(f"  {n}   {rec[n].real:14.10f}   {clo[n].real:14.10f}")
rec21 = coherent_recursive(norms[:21], 1.0)
clo21 = coherent_closed_scaling(0.5, 1.0, 1.0, 21)
print(f"  max relative difference (n < 21): "
      f"{np.max(np.abs(rec21 - clo21) / np.abs(rec21)):.2e}")

print()
print("=== defining properties at z = 0.3, N = 20 ===")
h = coherent_recursive(norms[:20], 0.3)
eig, der = coherent_property_residuals(norms[:20], 0.3, h)
print(f"  eigenvalue condition residual   {eig:.2e}")
print(f"  derivative condition residual   {der:.2e}")

print()
print("=== partial norms: the truncated object does not converge for q < 1 ===")
for N in (6, 10, 14, 18, 22, 25):
    pn = np.linalg.norm(coherent_recursive(norms[:N], 1.0))
    print(f"  N = {N:2d}: partial norm = {pn:.4e}")
print("each extra term eventually multiplies the norm by z q^{-(n-1)/2}/sqrt(E_n),")
print("which exceeds 1 for large n at any z != 0")

print()
print("=== the equal-spacing limit recovers oscillator coefficients ===")
import math
cc = coherent_closed_scaling(1 - 1e-6, 1.0, 1.0, 10)
ref = np.array([1 / math.sqrt(math.factorial(n)) for n in range(10)])
print(f"  max |h_n - 1/sqrt(n!)| at q = 1 - 1e-6: "
      f"{np.max(np.abs(cc.real - ref)):.2e}")
