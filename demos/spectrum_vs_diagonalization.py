"""Remainder-sum spectra cross-checked against grid diagonalization.

The ladder route needs nothing but the parameter chain: E_n is the partial
sum of remainders. The oracle route knows nothing about the algebra: it
samples W, builds -d2/dx2 + W^2 - W' and diagonalizes. The two agree to the
oracle's discretization accuracy whenever the box actually contains the
states. The box study shows how the slowly-decaying self-similar potential
punishes a box that is too small: levels near the threshold sit in the
1/x^2 tail, with classical turning points near x = 24 for n = 6. The oracle
warns when a state still has weight at the wall; the study prints that
check per box and stops at the first box, doubling from [-15, 15], on
which it is silent.
"""

import warnings

import numpy as np

from siqm import (BoundaryDecayWarning, Grid, energy_levels,
                  fd_diagonalize, Harmonic, Morse,
                  SelfSimilar)

warnings.filterwarnings("ignore", category=BoundaryDecayWarning)

print("=== harmonic fixture (lambda = 1): E_n = 2 n ===")
fam = Harmonic(a1=1.0)
e_fd, _ = fd_diagonalize(fam, Grid(-10, 10, 2001), 5)
tab = energy_levels(fam, 4)
for n in range(5):
    print(f"  n={n}: ladder {tab.levels[n]:8.5f}  oracle {e_fd[n]:11.8f}")

print()
print("=== Morse fixture (A = 2.5): E_n = A^2 - (A-n)^2, three bound levels ===")
fam = Morse(a1=2.5)
e_fd, _ = fd_diagonalize(fam, Grid(-5, 32, 3701), 3)
tab = energy_levels(fam, 2)
for n in range(3):
    print(f"  n={n}: ladder {tab.levels[n]:8.5f}  oracle {e_fd[n]:11.8f}")

print()
def oracle_with_walls(fam, half, k):
    """Oracle levels and states on [-half, half] at h = 0.01, plus wall warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BoundaryDecayWarning)
        e_fd, states = fd_diagonalize(fam, Grid(-half, half, 200 * half + 1), k)
    return e_fd, states, [w for w in caught
                          if issubclass(w.category, BoundaryDecayWarning)]


print("=== oracle-domain study: box size vs near-threshold accuracy ===")
print("levels accumulate at E_inf = 2 and live in the 1/x^2 tail, so the")
print("oracle needs a wide box for n >= 4. Containment rule (acceptance")
print("criterion 1): double the half-width from 15 until the oracle's wall")
print("check is silent for all 7 states. Errors |E_fd - E_ladder|, h = 0.01:")
fam = SelfSimilar(q=0.5, c=1.0, a1=1.0)
tab = energy_levels(fam, 6)
print("  box          n=3        n=4        n=5        n=6     wall check")
half = 15
while True:
    e_fd, states, walls = oracle_with_walls(fam, half, 7)
    errs = np.abs(e_fd - tab.levels)
    top = states[-1]
    wall = ("silent" if not walls else
            f"warns for {len(walls)} of 7; state 6 wall weight "
            f"{max(abs(top[0]), abs(top[-1])):.1e}")
    print(f"  [{-half:4},{half:4}]  "
          + "  ".join(f"{errs[n]:.3e}" for n in (3, 4, 5, 6)) + f"  {wall}")
    if not walls or half >= 240:
        break
    half *= 2
print("the classical turning point of level n sits near x = sqrt(C/(E_inf - E_n))")
print("with C ~ 20, i.e. x ~ 24 for n = 6: a [-15, 15] box confines the state")
print("by its walls instead of the potential and shifts the level upward.")

print()
print(f"=== self-similar (q = 0.5, c a1 = 1) on [-{half}, {half}]: "
      "E_n = (1 - q^n)/(1 - q) ===")
for n in range(7):
    print(f"  n={n}: ladder {tab.levels[n]:10.8f}  oracle {e_fd[n]:11.9f}  "
          f"err {abs(tab.levels[n] - e_fd[n]):.1e}")
