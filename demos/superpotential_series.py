"""The self-similar superpotential from its power series, and beyond.

Walks through the series recursion at the three interesting corners of the
deformation range: q = 1 collapses to a single linear term (harmonic), q = 0
reproduces the Taylor series of tanh (the one-soliton well), and 0 < q < 1
gives a finite convergence radius, past which the evaluator integrates the
delayed-argument form of the defining equation outward. Run with

    python demos/superpotential_series.py
"""

import numpy as np

from siqm import SelfSimilarW, series_coefficients

print("=== series coefficients ===")
for q in (1.0, 0.0, 0.5):
    sc = series_coefficients(q, 1.0, 8)
    print(f"q = {q}: c_0..c_4 =", np.array2string(sc.coeffs[:5], precision=8))
print("tanh reference:  [1, -1/3, 2/15, -17/315, 62/2835] =",
      np.array2string(np.array([1, -1/3, 2/15, -17/315, 62/2835]), precision=8))

print()
print("=== convergence radius grows toward the harmonic limit ===")
for q in (0.0, 0.3, 0.5, 0.7, 0.9, 0.99):
    rho = series_coefficients(q, 1.0, 60).radius_estimate
    print(f"q = {q:4}: radius ~ {rho:8.3f}" + ("  (pi/2 expected)" if q == 0 else ""))

print()
print("=== continuation past the radius: saturation of W ===")
# c0 chosen so the remainder is R = (1+q) c0 = 1, matching c*a1 = 1
q = 0.5
sc = series_coefficients(q, 1.0 / (1 + q), 60)
eng = SelfSimilarW(sc)
winf = eng.w_infinity
print(f"q = {q}: series radius {sc.radius_estimate:.3f}, "
      f"saturation value W_inf = sqrt(R/(1-q)) = {winf:.6f}")
xs = np.array([1.0, 2.0, 5.0, 10.0, 20.0, 40.0])
for x, w in zip(xs, eng.w(xs)):
    print(f"  W({x:5.1f}) = {w:.8f}   (W_inf - W) * x^2 = {(winf - w) * x * x:7.3f}")
print("the tail approaches W_inf like 1/x^2: the potential is long-ranged,")
print("which is how it supports infinitely many bound states below threshold")

print()
print("=== the defining functional-differential equation holds everywhere ===")
xs = np.linspace(0.1, 25, 200)
print(f"max residual of W^2 + W' - q W(sx)^2 + q W'(sx) - R on (0, 25]: "
      f"{np.max(eng.defining_residual(xs)):.2e}")
