"""Every commutation relation as a number: the operator algebra, verified.

Two faithful representations are exercised. The parameter lattice stacks
x-wavefunctions over the chain a_{k+1} = q^k a_1 and realizes the shift
operator, the ladder pair, their sqrt(q)-scaled versions, the q-deformed
oscillator pair, and the level-counting generator, so each relation becomes
a block identity with a measurable residual. The truncated ladder matrices
on the energy basis carry the inverse/isometry identities. Residuals split
cleanly into two classes: relations that hold by index bookkeeping alone
come out at rounding level, relations that encode the factorization
condition carry the superpotential solver's accuracy (~1e-8).
"""

from siqm import (RELATIONS, adjoint_pair_residual, commutator_residual,
                  dilation_identity_residual, energy_levels, Grid,
                  matrix_identities, SelfSimilar)
from siqm.cli import MATRIX_TOL

fam = SelfSimilar(q=0.5, c=1.0, a1=1.0)
grid = Grid(-15, 15, 3001)

print("=== lattice relations at q = 0.5 (window K = 12, interior levels) ===")
for rel in RELATIONS:
    res = commutator_residual(rel, fam, grid=grid, window=12)
    kind = "bookkeeping" if res < 1e-12 else "factorization"
    print(f"  {rel:28s} {res:9.2e}   [{kind}]")

print()
print("=== adjoint pairs on the lattice ===")
for pair in ("B", "K", "S"):
    print(f"  ({pair}+, {pair}-): {adjoint_pair_residual(fam, grid, 10, pair):.2e}")

print()
print("=== dilation-conjugated forms of the deformed factorization ===")
r3 = dilation_identity_residual(fam, grid, "yy3")
r6 = dilation_identity_residual(fam, grid, "yy6")
print(f"  A A+ - q A+(sx) A(sx) = R   residual {r3:.2e}")
print(f"  C C+ - q C+ C = R           residual {r6:.2e}")
print(f"  (the same identity twice: |difference| = {abs(r3 - r6):.1e})")

print()
print("=== truncated ladder matrices, N = 20 ===")
rep = matrix_identities(energy_levels(fam, 21), 20)
for key, dev in rep.items():
    print(f"  {key:28s} {dev:9.2e}   pass={dev <= MATRIX_TOL}")
