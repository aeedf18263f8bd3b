"""Driving the ground state: when does it evolve into a coherent state?

A drive with phases rotating at the base remainder frequency admits a
closed-form evolution operator whenever the ladder commutator is a plain
number. That happens in the equal-spacing case (q = 1): under the phase
convention that makes the interaction picture cancel, direct integration
and the closed form agree to integrator accuracy, and the end state is a
textbook coherent state. At q = 0.5 the commutator is operator-valued: the
closed form is only approximate, and the final state is measurably not an
eigenstate of the lowering matrix sqrt(E_n) B- that drives it: its overlap
with that matrix's eigenstate at the moment-fitted z is about 0.992.
"""

from siqm import DriveProfile, energy_levels, evolve_forced, SelfSimilar

drive = DriveProfile.parse("const:0.1")

print("=== q = 1 (equal spacing): the closed form is exact ===")
tab1 = energy_levels(SelfSimilar(q=1.0, c=1.0, a1=1.0), 23)
for sign in ("conjugate", "paper"):
    ev = evolve_forced(tab1, drive, t_max=5.0, dt=0.002, sign_convention=sign)
    print(f"  phase convention {sign:9s}: final overlap with closed form = "
          f"{ev.final_overlap:.12f}, norm drift {ev.norm_drift:.1e}")
print("the conjugate convention realizes the interaction-picture cancellation;")
print("the phases as printed leave an e^{2 i R1 t} modulation behind")

ev1 = evolve_forced(tab1, drive, t_max=5.0, dt=0.002)
z1, ov1 = ev1.best_fit_coherent()
print(f"  end state vs best-fit coherent state: overlap {ov1:.10f} "
      f"at z = {z1:.4f}")

print()
print("=== q = 0.5: the deformed algebra breaks both statements ===")
tab5 = energy_levels(SelfSimilar(q=0.5, c=1.0, a1=1.0), 23)
ev5 = evolve_forced(tab5, drive, t_max=5.0, dt=0.002)
z5, ov5 = ev5.best_fit_coherent()
print(f"  final overlap with the (now approximate) closed form: "
      f"{ev5.final_overlap:.6f}")
print(f"  end state vs best-fit coherent state: overlap {ov5:.6f} "
      f"at z = {z5:.4f}")
print(f"  norm drift of the direct integration: {ev5.norm_drift:.1e}")

print()
print("=== deviation of the closed form as a function of q ===")
for q in (1.0, 0.9, 0.7, 0.5, 0.3):
    tab = energy_levels(SelfSimilar(q=q, c=1.0, a1=1.0), 23)
    ev = evolve_forced(tab, drive, t_max=5.0, dt=0.002)
    print(f"  q = {q:3}: overlap(direct, closed) = {ev.final_overlap:.9f}")
