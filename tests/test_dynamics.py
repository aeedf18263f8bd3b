"""Forced-oscillator evolution: closed form vs direct integration."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from siqm import (DriveProfile, ForcedEvolution, StepInstabilityError,
                  TruncationOverflowError, coherent_recursive, energy_levels,
                  evolve_forced, Harmonic, Morse, SelfSimilar)
from siqm.dynamics import TOP_BUDGET

Q1 = SelfSimilar(q=1.0, c=1.0, a1=1.0)
Q5 = SelfSimilar(q=0.5, c=1.0, a1=1.0)


def bitwise_equal(a, b):
    """Equal bit patterns, so -0.0 and 0.0 differ as they do in the CSV."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_drive_parse_and_integral():
    const = DriveProfile.parse("const:0.1")
    assert const(3.7) == 0.1
    assert const.integral(5.0) == pytest.approx(0.5)
    pulse = DriveProfile.parse("pulse:0.2,2.0,0.5")
    ref, _ = quad(pulse, 0.0, 3.3)  # quadrature oracle for F(t)
    assert pulse.integral(3.3) == pytest.approx(ref, abs=1e-12)
    with pytest.raises(ValueError):
        DriveProfile.parse("sawtooth:1.0")


def test_no_drive_is_stationary():
    tab = energy_levels(Q1, 12)
    ev = evolve_forced(tab, DriveProfile("const", 0.0), t_max=3.0, dt=0.002)
    assert np.max(np.abs(np.abs(ev.trajectory[:, 0]) - 1.0)) < 1e-12
    assert np.min(ev.overlaps) >= 1.0 - 1e-12


def test_oscillator_closed_form_under_conjugate_phases():
    tab = energy_levels(Q1, 23)
    ev = evolve_forced(tab, DriveProfile("const", 0.1), t_max=5.0, dt=0.002,
                       sign_convention="conjugate")
    assert ev.final_overlap >= 1.0 - 1e-6
    assert ev.norm_drift <= 1e-8


def test_printed_phases_break_the_cancellation():
    tab = energy_levels(Q1, 23)
    ev = evolve_forced(tab, DriveProfile("const", 0.1), t_max=5.0, dt=0.002,
                       sign_convention="paper")
    assert ev.final_overlap < 1.0 - 1e-3


def test_oscillator_endpoint_is_coherent():
    tab = energy_levels(Q1, 23)
    ev = evolve_forced(tab, DriveProfile("const", 0.1), t_max=5.0, dt=0.002)
    _, overlap = ev.best_fit_coherent()
    assert overlap >= 1.0 - 1e-8


def test_deformed_endpoint_is_not_coherent():
    tab = energy_levels(Q5, 23)
    ev = evolve_forced(tab, DriveProfile("const", 0.1), t_max=5.0, dt=0.002)
    z_fit, overlap = ev.best_fit_coherent()
    assert overlap < 0.999
    assert abs(z_fit) > 0
    assert ev.norm_drift <= 1e-8
    # closed form is only approximate once the commutator is operator-valued
    assert ev.final_overlap < 1.0 - 1e-3


def test_gaussian_pulse_run():
    tab = energy_levels(Q1, 23)
    ev = evolve_forced(tab, DriveProfile.parse("pulse:0.2,2.0,0.5"),
                       t_max=4.0, dt=0.002)
    assert ev.final_overlap >= 1.0 - 1e-6
    assert ev.norm_drift <= 1e-8


def test_step_instability_guard():
    tab = energy_levels(Q1, 23)
    with pytest.raises(StepInstabilityError):
        evolve_forced(tab, DriveProfile("const", 0.1), t_max=1.0, dt=0.05)


def test_truncation_overflow_guard():
    tab = energy_levels(Q1, 5)
    drive = DriveProfile("const", 0.8)
    # the guard fires at the first step whose top population exceeds the budget
    traj, _ = dense_rk4(tab, drive, 5.0, 0.002, "conjugate")
    first = next(i for i, psi in enumerate(traj) if abs(psi[-1]) ** 2 > TOP_BUDGET)
    t_fire = np.linspace(0.0, 5.0, 2501)[first]
    with pytest.raises(TruncationOverflowError, match=rf"at t = {t_fire:.3f}$") as info:
        evolve_forced(tab, drive, t_max=5.0, dt=0.002)
    # a ValueError, so the CLI exits 1; the message names the remedy
    assert isinstance(info.value, ValueError)
    assert str(info.value).startswith("more levels or a weaker drive needed")


def test_zero_horizon_is_the_initial_state():
    tab = energy_levels(Q5, 4)
    ev = evolve_forced(tab, DriveProfile.parse("pulse:0.2,1.0,0.5"), t_max=0.0, dt=0.002)
    assert ev.t_grid.tolist() == [0.0]
    assert ev.trajectory.tolist() == [[1, 0, 0, 0, 0]]
    assert ev.final_overlap == 1.0


@pytest.mark.parametrize("spec", ["const:0.1", "const:-0.0", "pulse:0.25,0.5,0.3",
                                  "pulse:-0.2,2.7,1.1"])
def test_drive_on_stage_times_equals_scalar_calls(spec):
    drive = DriveProfile.parse(spec)
    t = np.linspace(0.0, 5.0, 2501)[:-1, None]
    t_stage = np.hstack((t, t + 0.002 / 2, t + 0.002))
    f = drive(t_stage)
    if drive.kind == "const":
        scalar = [[drive.f0] * 3 for _ in t]
    else:  # the per-stage expression evolve_forced evaluated before precomputing
        scalar = [[drive.f0 * np.exp(-((s - drive.t0) ** 2) / (2 * drive.sigma ** 2))
                   for s in row] for row in t_stage]
    assert bitwise_equal(f, np.array(scalar))
    assert bitwise_equal(f, np.array([[drive(s) for s in row] for row in t_stage]))
    phase = np.exp(1j * -1.0 * 1.3 * t_stage)
    assert bitwise_equal(phase, np.array([[np.exp(1j * -1.0 * 1.3 * s) for s in row]
                                          for row in t_stage]))


@pytest.mark.parametrize("spec", ["const:0.1", "const:-0.0", "pulse:0.25,0.5,0.3",
                                  "pulse:-0.2,2.7,1.1", "pulse:-0.104,1,0.5"])
def test_integral_on_an_array_equals_scalar_calls(spec):
    drive = DriveProfile.parse(spec)
    t = np.linspace(0.0, 5.0, 2501)
    assert bitwise_equal(drive.integral(t), np.array([drive.integral(s) for s in t]))


def convergence_certificate(levels, drive, t_max, dt):
    """Overlap change of the final direct state under dt -> dt/2."""
    a = evolve_forced(levels, drive, t_max, dt)
    b = evolve_forced(levels, drive, t_max, dt / 2)
    fa = a.trajectory[-1] / np.linalg.norm(a.trajectory[-1])
    fb = b.trajectory[-1] / np.linalg.norm(b.trajectory[-1])
    return float(abs(1.0 - abs(np.vdot(fa, fb))))


def test_integrator_convergence_certificate():
    tab = energy_levels(Q1, 16)
    assert convergence_certificate(tab, DriveProfile("const", 0.1),
                                   t_max=2.0, dt=0.004) <= 1e-8


def dense_matrices(levels):
    """Dense H, B+ and B- on the whole table, from its E and sqrt(E)."""
    bp = np.diag(levels.raising_weights(levels.n_max), -1)
    return np.diag(levels.levels), bp, bp.conj().T


def dense_rk4(levels, drive, t_max, dt, sign_convention):
    """Trajectory and norms of the RK4 march with the dense N x N ladder matrices."""
    h, bp, bm = dense_matrices(levels)
    sign = +1.0 if sign_convention == "paper" else -1.0
    R1 = float(levels.levels[1])

    def rhs(t, y):
        ph = np.exp(1j * sign * R1 * t)
        return -1j * (h @ y + drive(t) * (ph * (bp @ y) + np.conj(ph) * (bm @ y)))

    n_steps = int(round(t_max / dt))
    t_grid = np.linspace(0.0, n_steps * dt, n_steps + 1)
    psi = np.zeros(levels.n_max + 1, dtype=complex)
    psi[0] = 1.0
    traj = [psi]
    for t in t_grid[:-1]:
        k1 = rhs(t, psi)
        k2 = rhs(t + dt / 2, psi + dt * k1 / 2)
        k3 = rhs(t + dt / 2, psi + dt * k2 / 2)
        k4 = rhs(t + dt, psi + dt * k3)
        psi = psi + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        traj.append(psi)
    return np.array(traj), np.array([np.linalg.norm(p) for p in traj])


def closed_form(levels, drive, t_grid):
    """exp(-i E t) exp(-i F(t) (B+ + B-)) e_0, one complex expm per time point.

    The oracle for evolve_forced's real-gauge route."""
    _, bp, bm = dense_matrices(levels)
    E = levels.levels
    coupling = bp + bm
    e0 = np.zeros(levels.n_max + 1, dtype=complex)
    e0[0] = 1.0
    return np.array([np.exp(-1j * E * t) * (expm(-1j * drive.integral(t) * coupling) @ e0)
                     for t in t_grid])


# the real-gauge closed form against the complex expm oracle; measured at most
# 2.2e-16 over the cases below
CLOSED_TOL = 1e-14


def assert_matches_dense_bitwise(family, n, drive, sign, t_max):
    """RK4 trajectory and norms bitwise; the closed form within CLOSED_TOL."""
    tab = energy_levels(family, n)
    drive = DriveProfile.parse(drive)
    ev = evolve_forced(tab, drive, t_max=t_max, dt=0.002, sign_convention=sign)
    traj, norms = dense_rk4(tab, drive, t_max, 0.002, sign)
    closed = closed_form(tab, drive, ev.t_grid)
    overlaps = np.abs(np.einsum("ij,ij->i", traj.conj(), closed)) / \
        (np.linalg.norm(traj, axis=1) * np.linalg.norm(closed, axis=1))
    assert bitwise_equal(ev.trajectory, traj)
    assert bitwise_equal(ev.norms, norms)
    assert np.max(np.abs(ev.closed_trajectory - closed)) <= CLOSED_TOL
    assert np.max(np.abs(ev.overlaps - overlaps)) <= CLOSED_TOL


@pytest.mark.parametrize("family, n, drive, sign", [
    (Q1, 23, "const:0.1", "conjugate"),
    (Q1, 20, "pulse:0.25,0.5,0.3", "paper"),
    (Q5, 23, "const:0.1", "paper"),
    (SelfSimilar(q=0.7, c=1.0, a1=1.0), 18, "pulse:0.2,0.4,0.5", "conjugate"),
    (Harmonic(a1=1.3), 12, "const:0.15", "conjugate"),
    (Morse(a1=6.5), 4, "const:0.05", "paper"),
    (Harmonic(a1=1.3), 6, "const:0", "paper"),     # the closed form holds -0.0
])
def test_vector_rhs_matches_dense_matrices_bitwise(family, n, drive, sign):
    assert_matches_dense_bitwise(family, n, drive, sign, t_max=1.0)


def test_full_length_pulse_run_matches_dense_matrices_bitwise():
    # t_max = 5.0 is the CLI default, so every stage time of an evolve job is covered
    assert_matches_dense_bitwise(SelfSimilar(q=0.8, c=1.0, a1=1.0), 23,
                                 "pulse:0.2,2.5,0.8", "conjugate", t_max=5.0)


def dop853_trajectory(levels, drive, t_grid):
    """The conjugate-phase h(t) of a SpectrumTable, integrated by scipy's DOP853
    at rtol 1e-13, atol 1e-15 and read on t_grid: an integrator independent of RK4."""
    from scipy.integrate import solve_ivp
    E, w, R1 = levels.levels, levels.raising_weights(levels.n_max), levels.levels[1]

    def rhs(t, y):
        ph = np.exp(-1j * R1 * t)
        up = np.concatenate(([0.0], w * y[:-1]))      # B+ y
        down = np.concatenate((w * y[1:], [0.0]))     # B- y
        return -1j * (E * y + drive(t) * (ph * up + np.conj(ph) * down))

    y0 = np.zeros(len(E), dtype=complex)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, t_grid[-1]), y0, method="DOP853", t_eval=t_grid,
                    rtol=1e-13, atol=1e-15)
    assert sol.success
    return sol.y.T


# tolerances about 5x the measured trajectory errors 4.1e-13, 7.2e-12 and 1.0e-12
@pytest.mark.parametrize("q, n, drive, tol", [
    (0.5, 23, "const:0.1", 2e-12),
    (0.8, 24, "const:0.2", 4e-11),
    (0.5, 23, "pulse:0.5,2,0.5", 5e-12),
])
def test_q_below_one_trajectory_matches_an_independent_integrator(q, n, drive, tol):
    tab = energy_levels(SelfSimilar(q=q, c=1.0, a1=1.0), n)
    drive = DriveProfile.parse(drive)
    ev = evolve_forced(tab, drive, t_max=5.0, dt=0.002)
    ref = dop853_trajectory(tab, drive, ev.t_grid)
    assert np.max(np.abs(ev.trajectory - ref)) <= tol


def rotating_frame_trajectory(levels, f0, sign, t_grid):
    """The exact trajectory under a constant drive f0, at every q.

    D(t) = diag(e^{i s R1 n t}) conjugates the drive phases away:
    e^{i s R1 t} B+ = D B+ D^-1, and likewise B-. So psi = D phi turns h(t)
    into the static i phi' = (diag(E_n + s R1 n) + f0 (B+ + B-)) phi, whose
    real symmetric tridiagonal generator one eigh_tridiagonal diagonalizes:
    psi(t) = D(t) V e^{-i lambda t} V^T e_0.
    """
    from scipy.linalg import eigh_tridiagonal
    E, R1 = levels.levels, levels.levels[1]
    n = np.arange(len(E))
    lam, V = eigh_tridiagonal(E + sign * R1 * n, f0 * np.sqrt(E[1:]))
    phi = (np.exp(-1j * np.outer(t_grid, lam)) * V[0]) @ V.T
    return np.exp(1j * sign * R1 * np.outer(t_grid, n)) * phi


# each bound is twice the max |RK4 - exact| measured for its case at t_max 5, dt 0.002
@pytest.mark.parametrize("q, n, f0, sign_convention, measured", [
    (0.5, 23, 0.1, "conjugate", 4.1e-13),  # the CLI default
    (0.5, 23, 0.2, "conjugate", 2.0e-12),
    (0.8, 24, 0.2, "conjugate", 7.2e-12),
    (0.95, 29, 0.3, "paper", 3.1e-13),
    (1.0, 23, 0.1, "conjugate", 2.0e-12),
    (0.3, 11, 0.1, "conjugate", 2.6e-13),
])
def test_constant_drive_trajectory_matches_the_exact_rotating_frame_solution(
        q, n, f0, sign_convention, measured):
    tab = energy_levels(SelfSimilar(q=q, c=1.0, a1=1.0), n)
    ev = evolve_forced(tab, DriveProfile("const", f0), t_max=5.0, dt=0.002,
                       sign_convention=sign_convention)
    ref = rotating_frame_trajectory(tab, f0, 1.0 if sign_convention == "paper" else -1.0,
                                    ev.t_grid)
    assert np.max(np.abs(np.linalg.norm(ref, axis=1) - 1.0)) <= 2e-15
    assert np.max(np.abs(ev.trajectory - ref)) <= 2 * measured


def lowering_eigenstate(b_minus, z):
    """c with c_0 = 1 and rows 0 .. N-2 of (B- - z) c = 0, solved on the dense B-:
    a lower bidiagonal system for c_1 .. c_{N-1}."""
    shifted = b_minus - z * np.eye(len(b_minus))
    return np.append(1, np.linalg.solve(shifted[:-1, 1:], -shifted[:-1, 0]))


def overlap_with(psi, coh):
    return abs(np.vdot(psi, coh)) / (np.linalg.norm(coh) * np.linalg.norm(psi))


@pytest.mark.parametrize("family, drive", [
    (Q1, "const:0.1"),
    (SelfSimilar(q=0.8, c=1.0, a1=1.0), "pulse:0.2,0.4,0.5"),
    (Q5, "const:0.1"),
    (Harmonic(a1=1.3), "const:0.15"),
    (Harmonic(a1=1.3), "const:-0.0"),   # psi stays e_0, so z is a signed zero
])
def test_best_fit_equals_the_dense_lowering_matrix_bitwise(family, drive):
    n = 12
    tab = energy_levels(family, n)
    ev = evolve_forced(tab, DriveProfile.parse(drive), t_max=1.0, dt=0.002)
    z, overlap = ev.best_fit_coherent()
    # z bitwise as the moment of the dense B- with sqrt(E_k) above its diagonal,
    # and the comparison state as that same matrix's eigenstate
    psi = ev.trajectory[-1]
    b_minus = np.diag(tab.raising_weights(n), 1)
    z_ref = complex(np.vdot(psi, b_minus @ psi) / np.vdot(psi, psi))
    assert bitwise_equal(np.array([z.real, z.imag]), np.array([z_ref.real, z_ref.imag]))
    assert overlap == pytest.approx(overlap_with(psi, lowering_eigenstate(b_minus, z_ref)),
                                    rel=1e-14, abs=0)


def test_deformed_best_fit_is_the_eigenstate_of_the_evolution_lowering_matrix():
    # the default evolve run at q = 0.5: 23 levels, const:0.1, t_max 5, dt 0.002
    n = 23
    tab = energy_levels(Q5, n)
    ev = evolve_forced(tab, DriveProfile("const", 0.1), t_max=5.0, dt=0.002)
    z, overlap = ev.best_fit_coherent()
    assert overlap == pytest.approx(0.9917, abs=1e-4)
    w = tab.raising_weights(n)
    coh = lowering_eigenstate(np.diag(w, 1), z)
    # sqrt(E_n) c_n = z c_{n-1}: an eigenstate of the same sqrt(E_n) B- that gives z
    assert np.max(np.abs(w * coh[1:] - z * coh[:-1]) / np.abs(z * coh[:-1])) <= 1e-14
    assert overlap == pytest.approx(overlap_with(ev.trajectory[-1], coh), rel=1e-14, abs=0)


@pytest.mark.parametrize("family", [Q1, Harmonic(a1=1.3)])
def test_best_fit_at_q_1_equals_the_chain_weighted_fit(family):
    # at q = 1 the chain-weighted lowering N_n / N_{n-1} is sqrt(E_n), so z^n / N_n
    # is the same state
    tab = energy_levels(family, 12)
    ev = evolve_forced(tab, DriveProfile("const", 0.1), t_max=1.0, dt=0.002)
    z, overlap = ev.best_fit_coherent()
    psi = ev.trajectory[-1]
    assert overlap == pytest.approx(overlap_with(psi, coherent_recursive(tab.norms(13), z)),
                                    rel=1e-12, abs=0)


def test_best_fit_refuses_coefficients_outside_the_floats():
    # a coherent end state of mean occupation 1600 on 2000 levels E_n = n:
    # c_n = z^n / sqrt(n!) peaks near e^800, beyond the floats
    from math import lgamma
    n = np.arange(2000)
    psi = np.exp(n * np.log(40.0) - 800.0 - np.array([lgamma(k + 1) for k in n]) / 2)
    weights = energy_levels(Harmonic(a1=0.5), 1999).raising_weights(1999)
    ev = ForcedEvolution(DriveProfile("const", 0.0), "conjugate", np.zeros(1),
                         psi[None, :].astype(complex), psi[None, :], np.ones(1), np.ones(1),
                         weights)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="coherent coefficients overflow for z = "):
        ev.best_fit_coherent()


def test_best_fit_reads_the_weights_it_evolved_with():
    # the fit takes no table, so it cannot be handed a spectrum the run never evolved
    tab = energy_levels(Q5, 4)
    ev = evolve_forced(tab, DriveProfile("const", 0.1), t_max=0.1, dt=0.002)
    assert ev.weights.tobytes() == tab.raising_weights(4).tobytes()
    psi = ev.trajectory[-1]
    z, overlap = ev.best_fit_coherent()
    coh = lowering_eigenstate(np.diag(tab.raising_weights(4), 1), z)
    assert overlap == pytest.approx(overlap_with(psi, coh), rel=1e-14, abs=0)


@pytest.mark.parametrize("call, message", [
    (lambda: DriveProfile("ramp", 1.0), "unknown drive kind 'ramp'"),
    (lambda: evolve_forced(energy_levels(Q1, 3), DriveProfile("const", 0.1), t_max=0.1,
                           dt=0.002, sign_convention="x"),
     "sign_convention must be 'paper' or 'conjugate'"),
], ids=["drive-kind", "sign-convention"])
def test_unknown_drive_or_sign_convention_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
