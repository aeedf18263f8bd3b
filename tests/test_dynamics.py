"""Forced-oscillator evolution: closed form vs direct integration."""

import numpy as np
import pytest
from scipy.integrate import quad

from siqm import (DriveProfile, LadderMatrices, StepInstabilityError,
                  TruncationOverflowError, energy_levels, evolve_forced,
                  selfsimilar_family)

Q1 = selfsimilar_family(q=1.0, c=1.0, a1=1.0)
Q5 = selfsimilar_family(q=0.5, c=1.0, a1=1.0)


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
    ladder = LadderMatrices(tab, 24)
    _, overlap = ev.best_fit_coherent(tab, ladder)
    assert overlap >= 1.0 - 1e-8


def test_deformed_endpoint_is_not_coherent():
    tab = energy_levels(Q5, 23)
    ev = evolve_forced(tab, DriveProfile("const", 0.1), t_max=5.0, dt=0.002)
    ladder = LadderMatrices(tab, 24)
    z_fit, overlap = ev.best_fit_coherent(tab, ladder)
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
    with pytest.raises(TruncationOverflowError):
        evolve_forced(tab, DriveProfile("const", 0.8), t_max=5.0, dt=0.002)


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
