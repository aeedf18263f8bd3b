"""Coherent-state coefficients and their defining properties."""

import math

import numpy as np
import pytest

from siqm import (coherent_closed_scaling, coherent_property_residuals,
                  coherent_recursive, energy_levels, Harmonic, SelfSimilar)

Q5 = SelfSimilar(q=0.5, c=1.0, a1=1.0)


def test_recursive_coefficients_scaling_values():
    tab = energy_levels(Q5, 6)
    cs = coherent_recursive(tab.norms(4), 1.0)
    assert cs[0] == 1.0
    assert cs[1].real == pytest.approx(1.0)
    assert cs[2].real == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-12)


def test_closed_form_values():
    cc = coherent_closed_scaling(0.5, 1.0, 1.0, 4)
    assert cc[1].real == pytest.approx(1.0, rel=1e-12)
    assert cc[2].real == pytest.approx(1.1547005383792517, rel=1e-12)


def reference_closed_scaling(q, R1, z, N):
    """The closed form as coherent_closed_scaling computed it with a
    q_pochhammer loop per level, before the cumulative product."""
    def q_pochhammer(a, q, n):
        out = 1.0
        for j in range(n):
            out *= 1.0 - a * q ** j
        return out

    n = np.arange(N)
    poch = np.array([q_pochhammer(q, q, int(k)) for k in n])
    mag = (1 - q) ** (n / 2) * q ** (-n * (n - 1) / 4.0) / (R1 ** (n / 2) * np.sqrt(poch))
    return np.asarray(z, dtype=complex) ** n * mag


def test_closed_form_equals_the_pochhammer_loop_bitwise():
    rng = np.random.default_rng(2357)
    for _ in range(300):
        q = float(rng.choice([rng.uniform(0.01, 0.3), rng.uniform(0.3, 0.95),
                              1 - 10 ** rng.uniform(-8, -1.3)]))
        R1 = float(10 ** rng.uniform(-2, 2))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        N = int(rng.integers(1, 80))
        if math.prod(1.0 - q * q ** j for j in range(N - 1)) == 0.0:
            # (q; q)_{N-1} underflows: the loop divides by 0, the closed form refuses
            with pytest.raises(ValueError, match="underflows the floats"):
                coherent_closed_scaling(q, R1, z, N)
            continue
        with np.errstate(all="ignore"):
            got, ref = coherent_closed_scaling(q, R1, z, N), reference_closed_scaling(q, R1, z, N)
        assert got.tobytes() == ref.tobytes(), (q, R1, z, N)


def test_closed_form_computes_where_the_recursion_disagrees():
    # the recursion's level gaps cancel here (1.08e-12 relative at level 25);
    # the closed form has no gaps to cancel and only computes
    cc = coherent_closed_scaling(0.7, 1.0, 1.0, 30)
    assert cc.shape == (30,) and np.all(np.isfinite(cc))
    assert cc.tobytes() == reference_closed_scaling(0.7, 1.0, 1.0, 30).tobytes()


@pytest.mark.parametrize("q, R1, N, named", [(1.0, 1.0, 5, "0 < q < 1"),
                                             (0.0, 1.0, 5, "0 < q < 1"),
                                             (0.5, 0.0, 5, "R1 > 0"),
                                             (0.5, 1.0, 0, "N >= 1")])
def test_closed_form_refuses_its_domain(q, R1, N, named):
    with pytest.raises(ValueError, match=named):
        coherent_closed_scaling(q, R1, 1.0, N)


def test_closed_equals_recursive_to_1e12():
    tab = energy_levels(Q5, 21)
    for z in (1.0, 0.3 + 0.2j):
        rec = coherent_recursive(tab.norms(21), z)
        clo = coherent_closed_scaling(0.5, 1.0, z, 21)
        assert np.max(np.abs(rec - clo) / np.abs(rec)) <= 1e-12


def test_termwise_lowering_cancellation():
    # h_n * (N_n / N_{n-1}) = z h_{n-1} termwise; at q = 1 the weight is sqrt(E_n)
    tab = energy_levels(Q5, 21)
    z = 0.7 - 0.4j
    norms = tab.norms(21)
    h = coherent_recursive(norms, z)
    for n in range(1, 21):
        beta = norms[n] / norms[n - 1]
        assert abs(h[n] * beta - z * h[n - 1]) <= 1e-14 * abs(h[n - 1]) * max(1.0, abs(z))
    tab1 = energy_levels(Harmonic(a1=1.0), 12)
    norms1 = tab1.norms(12)
    h1 = coherent_recursive(norms1, 0.5)
    for n in range(1, 12):
        beta = norms1[n] / norms1[n - 1]
        assert beta == pytest.approx(np.sqrt(tab1.levels[n]), rel=1e-14)
        assert abs(h1[n] * beta - 0.5 * h1[n - 1]) <= 1e-14


def test_closed_equals_recursive_random_z_sweep():
    rng = np.random.default_rng(77)
    tab = energy_levels(Q5, 21)
    for _ in range(6):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        rec = coherent_recursive(tab.norms(21), z)
        clo = coherent_closed_scaling(0.5, 1.0, z, 21)
        assert np.max(np.abs(rec - clo) / np.abs(rec)) <= 1e-12


def test_eigen_and_derivative_residuals():
    norms = energy_levels(Q5, 21).norms(20)
    state = coherent_recursive(norms, 0.3)
    eig, der = coherent_property_residuals(norms, 0.3, state)
    assert eig <= 1e-10
    assert der <= 1e-6


Q9 = SelfSimilar(q=0.9, c=1.0, a1=1.0)


@pytest.mark.parametrize("z", [1.0, 1e5, 1e10, 1e12])
def test_derivative_residual_is_exact_at_large_z(z):
    # the derivative is exact, so only rounding of size eps * ||h|| is left at any z
    norms = energy_levels(Q9, 4).norms(5)
    _, der = coherent_property_residuals(norms, z, coherent_recursive(norms, z))
    assert der <= 1e-14


def test_derivative_residual_sweep():
    for q in (0.5, 0.7, 1.0):
        for N in (2, 5, 10, 20, 40):
            norms = energy_levels(SelfSimilar(q=q, c=1.0, a1=1.0), N - 1).norms(N)
            for z in (0.3, 1.5 - 0.5j, -2j, 4 + 3j):
                _, der = coherent_property_residuals(norms, z, coherent_recursive(norms, z))
                assert der <= 1e-13, (q, N, z)


@pytest.mark.parametrize("z", [1.0, 1e5, 1e12, 0.7 - 1.3j])
def test_z_derivative_matches_mpmath(z):
    import mpmath
    from siqm.coherent import _z_derivative
    norms = energy_levels(Q9, 4).norms(5)
    hp = _z_derivative(norms, z)
    with mpmath.workdps(40):
        ref = [complex(mpmath.diff(lambda w: w ** n / mpmath.mpf(N_n), mpmath.mpc(z)))
               for n, N_n in enumerate(norms)]
    assert hp[0] == 0
    for n in range(1, 5):
        assert abs(hp[n] - ref[n]) <= 4 * np.finfo(float).eps * abs(ref[n]), n


def test_residuals_whose_norm_overflows_are_refused():
    # every h_n is a float, but ||h|| is not: coherent_recursive refuses such
    # an h, so it is built here as a caller could pass it
    norms = energy_levels(Q5, 9).norms(10)
    state = np.array([1e30 ** n / N_n for n, N_n in enumerate(norms)], dtype=complex)
    assert np.all(np.isfinite(state))
    with pytest.raises(ValueError, match=r"overflows for z = 1e\+30 at 10 levels"):
        coherent_recursive(norms, 1e30)
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="coherent_eigen: residual nan is not finite"):
        coherent_property_residuals(norms, 1e30, state)


def test_z_zero_is_ground_state():
    norms = energy_levels(Q5, 8).norms(8)
    state = coherent_recursive(norms, 0.0)
    assert np.array_equal(state[1:], np.zeros(7, dtype=complex))
    eig, _ = coherent_property_residuals(norms, 0.0, state)
    assert eig == 0.0


def test_harmonic_limit_coefficients():
    # q -> 1: h_n -> z^n / sqrt(n! R1^n)
    cc = coherent_closed_scaling(1 - 1e-6, 1.0, 1.0, 12)
    ref = np.array([1.0 / math.sqrt(math.factorial(n)) for n in range(12)])
    assert np.max(np.abs(cc.real - ref)) <= 1e-6


def test_partial_norms_grow_superfast_for_small_q():
    # the truncated object is formal: partial norms blow up with N for q < 1
    tab = energy_levels(Q5, 25)
    n8 = np.linalg.norm(coherent_recursive(tab.norms(8), 1.0))
    n25 = np.linalg.norm(coherent_recursive(tab.norms(25), 1.0))
    assert n25 > 1e3 * n8


def test_one_coefficient_per_normalization_product():
    norms = energy_levels(Q5, 6).norms(7)
    assert coherent_recursive(norms, 0.5).shape == (7,)
    assert coherent_recursive(norms[:1], 0.5).tolist() == [1.0]
    h = coherent_recursive(norms, 0.5)
    with pytest.raises(ValueError, match="need 7 normalization products, got 6"):
        coherent_property_residuals(norms[:6], 0.5, h)
    with pytest.raises(ValueError, match="need 6 normalization products, got 7"):
        coherent_property_residuals(norms, 0.5, h[:6])
