"""Series recursion, radius estimates, and the pantograph continuation."""

import numpy as np
import pytest

from siqm import SeriesCoefficients, SelfSimilarW, series_coefficients
from siqm.series import ratio_sequence

# Taylor series of tanh x (exact rationals), the q = 0 one-soliton limit
TANH_COEFFS = np.array([1.0, -1.0 / 3, 2.0 / 15, -17.0 / 315, 62.0 / 2835,
                        -1382.0 / 155925, 21844.0 / 6081075,
                        -929569.0 / 638512875, 6404582.0 / 10854718875])


def test_q1_series_is_linear():
    sc = series_coefficients(1.0, 1.0, 12)
    assert sc.coeffs[0] == 1.0
    assert np.all(sc.coeffs[1:] == 0.0)


def test_q0_series_is_tanh():
    sc = series_coefficients(0.0, 1.0, 8)
    assert np.max(np.abs(sc.coeffs - TANH_COEFFS)) < 1e-12


def test_q_half_hand_values():
    # hand evaluation of the recursion: c1 = -(1-q^2)/(3(1+q^2)),
    # c2 = -(1-q^3)/(5(1+q^3)) * 2 c0 c1
    sc = series_coefficients(0.5, 1.0, 4)
    assert sc.coeffs[1] == pytest.approx(-0.2, abs=1e-15)
    assert sc.coeffs[2] == pytest.approx(14.0 / 225, abs=1e-15)


def test_sign_alternation():
    sc = series_coefficients(0.35, 0.8, 30)
    signs = np.sign(sc.coeffs)
    assert np.all(signs == np.array([(-1.0) ** j for j in range(31)]))


def test_remainder_identity():
    sc = series_coefficients(0.5, 2.0 / 3, 4)
    assert sc.remainder == pytest.approx((1 + 0.5) * (2.0 / 3))


def test_radius_polynomial_is_infinite():
    assert series_coefficients(1.0, 1.0, 10).radius_estimate == np.inf


def test_directly_built_coefficients_place_the_same_break_point():
    # the radius is worked out from the coefficients, never a placeholder of 0,
    # which put the break point at x = 0 and failed the first W evaluation
    sc = series_coefficients(0.5, 1 / 1.5, 60)
    direct = SeriesCoefficients(q=0.5, c0=1 / 1.5, coeffs=sc.coeffs)
    assert direct.radius_estimate == sc.radius_estimate > 0
    x = np.linspace(-30, 30, 1201)
    built, ref = SelfSimilarW(direct), SelfSimilarW(sc)
    assert built.x_break == ref.x_break
    assert built.w(x).tobytes() == ref.w(x).tobytes()
    assert built.wp(x).tobytes() == ref.wp(x).tobytes()
    with pytest.raises(TypeError):
        SeriesCoefficients(q=0.5, c0=1.0, coeffs=sc.coeffs, radius_estimate=1.0)


def test_radius_tanh_poles():
    rho = series_coefficients(0.0, 1.0, 40).radius_estimate
    assert rho == pytest.approx(np.pi / 2, rel=0.05)


def test_radius_grows_toward_harmonic_limit():
    rhos = [series_coefficients(q, 1.0, 50).radius_estimate
            for q in (0.2, 0.5, 0.8, 0.95)]
    assert all(r > 0 for r in rhos)
    assert np.all(np.diff(rhos) > 0)


def test_ratio_sequence_tail_monotone():
    seq = ratio_sequence(series_coefficients(0.5, 1.0, 50))
    tail = seq[-8:]
    assert np.max(np.abs(np.diff(tail))) < 1e-6


def test_eval_odd_at_origin():
    for q in (0.0, 0.3, 0.7, 1.0):
        sc = series_coefficients(q, 1.0, 40)
        assert float(SelfSimilarW(sc).w(0.0)[0]) == 0.0


def test_eval_q0_is_tanh():
    sc = series_coefficients(0.0, 1.0, 60)
    eng = SelfSimilarW(sc)
    assert float(eng.w(3.0)[0]) == pytest.approx(np.tanh(3.0), abs=1e-6)
    assert float(eng.w(-3.0)[0]) == pytest.approx(-np.tanh(3.0), abs=1e-6)


def test_oddness_exact():
    sc = series_coefficients(0.5, 1.0, 60)
    eng = SelfSimilarW(sc)
    x = np.linspace(0.3, 6.0, 7)
    assert np.array_equal(eng.w(x), -eng.w(-x))


def test_saturation_to_w_infinity():
    # c*a1 = 1, q = 0.5: W_inf^2 = 1/(1-q) = 2; the tail approaches it
    # like 1/x^2, so the 1e-4 window needs a few hundred length units
    sc = series_coefficients(0.5, 1.0 / 1.5, 60)
    eng = SelfSimilarW(sc, step=0.02)
    w = float(eng.w(600.0)[0])
    assert abs(w * w - 2.0) < 1e-4


def test_monotone_saturation():
    sc = series_coefficients(0.5, 1.0 / 1.5, 60)
    eng = SelfSimilarW(sc)
    x = np.linspace(0.0, 30.0, 400)
    w = eng.w(x)
    assert np.all(np.diff(w) > 0)
    assert np.all(w < eng.w_infinity)


def test_defining_equation_residual():
    for q in (0.3, 0.5, 0.8):
        sc = series_coefficients(q, 1.0 / (1 + q), 60)
        eng = SelfSimilarW(sc)
        x = np.linspace(0.05, 20.0, 333)
        res = np.max(eng.defining_residual(x))
        assert res <= 1e-6 * max(1.0, eng.R)


def test_harmonic_limit_consistency():
    # q -> 1: W approaches c0 * x (checked at q = 0.999 on [-4, 4])
    sc = series_coefficients(0.999, 0.5, 60)
    eng = SelfSimilarW(sc)
    x = np.linspace(-4, 4, 101)
    assert np.max(np.abs(eng.w(x) - 0.5 * x)) < 1e-2


def test_invalid_inputs():
    with pytest.raises(ValueError):
        series_coefficients(-0.2, 1.0, 10)
    with pytest.raises(ValueError):
        series_coefficients(1.2, 1.0, 10)
    with pytest.raises(ValueError):
        series_coefficients(0.5, 1.0, 0)


def test_defining_residual_random_parameter_sweep():
    rng = np.random.default_rng(20240511)
    for _ in range(5):
        q = rng.uniform(0.15, 0.9)
        c0 = rng.uniform(0.3, 1.5)
        eng = SelfSimilarW(series_coefficients(q, c0, 60))
        x = np.linspace(0.1, 12.0, 97)
        assert np.max(eng.defining_residual(x)) <= 1e-6 * max(1.0, eng.R)


def test_negative_remainder_branch_diverges():
    # c0 < 0 gives R < 0: no saturation value exists and the outward march
    # blows up in finite x, which the divergence guard reports
    from siqm import HorizonExceededError
    eng = SelfSimilarW(series_coefficients(0.5, -1.0, 40))
    with pytest.raises(HorizonExceededError):
        eng.ensure(10.0)


def _lagrange6(table, u, h):
    # 6-point Lagrange on the uniform table, clamped to its last six points
    i = max(2, min(int(u / h), len(table) - 4))
    t = u / h - i
    acc = 0.0
    for j in range(-2, 4):
        lj = 1.0
        for m in range(-2, 4):
            if m != j:
                lj *= (t - m) / (j - m)
        acc += lj * table[i + j]
    return acc


def _reference_march(eng, x_max):
    """The pantograph march one scalar RK4 step at a time, as lists.

    Each right-hand side reads the table as it stands at that moment, so a
    stencil past the end is clamped to the points built so far. Returns the
    table (x, W, W') and the number of such clamped reads.
    """
    q, R, h, sq = eng.q, eng.R, eng.step, np.sqrt(eng.q)
    xs = np.arange(int(min(eng.x_break, x_max + 4 * h) / h) + 1) * h
    X, W, Wp = list(xs), list(eng._series(xs, 1)), list(eng._series(xs, 2))
    clamped = 0

    def rhs(x, w):
        nonlocal clamped
        u = sq * x
        if u <= eng.x_break:
            iw, iwp = eng._series(np.array([u]), slice(1, 3))[:, 0].tolist()
        else:
            clamped += int(u / h) > len(Wp) - 4
            iw, iwp = _lagrange6(W, u, h), _lagrange6(Wp, u, h)
        return -w * w + q * iw ** 2 - q * iwp + R

    x, w = X[-1], W[-1]
    while x < x_max:
        k1 = rhs(x, w)
        k2 = rhs(x + h / 2, w + h * k1 / 2)
        k3 = rhs(x + h / 2, w + h * k2 / 2)
        k4 = rhs(x + h, w + h * k3)
        w = w + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        x = x + h
        X.append(x)
        W.append(w)
        Wp.append(rhs(x, w))
    return np.array([X, W, Wp]), clamped


@pytest.mark.parametrize("q, step", [(0.3, 0.005), (0.7, 0.005), (0.95, 0.005),
                                     (0.99, 0.005), (0.99, 0.02)])
def test_blocked_march_matches_scalar_reference(q, step):
    eng = SelfSimilarW(series_coefficients(q, 1.0, 60), step=step)
    ref, clamped = _reference_march(eng, 12.0)
    eng.ensure(12.0)
    assert np.array_equal(eng._table[:, :eng._n], ref)
    if step == 0.02:
        assert clamped > 0  # the end-of-table clamp is exercised
    x = np.linspace(-11.9, 11.9, 477)
    a = np.abs(x)
    ser = a <= eng.x_break
    w_ref = np.array([eng._series(np.array([u]), 1)[0] if s else _lagrange6(ref[1], u, step)
                      for u, s in zip(a, ser)])
    wp_ref = np.array([eng._series(np.array([u]), 2)[0] if s else _lagrange6(ref[2], u, step)
                       for u, s in zip(a, ser)])
    assert np.array_equal(eng.w(x), np.sign(x) * w_ref)
    assert np.array_equal(eng.wp(x), wp_ref)
    assert eng._n == ref.shape[1]  # evaluation inside the table did not extend it


@pytest.mark.parametrize("q", [0.3, 0.7, 0.95, 0.99])
def test_grown_table_equals_fresh_table(q):
    sc = series_coefficients(q, 1.0, 60)
    grown, fresh = SelfSimilarW(sc), SelfSimilarW(sc)
    for x_max in (5.0, 12.0, 40.0):
        grown.ensure(x_max)
    fresh.ensure(40.0)
    assert np.array_equal(grown._table[:, :grown._n], fresh._table[:, :fresh._n])


def _mp_coefficients(q, c0, K):
    """The recursion at 50 digits on the float inputs, as mpf values."""
    import mpmath
    with mpmath.workdps(50):
        q, c = mpmath.mpf(q), [mpmath.mpf(c0)]
        for k in range(K):
            conv = mpmath.fsum(c[i] * c[k - i] for i in range(k + 1))
            c.append(-(1 - q ** (k + 2)) / ((2 * k + 3) * (1 + q ** (k + 2))) * conv)
    return c


@pytest.mark.parametrize("q", [0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 0.99])
@pytest.mark.parametrize("c0", [0.4, 1.0, 1.7])
def test_series_recursion_matches_mpmath(q, c0):
    # the float error of c_k grows linearly in k: at most 1.8 (k+1) eps here
    import mpmath
    K = 80
    got = series_coefficients(q, c0, K).coeffs
    ref = _mp_coefficients(q, c0, K)
    with mpmath.workdps(50):
        for k in np.flatnonzero(got):
            bound = 4 * (k + 1) * np.finfo(float).eps * abs(ref[k])
            assert abs(mpmath.mpf(got[k]) - ref[k]) <= bound, k
