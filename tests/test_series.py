"""Series recursion, radius estimates, and the pantograph continuation."""

import tracemalloc

import numpy as np
import pytest

from siqm import (Grid, HorizonExceededError, SeriesCoefficients, SelfSimilarW,
                  series_coefficients)
from siqm.series import MAX_TABLE_POINTS, ratio_sequence

# Taylor series of tanh x (exact rationals), the q = 0 one-soliton limit
TANH_COEFFS = np.array([1.0, -1.0 / 3, 2.0 / 15, -17.0 / 315, 62.0 / 2835,
                        -1382.0 / 155925, 21844.0 / 6081075,
                        -929569.0 / 638512875, 6404582.0 / 10854718875])


def test_q1_series_is_linear():
    sc = series_coefficients(1.0, 1.0, 12)
    assert sc.coeffs[0] == 1.0
    assert np.all(sc.coeffs[1:] == 0.0)
    # W = c0 x everywhere: no saturation value, no table, W' = c0
    eng = SelfSimilarW(sc)
    assert eng.w_infinity == np.inf
    eng.ensure(40.0)
    assert eng._table.shape[1] == 0
    x = np.linspace(-40.0, 40.0, 81)
    assert np.array_equal(eng.w(x), x)
    assert np.array_equal(eng.wp(x), np.ones_like(x))
    # far out too, at the CLI's order 40: the series stops at its last nonzero
    # term, so no u^(2j+1) of a zero c_j overflows into 0 * inf = NaN
    c0 = 0.75
    eng = SelfSimilarW(series_coefficients(1.0, c0, 40))
    x = np.logspace(-3.0, 6.0, 37)
    x = np.concatenate((-x, x))
    assert np.array_equal(eng.w(x), c0 * x)
    assert np.array_equal(eng.wp(x), np.full_like(x, c0))


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
    stencil past the end is clamped to the points built so far. The march
    stops at the first W that is not finite or exceeds the divergence cap,
    ten times the saturation value sqrt(|R| / (1 - q)) and at least 10.
    Returns the table (x, W, W') of the steps before it, the number of
    clamped reads, and the x of the diverged step (None if none diverged).
    """
    q, R, h, sq = eng.q, eng.R, eng.step, np.sqrt(eng.q)
    cap = 10.0 * max(1.0, np.sqrt(abs(R) / (1.0 - q)))
    xs = np.arange(int(min(eng.x_break, x_max + 4 * h) / h) + 1) * h
    X, W, Wp = list(xs), list(eng._series(xs, 0)), list(eng._series(xs, 1))
    terms = eng._terms.T.tolist()  # the (W, W') coefficient of each series term
    clamped = 0

    def series(u):
        # the engine's partial sums at one point, in the same order of operations
        iw = iwp = 0.0
        uw, uwp, u2 = u, 1.0, u * u
        for tw, twp in terms:
            iw += tw * uw
            iwp += twp * uwp
            uw, uwp = uw * u2, uwp * u2
        return iw, iwp

    def rhs(x, w):
        nonlocal clamped
        u = sq * x
        if u <= eng.x_break:
            iw, iwp = series(u)
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
        if not np.isfinite(w) or abs(w) > cap:
            return np.array([X, W, Wp]), clamped, x
        X.append(x)
        W.append(w)
        Wp.append(rhs(x, w))
    return np.array([X, W, Wp]), clamped, None


def _assert_stores(eng, ref):
    """The engine stores ref's W and W' rows from the sixth-last series point,
    the lowest a stencil past x_break reads, and ref's last x."""
    first = max(int(eng.x_break / eng.step) - 5, 0)
    assert eng._first == first
    assert np.array_equal(eng._table, ref[1:, first:])
    assert eng._x == ref[0, -1]


@pytest.mark.parametrize("q, c0, near, points", [(0.5, -1.0, "1.700", 340),
                                                  (0.3, -0.5, "2.200", 440),
                                                  (0.9, -2.0, "2.260", 452)])
def test_negative_remainder_branch_diverges(q, c0, near, points):
    # c0 < 0 gives R < 0: no saturation value exists and the outward march
    # blows up in finite x. The guard names the x of the first diverged step
    # and keeps the steps before it, exactly as a scalar march stops.
    eng = SelfSimilarW(series_coefficients(q, c0, 40))
    ref, _, x_ref = _reference_march(eng, 10.0)
    with pytest.raises(HorizonExceededError) as err:
        eng.ensure(10.0)
    assert str(err.value) == f"continuation diverged near x = {x_ref:.3f}"
    assert f"{x_ref:.3f}" == near
    assert ref.shape[1] == points
    _assert_stores(eng, ref)


def test_a_table_shorter_than_the_interpolation_stencil_is_refused():
    # x_break 1.27 at step 2.0: the march reads a 2-point table with a 6-point stencil
    eng = SelfSimilarW(series_coefficients(0.2, 1.0, 60), step=2.0)
    with pytest.raises(HorizonExceededError,
                       match="interpolation needs a W table of 6 points; at step 2.0 it holds 2"):
        eng.ensure(40.0)


# q = 0 has sqrt(q) = 0: an error filter fails any division by it
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q, step", [(0.0, 0.005), (0.05, 0.005), (0.3, 0.005), (0.7, 0.005),
                                     (0.95, 0.005), (0.99, 0.005), (0.99, 0.02)])
def test_blocked_march_matches_scalar_reference(q, step):
    eng = SelfSimilarW(series_coefficients(q, 1.0, 60), step=step)
    ref, clamped, diverged = _reference_march(eng, 12.0)
    assert diverged is None
    eng.ensure(12.0)
    _assert_stores(eng, ref)
    if step == 0.02:
        assert clamped > 0  # the end-of-table clamp is exercised
    x = np.linspace(-11.9, 11.9, 477)
    a = np.abs(x)
    ser = a <= eng.x_break
    w_ref = np.array([eng._series(np.array([u]), 0)[0] if s else _lagrange6(ref[1], u, step)
                      for u, s in zip(a, ser)])
    wp_ref = np.array([eng._series(np.array([u]), 1)[0] if s else _lagrange6(ref[2], u, step)
                       for u, s in zip(a, ser)])
    assert np.array_equal(eng.w(x), np.sign(x) * w_ref)
    assert np.array_equal(eng.wp(x), wp_ref)
    _assert_stores(eng, ref)  # evaluation inside the table did not extend it


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [0.005, 0.02])
@pytest.mark.parametrize("q", [0.0, 0.05, 0.3, 0.7, 0.95, 0.99])
def test_grown_table_equals_fresh_table(q, step):
    # where the march is cut into blocks cannot move a bit: x_max inside the
    # series region (no table), just past the break point, between grid points
    # and mid-block, and step 0.02, whose q = 0.99 march takes clamped single steps
    sc = series_coefficients(q, 1.0, 60)
    fresh = SelfSimilarW(sc, step=step)
    fresh.ensure(40.0)
    edge = fresh.x_break
    for x_maxes in ((5.0, 12.0, 40.0), (edge / 2, edge + step / 2, edge + 2 * step, 3.1, 7.77, 40.0)):
        grown = SelfSimilarW(sc, step=step)
        for x_max in x_maxes:
            grown.ensure(x_max)
        assert grown._first == fresh._first
        assert np.array_equal(grown._table, fresh._table)
        assert grown._x == fresh._x


@pytest.mark.parametrize("q, c0, order", [(1.0 - 2.0**-53, 1.0, 40),
                                          (0.8774671631052722, 3.9289148944944603e-19, 31)],
                         ids=["q-near-1", "tiny-c0"])
def test_a_grid_inside_the_break_point_builds_no_table(q, c0, order):
    # x_break is 7.4e7 and 3.7e9 here: tabulating the series region up to it
    # asked for 111 GiB and 5.4 TiB, though no table point is read inside it
    sc = series_coefficients(q, c0, order)
    eng = SelfSimilarW(sc)
    assert eng.x_break > 1e7
    eng.ensure(40.0)
    assert eng._table.shape[1] == 0
    # the series alone evaluates the grid: W ~ c0 x, the oscillator's (q -> 1)
    # and the small-amplitude limit
    x = np.linspace(-40.0, 40.0, 81)
    assert np.allclose(eng.w(x), c0 * x, rtol=1e-10, atol=0.0)
    assert np.allclose(eng.wp(x), c0, rtol=1e-10, atol=0.0)


def test_the_table_stores_six_series_points_however_far_out_the_break_point():
    # x_break 2418: the series region holds 483 691 points of the step 0.005, and
    # the table stores its last six before the first step refuses the contracted
    # argument sqrt(q)(x + h) > x
    eng = SelfSimilarW(series_coefficients(1.0 - 1e-7, 1.0, 40))
    with pytest.raises(HorizonExceededError, match="step too large for the contracted argument"):
        eng.ensure(eng.x_break + 1.0)
    last = int(eng.x_break / eng.step)
    assert eng._first == last - 5 == 483685
    xs = np.arange(last - 5, last + 1) * eng.step
    assert np.array_equal(eng._table, eng._series(xs, slice(0, 2)))
    assert eng._x == xs[-1]


def test_a_table_past_the_point_budget_is_refused_before_it_is_built():
    eng = SelfSimilarW(series_coefficients(0.5, 2 / 3, 40))
    first = max(int(eng.x_break / eng.step) - 5, 0)
    x_max = (MAX_TABLE_POINTS + first + 0.5) * eng.step  # points first .. first + MAX
    with pytest.raises(HorizonExceededError) as err:
        eng.ensure(x_max)
    assert str(err.value) == (f"a W table to x = {x_max:g} needs {MAX_TABLE_POINTS + 1} points "
                              f"at step 0.005, more than MAX_TABLE_POINTS = {MAX_TABLE_POINTS}")
    assert eng._table.shape == (2, 0)
    eng.ensure(40.0)  # a request within the budget still builds
    assert eng._first == first and eng._table.shape[1] == 8001 - first


def test_w_and_wp_on_a_padded_grid_allocate_under_32_floats_per_point():
    # W and W' on the padded grid of an eigenstates job, the table already built:
    # the interpolation kernel works on vectors of the points' length
    g = Grid(-52, 52, 10401)
    eng = SelfSimilarW(series_coefficients(0.5, 1.0, 40))
    eng.w(g.x)
    tracemalloc.start()
    try:
        W, Wp = eng.w(g.x), eng.wp(g.x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 8 * g.n_points


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


def _method_of_steps(q, c0, x_max):
    """W and W' on [0, x_max] by the method of steps, independent of SelfSimilarW.

    Shell 0 is [0, r0], r0 half the ratio-test radius of a 120-term series
    summed in 50-digit mpmath. Shell k is [r, r/sqrt(q)], where the delayed
    terms at sqrt(q) x fall in shell k - 1, so W' = -W^2 + q W(sqrt(q) x)^2
    - q W'(sqrt(q) x) + R is an ordinary ODE there, solved by DOP853 from
    the end value of the shell before. Each shell is frozen into degree-60
    Chebyshev fits of W and W'. Returns an evaluator f(x, d) of W (d = 0)
    and W' (d = 1) at x >= 0.
    """
    import mpmath
    from numpy.polynomial import Chebyshev
    from scipy.integrate import solve_ivp

    R, sq, deg = (1 + q) * c0, np.sqrt(q), 60
    c = _mp_coefficients(q, c0, 120)
    with mpmath.workdps(50):
        def series(xs, d):
            return np.array([float(mpmath.fsum((2 * j + 1) ** d * cj * mpmath.mpf(x) ** (2 * j + 1 - d)
                                               for j, cj in enumerate(c))) for x in xs])

        edges = [0.0, float(mpmath.sqrt(abs(c[-2] / c[-1]))) / 2]
        fits = [tuple(Chebyshev.interpolate(lambda xs: series(xs, d), deg, edges) for d in (0, 1))]
        w0 = float(series(edges[1:], 0)[0])
    while edges[-1] < x_max:
        a, b = edges[-1], edges[-1] / sq
        inner_w, inner_wp = fits[-1]

        def rhs(x, w):
            u = sq * x
            return -w * w + q * inner_w(u) ** 2 - q * inner_wp(u) + R

        sol = solve_ivp(rhs, (a, b), [w0], method="DOP853", rtol=1e-13, atol=1e-15,
                        dense_output=True)
        fits.append((Chebyshev.interpolate(lambda xs: sol.sol(xs)[0], deg, (a, b)),
                     Chebyshev.interpolate(lambda xs: rhs(xs, sol.sol(xs)[0]), deg, (a, b))))
        w0 = sol.y[0, -1]
        edges.append(b)

    def evaluate(x, d):
        shell = np.searchsorted(edges, x, side="right") - 1
        out = np.empty_like(x)
        for k, fit in enumerate(fits):
            at = np.minimum(shell, len(fits) - 1) == k
            out[at] = fit[d](x[at])
        return out
    return evaluate


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_continuation_matches_a_method_of_steps_reference(q):
    # the engine's RK4 step h = 0.005 and its 60-term series; the reference
    # fits agree with themselves to about 1e-14
    c0 = 1 / (1 + q)
    ref = _method_of_steps(q, c0, 40.0)
    eng = SelfSimilarW(series_coefficients(q, c0, 60))
    x = np.linspace(0.0, 40.0, 4001)
    assert np.max(np.abs(eng.w(x) - ref(x, 0))) <= 1e-10
    assert np.max(np.abs(eng.wp(x) - ref(x, 1))) <= 1e-9
