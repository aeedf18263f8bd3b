"""Energy levels, ladder eigenstates, and the diagonalization oracle."""

import warnings

import numpy as np
import pytest

from siqm import (BoundaryDecayWarning, DegenerateLevelsError, LevelNotBoundError,
                  Grid, eigen_residual, eigenstate_with_prenorm,
                  energy_levels, fd_diagonalize, Harmonic, inner,
                  Morse, SelfSimilar, SpectrumTable)
from siqm.spectra import MAX_LEVELS

Q5 = SelfSimilar(q=0.5, c=1.0, a1=1.0)


@pytest.fixture(scope="module")
def wide_grid():
    # h = 0.01 on a box whose walls the oracle's decay check accepts for all
    # 7 states (on [-60, 60] it flags state 6)
    return Grid(-120, 120, 24001)


@pytest.fixture(scope="module")
def q5_oracle(wide_grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryDecayWarning)
        return fd_diagonalize(Q5, wide_grid, 7)


@pytest.fixture(scope="module")
def q5_ladder_states(wide_grid):
    tab = energy_levels(Q5, 6)
    return [eigenstate_with_prenorm(Q5, tab, n, wide_grid) for n in range(7)]


def test_energy_levels_scaling_values():
    tab = energy_levels(Q5, 3)
    assert np.array_equal(tab.levels, [0.0, 1.0, 1.5, 1.75])


def test_energy_levels_empty_sum():
    assert energy_levels(Q5, 0).levels.tolist() == [0.0]


def test_energy_levels_harmonic():
    tab = energy_levels(Harmonic(a1=1.0), 5)
    assert np.array_equal(tab.levels, 2.0 * np.arange(6))


def test_energy_levels_monotone_below_limit():
    tab = energy_levels(Q5, 30)
    assert np.all(np.diff(tab.levels) > 0)
    assert np.all(tab.levels < 2.0)  # E_inf = c a1 / (1 - q)


@pytest.mark.parametrize("q", [0.1, 0.05, 0.01, 0.001])
@pytest.mark.parametrize("c, a1", [(1.0, 1.0), (1.3, 0.8), (0.7, 2.0)])
def test_small_q_levels_match_mpmath(q, c, a1):
    # at small q, E_1 .. E_20 pile up just below c a1; each level stays
    # within 4 eps of the 50-digit sum of c a1 q^(k-1) over the float inputs
    import mpmath
    levels = energy_levels(SelfSimilar(q=q, c=c, a1=a1), 20).levels
    assert levels[0] == 0.0
    with mpmath.workdps(50):
        head, ratio = mpmath.mpf(c) * mpmath.mpf(a1), mpmath.mpf(q)
        exact = [head * sum(ratio ** k for k in range(n)) for n in range(1, 21)]
        worst = max(abs((mpmath.mpf(got) - ref) / ref) for got, ref in zip(levels[1:], exact))
    assert worst <= 4 * np.finfo(float).eps


def test_morse_tower_terminates():
    with pytest.raises(LevelNotBoundError):
        energy_levels(Morse(a1=2.5), 3)
    # R(a_3) = 0.6 > 0, but a_4 = -0.2 lies outside the domain a > 0
    assert np.allclose(energy_levels(Morse(a1=2.8), 2).levels, [0.0, 4.6, 7.2])
    with pytest.raises(LevelNotBoundError):
        energy_levels(Morse(a1=2.8), 3)


@pytest.mark.parametrize("family, n_max, message", [
    # q^1075 rounds to 0: the chain value a_1076 and its remainder are float underflow
    (SelfSimilar(q=0.5), 2000, "remainder R(a_1076) = 0 underflows the floats at level 1076"),
    (SelfSimilar(q=0.5), 1075, "a_1076 = 0 underflows the floats at level 1075"),
    # exact zeros: a_3 = 0.5 gives R = 0, and a_9 = 0 leaves the domain
    (Morse(a1=2.5), 3, "remainder R(a_3) = 0 is not positive: level 3 is not bound"),
    (Morse(a1=8.0), 8, "a_9 = 0 is outside the family's domain: level 8 is not bound"),
    # a_1075 = 2^-1074 is a float, but its remainder c a_1075 at c = 0.5 rounds to 0
    (SelfSimilar(q=0.5, c=0.5), 1075,
     "remainder R(a_1075) = 0 underflows the floats at level 1075"),
])
def test_underflow_is_not_reported_as_an_unbound_level(family, n_max, message):
    with pytest.raises(ValueError) as info:
        energy_levels(family, n_max)
    assert str(info.value).startswith(message)
    assert isinstance(info.value, LevelNotBoundError) == ("not bound" in message)


def test_normalization_factors():
    tab = energy_levels(Q5, 4)
    norms = tab.norms(3)
    assert norms[0] == 1.0
    assert norms[1] == pytest.approx(1.0)
    assert norms[2] == pytest.approx(np.sqrt(0.75))


def test_norms_equal_per_level_products_bitwise(level_tables):
    checked = 0
    for tab, N in level_tables:
        if np.any(np.diff(tab.levels) <= 0):
            continue  # degenerate: refused before the products
        ref = np.array([np.sqrt(np.prod(tab.levels[n] - tab.levels[:n])) for n in range(N)])
        assert np.array_equal(tab.norms(N), ref)
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("a1, level, value", [(1e300, 2, "inf"), (1e-300, 2, "0.0")])
def test_norms_refuse_a_product_outside_the_floats(a1, level, value):
    # E_n = 2 a1 n: N_2 = sqrt(E_2 E_1) overflows at a1 = 1e300 and underflows at 1e-300
    tab = energy_levels(Harmonic(a1=a1), 4)
    assert tab.norms(2)[1] > 0
    with pytest.raises(ValueError, match=f"N_{level} = {value} of level {level}"):
        tab.norms(4)
    # the degeneracy test runs first
    flat = SpectrumTable(np.array([0.0, 2 * a1, 2 * a1, 6 * a1]))
    with pytest.raises(DegenerateLevelsError, match="level 2"):
        flat.norms(4)


def test_energy_levels_refuse_a_table_past_the_level_budget():
    with pytest.raises(ValueError, match=f"need n_max <= MAX_LEVELS = {MAX_LEVELS}, "
                       f"got {MAX_LEVELS + 1}"):
        energy_levels(Harmonic(a1=1.0), MAX_LEVELS + 1)


def test_norms_refuse_a_short_table():
    tab = energy_levels(Q5, 3)
    assert tab.norms(4).shape == (4,)
    with pytest.raises(ValueError, match="n_max >= 4, got n_max = 3"):
        tab.norms(5)
    with pytest.raises(ValueError, match="need N >= 1"):
        tab.norms(0)


def test_norms_refuse_degenerate_levels():
    tab = energy_levels(Q5, 8)
    flat = SpectrumTable(np.concatenate([tab.levels[:3], [tab.levels[2]]]))
    with pytest.raises(DegenerateLevelsError, match="level 3 is not above all lower levels"):
        flat.norms(4)
    assert flat.norms(3).shape == (3,)  # the levels below rise


def first_degenerate_level(table, N):
    """The O(N^2) pairwise scan of levels 1 .. N - 1."""
    for n in range(1, N):
        if np.any(table.levels[n] - table.levels[:n] <= 0):
            return n
    return None


def test_degeneracy_refusals_match_the_pairwise_scan(level_tables):
    # the family sweep, plus tables whose levels dip below an earlier level
    rng = np.random.default_rng(23)
    dipped = []
    for _ in range(60):
        N = int(rng.integers(2, 42))
        levels = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.2, 1.0, N - 1))])
        dipped.append((SpectrumTable(levels), N))
    refused = 0
    for tab, N in level_tables + dipped:
        n = first_degenerate_level(tab, N)
        if n is None:
            try:
                tab.norms(N)
            except DegenerateLevelsError:
                pytest.fail(f"refused a table the scan accepts (N = {N})")
            except ValueError:
                pass  # a product outside the floats
        else:
            with pytest.raises(DegenerateLevelsError) as exc:
                tab.norms(N)
            assert str(exc.value) == f"level {n} is not above all lower levels"
            refused += 1
    assert refused >= 20


def test_partial_sums_that_drift_from_the_closed_form_are_refused_naming_the_level():
    # float partial sums of 1.4 drift past 1e-12 * E_max from about 73 000 levels
    assert energy_levels(Harmonic(a1=0.7), 72000).n_max == 72000
    with pytest.raises(ValueError, match=r"partial sums disagree with the closed form "
                                         r"by 2\.61e-07 at level 100000, above 1\.4e-07"):
        energy_levels(Harmonic(a1=0.7), 100000)


def test_fd_diagonalize_refuses_bands_that_are_not_finite():
    # W = a1 x with a1 = 1e300: W^2 overflows, and the factorization would fail;
    # the refusal comes without numpy's overflow warning
    with warnings.catch_warnings(), \
            pytest.raises(ValueError, match=r"'a1': 1e\+300\} is not finite"):
        warnings.simplefilter("error")
        fd_diagonalize(Harmonic(a1=1e300), Grid(-5, 5, 501), 2)


def test_eigenstate_n0_is_ground_state(wide_grid):
    from siqm import ground_state
    psi = eigenstate_with_prenorm(Q5, energy_levels(Q5, 0), 0, wide_grid)[0]
    ref = ground_state(Q5, 1.0, wide_grid)
    assert np.max(np.abs(psi - ref)) == 0.0


def test_harmonic_second_state_matches_oracle():
    g = Grid(-12, 12, 2401)
    fam = Harmonic(a1=1.0)
    psi = eigenstate_with_prenorm(fam, energy_levels(fam, 2), 2, g)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, states = fd_diagonalize(fam, g, 3)
    assert abs(inner(psi, states[2], g)) >= 1.0 - 1e-6


def test_prenorm_matches_level_difference_product(wide_grid, q5_ladder_states):
    norms = energy_levels(Q5, 6).norms(7)
    for n in range(7):
        _, prenorm = q5_ladder_states[n]
        expected = norms[n]
        assert prenorm == pytest.approx(expected, rel=1e-3)
    # the n = 2 magnitude quoted from the closed products
    assert q5_ladder_states[2][1] == pytest.approx(0.8660254, abs=1e-6)


def test_fd_oracle_harmonic():
    g = Grid(-10, 10, 2001)
    e, _ = fd_diagonalize(Harmonic(a1=1.0), g, 4)
    assert np.max(np.abs(e - [0, 2, 4, 6])) < 1e-5


def test_fd_oracle_morse():
    g = Grid(-5, 32, 3701)
    e, _ = fd_diagonalize(Morse(a1=2.5), g, 3)
    assert np.max(np.abs(e - [0, 4, 6])) < 1e-3


def test_oracle_equivalence_selfsimilar(q5_oracle):
    e_fd, _ = q5_oracle
    tab = energy_levels(Q5, 6)
    scale = np.maximum(1.0, tab.levels)
    assert np.max(np.abs(e_fd - tab.levels) / scale) <= 1e-3


def test_eigen_residuals(wide_grid, q5_ladder_states):
    tab = energy_levels(Q5, 6)
    for n in range(7):
        psi, _ = q5_ladder_states[n]
        assert eigen_residual(Q5, psi, wide_grid, tab.levels[n]) <= 1e-4


def test_ladder_oracle_state_overlap(wide_grid, q5_oracle, q5_ladder_states):
    _, states = q5_oracle
    for n in range(7):
        psi, _ = q5_ladder_states[n]
        assert abs(inner(psi, states[n], wide_grid)) >= 1.0 - 1e-5


def test_orthonormality(wide_grid, q5_ladder_states):
    states = [s for s, _ in q5_ladder_states]
    for m in range(7):
        for n in range(7):
            val = abs(inner(states[m], states[n], wide_grid))
            assert abs(val - (1.0 if m == n else 0.0)) <= 1e-6


def test_morse_level_not_bound():
    for A in (2.5, 2.8):
        with pytest.raises(LevelNotBoundError):
            energy_levels(Morse(a1=A), 3)


def test_eigenstate_refuses_a_table_short_of_its_level():
    fam = Morse(a1=2.5)
    with pytest.raises(ValueError, match="n_max >= 3, got n_max = 2"):
        eigenstate_with_prenorm(fam, energy_levels(fam, 2), 3, Grid(-5, 32, 3701))


def test_truncated_domain_warns():
    from siqm import BoundaryDecayWarning
    with pytest.warns(BoundaryDecayWarning):
        fam = Harmonic(a1=1.0)
        eigenstate_with_prenorm(fam, energy_levels(fam, 6), 6, Grid(-3.5, 3.5, 701))


def test_negative_level_is_refused():
    fam = Harmonic(a1=1.0)
    with pytest.raises(ValueError, match="need n >= 0"):
        eigenstate_with_prenorm(fam, energy_levels(fam, 2), -1, Grid(-5, 5, 101))
