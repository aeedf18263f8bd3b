"""Family registry: parameter chains, remainders, ground states, shape invariance."""

import json
import re
from dataclasses import FrozenInstanceError, dataclass, fields, replace

import numpy as np
import pytest

from siqm import (Grid, LevelNotBoundError, NonNormalizableError, OutOfDomainError,
                  PotentialFamily,
                  eigenstate_with_prenorm, energy_levels,
                  eval_W, family_from_config, fd_diagonalize, ground_state,
                  Harmonic, Morse, SelfSimilar,
                  shape_invariance_residual)
from siqm.families import ParameterRule


def chain(fam, n):
    """a_1 ... a_n under the family's rule."""
    return np.array([fam.chain_value(k) for k in range(1, n + 1)])


class PoschlTeller(PotentialFamily):
    """W = A tanh x, a -> a - 1, R(a) = a^2 - (a-1)^2, E_n = A^2 - (A-n)^2.

    Defined here, outside the package, to show that a family is one class.
    """

    name = "poschl-teller"
    rule = ParameterRule("translation", shift_delta=-1.0)
    box = (-20.0, 20.0)

    def W(self, x, a):
        return a * np.tanh(x)

    def R(self, a):
        return a * a - (a - 1.0) ** 2

    def closed_levels(self, n_max):
        return self.a1 ** 2 - (self.a1 - np.arange(n_max + 1)) ** 2


PT_GRID = Grid(-20, 20, 4001)


@dataclass(frozen=True)
class RosenMorseII(PotentialFamily):
    """W = a tanh x + B/a, a -> a - 1; bound while a^2 > |B|.

    E_n = a1^2 - (a1-n)^2 + B^2/a1^2 - B^2/(a1-n)^2 (Cooper, Khare &
    Sukhatme, Phys. Rep. 251 (1995) 267).
    """

    name = "rosen-morse-ii"
    rule = ParameterRule("translation", shift_delta=-1.0)
    box = (-25.0, 25.0)

    B: float

    def W(self, x, a):
        return a * np.tanh(x) + self.B / a

    def R(self, a):
        return a * a - (a - 1.0) ** 2 + self.B ** 2 / a ** 2 - self.B ** 2 / (a - 1.0) ** 2

    def in_domain(self, a):
        return a * a > abs(self.B)

    def closed_levels(self, n_max):
        a = self.a1 - np.arange(n_max + 1)
        return self.a1 ** 2 - a ** 2 + self.B ** 2 / self.a1 ** 2 - self.B ** 2 / a ** 2


@dataclass(frozen=True)
class ScarfII(PotentialFamily):
    """W = a tanh x + B sech x, a -> a - 1, R(a) = a^2 - (a-1)^2, E_n = a1^2 - (a1-n)^2."""

    name = "scarf-ii"
    rule = ParameterRule("translation", shift_delta=-1.0)
    box = (-25.0, 25.0)

    B: float

    def W(self, x, a):
        return a * np.tanh(x) + self.B / np.cosh(x)

    def R(self, a):
        return a * a - (a - 1.0) ** 2

    def closed_levels(self, n_max):
        return self.a1 ** 2 - (self.a1 - np.arange(n_max + 1)) ** 2


RM2 = RosenMorseII(a1=4.0, B=2.0)
SCARF2 = ScarfII(a1=4.0, B=1.5)
TANH_GRID = Grid(-25, 25, 5001)


def test_parameter_chain_scaling():
    fam = SelfSimilar(q=0.5, c=1.0, a1=1.0)
    assert np.array_equal(chain(fam, 4), [1.0, 0.5, 0.25, 0.125])


def test_parameter_chain_single():
    fam = SelfSimilar(q=0.7, a1=2.0)
    assert chain(fam, 1).tolist() == [2.0]


def test_parameter_chain_translation():
    fam = Morse(a1=2.5)
    assert np.array_equal(chain(fam, 3), [2.5, 1.5, 0.5])


def test_chain_matches_repeated_rule_application():
    fam = SelfSimilar(q=0.731, a1=1.37)
    chain_values = chain(fam, 12)
    a = fam.a1
    for k in range(12):
        assert chain_values[k] == pytest.approx(a, rel=4e-16)
        a = fam.rule.factor_q * a


def test_rule_validation():
    with pytest.raises(ValueError):
        ParameterRule("scaling", factor_q=1.5)
    with pytest.raises(ValueError):
        ParameterRule("scaling", factor_q=0.5, shift_delta=1.0)
    with pytest.raises(ValueError):
        ParameterRule("translation")


def test_eval_w_fixtures():
    g = Grid(-5, 5, 101)
    x2 = np.argmin(np.abs(g.x - 2.0))
    W = eval_W(Harmonic(a1=1.0), 1.0, g)
    assert W[x2] == pytest.approx(2.0)
    x0 = np.argmin(np.abs(g.x))
    Wm = eval_W(Morse(a1=2.5), 2.5, g)
    assert Wm[x0] == pytest.approx(1.5)


def test_eval_w_selfsimilar_scaling_law():
    # W(x; a2) = sqrt(q) W(sqrt(q) x; a1) pointwise
    fam = SelfSimilar(q=0.5, c=1.0, a1=1.0)
    g = Grid(-8, 8, 401)
    W2 = eval_W(fam, 0.5, g)
    sq = np.sqrt(0.5)
    ref = sq * fam.engine.w(sq * g.x)
    assert np.max(np.abs(W2 - ref)) < 1e-12


@pytest.mark.parametrize("fam, name, value", [
    (Harmonic(a1=1.0), "a1", 2.0), (Morse(a1=2.5), "a1", 3.5),
    (SelfSimilar(q=0.5), "q", 0.9), (SelfSimilar(q=0.5), "q", 2.0),
    (SelfSimilar(q=0.5), "series_order", 30), (RosenMorseII(a1=4.0, B=2.0), "B", 1.0)])
def test_family_fields_cannot_be_assigned(fam, name, value):
    # rule, the engine and the W samples derive from the fields, which therefore stay fixed
    with pytest.raises(FrozenInstanceError):
        setattr(fam, name, value)
    assert getattr(fam, name) != value


def test_selfsimilar_derives_its_engine_from_its_fields():
    assert "_engine" not in {f.name for f in fields(SelfSimilar)}
    with pytest.raises(TypeError):
        SelfSimilar(q=0.5, _engine=None)
    # the replaced family keeps neither the engine nor the W samples of q = 0.5
    g = Grid(-3, 3, 61)
    fam = SelfSimilar(q=0.5)
    eval_W(fam, fam.a1, g)
    other = replace(fam, q=0.9)
    assert other.rule.factor_q == 0.9
    assert other.engine is not fam.engine
    assert eval_W(other, 1.0, g).tobytes() == eval_W(SelfSimilar(q=0.9), 1.0, g).tobytes()
    with pytest.raises(ValueError):
        replace(fam, q=2.0)


@pytest.mark.parametrize("fam", [Harmonic(a1=1.0), Morse(a1=2.5),
                                 SelfSimilar(q=0.5, c=1.0, a1=1.0)])
def test_eval_w_keeps_one_read_only_sample_per_a_and_grid(fam):
    g = Grid(-8, 8, 401)
    W = eval_W(fam, fam.a1, g)
    assert eval_W(fam, fam.a1, g) is W
    assert eval_W(fam, 0.5 * fam.a1, g) is not W
    assert eval_W(fam, fam.a1, Grid(-8, 8, 801)) is not W
    with pytest.raises(ValueError):
        W[0] = 0.0


@pytest.mark.parametrize("c, a1", [(1.0, 1.0), (1.3, 0.8), (0.7, 2.0)])
def test_scaling_family_at_q1_is_the_harmonic_oscillator(c, a1):
    # q = 1 leaves only the linear term c0 x of the series, c0 = c a1 / 2
    scaling = SelfSimilar(q=1.0, c=c, a1=a1)
    harmonic = Harmonic(a1=c * a1 / 2)
    g = Grid(-40, 40, 8001)
    assert eval_W(scaling, a1, g).tobytes() == eval_W(harmonic, harmonic.a1, g).tobytes()
    assert np.array_equal(energy_levels(scaling, 10).levels,
                          energy_levels(harmonic, 10).levels)


@pytest.mark.parametrize("c, a1", [(1.0, 1.0), (1.3, 0.8), (0.7, 2.0)])
def test_scaling_family_at_q1_has_the_harmonic_oracle_and_residual(c, a1):
    # W(x; a1) and the chain a2 = a1 coincide bitwise with the harmonic
    # family's, and R(a1) = c a1 = 2 (c a1 / 2) exactly, so both are bitwise
    scaling = SelfSimilar(q=1.0, c=c, a1=a1)
    harmonic = Harmonic(a1=c * a1 / 2)
    g = Grid(-40, 40, 8001)
    e_scaling, _ = fd_diagonalize(scaling, g, 6)
    e_harmonic, _ = fd_diagonalize(harmonic, g, 6)
    assert e_scaling.tobytes() == e_harmonic.tobytes()
    assert shape_invariance_residual(scaling, g) == shape_invariance_residual(harmonic, g)


@pytest.mark.parametrize("c, a1", [(1.0, 1.0), (1.3, 0.8), (0.7, 2.0)])
def test_scaling_family_at_q1_has_the_harmonic_eigenstates(c, a1):
    # the raising recursion sees the same W at every chain parameter and the
    # same levels, so each state and its pre-normalization norm are bitwise
    scaling = SelfSimilar(q=1.0, c=c, a1=a1)
    harmonic = Harmonic(a1=c * a1 / 2)
    g = Grid(-10, 10, 2001)
    tab_s, tab_h = energy_levels(scaling, 4), energy_levels(harmonic, 4)
    for n in range(5):
        psi_s, norm_s = eigenstate_with_prenorm(scaling, tab_s, n, g)
        psi_h, norm_h = eigenstate_with_prenorm(harmonic, tab_h, n, g)
        assert np.array_equal(psi_s, psi_h)
        assert norm_s == norm_h


# q -> 0 is the one-soliton limit: W -> k tanh(k x), psi_0 -> sqrt(k/2) sech(k x),
# with k^2 = c a1 = 1 here; the errors are first order in q (0.5-0.6 q and 0.15-0.18 q)
SMALL_Q = [0.1 / 2 ** j for j in range(7)]  # 0.1 down to 0.0016


def _soliton_errors(observable):
    g = Grid(-10, 10, 2001)
    return np.array([observable(SelfSimilar(q=q, c=1.0, a1=1.0), g) for q in SMALL_Q])


def _assert_first_order(errors, bound):
    halving = errors[:-1] / errors[1:]
    assert np.all((1.8 <= halving) & (halving <= 2.2)), halving
    assert np.all(errors <= bound * np.array(SMALL_Q)), errors / SMALL_Q


def test_small_q_W_converges_to_tanh_at_first_order():
    errors = _soliton_errors(
        lambda fam, g: np.max(np.abs(eval_W(fam, 1.0, g) - np.tanh(g.x))))
    _assert_first_order(errors, 0.65)


def test_small_q_ground_state_converges_to_sech_at_first_order():
    errors = _soliton_errors(
        lambda fam, g: np.max(np.abs(ground_state(fam, 1.0, g)
                                     - np.sqrt(0.5) / np.cosh(g.x))))
    _assert_first_order(errors, 0.2)


def test_remainders():
    assert SelfSimilar(q=0.5, c=1.0, a1=1.0).R(0.25) == 0.25
    assert Harmonic(a1=1.0).R(1.0) == 2.0
    # morse: R(a) = a^2 - (a-1)^2; value 4 at a=2.5 equals the first FD gap
    assert Morse(a1=2.5).R(2.5) == pytest.approx(2.5 ** 2 - 1.5 ** 2)


def test_remainder_positive_decreasing_for_scaling():
    fam = SelfSimilar(q=0.5, c=1.0, a1=1.0)
    rs = [fam.R(a) for a in chain(fam, 8)]
    assert all(r > 0 for r in rs)
    assert np.all(np.diff(rs) < 0)


def test_remainders_match_fd_gaps():
    # independent oracle: lowest FD gaps equal R(a_1), R(a_1) + R(a_2)
    g = Grid(-10, 10, 2001)
    e, _ = fd_diagonalize(Harmonic(a1=1.0), g, 2)
    assert e[1] == pytest.approx(2.0, abs=1e-5)
    gm = Grid(-5, 32, 3701)
    em, _ = fd_diagonalize(Morse(a1=2.5), gm, 3)
    assert em[1] == pytest.approx(4.0, abs=1e-3)
    assert em[2] == pytest.approx(6.0, abs=1e-3)


def test_ground_state_harmonic_gaussian():
    g = Grid(-10, 10, 2001)
    psi = ground_state(Harmonic(a1=1.0), 1.0, g)
    ref = np.exp(-g.x ** 2 / 2) / np.pi ** 0.25
    assert np.max(np.abs(psi - ref)) < 1e-9


def test_ground_state_morse_quadrature_oracle():
    # closed-form norm: int exp(-2Ax - 2e^-x) dx = Gamma(2A)/2^(2A) = 0.75
    g = Grid(-5, 32, 7401)
    psi = ground_state(Morse(a1=2.5), 2.5, g)
    ref = np.exp(-2.5 * g.x - np.exp(-g.x)) / np.sqrt(0.75)
    assert np.max(np.abs(psi - ref)) < 1e-8


def test_ground_state_non_normalizable():
    g = Grid(-10, 10, 2001)
    fam = Harmonic(a1=-1.0)  # W = -x grows the candidate state
    with pytest.raises(NonNormalizableError):
        ground_state(fam, -1.0, g)


def test_annihilation_gate_for_every_family():
    # ||A(a1) psi_0|| / ||psi_0|| <= 1e-6 on the interior 90% of the grid
    from siqm import apply_ladder
    cases = [(Harmonic(a1=1.0), Grid(-10, 10, 2001)),
             (Morse(a1=2.5), Grid(-5, 32, 3701)),
             (SelfSimilar(q=0.5, c=1.0, a1=1.0), Grid(-15, 15, 3001)),
             (PoschlTeller(3.0), PT_GRID), (RM2, TANH_GRID), (SCARF2, TANH_GRID)]
    for fam, g in cases:
        psi = ground_state(fam, fam.a1, g)
        out = apply_ladder(eval_W(fam, fam.a1, g), psi, g, "lower")
        sl = g.interior_slice()
        rel = np.linalg.norm(out[sl]) / np.linalg.norm(psi[sl])
        assert rel <= 1e-6, f"{fam.name}: {rel:.2e}"


def test_shape_invariance_residuals():
    fine = Grid(-10, 10, 4001)
    assert shape_invariance_residual(Harmonic(a1=1.0), fine) <= 1e-8
    gm = Grid(-5, 32, 3701)
    assert shape_invariance_residual(Morse(a1=2.5), gm) <= 1e-6
    gs = Grid(-15, 15, 3001)
    assert shape_invariance_residual(SelfSimilar(q=0.5, c=1.0, a1=1.0), gs) <= 1e-6
    assert shape_invariance_residual(PoschlTeller(3.0), PT_GRID) <= 1e-6
    assert shape_invariance_residual(RM2, gs) <= 1e-6
    assert shape_invariance_residual(SCARF2, gs) <= 1e-6


def test_shape_invariance_refuses_a_residual_that_is_not_finite():
    # W = a1 x with a1 = 1e160 squares to inf; max() alone would pass over the NaN
    with pytest.raises(ValueError, match="shape-invariance: residual nan is not finite"):
        shape_invariance_residual(Harmonic(a1=1e160), Grid(-10, 10, 2001))


@pytest.mark.parametrize("a1", [1e200, -1e200, float("inf"), float("nan")])
def test_morse_refuses_an_a1_whose_square_overflows(a1):
    # R(a) = a^2 - (a - 1)^2 would raise OverflowError from the float power
    with pytest.raises(OutOfDomainError, match=re.escape(f"got a1 = {a1}")):
        Morse(a1=a1)
    with pytest.raises(OutOfDomainError):
        family_from_config({"family": "morse", "a1": a1})


@pytest.mark.parametrize("order", [0, -5])
def test_scaling_family_refuses_a_series_order_below_1(order):
    # refused where the family is built, not only by the series it may never build
    with pytest.raises(ValueError, match=f"needs series order >= 1, got {order}"):
        SelfSimilar(series_order=order)
    with pytest.raises(ValueError, match=f"got {order}"):
        family_from_config({"family": "selfsimilar", "order": order})
    assert SelfSimilar(series_order=1).series_order == 1


def test_morse_at_a_large_finite_a1_is_unchanged():
    fam = Morse(a1=1e150)
    a = fam.a1
    assert fam.R(a) == a * a - (a - 1.0) ** 2


def test_config_round_trip():
    for fam in (SelfSimilar(q=0.5, c=1.0, a1=1.0), Harmonic(a1=1.3),
                Morse(a1=3.5)):
        cfg = json.loads(json.dumps(fam.to_config()))
        back = family_from_config(cfg)
        assert back.name == fam.name
        assert back.q == fam.q
        assert back.c == fam.c
        assert back.a1 == fam.a1
        assert back == fam


def test_undeclared_config_keys_rejected():
    assert set(Morse().to_config()) == {"family", "a1"}
    with pytest.raises(ValueError, match="delta"):
        family_from_config({"family": "morse", "a1": 2.5, "delta": -1.0})
    with pytest.raises(ValueError, match="order"):
        family_from_config({"family": "harmonic", "order": 5})


def test_poschl_teller_ladder_levels():
    # partial remainder sums against E_n = A^2 - (A-n)^2, then the oracle
    fam = PoschlTeller(3.0)
    levels = energy_levels(fam, 2).levels
    assert np.array_equal(levels, [0.0, 5.0, 8.0])
    with pytest.raises(LevelNotBoundError):
        energy_levels(fam, 3)      # a_4 = 0 leaves the domain a > 0
    e, _ = fd_diagonalize(fam, PT_GRID, 3)
    assert np.max(np.abs(e - levels)) <= 1e-6


@pytest.mark.parametrize("fam, levels", [(RM2, [0.0, 7.0 - 7.0 / 36.0, 11.25]),
                                          (SCARF2, [0.0, 7.0, 12.0, 15.0])])
def test_closed_spectrum_family_levels_oracle_and_prenorm(fam, levels):
    # remainder sums against the closed form, the first unbound level
    # refused, then the oracle and the raising recursion's norms
    top = len(levels) - 1
    tab = energy_levels(fam, top)
    assert tab.levels == pytest.approx(levels, rel=0, abs=1e-12)
    with pytest.raises(LevelNotBoundError):
        energy_levels(fam, top + 1)
    e, _ = fd_diagonalize(fam, TANH_GRID, top + 1)
    assert np.max(np.abs(e - tab.levels)) <= 1e-6
    norms = tab.norms(top + 1)
    for n in range(top + 1):
        _, prenorm = eigenstate_with_prenorm(fam, tab, n, TANH_GRID)
        assert abs(prenorm - norms[n]) <= 1e-7 * norms[n]


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        family_from_config({"family": "poschl-teller"})
