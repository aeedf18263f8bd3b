"""Operator-identity checks on the parameter lattice and the dilation forms."""

import warnings

import numpy as np
import pytest

from siqm import (RELATIONS, UnknownRelationError, WindowTooSmallError,
                  adjoint_pair_residual, build_grid, commutator_residual,
                  dilation_identity_residual, Harmonic, packet_state,
                  SelfSimilar)
import siqm.lattice
from siqm.lattice import LatticeContext, LatticeState

Q5 = SelfSimilar(q=0.5, c=1.0, a1=1.0)
GRID = build_grid(-15, 15, 3001)

SCALING_RELATION_TOL = 1e-6


@pytest.mark.parametrize("relation", RELATIONS)
def test_all_relations_at_q_half(relation):
    res = commutator_residual(relation, Q5, grid=GRID, window=12)
    assert res <= SCALING_RELATION_TOL, f"{relation}: {res:.3e}"


def test_commutator_acts_as_remainder_at_each_level():
    # [B-, B+] multiplies level k by R(a_k) = c q^(k-1) a1; level 2 -> 0.5
    ctx = LatticeContext(Q5, GRID, 8)
    state = packet_state(GRID, 8, levels=(2,))
    got = ctx.b_minus(ctx.b_plus(state.components)) - ctx.b_plus(ctx.b_minus(state.components))
    expected = 0.5 * state.components
    sl = GRID.interior_slice()
    num = np.linalg.norm((got - expected)[:, sl])
    assert num / np.linalg.norm(state.components[:, sl]) < 1e-8


def test_relation_fetches_each_ladder_level_once(monkeypatch):
    # one context per relation, and W of levels 1 .. window-1 fetched once each
    fam = SelfSimilar(q=0.6, c=1.0, a1=1.0)
    eval_W, fetched = siqm.lattice.eval_W, []

    def counting_eval_W(family, a, grid):
        fetched.append(a)
        return eval_W(family, a, grid)

    monkeypatch.setattr(siqm.lattice, "eval_W", counting_eval_W)
    commutator_residual("ladder-commutator", fam, grid=build_grid(-8, 8, 401), window=12)
    assert fetched == [fam.chain_value(k) for k in range(1, 12)]


def test_harmonic_degenerate_brackets():
    fam = Harmonic(a1=1.0)
    g = build_grid(-12, 12, 4801)
    for rel in ("ladder-commutator", "remainder-bracket", "remainder-bracket-2",
                "remainder-bracket-3"):
        res = commutator_residual(rel, fam, grid=g, window=12)
        assert res <= 1e-8, f"{rel}: {res:.3e}"


def test_q1_q_oscillator_degenerates_to_boson():
    fam = SelfSimilar(q=1.0, c=1.0, a1=1.0)
    g = build_grid(-12, 12, 2401)
    assert commutator_residual("q-oscillator", fam, grid=g, window=12) <= 1e-6


def test_scaling_only_relations_guarded():
    with pytest.raises(UnknownRelationError):
        commutator_residual("q-oscillator", Harmonic(a1=1.0), grid=GRID)
    with pytest.raises(UnknownRelationError):
        commutator_residual("so21-commutator", SelfSimilar(q=1.0),
                            grid=build_grid(-12, 12, 2401))
    with pytest.raises(UnknownRelationError):
        commutator_residual("no-such-relation", Q5, grid=GRID)


def test_shift_then_unshift_is_identity_on_interior():
    state = packet_state(GRID, 8)
    ctx = LatticeContext(Q5, GRID, 8)
    out = ctx.t_shift_dag(ctx.t_shift(state.components))
    assert np.array_equal(out[1:-1], state.components[1:-1])


def test_shift_rule_equality():
    # f(a_1) B+ equals B+ f(a_0) applied to a Gaussian lattice state
    res = commutator_residual("shift-rule-raise", Q5, grid=GRID, window=12)
    assert res <= 1e-10


def test_hamiltonian_block_is_shifted_factorization():
    # (B+ B- psi)_k = A_dag(a_{k+1}) A(a_{k+1}) psi_k
    from siqm.families import eval_W
    from siqm.grid import WaveFunctionGrid, apply_ladder
    ctx = LatticeContext(Q5, GRID, 8)
    state = packet_state(GRID, 8, levels=(3,))
    got = ctx.b_plus(ctx.b_minus(state.components))
    W = eval_W(Q5, Q5.chain_value(4), GRID)  # level 3 carries a_4
    psi = WaveFunctionGrid(GRID, state.components[3])
    ref = apply_ladder(W, apply_ladder(W, psi, "lower"), "raise").amplitudes
    assert np.max(np.abs(got[3] - ref)) < 1e-12
    assert np.max(np.abs(got[[0, 1, 2, 4, 5, 6]])) < 1e-14


def test_j3_is_level_diagonal_count():
    ctx = LatticeContext(Q5, GRID, 8)
    state = packet_state(GRID, 8, levels=(2, 4))
    out = ctx.j3(state.components)
    assert np.allclose(out[2], -1.0 * state.components[2])
    assert np.allclose(out[4], -3.0 * state.components[4])


def test_edge_monotonicity_across_windows():
    # interior residuals must not grow with the window size
    rels = ("ladder-commutator", "q-oscillator")
    for rel in rels:
        residuals = [commutator_residual(rel, Q5, grid=GRID, window=K)
                     for K in (6, 8, 12)]
        assert max(residuals) <= 1e-6
        assert residuals[-1] <= residuals[0] * 1.5 + 1e-12


def test_adjoint_pairs():
    for pair in ("B", "K", "S"):
        assert adjoint_pair_residual(Q5, GRID, 10, pair) <= 1e-8
    with pytest.raises(ValueError):
        adjoint_pair_residual(Harmonic(a1=1.0), GRID, 10, "K")


def test_window_too_small():
    with pytest.raises(WindowTooSmallError):
        LatticeState(GRID, np.zeros((4, GRID.n_points), dtype=complex))


def test_dilation_identities():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r3 = dilation_identity_residual(Q5, GRID, "yy3")
        r6 = dilation_identity_residual(Q5, GRID, "yy6")
    assert r3 <= 1e-5
    assert r6 <= 1e-5
    # the two identities are algebraically the same statement
    assert abs(r3 - r6) <= 1e-7


def test_dilation_identity_q1_reduces_to_factorization():
    fam = SelfSimilar(q=1.0, c=1.0, a1=1.0)
    g = build_grid(-12, 12, 2401)
    assert dilation_identity_residual(fam, g, "yy3") <= 1e-8


def test_dilation_operator_output_is_constant_multiple():
    # the combination A A_dag - q A_dag(sq x) A(sq x) acts as the number c a1
    from siqm.families import eval_W
    from siqm.grid import WaveFunctionGrid, apply_ladder, dilate
    q = 0.5
    sq = np.sqrt(q)
    W = eval_W(Q5, 1.0, GRID)
    x = GRID.x
    for x0, sig in ((0.0, 1.3), (0.5, 0.9), (-0.8, 1.7)):
        f = WaveFunctionGrid(GRID, np.exp(-((x - x0) ** 2) / (2 * sig ** 2)).astype(complex))
        inner_part = dilate(f, 1.0 / sq, unitary=True)
        inner_part = apply_ladder(W, apply_ladder(W, inner_part, "lower"), "raise")
        conj = dilate(inner_part, sq, unitary=True)
        lhs = apply_ladder(W, apply_ladder(W, f, "raise"), "lower")
        op_f = lhs.amplitudes - q * conj.amplitudes
        # ratios are meaningful where f itself is not vanishingly small
        mask = np.abs(f.amplitudes) > 1e-2 * np.max(np.abs(f.amplitudes))
        ratio = op_f[mask] / f.amplitudes[mask]
        assert np.max(np.abs(ratio - 1.0)) < 1e-4
