"""Operator-identity checks on the parameter lattice and the dilation forms."""

import warnings
from math import comb

import numpy as np
import pytest

from siqm import (RELATIONS, UnknownRelationError, WindowTooSmallError,
                  adjoint_pair_residual, apply_ladder, applicable_relations,
                  commutator_residual, dilate, dilation_identity_residual, eigen_residual,
                  eval_W, Grid, Harmonic, Morse, normalized, packet_state,
                  shape_invariance_residual, SelfSimilar)
import siqm.lattice
from siqm.families import worst_residual
from siqm.lattice import LatticeContext

Q5 = SelfSimilar(q=0.5, c=1.0, a1=1.0)
GRID = Grid(-15, 15, 3001)

SCALING_RELATION_TOL = 1e-6


@pytest.mark.parametrize("relation", RELATIONS)
def test_all_relations_at_q_half(relation):
    res = commutator_residual(relation, Q5, grid=GRID, window=12)
    assert res <= SCALING_RELATION_TOL, f"{relation}: {res:.3e}"


def test_commutator_acts_as_remainder_at_each_level():
    # [B-, B+] multiplies level k by R(a_k) = c q^(k-1) a1; level 2 -> 0.5
    ctx = LatticeContext(Q5, GRID, 8)
    state = packet_state(GRID, 8, levels=(2,))
    got = ctx.b_minus(ctx.b_plus(state)) - ctx.b_plus(ctx.b_minus(state))
    expected = 0.5 * state
    sl = GRID.interior_slice()
    num = np.linalg.norm((got - expected)[:, sl])
    assert num / np.linalg.norm(state[:, sl]) < 1e-8


def test_relation_fetches_each_ladder_level_once(monkeypatch):
    # one context per relation, and W of levels 1 .. window-1 fetched once each
    fam = SelfSimilar(q=0.6, c=1.0, a1=1.0)
    eval_W, fetched = siqm.lattice.eval_W, []

    def counting_eval_W(family, a, grid):
        fetched.append(a)
        return eval_W(family, a, grid)

    monkeypatch.setattr(siqm.lattice, "eval_W", counting_eval_W)
    commutator_residual("ladder-commutator", fam, grid=Grid(-8, 8, 401), window=12)
    assert fetched == [fam.chain_value(k) for k in range(1, 12)]


# ladder actions (words) per packet of each relation, in RELATIONS order
WORDS = dict(zip(RELATIONS, (4, 2, 3, 4, 4, 2, 3, 4, 5, 4, 4, 2, 2, 2, 2), strict=True))


def test_each_word_is_built_once_per_packet(monkeypatch):
    # a word costs window - 1 apply_ladder calls, and each relation runs three packets
    apply_ladder, calls = siqm.lattice.apply_ladder, []

    def counting_apply_ladder(W, psi, grid, mode):
        calls.append(mode)
        return apply_ladder(W, psi, grid, mode)

    monkeypatch.setattr(siqm.lattice, "apply_ladder", counting_apply_ladder)
    grid = Grid(-8, 8, 401)
    totals = {}
    for fam in (SelfSimilar(q=0.6, c=1.0, a1=1.0), Harmonic(a1=1.0)):
        totals[fam.name] = 0
        for rel in applicable_relations(fam):
            calls.clear()
            commutator_residual(rel, fam, grid=grid, window=12)
            assert len(calls) == 11 * 3 * WORDS[rel], rel
            totals[fam.name] += len(calls)
    assert totals == {"selfsimilar": 1551, "harmonic": 561}


def _two_sided(x, relation):
    """A relation as (LHS, RHS) actions that build every word where it occurs."""
    def X(P, f, m, c):
        for _ in range(m):
            c = P(c)
        return f(m, c)

    def tower(P, f, n):
        return (lambda c: P(X(P, f, n, c)) - X(P, f, n, P(c))), (lambda c: X(P, f, n + 1, c))

    def bracket(A, B):
        return lambda c: A(B(c)) - B(A(c))

    rem0 = lambda c: x.rem(c, 0)
    return {
        "ladder-commutator": (bracket(x.b_minus, x.b_plus), rem0),
        "remainder-bracket": (bracket(x.b_plus, rem0),
                              lambda c: x.rem(x.b_plus(c), 1) - x.rem(x.b_plus(c), 0)),
        "remainder-bracket-2": tower(x.b_plus, x.rem_difference, 1),
        "remainder-bracket-3": tower(x.b_plus, x.rem_difference, 2),
        "scaled-commutator": (bracket(x.k_minus, x.k_plus), lambda c: x.rem(c, 1)),
        "scaled-remainder-bracket": tower(x.k_plus, x.scaled_rem, 0),
        "scaled-tower-1": tower(x.k_plus, x.scaled_rem, 1),
        "scaled-tower-2": tower(x.k_plus, x.scaled_rem, 2),
        "scaled-tower-3": tower(x.k_plus, x.scaled_rem, 3),
        "q-oscillator": (lambda c: x.s_minus(x.s_plus(c)) - Q5.q * x.s_plus(x.s_minus(c)),
                         lambda c: c),
        "so21-commutator": (bracket(x.b_minus, x.b_plus),
                            lambda c: Q5.c * x.exp_minus_p_j3(c)),
        "j3-ladder-up": (bracket(x.j3, x.b_plus), x.b_plus),
        "j3-ladder-down": (bracket(x.j3, x.b_minus), lambda c: -x.b_minus(c)),
        "shift-rule-raise": (lambda c: x.rem(x.b_plus(c), 1), lambda c: x.b_plus(rem0(c))),
        "shift-rule-lower": (lambda c: x.rem(x.b_minus(c), 1), lambda c: x.b_minus(x.rem(c, 2))),
    }[relation]


@pytest.mark.parametrize("relation", RELATIONS)
def test_residual_equals_two_sided_form_bitwise(relation):
    lhs, rhs = _two_sided(LatticeContext(Q5, GRID, 12), relation)
    sl = GRID.interior_slice()
    worst = 0.0
    for packet in (dict(x0=0.0, sigma=1.0), dict(x0=-1.0, sigma=1.3),
                   dict(x0=0.8, sigma=0.9, momentum=0.6)):
        c = packet_state(GRID, 12, **packet)
        num = float(np.linalg.norm((lhs(c) - rhs(c))[1:-1, sl]))
        worst = max(worst, num / float(np.linalg.norm(c[1:-1, sl])))
    assert commutator_residual(relation, Q5, grid=GRID, window=12) == worst


def test_harmonic_degenerate_brackets():
    fam = Harmonic(a1=1.0)
    g = Grid(-12, 12, 4801)
    for rel in ("ladder-commutator", "remainder-bracket", "remainder-bracket-2",
                "remainder-bracket-3"):
        res = commutator_residual(rel, fam, grid=g, window=12)
        assert res <= 1e-8, f"{rel}: {res:.3e}"


def test_q1_q_oscillator_degenerates_to_boson():
    fam = SelfSimilar(q=1.0, c=1.0, a1=1.0)
    g = Grid(-12, 12, 2401)
    assert commutator_residual("q-oscillator", fam, grid=g, window=12) <= 1e-6


def test_scaling_only_relations_guarded():
    with pytest.raises(UnknownRelationError):
        commutator_residual("q-oscillator", Harmonic(a1=1.0), grid=GRID)
    with pytest.raises(UnknownRelationError):
        commutator_residual("so21-commutator", SelfSimilar(q=1.0),
                            grid=Grid(-12, 12, 2401))
    with pytest.raises(UnknownRelationError):
        commutator_residual("no-such-relation", Q5, grid=GRID)


def test_shift_rule_equality():
    # f(a_1) B+ equals B+ f(a_0) applied to a Gaussian lattice state
    res = commutator_residual("shift-rule-raise", Q5, grid=GRID, window=12)
    assert res <= 1e-10


def _per_level(ctx, f, offset, comps):
    """Level k times the scalar f(a_{k+offset}), one chain value at a time."""
    vals = np.array([f(ctx.family.chain_value(k + offset)) for k in range(comps.shape[0])])
    return comps * vals[:, None]


def _per_level_rem_difference(ctx, depth, comps):
    """Level k times the depth-th forward difference of R at a_k, a scalar sum per level."""
    out = np.zeros_like(comps)
    for k in range(comps.shape[0]):
        acc = sum((-1) ** (depth - j) * comb(depth, j)
                  * ctx.family.R(ctx.family.chain_value(k + j)) for j in range(depth + 1))
        out[k] = acc * comps[k]
    return out


@pytest.mark.parametrize("window", (6, 12))
@pytest.mark.parametrize("fam", [Q5, SelfSimilar(q=0.93, c=1.2, a1=0.8),
                                 SelfSimilar(q=1.0, c=1.0, a1=1.0), Harmonic(a1=1.0),
                                 Morse(a1=8.0)], ids=repr)
def test_level_diagonal_actions_equal_the_per_level_scalars_bitwise(fam, window):
    # every level is nonzero, so the top table entries, up to a_{window+2}, are read
    grid = Grid(-8, 8, 401)
    ctx = LatticeContext(fam, grid, window)
    rng = np.random.default_rng(window)
    c = rng.standard_normal((window, grid.n_points)) + 1j * rng.standard_normal(
        (window, grid.n_points))
    pairs = [(ctx.rem(c, m), _per_level(ctx, fam.R, m, c)) for m in (0, 1, 2)]
    pairs += [(ctx.rem_difference(d, c), _per_level_rem_difference(ctx, d, c))
              for d in (1, 2, 3)]
    pairs.append((ctx.exp_minus_p_j3(c), _per_level(ctx, lambda a: a, 0, c)))
    if fam.q is not None:
        rinv = lambda a: 1.0 / np.sqrt(fam.R(a))
        pairs += [(ctx.scaled_rem(d, c), (fam.q - 1.0) ** d * _per_level(ctx, fam.R, 1, c))
                  for d in range(4)]
        pairs += [(ctx.s_plus(c), ctx.k_plus(_per_level(ctx, rinv, 1, c))),
                  (ctx.s_minus(c), _per_level(ctx, rinv, 1, ctx.k_minus(c)))]
    if fam.q is not None and fam.q < 1.0:
        p = np.log(fam.q)
        pairs.append((ctx.j3(c), _per_level(ctx, lambda a: -np.log(a) / p, 0, c)))
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


def test_hamiltonian_block_is_shifted_factorization():
    # (B+ B- psi)_k = A_dag(a_{k+1}) A(a_{k+1}) psi_k
    from siqm.families import eval_W
    from siqm.grid import apply_ladder
    ctx = LatticeContext(Q5, GRID, 8)
    state = packet_state(GRID, 8, levels=(3,))
    got = ctx.b_plus(ctx.b_minus(state))
    W = eval_W(Q5, Q5.chain_value(4), GRID)  # level 3 carries a_4
    ref = apply_ladder(W, apply_ladder(W, state[3], GRID, "lower"), GRID, "raise")
    assert np.max(np.abs(got[3] - ref)) < 1e-12
    assert np.max(np.abs(got[[0, 1, 2, 4, 5, 6]])) < 1e-14


def test_j3_is_level_diagonal_count():
    ctx = LatticeContext(Q5, GRID, 8)
    state = packet_state(GRID, 8, levels=(2, 4))
    out = ctx.j3(state)
    assert np.allclose(out[2], -1.0 * state[2])
    assert np.allclose(out[4], -3.0 * state[4])


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
        LatticeContext(Q5, GRID, 4)


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
    g = Grid(-12, 12, 2401)
    assert dilation_identity_residual(fam, g, "yy3") <= 1e-8


def test_dilation_operator_output_is_constant_multiple():
    # the combination A A_dag - q A_dag(sq x) A(sq x) acts as the number c a1
    from siqm.families import eval_W
    from siqm.grid import apply_ladder, dilate
    q = 0.5
    sq = np.sqrt(q)
    W = eval_W(Q5, 1.0, GRID)
    x = GRID.x
    for x0, sig in ((0.0, 1.3), (0.5, 0.9), (-0.8, 1.7)):
        f = np.exp(-((x - x0) ** 2) / (2 * sig ** 2)).astype(complex)
        inner_part = dilate(f, GRID, 1.0 / sq, unitary=True)
        inner_part = apply_ladder(W, apply_ladder(W, inner_part, GRID, "lower"), GRID, "raise")
        conj = dilate(inner_part, GRID, sq, unitary=True)
        lhs = apply_ladder(W, apply_ladder(W, f, GRID, "raise"), GRID, "lower")
        op_f = lhs - q * conj
        # ratios are meaningful where f itself is not vanishingly small
        mask = np.abs(f) > 1e-2 * np.max(np.abs(f))
        ratio = op_f[mask] / f[mask]
        assert np.max(np.abs(ratio - 1.0)) < 1e-4


class Overflowing(SelfSimilar):
    """A scaling family whose W squares to inf."""

    def W(self, x, a):
        return 1e300 * a * x


@pytest.mark.parametrize("check, residual", [
    ("ladder-commutator", lambda: commutator_residual(
        "ladder-commutator", Harmonic(a1=1e300), GRID, window=8)),
    ("dilation-yy3", lambda: dilation_identity_residual(Overflowing(), GRID, "yy3")),
    ("dilation-yy6", lambda: dilation_identity_residual(Overflowing(), GRID, "yy6")),
])
def test_residual_that_is_not_finite_is_refused_naming_the_check(check, residual):
    # max(worst, nan) keeps worst, so a NaN residual used to read as a pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=f"{check}: residual nan is not finite"):
            residual()


def test_worst_residual():
    assert worst_residual("c", []) == 0.0
    assert worst_residual("c", [1e-9, 3e-8, 2e-8]) == 3e-8
    assert worst_residual("c", np.array([[1e-9, 3e-8], [2e-8, 0.0]])) == 3e-8
    assert worst_residual("c", 2e-8) == 2e-8
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"c: residual {bad} is not finite"):
            worst_residual("c", [1e-9, bad, 2e-8])


# The per-check probe builders and loops that the shared packet builder,
# partner product and interior reduction replaced, kept as the reference.

def _old_default_test_functions(grid):
    x = grid.x
    span = min(abs(grid.x_min), abs(grid.x_max))
    packets = [normalized(np.exp(-((x - x0) ** 2) / (2 * sig ** 2)), grid)
               for x0, sig in ((0.0, 1.0), (-0.15 * span, 1.4), (0.1 * span, 0.8))]
    return packets + [normalized(np.exp(-x ** 2 / 2.5) * np.exp(0.7j * x), grid)]


def _old_dilation_test_functions(grid, sq):
    span = min(abs(grid.x_min), abs(grid.x_max)) * sq * 0.6
    x = grid.x
    return [normalized(np.exp(-((x - x0) ** 2) / (2 * sig ** 2)), grid)
            for x0, sig in ((0.0, span / 4), (span / 8, span / 5), (-span / 10, span / 4.5))]


def _old_packet_state(grid, window, x0, sigma, momentum=0.0):
    mid = window // 2
    x = grid.x
    amps = np.exp(-((x - x0) ** 2) / (2 * sigma ** 2)) * np.exp(1j * momentum * x)
    comps = np.zeros((window, grid.n_points), dtype=complex)
    for lev in (mid - 1, mid):
        comps[lev] = amps
    comps /= np.linalg.norm(comps)
    return comps


def _old_shape_invariance(fam, grid):
    W1 = eval_W(fam, fam.a1, grid)
    W2 = eval_W(fam, fam.chain_value(2), grid)
    R = fam.R(fam.a1)
    sl = grid.interior_slice()
    residuals = []
    for f in _old_default_test_functions(grid):
        lhs = apply_ladder(W1, apply_ladder(W1, f, grid, "raise"), grid, "lower")
        rhs = apply_ladder(W2, apply_ladder(W2, f, grid, "lower"), grid, "raise")
        diff = lhs - rhs - R * f
        residuals.append(float(np.linalg.norm(diff[sl]) / np.linalg.norm(f[sl])))
    return worst_residual("shape-invariance", residuals)


def _old_dilation(fam, grid, which):
    q = fam.q
    sq = np.sqrt(q)
    W = eval_W(fam, fam.a1, grid)
    R = fam.R(fam.a1)
    sl = grid.interior_slice()
    residuals = []
    for f in _old_dilation_test_functions(grid, sq):
        if which == "yy3":
            inner = dilate(f, grid, 1.0 / sq, unitary=True)
            inner = apply_ladder(W, apply_ladder(W, inner, grid, "lower"), grid, "raise")
            conj = dilate(inner, grid, sq, unitary=True)
            lhs = apply_ladder(W, apply_ladder(W, f, grid, "raise"), grid, "lower")
            diff = lhs - q * conj - R * f
        else:
            cc = apply_ladder(W, apply_ladder(W, f, grid, "raise"), grid, "lower")
            sf = dilate(f, grid, 1.0 / sq, unitary=False)
            asf = apply_ladder(W, sf, grid, "lower")
            cdc = dilate(apply_ladder(W, asf, grid, "raise"), grid, sq, unitary=False)
            diff = cc - q * cdc - R * f
        residuals.append(float(np.linalg.norm(diff[sl]) / np.linalg.norm(f[sl])))
    return worst_residual(f"dilation-{which}", residuals)


def _old_commutator(relation, fam, grid, window):
    residual = siqm.lattice._RELATIONS[relation][1](LatticeContext(fam, grid, window))
    sl = grid.interior_slice()
    states = (_old_packet_state(grid, window, 0.0, 1.0),
              _old_packet_state(grid, window, -1.0, 1.3),
              _old_packet_state(grid, window, 0.8, 0.9, momentum=0.6))
    return worst_residual(relation, [float(np.linalg.norm(residual(c)[1:-1, sl]))
                                     / float(np.linalg.norm(c[1:-1, sl])) for c in states])


def _old_eigen_residual(fam, psi, grid, energy):
    W = eval_W(fam, fam.a1, grid)
    diff = apply_ladder(W, apply_ladder(W, psi, grid, "lower"), grid, "raise") - energy * psi
    sl = grid.interior_slice()
    return float(np.sqrt(grid.spacing * np.sum(np.abs(diff[sl]) ** 2)))


@pytest.mark.parametrize("fam", [
    SelfSimilar(q=0.3), SelfSimilar(q=0.5), SelfSimilar(q=0.93, c=1.2, a1=0.8),
    SelfSimilar(q=1.0), Harmonic(a1=1.0), Harmonic(a1=2.7), Morse(a1=2.5), Morse(a1=8.0),
], ids=repr)
@pytest.mark.parametrize("grid", [Grid(-8, 8, 401), Grid(-10, 10, 1201)], ids=repr)
def test_shared_probes_and_reduction_equal_the_per_check_loops_bitwise(fam, grid):
    pairs = [(shape_invariance_residual(fam, grid), _old_shape_invariance(fam, grid))]
    pairs += [(eigen_residual(fam, f, grid, fam.R(fam.a1)),
               _old_eigen_residual(fam, f, grid, fam.R(fam.a1)))
              for f in _old_default_test_functions(grid)]
    if fam.q is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the probes stay inside the grid when dilated
            pairs += [(dilation_identity_residual(fam, grid, which),
                       _old_dilation(fam, grid, which)) for which in ("yy3", "yy6")]
    for window in (6, 12):
        pairs += [(commutator_residual(rel, fam, grid, window),
                   _old_commutator(rel, fam, grid, window))
                  for rel in applicable_relations(fam)]
        for x0, sigma, momentum in ((0.0, 1.0, 0.0), (-1.0, 1.3, 0.0), (0.8, 0.9, 0.6)):
            got = packet_state(grid, window, x0=x0, sigma=sigma, momentum=momentum)
            assert got.tobytes() == _old_packet_state(grid, window, x0, sigma,
                                                      momentum).tobytes()
    for got, want in pairs:
        assert type(got) is float and got.hex() == want.hex()
