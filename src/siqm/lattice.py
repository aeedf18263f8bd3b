"""Parameter-lattice representation of the shape-invariance operator algebra.

The abstract relations involve the shift operator T that replaces a_1 by
a_2 inside any operator, which has no diagonal action on a single
Hamiltonian's eigenbasis. The minimal faithful realization stacks K copies
of the spatial grid into levels k = 0 .. K-1, level k carrying the chain
parameter a_{k+1}; a state is then one x-wavefunction per level. On this
lattice

    (T psi)_k     = psi_{k+1}            (T_dag psi)_k = psi_{k-1}
    (f(a_m) psi)_k = f(a_{k+m}) psi_k     (level-diagonal parameter functions)
    (B+ psi)_k    = A_dag(a_{k+1}) psi_{k+1}
    (B- psi)_k    = A(a_k) psi_{k-1}

and every commutation relation of the algebra becomes a concrete block
identity checkable to grid accuracy. T itself is notation: it shows only
as the level offsets of the other actions. Content shifted outside the
window is dropped, so test states live in the middle levels and residual
norms are restricted to interior levels.

A lattice state is a plain (window, n_points) complex array, row k being
level k. Each relation is one residual action c -> (LHS - RHS)(c) that
builds each operator word once per packet.

Relation identifiers (see RELATIONS): the ladder commutator
[B-, B+] = R(a_0), the remainder brackets generating the infinite tower,
their sqrt(q)-scaled K+/K- versions, the q-deformed oscillator relation
S- S+ - q S+ S- = 1, the deformed SO(2,1) form c*exp(-p J3) of the
commutator, and the J3 ladder property [J3, B+-] = +-B+-.
"""

from functools import cached_property
from math import comb

import numpy as np

from .families import PotentialFamily, _worst_interior_residual, eval_W
from .grid import Grid, _packet, _partner, apply_ladder, dilate, normalized


class WindowTooSmallError(ValueError):
    """The lattice window cannot contain the operator's level reach."""


class UnknownRelationError(ValueError):
    """Relation identifier not in the registry."""


def packet_state(grid: Grid, window: int, levels: tuple[int, ...] | None = None,
                 x0: float = 0.0, sigma: float = 1.0,
                 momentum: float = 0.0) -> np.ndarray:
    """(window, n_points) Gaussian packet in the given levels (default: the two middle ones)."""
    levels = (window // 2 - 1, window // 2) if levels is None else levels
    amps = _packet(grid, x0, 2 * sigma ** 2, momentum)
    comps = np.zeros((window, grid.n_points), dtype=complex)
    for lev in levels:
        comps[lev] = amps
    comps /= np.linalg.norm(comps)
    return comps


class LatticeContext:
    """Per-level superpotentials, chain tables and primitive operator actions.

    The tables a[m] = a_m and r[m] = R(a_m), m = 0 .. window+2, and the W
    samples of the ladder levels are built once from the family's chain. A
    level-diagonal action scales level k by table entry k + offset; the S
    pair's 1/sqrt(R) and J3's log(q), scaling-only, are computed on use.
    """

    def __init__(self, family: PotentialFamily, grid: Grid, window: int):
        if window < 6:
            raise WindowTooSmallError("lattice window must have at least 6 levels")
        self.family = family
        self.grid = grid
        self.window = window
        chain = [family.chain_value(m) for m in range(window + 3)]
        self.a = np.array(chain)
        self.r = np.array([family.R(a) for a in chain])
        # W(x; a_k) for k = 1 .. window-1: B+ at level k - 1 and B- at level k
        self.level_W = [eval_W(family, a, grid) for a in chain[1:window]]

    # primitive actions on raw (window, n) arrays

    def b_plus(self, comps: np.ndarray) -> np.ndarray:
        out = np.zeros_like(comps)
        for k, (W, above) in enumerate(zip(self.level_W, comps[1:], strict=True)):
            out[k] = apply_ladder(W, above, self.grid, "raise")
        return out

    def b_minus(self, comps: np.ndarray) -> np.ndarray:
        out = np.zeros_like(comps)
        for k, (W, below) in enumerate(zip(self.level_W, comps[:-1], strict=True), start=1):
            out[k] = apply_ladder(W, below, self.grid, "lower")
        return out

    def rem(self, comps: np.ndarray, offset: int) -> np.ndarray:
        """Level k multiplied by R(a_{k+offset})."""
        return comps * self.r[offset:offset + self.window, None]

    def rem_difference(self, depth: int, comps: np.ndarray) -> np.ndarray:
        """Level k multiplied by the depth-th forward difference of R at a_k."""
        diff = sum((-1) ** (depth - j) * comb(depth, j) * self.r[j:j + self.window]
                   for j in range(depth + 1))
        return comps * diff[:, None]

    def scaled_rem(self, depth: int, comps: np.ndarray) -> np.ndarray:
        """Level k multiplied by (q - 1)^depth R(a_{k+1})."""
        return (self.family.q - 1.0) ** depth * self.rem(comps, 1)

    def k_plus(self, comps):
        return np.sqrt(self.family.q) * self.b_plus(comps)

    def k_minus(self, comps):
        return np.sqrt(self.family.q) * self.b_minus(comps)

    @cached_property
    def _r_inv_sqrt(self):  # level k's 1/sqrt(R(a_{k+1})): S+ = K+ R^(-1/2), S- = R^(-1/2) K-
        return 1.0 / np.sqrt(self.r[1:self.window + 1, None])

    def s_plus(self, comps):
        return self.k_plus(comps * self._r_inv_sqrt)

    def s_minus(self, comps):
        return self.k_minus(comps) * self._r_inv_sqrt

    def j3(self, comps):
        return comps * (-np.log(self.a[:self.window, None]) / np.log(self.family.q))

    def exp_minus_p_j3(self, comps):
        # exp(-p J3) = a_0 as a level-diagonal operator
        return comps * self.a[:self.window, None]


def _bracket(X, Y, rhs):
    """The residual of [X, Y] = rhs: c -> X(Y(c)) - Y(X(c)) - rhs(c)."""
    return lambda c: X(Y(c)) - Y(X(c)) - rhs(c)


def _tower(P, f, n: int):
    """The residual of [P, X_n] = X_{n+1}, where X_m(c) = f(m, P^m c).

    P^n c and P^(n+1) c are built once each: n + 2 applications of P.
    """
    def residual(c):
        for _ in range(n):
            c = P(c)
        up = P(c)
        return P(f(n, c)) - f(n, up) - f(n + 1, up)
    return residual


# The families a relation is defined for: (test, description).
_EVERY = (lambda fam: True, "every family")
_SCALING = (lambda fam: fam.q is not None, "scaling families")
# J3 = -log(a) / log(q) is singular at q = 1 (p = log q = 0)
_SCALING_Q_LT_1 = (lambda fam: fam.q is not None and fam.q < 1.0,
                   "scaling families with q < 1")

# Relation id -> (families it holds for, builder ctx -> residual action).
# A word that both sides use is bound once with := and reused.
_RELATIONS = {
    "ladder-commutator": (_EVERY, lambda x: _bracket(
        x.b_minus, x.b_plus, lambda c: x.rem(c, 0))),
    "remainder-bracket": (_EVERY, lambda x: lambda c: (
        x.b_plus(x.rem(c, 0)) - x.rem(up := x.b_plus(c), 0) - (x.rem(up, 1) - x.rem(up, 0)))),
    "remainder-bracket-2": (_EVERY, lambda x: _tower(x.b_plus, x.rem_difference, 1)),
    "remainder-bracket-3": (_EVERY, lambda x: _tower(x.b_plus, x.rem_difference, 2)),
    "scaled-commutator": (_SCALING, lambda x: _bracket(
        x.k_minus, x.k_plus, lambda c: x.rem(c, 1))),
    "scaled-remainder-bracket": (_SCALING, lambda x: _tower(x.k_plus, x.scaled_rem, 0)),
    "scaled-tower-1": (_SCALING, lambda x: _tower(x.k_plus, x.scaled_rem, 1)),
    "scaled-tower-2": (_SCALING, lambda x: _tower(x.k_plus, x.scaled_rem, 2)),
    "scaled-tower-3": (_SCALING, lambda x: _tower(x.k_plus, x.scaled_rem, 3)),
    "q-oscillator": (_SCALING, lambda x: lambda c: (
        x.s_minus(x.s_plus(c)) - x.family.q * x.s_plus(x.s_minus(c)) - c)),
    "so21-commutator": (_SCALING_Q_LT_1, lambda x: _bracket(
        x.b_minus, x.b_plus, lambda c: x.family.c * x.exp_minus_p_j3(c))),
    "j3-ladder-up": (_SCALING_Q_LT_1, lambda x: lambda c: (
        x.j3(up := x.b_plus(c)) - x.b_plus(x.j3(c)) - up)),
    "j3-ladder-down": (_SCALING_Q_LT_1, lambda x: lambda c: (
        x.j3(down := x.b_minus(c)) - x.b_minus(x.j3(c)) + down)),
    "shift-rule-raise": (_EVERY, lambda x: lambda c: (
        x.rem(x.b_plus(c), 1) - x.b_plus(x.rem(c, 0)))),
    "shift-rule-lower": (_EVERY, lambda x: lambda c: (
        x.rem(x.b_minus(c), 1) - x.b_minus(x.rem(c, 2)))),
}

RELATIONS = list(_RELATIONS)


def applicable_relations(family: PotentialFamily) -> list[str]:
    """The relation ids defined for the family, in RELATIONS order."""
    return [rel for rel, ((holds, _), _) in _RELATIONS.items() if holds(family)]


def commutator_residual(relation_id: str, family: PotentialFamily, grid: Grid,
                        window: int = 12) -> float:
    """Worst relative residual of one commutation relation over three packets.

    The residual is ||(LHS - RHS) psi|| / ||psi|| restricted to interior
    levels and the interior 90% of the grid. Relations outside the family's
    scope (see applicable_relations) are rejected: the scaled ones need a
    scaling family, and the J3 ones also q < 1. A residual that is not
    finite is refused, naming the relation.
    """
    if relation_id not in _RELATIONS:
        raise UnknownRelationError(f"unknown relation {relation_id!r}")
    (holds, scope), build = _RELATIONS[relation_id]
    if not holds(family):
        raise UnknownRelationError(f"{relation_id} is defined for {scope} only")
    ctx = LatticeContext(family, grid, window)
    states = [packet_state(grid, window, x0=0.0, sigma=1.0),
              packet_state(grid, window, x0=-1.0, sigma=1.3),
              packet_state(grid, window, x0=0.8, sigma=0.9, momentum=0.6)]
    return _worst_interior_residual(relation_id, build(ctx), states, grid)


def adjoint_pair_residual(family: PotentialFamily, grid: Grid, window: int,
                          pair: str = "B") -> float:
    """|<phi, Op+ psi> - <Op- phi, psi>| over two packet states, normalized, for
    the pair B+/B- (every family), K+/K- or S+/S- (scaling families)."""
    ctx = LatticeContext(family, grid, window)
    ups = {"B": ctx.b_plus, "K": ctx.k_plus, "S": ctx.s_plus}
    downs = {"B": ctx.b_minus, "K": ctx.k_minus, "S": ctx.s_minus}
    if pair not in ups:
        raise ValueError(f"pair must be one of {sorted(ups)}")
    if pair != "B" and family.q is None:
        raise ValueError(f"the {pair} pair needs a scaling family")
    phi = packet_state(grid, window, x0=-0.5, sigma=1.1)
    psi = packet_state(grid, window, x0=0.4, sigma=0.9, momentum=0.5)
    h = grid.spacing
    lhs = h * np.vdot(phi, ups[pair](psi))
    rhs = h * np.vdot(downs[pair](phi), psi)
    scale = abs(h * np.vdot(phi, psi)) + 1.0
    return float(abs(lhs - rhs) / scale)


def dilation_identity_residual(family: PotentialFamily, grid: Grid,
                               which: str = "yy3") -> float:
    """Residual of the q-deformed factorization identity in pure x-space.

    which = 'yy3':  A A_dag f - q * D A_dag A D^{-1} f = R f, with D the
    unitary dilation by sqrt(q) (so D A D^{-1} realizes A at argument
    sqrt(q) x).  which = 'yy6' uses the dilation-conjugated pair C = A S,
    C_dag = S^{-1} A_dag with the plain substitution S f(x) = f(x / sqrt(q)):
    then C C_dag - q C_dag C = R. The two forms are algebraically the same
    identity, so their residuals should agree to interpolation accuracy.
    A residual that is not finite is refused, naming the identity.
    """
    if family.q is None:
        raise ValueError("dilation identities require a scaling family")
    if which not in ("yy3", "yy6"):
        raise ValueError("which must be 'yy3' or 'yy6'")
    q = family.q
    sq = np.sqrt(q)
    W = eval_W(family, family.a1, grid)
    R = family.R(family.a1)

    # the forms differ only in the dilation: D (unitary) for yy3, S (plain) for yy6,
    # where C C_dag f = A S S^{-1} A_dag f = A A_dag f and C_dag C f = S^{-1} A_dag A S f
    unitary = which == "yy3"

    def residual(f):
        stretched = dilate(f, grid, 1.0 / sq, unitary=unitary)
        conj = dilate(_partner(W, stretched, grid, "lower"), grid, sq, unitary=unitary)
        return _partner(W, f, grid, "raise") - q * conj - R * f

    # support must stay inside the grid after the 1/sqrt(q) argument stretch
    span = min(abs(grid.x_min), abs(grid.x_max)) * sq * 0.6
    probes = [normalized(_packet(grid, x0, 2 * sig ** 2, 0.0), grid)
              for x0, sig in ((0.0, span / 4), (span / 8, span / 5), (-span / 10, span / 4.5))]
    return _worst_interior_residual(f"dilation-{which}", residual, probes, grid)
